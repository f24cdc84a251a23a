"""Canonical clopen sets and their Boolean algebra.

Word systems carry clopen sets as sets of center-anchored patterns of one
uniform width 2r+1; combining sets of different widths refines the narrower
one through admissible extensions.  A hard width cap guards the refinement
blow-up: exceeding it raises instead of truncating.

The odometer backend is exact at every scale: a clopen set is a set of
residues modulo a digit-prefix modulus, and all operations are arithmetic.
"""

from .errors import EnumerationBudgetError, SpecParseError, WidthCapError

DEFAULT_WIDTH_CAP = 64
REFINE_BUDGET = 2_000_000


class Clopen:
    """Finite union of width-(2r+1) cylinders of a word system, canonical form."""

    backend = "word"

    def __init__(self, system, radius, patterns, width_cap=DEFAULT_WIDTH_CAP, check=True):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if 2 * radius + 1 > width_cap:
            raise WidthCapError("width %d exceeds cap %d" % (2 * radius + 1, width_cap))
        patterns = frozenset(patterns)
        if check:
            w = 2 * radius + 1
            for p in patterns:
                if len(p) != w:
                    raise SpecParseError("pattern %r does not have width %d" % (p, w))
                if not system.is_admissible(p):
                    raise SpecParseError("pattern %r is not admissible" % p)
        self.system = system
        self.radius = radius
        self.patterns = patterns
        self.width_cap = width_cap

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cylinder(cls, system, offset, pattern, width_cap=DEFAULT_WIDTH_CAP):
        """The cylinder fixing `pattern` starting at coordinate `offset`."""
        if not pattern:
            raise SpecParseError("cylinder pattern must be nonempty")
        lo, hi = offset, offset + len(pattern) - 1
        radius = max(abs(lo), abs(hi))
        pats = set()
        for w in _extensions(system, pattern, lo - (-radius), radius - hi):
            pats.add(w)
        return cls(system, radius, pats, width_cap=width_cap, check=False)

    @classmethod
    def whole_space(cls, system, radius=0, width_cap=DEFAULT_WIDTH_CAP):
        return cls(system, radius, system.words(2 * radius + 1),
                   width_cap=width_cap, check=False)

    # -- canonical form ------------------------------------------------------

    def refine(self, radius):
        """Rewrite with a larger uniform radius via admissible extensions."""
        if radius == self.radius:
            return self
        if radius < self.radius:
            raise ValueError("can only refine to a larger radius")
        if 2 * radius + 1 > self.width_cap:
            raise WidthCapError("refining to width %d exceeds cap %d"
                                % (2 * radius + 1, self.width_cap))
        delta = radius - self.radius
        pats = set()
        for p in self.patterns:
            for w in _extensions(self.system, p, delta, delta):
                pats.add(w)
                if len(pats) > REFINE_BUDGET:
                    raise EnumerationBudgetError("refinement exceeds pattern budget")
        return Clopen(self.system, radius, pats, width_cap=self.width_cap, check=False)

    def _common(self, other):
        if other.system is not self.system:
            raise SpecParseError("clopen operands bound to different systems")
        r = max(self.radius, other.radius)
        return self.refine(r), other.refine(r)

    # -- Boolean algebra -----------------------------------------------------

    def union(self, other):
        a, b = self._common(other)
        return Clopen(self.system, a.radius, a.patterns | b.patterns,
                      width_cap=self.width_cap, check=False)

    def intersection(self, other):
        a, b = self._common(other)
        return Clopen(self.system, a.radius, a.patterns & b.patterns,
                      width_cap=self.width_cap, check=False)

    def difference(self, other):
        a, b = self._common(other)
        return Clopen(self.system, a.radius, a.patterns - b.patterns,
                      width_cap=self.width_cap, check=False)

    def complement(self):
        """Complement within the system, at the same width."""
        universe = self.system.words(2 * self.radius + 1)
        if len(universe) > REFINE_BUDGET:
            raise EnumerationBudgetError("universe too large for complement")
        return Clopen(self.system, self.radius,
                      frozenset(universe) - self.patterns,
                      width_cap=self.width_cap, check=False)

    def shift(self, i):
        """Forward image under T^i, re-anchored to a centered canonical form."""
        if i == 0:
            return self
        radius = self.radius + abs(i)
        if 2 * radius + 1 > self.width_cap:
            raise WidthCapError("shift by %d needs width %d > cap" % (i, 2 * radius + 1))
        pad_left = abs(i) - i
        pad_right = abs(i) + i
        pats = set()
        for p in self.patterns:
            for w in _extensions(self.system, p, pad_left, pad_right):
                pats.add(w)
        return Clopen(self.system, radius, pats, width_cap=self.width_cap, check=False)

    # -- predicates ------------------------------------------------------------

    def member(self, point, t=0):
        """True when T^t(point) lies in the set."""
        return point.word(t - self.radius, t + self.radius) in self.patterns

    def equals(self, other):
        a, b = self._common(other)
        return a.patterns == b.patterns

    def is_empty(self):
        return not self.patterns

    def is_subset(self, other):
        a, b = self._common(other)
        return a.patterns <= b.patterns

    def __len__(self):
        return len(self.patterns)

    def __repr__(self):
        return "Clopen(r=%d, %d patterns)" % (self.radius, len(self.patterns))


def _extensions(system, pattern, left, right):
    """Admissible words extending `pattern` by `left`/`right` letters.

    Grows one letter at a time, filtering with the full admissibility test;
    inadmissible branches die early so the cost tracks the output size.
    """
    words = [w for w in [pattern] if system.is_admissible(w)]
    for _ in range(left):
        words = [c + w for w in words for c in system.letters]
        words = [w for w in words if system.is_admissible(w)]
    for _ in range(right):
        words = [w + c for w in words for c in system.letters]
        words = [w for w in words if system.is_admissible(w)]
    return words


class OdoClopen:
    """Clopen set of an odometer: residues modulo a digit-prefix modulus."""

    backend = "odometer"

    def __init__(self, system, depth, residues):
        mod = system.modulus(depth)
        residues = frozenset(int(r) % mod for r in residues)
        self.system = system
        self.depth = depth
        self.residues = residues

    @classmethod
    def digit_cylinder(cls, system, digits):
        """Points whose first len(digits) digits equal the given tuple."""
        d = len(digits)
        return cls(system, d, [system.residue_of_digits(digits)])

    @classmethod
    def whole_space(cls, system, depth=1):
        return cls(system, depth, range(system.modulus(depth)))

    def refine(self, depth):
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise ValueError("can only refine to a deeper prefix")
        mod, new_mod = self.system.modulus(self.depth), self.system.modulus(depth)
        out = {r + k * mod for r in self.residues for k in range(new_mod // mod)}
        return OdoClopen(self.system, depth, out)

    def _common(self, other):
        if other.system is not self.system:
            raise SpecParseError("clopen operands bound to different systems")
        d = max(self.depth, other.depth)
        return self.refine(d), other.refine(d)

    def union(self, other):
        a, b = self._common(other)
        return OdoClopen(self.system, a.depth, a.residues | b.residues)

    def intersection(self, other):
        a, b = self._common(other)
        return OdoClopen(self.system, a.depth, a.residues & b.residues)

    def difference(self, other):
        a, b = self._common(other)
        return OdoClopen(self.system, a.depth, a.residues - b.residues)

    def complement(self):
        mod = self.system.modulus(self.depth)
        return OdoClopen(self.system, self.depth,
                         set(range(mod)) - self.residues)

    def shift(self, i):
        mod = self.system.modulus(self.depth)
        return OdoClopen(self.system, self.depth, {(r + i) % mod for r in self.residues})

    def member(self, point, t=0):
        return point.residue_at(t, self.depth) in self.residues

    def equals(self, other):
        a, b = self._common(other)
        return a.residues == b.residues

    def is_empty(self):
        return not self.residues

    def is_subset(self, other):
        a, b = self._common(other)
        return a.residues <= b.residues

    def __len__(self):
        return len(self.residues)

    def __repr__(self):
        return "OdoClopen(depth=%d, %d residues)" % (self.depth, len(self.residues))


# -- spec-level operation names -----------------------------------------------


def clopen_union(a, b):
    return a.union(b)


def clopen_intersection(a, b):
    return a.intersection(b)


def clopen_difference(a, b):
    return a.difference(b)


def clopen_complement(a):
    return a.complement()


def clopen_shift(a, i):
    return a.shift(i)


def clopen_member(point, a, t=0):
    return a.member(point, t)
