"""Reference clopen algebra for the tests.

The package never builds a general clopen set: word towers are decided by
the lazy rank chase and odometer towers hold a residue set.  The tests
still compare those against explicit sets, and this module gives them the
two canonical forms with their Boolean algebra.

Word systems carry clopen sets as sets of center-anchored patterns of one
uniform width 2r+1; combining sets of different widths refines the narrower
one through admissible extensions.  A hard width cap guards the refinement
blow-up: exceeding it raises instead of truncating.

An odometer clopen set is a set of residues modulo a digit-prefix modulus,
and all operations are arithmetic.
"""

DEFAULT_WIDTH_CAP = 64


class WidthCapError(Exception):
    """A refinement would exceed the cylinder-width cap."""


class Clopen:
    """Finite union of width-(2r+1) cylinders of a word system, canonical form."""

    def __init__(self, system, radius, patterns, width_cap=DEFAULT_WIDTH_CAP):
        if 2 * radius + 1 > width_cap:
            raise WidthCapError("width %d exceeds cap %d" % (2 * radius + 1, width_cap))
        self.system = system
        self.radius = radius
        self.patterns = frozenset(patterns)
        self.width_cap = width_cap

    @classmethod
    def from_cylinder(cls, system, offset, pattern, width_cap=DEFAULT_WIDTH_CAP):
        """The cylinder fixing `pattern` starting at coordinate `offset`."""
        lo, hi = offset, offset + len(pattern) - 1
        radius = max(abs(lo), abs(hi))
        return cls(system, radius, _extensions(system, pattern, lo + radius, radius - hi),
                   width_cap=width_cap)

    @classmethod
    def whole_space(cls, system, radius=0, width_cap=DEFAULT_WIDTH_CAP):
        return cls(system, radius, system.words(2 * radius + 1), width_cap=width_cap)

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
        pats = {w for p in self.patterns for w in _extensions(self.system, p, delta, delta)}
        return Clopen(self.system, radius, pats, width_cap=self.width_cap)

    def _common(self, other):
        assert other.system is self.system, "clopen operands bound to different systems"
        r = max(self.radius, other.radius)
        return self.refine(r), other.refine(r)

    def union(self, other):
        a, b = self._common(other)
        return Clopen(self.system, a.radius, a.patterns | b.patterns, width_cap=self.width_cap)

    def intersection(self, other):
        a, b = self._common(other)
        return Clopen(self.system, a.radius, a.patterns & b.patterns, width_cap=self.width_cap)

    def difference(self, other):
        a, b = self._common(other)
        return Clopen(self.system, a.radius, a.patterns - b.patterns, width_cap=self.width_cap)

    def complement(self):
        """Complement within the system, at the same width."""
        universe = frozenset(self.system.words(2 * self.radius + 1))
        return Clopen(self.system, self.radius, universe - self.patterns,
                      width_cap=self.width_cap)

    def shift(self, i):
        """Forward image under T^i, re-anchored to a centered canonical form."""
        if i == 0:
            return self
        radius = self.radius + abs(i)
        if 2 * radius + 1 > self.width_cap:
            raise WidthCapError("shift by %d needs width %d > cap" % (i, 2 * radius + 1))
        pad_left, pad_right = abs(i) - i, abs(i) + i
        pats = {w for p in self.patterns
                for w in _extensions(self.system, p, pad_left, pad_right)}
        return Clopen(self.system, radius, pats, width_cap=self.width_cap)

    def member(self, point, t=0):
        """True when T^t(point) lies in the set."""
        return point.word(t - self.radius, t + self.radius) in self.patterns

    def equals(self, other):
        a, b = self._common(other)
        return a.patterns == b.patterns

    def is_empty(self):
        return not self.patterns


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

    def __init__(self, system, depth, residues):
        mod = system.modulus(depth)
        self.system = system
        self.depth = depth
        self.residues = frozenset(int(r) % mod for r in residues)

    @classmethod
    def digit_cylinder(cls, system, digits):
        """Points whose first len(digits) digits equal the given tuple."""
        return cls(system, len(digits), [system.residue_of_digits(digits)])

    @classmethod
    def whole_space(cls, system, depth=1):
        return cls(system, depth, range(system.modulus(depth)))

    def refine(self, depth):
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise ValueError("can only refine to a deeper prefix")
        mod, new_mod = self.system.modulus(self.depth), self.system.modulus(depth)
        return OdoClopen(self.system, depth,
                         {r + k * mod for r in self.residues for k in range(new_mod // mod)})

    def _common(self, other):
        assert other.system is self.system, "clopen operands bound to different systems"
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
        return OdoClopen(self.system, self.depth, set(range(mod)) - self.residues)

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
