"""Symbolic systems, points and itineraries.

Two kinds of zero-dimensional system are supported:

* ``Sft`` -- subshift of finite type over letters ``0..A-1``, described by a
  forbidden-word list or a 0/1 transition matrix.  Internally presented as a
  graph on (maxlen-1)-blocks, pruned to its essential part, whose transition
  table its word tests step through.  ``orbit_system`` builds the finite
  orbit of one periodic word as an Sft whose essential graph is one cycle.
* ``Odometer`` -- adding machine on a truncated product of cyclic groups.
  Its marker towers are residue sets modulo a digit-prefix modulus, not
  word sets.

Each kind answers for itself what the schedule and the codec ask of it:
``periodic`` (the paper's case split), ``labels``, ``follows``,
``cell_count``, ``conditional_count``, ``word_counts``, ``fix_count`` and
``spectral_log``.  The odometer's answers are the aperiodic case.

Points are finitely described and exactly evaluable everywhere: symbolic
points are eventually periodic on both sides, odometer points are digit
lists (the first D digits of a point are closed under the map).
"""

import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (EmptySubshiftError, EnumerationBudgetError,
                     InvalidPointError, SpecParseError)
from .words import ALPHABET_CHARS, _window_key, periodic_window, primitive_root

WORD_ENUM_BUDGET = 4_000_000


class Sft:
    """Subshift of finite type with a cached essential block-graph presentation."""

    kind = "sft"
    periodic = True     # every nonempty Sft carries periodic points

    def __init__(self, alphabet_size, forbidden=None, matrix=None):
        if alphabet_size < 1 or alphabet_size > len(ALPHABET_CHARS):
            raise SpecParseError("alphabet size out of range: %r" % alphabet_size)
        self.alphabet_size = alphabet_size
        self.letters = ALPHABET_CHARS[:alphabet_size]
        if (forbidden is None) == (matrix is None):
            raise SpecParseError("exactly one of forbidden/matrix must be given")
        self.matrix_input = None
        self.orbit_word = None      # set by orbit_system, to serialize the spec back
        if matrix is not None:
            matrix = [list(map(int, row)) for row in matrix]
            if len(matrix) != alphabet_size or any(len(r) != alphabet_size for r in matrix):
                raise SpecParseError("matrix must be %d x %d" % (alphabet_size, alphabet_size))
            if any(v not in (0, 1) for row in matrix for v in row):
                raise SpecParseError("matrix entries must be 0/1")
            self.matrix_input = matrix
            self.forbidden = tuple(sorted(
                self.letters[i] + self.letters[j]
                for i in range(alphabet_size) for j in range(alphabet_size)
                if not matrix[i][j]))
        else:
            forb = sorted(set(forbidden))
            for w in forb:
                if not w:
                    raise SpecParseError("forbidden words must be nonempty")
                if any(c not in self.letters for c in w):
                    raise SpecParseError("forbidden word %r uses letters outside the alphabet" % w)
            self.forbidden = tuple(forb)
        self._forbidden_set = set(self.forbidden)
        self._forbidden_lengths = sorted({len(w) for w in self.forbidden})
        maxlen = max((len(w) for w in self.forbidden), default=1)
        self.memory = max(1, maxlen - 1)
        self._build_graph()
        self._word_cache = {}
        self._extensions = {}       # end state, or None for any -> counts by length

    # -- graph presentation ------------------------------------------------

    def _clean(self, w):
        """No forbidden factor occurs in w."""
        return not any(w[i:i + L] in self._forbidden_set
                       for L in self._forbidden_lengths for i in range(len(w) - L + 1))

    def _clean_suffix(self, w):
        """No forbidden factor ends at the last letter of w."""
        for L in self._forbidden_lengths:
            if L <= len(w) and w[-L:] in self._forbidden_set:
                return False
        return True

    def _build_graph(self):
        # the clean M-blocks, grown letter by letter from clean prefixes
        states = [""]
        for n in range(1, self.memory + 1):
            if len(states) * self.alphabet_size > WORD_ENUM_BUDGET:
                raise EnumerationBudgetError("block graph too large: %d candidate %d-blocks"
                                             % (len(states) * self.alphabet_size, n))
            states = [w + c for w in states for c in self.letters if self._clean_suffix(w + c)]
        succ = {s: [] for s in states}
        pred = {s: [] for s in states}
        for s in states:
            for c in self.letters:
                t = s[1:] + c
                if t in succ and self._clean_suffix(s + c):
                    succ[s].append(t)
                    pred[t].append(s)
        # essential part: every state on a bi-infinite path
        changed = True
        while changed:
            changed = False
            for s in list(succ):
                if not succ[s] or not pred[s]:
                    for t in succ.pop(s):
                        pred[t].remove(s)
                    for t in pred.pop(s):
                        succ[t].remove(s)
                    changed = True
        if not succ:
            raise EmptySubshiftError("forbidden words admit no bi-infinite sequence")
        self.states = sorted(succ)
        self._succ = {s: sorted(succ[s]) for s in self.states}
        self._pred = {s: sorted(pred[s]) for s in self.states}
        # the transition table: state -> letter -> next state, one entry per edge
        self._step = {s: {t[-1]: t for t in self._succ[s]} for s in self.states}
        self.adjacency = [[int(t in self._succ[s]) for t in self.states] for s in self.states]
        # one successor everywhere: the graph is disjoint cycles, the system finite
        self.finite = all(len(succ) == 1 for succ in self._succ.values())

    # -- cells ----------------------------------------------------------------

    def labels(self, point, t, m, n):
        """The radius-m cells at times t .. t + n - 1: the windows of one slice."""
        return _window_key(point.word(t - m, t + n - 1 + m), m, n)

    def follows(self, a, b):
        """Whether cell b can be the cell after a: the window slides by one letter."""
        return b == a[1:] + b[-1]

    def cell_count(self, m, n):
        """Number of length-n itinerary words of the radius-m partition."""
        return self.count_words(n + 2 * m)

    def word_counts(self, nmax):
        """#W_n for every n <= nmax."""
        return [self.count_words(n) for n in range(nmax + 1)]

    def label_text(self, label):
        """A cell label as printed: the word itself."""
        return label

    def labels_text(self, labels):
        """A list of cell labels as printed on one line."""
        return " ".join(labels)

    # -- word level ---------------------------------------------------------

    def is_admissible(self, w):
        """Whether w is a word of the essential subshift.  Every forbidden word
        fits in M + 1 letters (M the memory), so a word of length >= M is clean
        when each (M + 1)-window is an edge: w[:M] is a state and the table
        steps through the rest.  A shorter word must be a factor of a state."""
        M = self.memory
        if len(w) >= M:
            return w[:M] in self._step and self._walk(w[:M], w[M:]) is not None
        return any(w in s for s in self.states)

    def _walk(self, state, letters):
        """The state reached by reading `letters` from `state`; None if one has no step."""
        step = self._step
        for c in letters:
            state = step[state].get(c)
            if state is None:
                break
        return state

    def words(self, n):
        """All admissible n-words, sorted (explicit enumeration, budget-guarded)."""
        if n in self._word_cache:
            return self._word_cache[n]
        if n == 0:
            out = [""]
        elif n < self.memory:
            out = sorted({s[i:i + n] for s in self.states
                          for i in range(self.memory - n + 1)})
        else:
            cnt = self.count_words(n)
            if cnt > WORD_ENUM_BUDGET:
                raise EnumerationBudgetError("%d admissible %d-words exceed budget" % (cnt, n))
            frontier = list(self.states)
            for _ in range(n - self.memory):
                frontier = [w + t[-1] for w in frontier for t in self._succ[w[-self.memory:]]]
            out = sorted(frontier)
        self._word_cache[n] = out
        return out

    def count_words(self, n, start=None, end=None):
        """Exact number of admissible n-words that start in state `start` and
        end in state `end` (each only when given), from _extension_counts."""
        if n < self.memory:
            return len(self.words(n))
        counts = self._extension_counts(n - self.memory, end)
        return sum(counts.values()) if start is None else counts.get(start, 0)

    def _extension_counts(self, r, end=None):
        """state -> number of admissible (memory + r)-words starting with it,
        counting only those that end in state `end` when one is given."""
        table = self._extensions.get(end)
        if table is None:
            table = self._extensions[end] = [{s: int(end in (None, s)) for s in self.states}]
        while len(table) <= r:
            last = table[-1]
            table.append({s: sum(last[t] for t in self._succ[s]) for s in self.states})
        return table[r]

    def word_rank(self, w, start=None, end=None):
        """Index of w among the sorted admissible words of its length that
        start in state `start` and end in state `end` (each only when given),
        without listing them; None when w is not one of them.  Words shorter
        than the memory span no state and rank in words(len(w))."""
        M = self.memory
        if len(w) < M:
            short = self.words(len(w))
            return short.index(w) if w in short else None
        state = w[:M]
        if state not in self._succ or start not in (None, state):
            return None
        r = len(w) - M
        rank = 0 if start is not None else sum(
            c for s, c in self._extension_counts(r, end).items() if s < state)
        for letter in w[M:]:
            r -= 1
            below = self._extension_counts(r, end)
            nxt = state[1:] + letter
            if nxt not in self._succ[state]:
                return None
            rank += sum(below[t] for t in self._succ[state] if t < nxt)
            state = nxt
        return rank if end in (None, state) else None

    def word_at(self, index, n, start=None, end=None):
        """The n-word at that index in word_rank's order, without listing."""
        M = self.memory
        if n < M:
            return self.words(n)[index]
        r = n - M
        for s in self.states if start is None else [start]:
            c = self._extension_counts(r, end)[s]
            if index < c:
                break
            index -= c
        else:
            raise IndexError("word index out of range")
        w = s
        for _ in range(n - M):
            r -= 1
            below = self._extension_counts(r, end)
            for t in self._succ[w[-M:]]:
                if index < below[t]:
                    break
                index -= below[t]
            w += t[-1]
        return w

    def fix_count(self, n):
        """Number of points fixed by the n-th shift power, tr A^n: the closed
        paths of length n, each a (memory + n)-word from a state to itself."""
        return sum(self._extension_counts(n, s)[s] for s in self.states)

    def spectral_log(self):
        eig = np.linalg.eigvals(np.array(self.adjacency, dtype=float))
        lam = max(abs(eig))
        return float(np.log(lam)) if lam > 0 else float("-inf")

    def conditional_count(self, m, mp, n):
        """Max over admissible (n + 2m)-words of their (mp - m)-letter
        two-sided extensions: the paths into a word's first state times the
        paths out of its last, over the state pairs such a word joins."""
        M, states = self.memory, self.states
        into = {s: self.count_words(M + mp - m, end=s) for s in states}
        out = {s: self.count_words(M + mp - m, start=s) for s in states}
        r = max(n + 2 * m - M, 0)
        return max(into[s] * out[t] for t in states
                   for s, joins in self._extension_counts(r, t).items() if joins)

    def is_cyclic_word(self, w):
        """True when the bi-infinite repetition of w is admissible: every
        forbidden word and state fits in memory + 1 letters, so each window of
        the repetition is a factor of one period followed by memory more."""
        return self.is_admissible(periodic_window(w, 0, len(w) - 1 + self.memory))

    def point_through(self, word, anchor):
        """An eventually periodic point with the admissible `word` at `anchor`.

        Both tails are grown deterministically (first graph successor or
        predecessor) until an M-block repeats; the repeated stretch becomes the
        tail period, so the result is admissible by construction.
        """
        M = self.memory
        if len(word) < M:
            for s in self.states:
                i = s.find(word)
                if i >= 0:
                    anchor -= i
                    word = s
                    break
        seen = {}
        ext = word
        while ext[-M:] not in seen:
            seen[ext[-M:]] = len(ext)
            ext = ext + self._succ[ext[-M:]][0][-1]
        first = seen[ext[-M:]]
        right_period = ext[first:]
        core_right = ext[len(word):first]
        seen = {}
        ext2 = word
        while ext2[:M] not in seen:
            seen[ext2[:M]] = len(ext2)
            ext2 = self._pred[ext2[:M]][0][0] + ext2
        first2 = seen[ext2[:M]]
        cyc = len(ext2) - first2
        left_period = ext2[:cyc]
        core_left = ext2[cyc:len(ext2) - len(word)]
        core = core_left + word + core_right
        return Point(left_period, core, right_period, anchor - len(core_left))


def orbit_system(alphabet_size, word):
    """The orbit closure of one periodic word, as the Sft that forbids the
    minimal words off the orbit of the word's primitive root: the letters
    not in it, and each a u b whose a u and u b are factors of the orbit but
    a u b is not.  With L the least length whose (L - 1)-windows of the
    orbit are distinct, a u of length L - 1 occurs once, so no such word is
    longer than L, and a u of length L - 2 occurring twice makes one of
    length L: the essential graph is one cycle through the (L - 1)-windows,
    built without listing A^L words.  The root is kept as `orbit_word` to
    serialize the system back as an orbit spec."""
    if alphabet_size < 1 or alphabet_size > len(ALPHABET_CHARS):
        raise SpecParseError("alphabet size out of range")
    letters = ALPHABET_CHARS[:alphabet_size]
    if not word or any(c not in letters for c in word):
        raise SpecParseError("orbit word must be a nonempty word over the alphabet")
    root = primitive_root(word)
    p = len(root)
    L = next(L for L in range(1, p + 2)
             if len({periodic_window(root, j, j + L - 2) for j in range(p)}) == p)
    factors = [{periodic_window(root, j, j + n - 1) for j in range(p)} for n in range(L + 1)]
    forbidden = [c for c in letters if c not in factors[1]]
    for n in range(L - 1):
        before, after = {}, {}
        for w in factors[n + 1]:
            before.setdefault(w[1:], []).append(w[0])
            after.setdefault(w[:-1], []).append(w[-1])
        forbidden += [a + u + b for u in factors[n] for a in before[u] for b in after[u]
                      if a + u + b not in factors[n + 2]]
    system = Sft(alphabet_size, forbidden=forbidden)
    system.orbit_word = root
    return system


class Odometer:
    """Adding machine with carry on Z_{p_1} x ... x Z_{p_D} (truncation depth D).

    The induced action on the first D digits is exact: adding one never
    propagates information downward, so depth-D digit lists are closed
    under the map and every digit-prefix query is computable.  The system
    models the infinite odometer and is treated as aperiodic: it has no
    words, no periodic points and entropy 0, and cell counts bounded in n.
    """

    kind = "odometer"
    periodic = False

    def __init__(self, base):
        base = list(map(int, base))
        if not base or any(p < 2 for p in base):
            raise SpecParseError("odometer base entries must be >= 2")
        self.base = tuple(base)
        self.depth = len(base)
        self.moduli = []
        m = 1
        for p in base:
            m *= p
            self.moduli.append(m)
        self._cells = {}        # depth -> cell table, at most `depth` entries
        self._residues = {}     # depth -> {cell: its residue}, beside each table

    def modulus(self, d):
        if d < 1 or d > self.depth:
            raise SpecParseError("odometer depth %d out of range" % d)
        return self.moduli[d - 1]

    def digits_of_residue(self, residue, d):
        out = []
        for p in self.base[:d]:
            residue, r = divmod(residue, p)
            out.append(r)
        return tuple(out)

    def cell_table(self, d):
        """The depth-d digit tuple of every residue below modulus(d)."""
        table = self._cells.get(d)
        if table is None:
            table = self._cells[d] = tuple(self.digits_of_residue(r, d)
                                           for r in range(self.modulus(d)))
            self._residues[d] = {cell: r for r, cell in enumerate(table)}
        return table

    def cell_run(self, residue, d, n):
        """Depth-d cells of n consecutive times from a residue: the orbit
        steps r, r + 1, ... mod modulus(d), so the run is the cell table
        read cyclically."""
        table = self.cell_table(d)
        mod = len(table)
        residue %= mod
        out = table[residue:residue + n]
        if len(out) < n:
            wraps, rest = divmod(n - len(out), mod)
            out += table * wraps + table[:rest]
        return out

    def labels(self, point, t, m, n):
        """The radius-m cells (m + 1 digits) at times t .. t + n - 1: one cell run."""
        return self.cell_run(point.residue_at(t, m + 1), m + 1, n)

    def follows(self, a, b):
        """Whether cell b can be the cell after a: the orbit adds one to a's
        residue mod the cell modulus."""
        table = self.cell_table(len(a))
        return b == table[(self._residues[len(a)][a] + 1) % len(table)]

    def cell_count(self, m, n):
        """A radius-m cell run is fixed by its first cell, whatever n."""
        return self.modulus(m + 1)

    def conditional_count(self, m, mp, n):
        return self.modulus(mp + 1) // self.modulus(m + 1)

    def word_counts(self, nmax):
        return []

    def fix_count(self, n):
        return 0

    def spectral_log(self):
        return 0.0

    def label_text(self, label):
        """A cell label as printed: its digits joined by dots."""
        return ".".join(map(str, label))

    def labels_text(self, labels):
        """A list of cell labels as printed on one line."""
        return " ".join(map(self.label_text, labels))

    def residue_of_digits(self, digits):
        res = 0
        mult = 1
        for d, p in zip(digits, self.base):
            if not 0 <= d < p:
                raise InvalidPointError("digit %r out of range for base %d" % (d, p))
            res += d * mult
            mult *= p
        return res


class Point:
    """Bi-infinite symbolic point, eventually periodic on both sides.

    Coordinate i is core[i - anchor] inside the core window, the right
    period repeated beyond it, and the left period repeated before it.
    """

    def __init__(self, left, core, right, anchor=0):
        if not left or not right:
            raise InvalidPointError("left and right periods must be nonempty")
        self.left = left
        self.core = core
        self.right = right
        self.anchor = anchor

    def letter(self, i):
        rel = i - self.anchor
        if 0 <= rel < len(self.core):
            return self.core[rel]
        if rel >= len(self.core):
            return self.right[(rel - len(self.core)) % len(self.right)]
        return self.left[rel % len(self.left)]

    def word(self, a, b):
        """Letters a..b inclusive, as slices of the left tail, the core and
        the right tail."""
        c0 = self.anchor
        c1 = c0 + len(self.core)
        parts = []
        if a < c0:
            parts.append(periodic_window(self.left, a - c0, min(b, c0 - 1) - c0))
        if a < c1 and b >= c0:
            parts.append(self.core[max(a, c0) - c0: min(b + 1, c1) - c0])
        if b >= c1:
            parts.append(periodic_window(self.right, max(a, c1) - c1, b - c1))
        return "".join(parts)

    def shifted(self, k):
        """T^k of this point (T is the left shift)."""
        return Point(self.left, self.core, self.right, self.anchor - k)

    def core_span(self):
        return (self.anchor, self.anchor + len(self.core))

    def __eq__(self, other):
        """Exact equality: agreement on one lcm window of the tails propagates."""
        if not isinstance(other, Point):
            return NotImplemented
        a = min(self.anchor, other.anchor)
        b = max(self.anchor + len(self.core), other.anchor + len(other.core))
        lo = a - math.lcm(len(self.left), len(other.left)) - 1
        hi = b + math.lcm(len(self.right), len(other.right)) + 1
        return self.word(lo, hi) == other.word(lo, hi)

    def __repr__(self):
        return "Point(%r, %r@%d, %r)" % (self.left, self.core, self.anchor, self.right)


class OdometerPoint:
    def __init__(self, system, digits):
        digits = tuple(int(d) for d in digits)
        if len(digits) != system.depth:
            raise InvalidPointError("expected %d digits, got %d" % (system.depth, len(digits)))
        self.system = system
        self.digits = digits
        self.residue = system.residue_of_digits(digits)

    def residue_at(self, t, d):
        """Residue of T^t(point) modulo the depth-d modulus."""
        return (self.residue + t) % self.system.modulus(d)

    def shifted(self, k):
        res = (self.residue + k) % self.system.moduli[-1]
        return OdometerPoint(self.system, self.system.digits_of_residue(res, self.system.depth))

    def __repr__(self):
        return "OdometerPoint(%r)" % (self.digits,)


# -- validation --------------------------------------------------------------


def validate_point(system, point):
    """Raise InvalidPointError unless the point is admissible for the system."""
    if isinstance(point, OdometerPoint):
        if system.kind != "odometer" or point.system is not system:
            raise InvalidPointError("odometer point bound to a different system")
        return
    if not isinstance(system, Sft):
        raise InvalidPointError("word point supplied for a non-word system")
    for w, side in ((point.left, "left"), (point.right, "right")):
        if any(c not in system.letters for c in w):
            raise InvalidPointError("%s period uses letters outside the alphabet" % side)
        if not system.is_cyclic_word(w):
            raise InvalidPointError("%s period %r is not cyclically admissible" % (side, w))
    if any(c not in system.letters for c in point.core):
        raise InvalidPointError("core uses letters outside the alphabet")
    pad = max(len(point.left), len(point.right)) + max(
        (len(w) for w in system.forbidden), default=1) + 1
    a, b = point.core_span()
    window = point.word(a - pad, b + pad)
    if not system._clean(window):
        raise InvalidPointError("point window %r hits a forbidden word" % window)
    if not system.is_admissible(window):
        raise InvalidPointError("point window %r leaves the essential subshift" % window)


# -- spec-level operations ----------------------------------------------------


def coordinate(point, i):
    """Letter of a symbolic point at coordinate i."""
    if isinstance(point, OdometerPoint):
        raise InvalidPointError("odometer points have digits, not letters; use itinerary")
    return point.letter(i)


def cell_label(system, point, t, m):
    """Label of the radius-m partition cell containing T^t(point).

    Word systems: the word x_{t-m} .. x_{t+m}.  Odometer: the first m+1
    digits of T^t(point) as a tuple.
    """
    return system.labels(point, t, m, 1)[0]


def itinerary(system, point, m, window):
    """Cell labels of T^t(point) for t in the inclusive window (a, b)."""
    a, b = window
    if b < a:
        raise ValueError("empty window")
    return list(system.labels(point, a, m, b - a + 1))


def product_coding(system, point, radii, window):
    """Per-time tuples of cell labels across several partition radii."""
    if not radii:
        raise ValueError("need at least one radius")
    a, b = window
    return [tuple(cell_label(system, point, t, m) for m in radii)
            for t in range(a, b + 1)]


def enumerate_words(system, n):
    """Admissible n-words of a word system, sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return system.words(n)


def enumerate_periodic(system, n):
    """(points of least period exactly n, number of points fixed by sigma^n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not system.periodic:
        return [], 0
    points = [Point(w, w, w, 0) for w in least_period_words(system, n)]
    return points, system.fix_count(n)


def least_period_words(system, n):
    """Words of length n whose bi-infinite repetition has least period
    exactly n, sorted: the rotations of the period-n orbits that
    periodic_orbits generates."""
    return sorted(v[i:] + v[:i] for v, p in periodic_orbits(system, n).items()
                  if p == n for i in range(n))


def periodic_orbits(system, nmax):
    """necklace -> least period, for every orbit of least period <= nmax,
    ordered by period and then by necklace.

    The orbits are generated, not filtered from words, but the call is still
    refused up front when the nmax-words alone exceed WORD_ENUM_BUDGET, the
    refusal a walk over words(1..nmax) would raise: every word of an
    essential graph extends, so count_words is nondecreasing and no shorter
    length can hit the budget first.
    """
    count = system.count_words(nmax)
    if count > WORD_ENUM_BUDGET:
        raise EnumerationBudgetError(
            "orbits of period <= %d need the %d admissible %d-words, over "
            "WORD_ENUM_BUDGET = %d" % (nmax, count, nmax, WORD_ENUM_BUDGET))
    table = _lyndon_orbits(system, nmax)
    return dict(sorted(table.items(), key=lambda kv: (kv[1], kv[0])))


def _lyndon_orbits(system, nmax):
    """Every cyclically admissible Lyndon word of an Sft of length <= nmax,
    mapped to its length.

    Walks the prenecklace tree of Fredricksen-Kessler-Maiorana: a node of
    length t whose FKM period p equals t is a Lyndon word, and every Lyndon
    word of length <= nmax is a node exactly once.  A Lyndon word is its own
    least rotation, so it is the necklace of its orbit.  A child is kept
    only while the prefix is a path of the essential graph; that pruning is
    exact, because every prefix of a cyclically admissible word is one.

    Every forbidden word fits in M + 1 letters (M the memory), so a prefix
    is a path when its (M + 1)-windows are edges.  A node of length >= M
    carries its end state, and its children are that state's steps in the
    transition table; a Lyndon node of length t > M closes when its first
    M letters continue its end state through the table.  Shorter nodes
    wrap around more than once and take is_cyclic_word.
    """
    M = system.memory
    step = system._step
    table = {}

    def grow(word, p, state):
        t = len(word)
        if t and p == t and (system._walk(state, word[:M]) is not None if t > M
                             else system.is_cyclic_word(word)):
            table[word] = t
        if t == nmax:
            return
        # below the memory a child is its own state-to-be
        kids = step[state] if t >= M else {
            c: word + c for c in system.letters
            if (word + c in step if t + 1 == M else system._clean_suffix(word + c))}
        # FKM: the next letter repeats word[t - p] (period kept) or exceeds it
        # (the prefix becomes Lyndon); the root takes every letter at period 1
        low = word[t - p] if t else ""
        for c, nxt in kids.items():
            if c >= low:
                grow(word + c, p if c == low else t + 1, nxt)

    grow("", 0, None)
    return table


# -- parsing / serialization --------------------------------------------------


def _parse_kv(text, what):
    """The (key, value) pairs of a document named `what`, in order: one
    'key: value' per line, '#' starting a comment, blank lines skipped."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecParseError("%s line %d: expected 'key: value'" % (what, lineno))
        key, value = line.split(":", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_int(value, what):
    try:
        return int(value)
    except ValueError:
        raise SpecParseError("%s must be an integer, not %r" % (what, value)) from None


def _parse_finite(value, what):
    """A finite decimal number; inf and nan are refused."""
    try:
        x = float(value)
    except ValueError:
        x = math.nan        # refused below
    if not math.isfinite(x):
        raise SpecParseError("%s must be a finite number, not %r" % (what, value))
    return x


def _parse_list(value, what):
    """The items of a list '[a, b, ...]'.  An item may be a list itself: a
    comma inside it is followed by its ']' before any '[', so it does not
    split."""
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise SpecParseError("%s must be a [..] list, not %r" % (what, value))
    inner = value[1:-1].strip()
    return [item.strip() for item in re.split(r",(?![^[]*\])", inner)] if inner else []


def _parse_window(value, what):
    """An inclusive window 'a:b' of integers a <= b."""
    try:
        a, b = map(int, value.split(":"))
    except ValueError:
        a, b = 1, 0         # refused below
    if a > b:
        raise SpecParseError("%s must be a:b with integers a <= b, not %r" % (what, value))
    return a, b


def _parse_fraction(value, what):
    """An exact rational 'p/q' of integers, q > 0."""
    try:
        p, q = map(int, value.split("/"))
    except ValueError:
        q = 0               # refused below
    if q <= 0:
        raise SpecParseError("%s must be p/q with integers p and q > 0, not %r" % (what, value))
    return Fraction(p, q)


def parse_system(text):
    """Parse a system spec document.

    Grammar (one 'key: value' per line, '#' comments allowed)::

        kind: sft | odometer | orbit
        alphabet: <int>                  (sft, orbit)
        forbidden: [w1, w2, ...]         (sft, exclusive with matrix)
        matrix: [[0/1,...],...]          (sft, exclusive with forbidden)
        base: [p1, p2, ...]              (odometer)
        word: <word>                     (orbit)
    """
    kv = dict(_parse_kv(text, "system spec"))
    kind = kv.get("kind")
    needs = {"sft": ("alphabet",), "odometer": ("base",), "orbit": ("alphabet", "word")}
    if kind not in needs:
        raise SpecParseError("unknown kind %r" % kind)
    for key in needs[kind]:
        if key not in kv:
            raise SpecParseError("%s spec needs '%s'" % (kind, key))
    if kind == "odometer":
        return Odometer([_parse_int(v, "base entry") for v in _parse_list(kv["base"], "base")])
    A = _parse_int(kv["alphabet"], "alphabet")
    if kind == "orbit":
        return orbit_system(A, kv["word"])
    if "matrix" in kv:
        rows = [_parse_list(row, "matrix row") for row in _parse_list(kv["matrix"], "matrix")]
        return Sft(A, matrix=[[_parse_int(v, "matrix entry") for v in row] for row in rows])
    if "forbidden" in kv:
        return Sft(A, forbidden=_parse_list(kv["forbidden"], "forbidden"))
    raise SpecParseError("sft spec needs 'forbidden' or 'matrix'")


def serialize_system(system):
    """Canonical text form; parse(serialize(s)) reproduces s bit-exactly."""
    if system.kind == "odometer":
        return "kind: odometer\nbase: [%s]\n" % ", ".join(str(p) for p in system.base)
    if system.orbit_word is not None:
        return "kind: orbit\nalphabet: %d\nword: %s\n" % (system.alphabet_size,
                                                           system.orbit_word)
    if system.matrix_input is not None:
        rows = "],[".join(",".join(str(v) for v in row) for row in system.matrix_input)
        return "kind: sft\nalphabet: %d\nmatrix: [[%s]]\n" % (system.alphabet_size, rows)
    return "kind: sft\nalphabet: %d\nforbidden: [%s]\n" % (
        system.alphabet_size, ", ".join(system.forbidden))


def parse_point(text, system):
    """Parse a point spec.

    Symbolic points::

        left: <word>
        core: <word>@<anchor>        (core may be empty: '@<anchor>')
        right: <word>

    Odometer points::

        digits: [d1, d2, ...]
    """
    kv = dict(_parse_kv(text, "point spec"))
    if "digits" in kv:
        if system.kind != "odometer":
            raise SpecParseError("digits given for a word system")
        return OdometerPoint(system, [_parse_int(v, "digit")
                                      for v in _parse_list(kv["digits"], "digits")])
    for key in ("left", "core", "right"):
        if key not in kv:
            raise SpecParseError("point spec needs '%s'" % key)
    if "@" not in kv["core"]:
        raise SpecParseError("core must be '<word>@<anchor>'")
    core, anchor = kv["core"].rsplit("@", 1)
    point = Point(kv["left"], core, kv["right"], _parse_int(anchor, "core anchor"))
    validate_point(system, point)
    return point


def serialize_point(point):
    if isinstance(point, OdometerPoint):
        return "digits: [%s]\n" % ", ".join(str(d) for d in point.digits)
    return "left: %s\ncore: %s@%d\nright: %s\n" % (
        point.left, point.core, point.anchor, point.right)


# -- canned systems used throughout tests and demos ---------------------------


@lru_cache(maxsize=None)
def golden_mean():
    return Sft(2, forbidden=("11",))


@lru_cache(maxsize=None)
def full_shift(A=2):
    return Sft(A, forbidden=())


@lru_cache(maxsize=None)
def dyadic_odometer(depth=8):
    return Odometer([2] * depth)
