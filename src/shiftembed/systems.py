"""Symbolic systems, points and itineraries.

Three kinds of zero-dimensional system are supported:

* ``Sft`` -- subshift of finite type over letters ``0..A-1``, described by a
  forbidden-word list or a 0/1 transition matrix.  Internally presented as a
  graph on (maxlen-1)-blocks, pruned to its essential part.
* ``OrbitSystem`` -- the finite orbit of one periodic word.
* ``Odometer`` -- adding machine on a truncated product of cyclic groups.
  Clopen structure lives on digit prefixes (residues), not on words.

Points are finitely described and exactly evaluable everywhere: symbolic
points are eventually periodic on both sides, odometer points are digit
lists (the first D digits of a point are closed under the map).
"""

import itertools
from functools import lru_cache

import numpy as np

from .errors import (EmptySubshiftError, EnumerationBudgetError,
                     InvalidPointError, SpecParseError)
from .words import (ALPHABET_CHARS, is_primitive, min_period, necklace,
                    periodic_window, primitive_root)

WORD_ENUM_BUDGET = 4_000_000


def _matmul_int(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            if ai[k]:
                bk = b[k]
                f = ai[k]
                for j in range(p):
                    oi[j] += f * bk[j]
    return out


def matpow_int(mat, n):
    """Exact integer power of a square matrix (list of lists)."""
    size = len(mat)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [row[:] for row in mat]
    while n:
        if n & 1:
            result = _matmul_int(result, base)
        base = _matmul_int(base, base)
        n >>= 1
    return result


class Sft:
    """Subshift of finite type with a cached essential block-graph presentation."""

    kind = "sft"
    is_word_system = True

    def __init__(self, alphabet_size, forbidden=None, matrix=None):
        if alphabet_size < 1 or alphabet_size > len(ALPHABET_CHARS):
            raise SpecParseError("alphabet size out of range: %r" % alphabet_size)
        self.alphabet_size = alphabet_size
        self.letters = ALPHABET_CHARS[:alphabet_size]
        if (forbidden is None) == (matrix is None):
            raise SpecParseError("exactly one of forbidden/matrix must be given")
        self.matrix_input = None
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
        self._extensions = [{s: 1 for s in self.states}]

    # -- graph presentation ------------------------------------------------

    def _clean(self, w):
        """No forbidden factor occurs in w."""
        for L in self._forbidden_lengths:
            if L > len(w):
                break
            for i in range(len(w) - L + 1):
                if w[i:i + L] in self._forbidden_set:
                    return False
        return True

    def _clean_suffix(self, w):
        """No forbidden factor ends at the last letter of w."""
        for L in self._forbidden_lengths:
            if L <= len(w) and w[-L:] in self._forbidden_set:
                return False
        return True

    def _build_graph(self):
        M = self.memory
        if self.alphabet_size ** M > WORD_ENUM_BUDGET:
            raise EnumerationBudgetError("block graph too large: A^M = %d" %
                                         self.alphabet_size ** M)
        states = ["".join(t) for t in itertools.product(self.letters, repeat=M)]
        states = [s for s in states if self._clean(s)]
        succ = {s: [] for s in states}
        pred = {s: [] for s in states}
        state_set = set(states)
        for s in states:
            for c in self.letters:
                t = s[1:] + c
                if t in state_set and self._clean_suffix(s + c):
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
        idx = {s: i for i, s in enumerate(self.states)}
        self._state_index = idx
        self.adjacency = [[0] * len(self.states) for _ in self.states]
        for s in self.states:
            for t in self._succ[s]:
                self.adjacency[idx[s]][idx[t]] = 1

    # -- word level ---------------------------------------------------------

    def is_admissible(self, w):
        M = self.memory
        if len(w) >= M:
            if any(w[i:i + M] not in self._state_index for i in range(len(w) - M + 1)):
                return False
            return self._clean(w)
        return any(w in s[i:i + len(w)] or s[i:i + len(w)] == w
                   for s in self.states for i in range(M - len(w) + 1))

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

    def count_words(self, n):
        """Exact number of admissible n-words via the transfer matrix."""
        if n == 0:
            return 1
        if n < self.memory:
            return len(self.words(n))
        power = matpow_int(self.adjacency, n - self.memory)
        return sum(sum(row) for row in power)

    def _extension_counts(self, r):
        """state -> number of admissible (memory + r)-words starting with it."""
        ext = self._extensions
        while len(ext) <= r:
            last = ext[-1]
            ext.append({s: sum(last[t] for t in self._succ[s]) for s in self.states})
        return ext[r]

    def word_rank(self, w):
        """Index of w in words(len(w)), without listing them; None when w is
        not admissible.  Only for len(w) >= memory."""
        M = self.memory
        if len(w) < M or w[:M] not in self._succ:
            return None
        r = len(w) - M
        rank = sum(c for s, c in self._extension_counts(r).items() if s < w[:M])
        state = w[:M]
        for i in range(M, len(w)):
            r -= 1
            below = self._extension_counts(r)
            nxt = None
            for t in self._succ[state]:        # sorted, so by last letter
                if t[-1] == w[i]:
                    nxt = t
                    break
                if t[-1] > w[i]:
                    break
                rank += below[t]
            if nxt is None:
                return None
            state = nxt
        return rank

    def word_at(self, index, n):
        """words(n)[index], without listing them.  Only for n >= memory."""
        M = self.memory
        r = n - M
        for s in self.states:
            c = self._extension_counts(r)[s]
            if index < c:
                break
            index -= c
        else:
            raise IndexError("word index out of range")
        w = s
        for _ in range(n - M):
            r -= 1
            below = self._extension_counts(r)
            for t in self._succ[w[-M:]]:
                if index < below[t]:
                    break
                index -= below[t]
            w += t[-1]
        return w

    def fix_count(self, n):
        """Number of points fixed by the n-th shift power: trace of the matrix power."""
        power = matpow_int(self.adjacency, n)
        return sum(power[i][i] for i in range(len(power)))

    def spectral_log(self):
        eig = np.linalg.eigvals(np.array(self.adjacency, dtype=float))
        lam = max(abs(eig))
        return float(np.log(lam)) if lam > 0 else float("-inf")

    def is_cyclic_word(self, w):
        """True when the bi-infinite repetition of w is admissible."""
        reps = max(2, -(-max(self._forbidden_lengths, default=1) // len(w)) + 1)
        doubled = w * reps
        for L in self._forbidden_lengths:
            for i in range(len(w)):
                if i + L <= len(doubled) and doubled[i:i + L] in self._forbidden_set:
                    return False
        # every window must also sit inside the essential graph
        M = self.memory
        ext = w * max(2, -(-M // len(w)) + 1)
        return all(ext[i:i + M] in self._state_index for i in range(len(w)))

    def least_period_words(self, n):
        """Words w of length n whose bi-infinite repetition has least period exactly n.

        A proper power u^k always shows a border period dividing n, so the
        primitivity test on the word itself is exact.
        """
        return [w for w in self.words(n)
                if self.is_cyclic_word(w) and is_primitive(w)]


class OrbitSystem:
    """The orbit closure of a single periodic word: a finite cyclic system."""

    kind = "orbit"
    is_word_system = True

    def __init__(self, alphabet_size, word):
        if alphabet_size < 1 or alphabet_size > len(ALPHABET_CHARS):
            raise SpecParseError("alphabet size out of range")
        self.alphabet_size = alphabet_size
        self.letters = ALPHABET_CHARS[:alphabet_size]
        if not word or any(c not in self.letters for c in word):
            raise SpecParseError("orbit word must be a nonempty word over the alphabet")
        self.word = primitive_root(word)
        self.period = len(self.word)
        self.forbidden = ()
        self.memory = 1
        self._word_cache = {}

    def words(self, n):
        if n == 0:
            return [""]
        if n not in self._word_cache:
            self._word_cache[n] = sorted({periodic_window(self.word, j, j + n - 1)
                                          for j in range(self.period)})
        return self._word_cache[n]

    def count_words(self, n):
        return len(self.words(n))

    def fix_count(self, n):
        return self.period if n % self.period == 0 else 0

    def spectral_log(self):
        return 0.0

    def is_admissible(self, w):
        return w in self.words(len(w)) if w else True

    def is_cyclic_word(self, w):
        p = min_period(w)
        root = w[:p] if len(w) % p == 0 else w
        return len(root) == self.period and root in (
            self.word[i:] + self.word[:i] for i in range(self.period))

    def least_period_words(self, n):
        if n != self.period:
            return []
        return sorted(self.word[i:] + self.word[:i] for i in range(self.period))


class Odometer:
    """Adding machine with carry on Z_{p_1} x ... x Z_{p_D} (truncation depth D).

    The induced action on the first D digits is exact: adding one never
    propagates information downward, so depth-D digit lists are closed
    under the map and every digit-prefix query is computable.  The system
    models the infinite odometer and is treated as aperiodic.
    """

    kind = "odometer"
    is_word_system = False

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

    def residue_of_digits(self, digits):
        res = 0
        mult = 1
        for d, p in zip(digits, self.base):
            if not 0 <= d < p:
                raise InvalidPointError("digit %r out of range for base %d" % (d, p))
            res += d * mult
            mult *= p
        return res

    def fix_count(self, n):
        return 0

    def spectral_log(self):
        return 0.0


class Point:
    """Bi-infinite symbolic point, eventually periodic on both sides.

    Coordinate i is core[i - anchor] inside the core window, the right
    period repeated beyond it, and the left period repeated before it.
    """

    is_word_point = True

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
        """Letters a..b inclusive."""
        return "".join(self.letter(i) for i in range(a, b + 1))

    def shifted(self, k):
        """T^k of this point (T is the left shift)."""
        return Point(self.left, self.core, self.right, self.anchor - k)

    def core_span(self):
        return (self.anchor, self.anchor + len(self.core))

    def tail_periods(self):
        return (len(self.left), len(self.right))

    def __eq__(self, other):
        """Exact equality: agreement on one lcm window of the tails propagates."""
        if not isinstance(other, Point):
            return NotImplemented
        from math import lcm
        a = min(self.anchor, other.anchor)
        b = max(self.anchor + len(self.core), other.anchor + len(other.core))
        lo = a - lcm(len(self.left), len(other.left)) - 1
        hi = b + lcm(len(self.right), len(other.right)) + 1
        return self.word(lo, hi) == other.word(lo, hi)

    def __repr__(self):
        return "Point(%r, %r@%d, %r)" % (self.left, self.core, self.anchor, self.right)


class OdometerPoint:
    is_word_point = False

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

    def cell(self, t, d):
        return self.system.digits_of_residue(self.residue_at(t, d), d)

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
    if not system.is_word_system:
        raise InvalidPointError("word point supplied for a non-word system")
    for w, side in ((point.left, "left"), (point.right, "right")):
        if any(c not in system.letters for c in w):
            raise InvalidPointError("%s period uses letters outside the alphabet" % side)
        if not system.is_cyclic_word(w) and system.kind == "sft":
            raise InvalidPointError("%s period %r is not cyclically admissible" % (side, w))
    if any(c not in system.letters for c in point.core):
        raise InvalidPointError("core uses letters outside the alphabet")
    pad = max(len(point.left), len(point.right)) + max(
        (len(w) for w in system.forbidden), default=1) + 1
    a, b = point.core_span()
    window = point.word(a - pad, b + pad)
    if system.kind == "sft":
        if not system._clean(window):
            raise InvalidPointError("point window %r hits a forbidden word" % window)
        if not system.is_admissible(window):
            raise InvalidPointError("point window %r leaves the essential subshift" % window)
    else:
        # Orbit system: the point must match some phase of the orbit word on a
        # window wide enough that tail periodicity propagates the agreement.
        from math import lcm
        p = system.period
        lo = a - lcm(p, len(point.left)) - 1
        hi = b + lcm(p, len(point.right)) + 1
        ok = any(all(point.letter(i) == system.word[(i + phase) % p]
                     for i in range(lo, hi + 1))
                 for phase in range(p))
        if not ok:
            raise InvalidPointError("point is not on the finite orbit")


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
    if system.is_word_system:
        return point.word(t - m, t + m)
    return point.cell(t, m + 1)


def itinerary(system, point, m, window):
    """Cell labels of T^t(point) for t in the inclusive window (a, b)."""
    a, b = window
    if b < a:
        raise ValueError("empty window")
    return [cell_label(system, point, t, m) for t in range(a, b + 1)]


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
    if not system.is_word_system:
        return [], 0
    points = [Point(w, w, w, 0) for w in system.least_period_words(n)]
    return points, system.fix_count(n)


def periodic_orbits(system, nmax):
    """necklace -> least period, for every orbit of least period <= nmax.

    The enumeration walks words(1..nmax), so it is refused up front, before
    any word is listed, when the nmax-words alone exceed WORD_ENUM_BUDGET.
    That is the same refusal words(nmax) would raise at the end of the walk:
    every word of an essential graph extends, so count_words is
    nondecreasing and no shorter length can hit the budget first.
    """
    count = system.count_words(nmax)
    if count > WORD_ENUM_BUDGET:
        raise EnumerationBudgetError(
            "orbits of period <= %d need the %d admissible %d-words, over "
            "WORD_ENUM_BUDGET = %d" % (nmax, count, nmax, WORD_ENUM_BUDGET))
    table = {}
    for n in range(1, nmax + 1):
        for w in system.least_period_words(n):
            table.setdefault(necklace(w), n)
    return table


# -- parsing / serialization --------------------------------------------------


def _parse_kv(text):
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecParseError("line %d: expected 'key: value'" % lineno)
        key, value = line.split(":", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_list(value, what):
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise SpecParseError("%s must be a [..] list" % what)
    inner = value[1:-1].strip()
    if not inner:
        return []
    return [item.strip() for item in inner.split(",")]


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
    kv = dict(_parse_kv(text))
    kind = kv.get("kind")
    if kind == "sft":
        if "alphabet" not in kv:
            raise SpecParseError("sft spec needs 'alphabet'")
        A = int(kv["alphabet"])
        if "matrix" in kv:
            rows = kv["matrix"].strip()
            if not (rows.startswith("[[") and rows.endswith("]]")):
                raise SpecParseError("matrix must look like [[0,1],[1,0]]")
            body = rows[2:-2]
            matrix = [[int(v) for v in row.split(",")] for row in body.split("],[")]
            return Sft(A, matrix=matrix)
        if "forbidden" in kv:
            return Sft(A, forbidden=_parse_list(kv["forbidden"], "forbidden"))
        raise SpecParseError("sft spec needs 'forbidden' or 'matrix'")
    if kind == "odometer":
        if "base" not in kv:
            raise SpecParseError("odometer spec needs 'base'")
        return Odometer([int(v) for v in _parse_list(kv["base"], "base")])
    if kind == "orbit":
        if "alphabet" not in kv or "word" not in kv:
            raise SpecParseError("orbit spec needs 'alphabet' and 'word'")
        return OrbitSystem(int(kv["alphabet"]), kv["word"])
    raise SpecParseError("unknown kind %r" % kind)


def serialize_system(system):
    """Canonical text form; parse(serialize(s)) reproduces s bit-exactly."""
    if system.kind == "sft":
        if system.matrix_input is not None:
            rows = "],[".join(",".join(str(v) for v in row) for row in system.matrix_input)
            return "kind: sft\nalphabet: %d\nmatrix: [[%s]]\n" % (system.alphabet_size, rows)
        return "kind: sft\nalphabet: %d\nforbidden: [%s]\n" % (
            system.alphabet_size, ", ".join(system.forbidden))
    if system.kind == "odometer":
        return "kind: odometer\nbase: [%s]\n" % ", ".join(str(p) for p in system.base)
    if system.kind == "orbit":
        return "kind: orbit\nalphabet: %d\nword: %s\n" % (system.alphabet_size, system.word)
    raise SpecParseError("unknown system kind %r" % system.kind)


def parse_point(text, system):
    """Parse a point spec.

    Symbolic points::

        left: <word>
        core: <word>@<anchor>        (core may be empty: '@<anchor>')
        right: <word>

    Odometer points::

        digits: [d1, d2, ...]
    """
    kv = dict(_parse_kv(text))
    if "digits" in kv:
        if system.kind != "odometer":
            raise SpecParseError("digits given for a word system")
        return OdometerPoint(system, [int(v) for v in _parse_list(kv["digits"], "digits")])
    for key in ("left", "core", "right"):
        if key not in kv:
            raise SpecParseError("point spec needs '%s'" % key)
    if "@" not in kv["core"]:
        raise SpecParseError("core must be '<word>@<anchor>'")
    core, anchor = kv["core"].rsplit("@", 1)
    point = Point(kv["left"], core, kv["right"], int(anchor))
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
