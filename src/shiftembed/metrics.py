"""Metrics and measures on shift spaces: d, d_N, the Besicovitch
pseudometric, empirical measures, d_* and Hausdorff distance, plus the
finite-resolution convergence diagnostics.

Values on eventually periodic points are exact rationals: disagreement
counts grow affinely in the window radius once both tails repeat, and the
supremum of an affine-over-linear ratio along one residue class is attained
at an endpoint.  Everything else carries an explicit horizon and is never
presented as a limit.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

from .errors import SpecParseError
from .words import kary_alphabet, periodic_window


def _mismatch(x, y, i):
    return x.letter(i) != y.letter(i)


def cantor_distance(x, y):
    """2^-k at the first symmetric disagreement, exact 0 for equal points."""
    horizon = _equality_horizon(x, y)
    for k in range(horizon + 1):
        if _mismatch(x, y, k) or _mismatch(x, y, -k):
            return Fraction(1, 2 ** k)
    return Fraction(0)


def _equality_horizon(x, y):
    """Agreement out to this radius certifies equality (tail periodicity)."""
    a = min(x.anchor, y.anchor)
    b = max(x.anchor + len(x.core), y.anchor + len(y.core))
    span = max(abs(a), abs(b))
    return span + lcm(len(x.left), len(y.left)) + lcm(len(x.right), len(y.right)) + 1


def disagreement_data(x, y):
    """(horizon h, counts c(n) for n <= h, right/left tail densities).

    Beyond the horizon both sides are in periodic regime: the number of
    disagreements in [-n, n] is exactly affine along each residue class of
    n modulo the tail lcm.
    """
    h = _equality_horizon(x, y)
    pr = lcm(len(x.right), len(y.right))
    pl = lcm(len(x.left), len(y.left))
    rho_r = sum(1 for i in range(h + 1, h + 1 + pr) if _mismatch(x, y, i))
    rho_l = sum(1 for i in range(h + 1, h + 1 + pl) if _mismatch(x, y, -i))
    counts = _extend_counts(x, y, [int(_mismatch(x, y, 0))], h)
    return h, counts, Fraction(rho_r, pr), Fraction(rho_l, pl)


def _extend_counts(x, y, counts, n):
    """Extend the disagreement counts on [-i, i], i = 0, 1, ..., through
    i = n, and return them."""
    c = counts[-1]
    for i in range(len(counts), n + 1):
        c += _mismatch(x, y, i) + _mismatch(x, y, -i)
        counts.append(c)
    return counts


def count_disagreements(x, y, n):
    """Exact number of coordinate disagreements on [-n, n]."""
    _, counts, _, _ = disagreement_data(x, y)
    return _extend_counts(x, y, counts, n)[n]


def dN_distance(x, y, N, horizon=None):
    """sup over n >= N of the disagreement density on [-n, n], exact.

    The sup splits into the enumerated range up to the tail horizon and, per
    residue class beyond it, a monotone affine-over-linear ratio whose sup
    is its value at the class head or its limit; the limit over all classes
    is the mean tail density.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    h, counts, rho_r, rho_l = disagreement_data(x, y)
    P = lcm(rho_r.denominator if rho_r else 1, rho_l.denominator if rho_l else 1,
            len(x.right), len(y.right), len(x.left), len(y.left))
    stop = horizon if horizon is not None else max(h, N) + 2 * P
    counts = _extend_counts(x, y, counts, stop)
    best = max((Fraction(counts[n], 2 * n + 1) for n in range(N, stop + 1)),
               default=Fraction(0))
    if horizon is not None:
        return best
    # beyond stop every class ratio moves monotonically toward the density
    limit = (rho_r + rho_l) / 2
    return max(best, limit)


def besicovitch_estimate(x, y):
    """(value, exact) for the Besicovitch pseudometric d_inf = lim d_N.

    Exact for eventually periodic points: the density of disagreements is
    the mean of the two tail densities.
    """
    _, _, rho_r, rho_l = disagreement_data(x, y)
    return (rho_r + rho_l) / 2, True


def stream_dN(s1, s2, N):
    """Finite-window d_N of two symbol streams around time zero.

    A horizon value, never exact: sup over n in [N, H] of the disagreement
    density on [-n, n] where H is set by the overlap of the two windows.
    """
    a = max(s1.a, s2.a)
    b = min(s1.b, s2.b)
    H = min(-a, b)
    if H < N:
        raise SpecParseError("streams too short for d_N at N = %d" % N)
    diffs = 0
    best = Fraction(0)
    for n in range(0, H + 1):
        if n == 0:
            diffs += 1 if s1.get(0) != s2.get(0) else 0
        else:
            diffs += (1 if s1.get(n) != s2.get(n) else 0) + \
                     (1 if s1.get(-n) != s2.get(-n) else 0)
        if n >= N:
            val = Fraction(diffs, 2 * n + 1)
            if val > best:
                best = val
    return best


# -- empirical measures -----------------------------------------------------------


class EmpiricalMeasure:
    """Frequencies of length-L words along the forward orbit of a point."""

    def __init__(self, L, freqs, n):
        self.L = L
        self.freqs = dict(freqs)
        self.n = n
        total = sum(self.freqs.values())
        if total != 1:
            raise SpecParseError("frequencies sum to %r, not 1" % total)

    def __call__(self, word):
        return self.freqs.get(word, Fraction(0))

    def l1(self, other):
        keys = set(self.freqs) | set(other.freqs)
        return sum(abs(self(w) - other(w)) for w in keys)

    def marginal_left(self):
        out = {}
        for w, f in self.freqs.items():
            out[w[:-1]] = out.get(w[:-1], Fraction(0)) + f
        return out

    def marginal_right(self):
        out = {}
        for w, f in self.freqs.items():
            out[w[1:]] = out.get(w[1:], Fraction(0)) + f
        return out


def empirical_measure(point, L, n):
    """Sliding-window frequency table of x_[k, k+L) for 0 <= k < n."""
    if n < 1 or L < 1:
        raise ValueError("need n >= 1 and L >= 1")
    return _window_measure([point.word(k, k + L - 1) for k in range(n)], L)


def _window_measure(windows, L):
    """The measure giving each of the length-L windows equal weight."""
    n = len(windows)
    return EmpiricalMeasure(L, {w: Fraction(c, n) for w, c in Counter(windows).items()}, n)


def periodic_orbit_measure(word, L):
    """Exact empirical measure of the periodic point word^inf (orbit average)."""
    return _window_measure([periodic_window(word, k, k + L - 1) for k in range(len(word))], L)


def cylinder_enumeration(alphabet, depth):
    """The fixed enumeration of cylinder words: by length, lexicographic."""
    out = []
    for L in range(1, depth + 1):
        frontier = [""]
        for _ in range(L):
            frontier = [w + c for w in frontier for c in alphabet]
        out.extend(sorted(frontier))
    return out


def measure_distance(mu, nu, alphabet, depth=3):
    """Truncated d_*: sum over the fixed enumeration of |mu(A) - nu(A)| / 2^i."""
    if mu.L < depth or nu.L < depth:
        raise SpecParseError("measures must resolve words up to the enumeration depth")
    total = Fraction(0)
    for i, word in enumerate(cylinder_enumeration(alphabet, depth), start=1):
        total += abs(_eval_on_word(mu, word) - _eval_on_word(nu, word)) / Fraction(2 ** i)
    return total


def _eval_on_word(mu, word):
    """Measure of the cylinder [word] from the length-L table, L >= len(word)."""
    if len(word) == mu.L:
        return mu(word)
    total = Fraction(0)
    for w, f in mu.freqs.items():
        if w[:len(word)] == word:
            total += f
    return total


def hausdorff_distance(S, T, alphabet, depth=3):
    """Hausdorff distance between finite sets of measures under d_*."""
    if not S or not T:
        raise ValueError("need nonempty sets of measures")
    d = lambda mu, nu: measure_distance(mu, nu, alphabet, depth)
    a = max(min(d(mu, nu) for nu in T) for mu in S)
    b = max(min(d(mu, nu) for mu in S) for nu in T)
    return max(a, b)


# -- convergence diagnostics -------------------------------------------------------


def convergence_report(points, pipeline, depth=2, sample_n=160):
    """Per point and scale: d_N of the codes, empirical-measure pushforward
    distances, and the window bound N * d_N from the uniform-convergence
    argument.  Rows: (point index, scale, metric, value, exactness tag)."""
    rows = []
    sched = pipeline.schedule
    N = sched.n[0] ** 2
    alphabet = kary_alphabet(sched.K) + "|=[]o?"
    alpha = sched.alpha_float
    for idx, p in enumerate(points):
        streams = list(pipeline.encode_scales(p, (-4 * N, 4 * N)))
        sK = streams[-1]
        for k, sk in enumerate(streams, 1):
            val = stream_dN(sk, sK, N)
            rows.append((idx, k, "dN(psi_k, psi)", val, "horizon=%d" % (4 * N)))
            bound = Fraction(3) * Fraction(sched.alpha) / 2 ** k
            rows.append((idx, k, "dN-bound-ok", int(val <= bound), "bound=%s" % bound))
            mu_k = _stream_measure(sk, depth, sample_n)
            mu_K = _stream_measure(sK, depth, sample_n)
            rows.append((idx, k, "d*(phi psi_k, phi psi)",
                         measure_distance(mu_k, mu_K, alphabet, depth), "horizon"))
            rows.append((idx, k, "N*dinf-bound", depth * val, "lemma-window"))
    return rows


def _stream_measure(stream, L, n):
    return _window_measure(["".join(stream.get(k + j) for j in range(L))
                            for k in range(min(n, stream.b - L + 1))], L)
