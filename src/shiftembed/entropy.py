"""Word-counting estimators and the scale schedule.

The schedule fixes, per scale k: a partition radius m_k, a tower length n_k,
the cumulative n'_k and a neighborhood radius r_k.  Admissibility of a
schedule is a family of counting inequalities checked on a certified range
n <= N_cert by exact transfer-matrix counts, extended past the range by a
submultiplicativity tail bound (left family), an affine comparison (right
family) and a stabilization argument (conditional family).

Natural logarithms throughout; capacities compare exact integer counts
against K-ary budgets.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityError, ScheduleError, SpecParseError
from .systems import matpow_int

ALPHA_DENOM = 2 ** 32


def _alpha_fraction(alpha_float):
    num = math.floor(alpha_float * ALPHA_DENOM)
    if num <= 0:
        raise ScheduleError("alpha must be positive (h_top >= log K)")
    return Fraction(num, ALPHA_DENOM)


@dataclass(frozen=True)
class EntropyEstimate:
    upper: float            # min over n <= nmax of (log #W_n)/n
    spectral: float         # log of the Perron value of the transfer matrix
    per_n: dict = field(default_factory=dict, compare=False)


def htop_estimate(system, nmax):
    """Entropy upper bound from word counts, plus the spectral value."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    if not system.is_word_system:
        return EntropyEstimate(0.0, 0.0, {})
    per_n = {}
    best = math.inf
    for n in range(1, nmax + 1):
        val = math.log(system.count_words(n)) / n
        per_n[n] = val
        best = min(best, val)
    return EntropyEstimate(best, system.spectral_log(), per_n)


def cell_count(system, m, n):
    """Number of length-n itinerary words of the radius-m partition."""
    if system.is_word_system:
        return system.count_words(n + 2 * m)
    return system.modulus(m + 1)


def conditional_count(system, m, mp, n):
    """Max number of radius-mp itinerary words refining one radius-m word.

    For word systems this equals the max over admissible (n+2m)-words of the
    number of admissible two-sided (mp-m)-extensions, computed from matrix
    powers: extensions factor through the boundary blocks of the word.
    """
    if mp < m or m < 0:
        raise ValueError("need mp >= m >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if mp == m:
        return 1
    if not system.is_word_system:
        return system.modulus(mp + 1) // system.modulus(m + 1)
    return _max_extension_count(system, n + 2 * m, mp - m)


def _max_extension_count(system, length, delta):
    """Max over admissible `length`-words of #(delta-letter two-sided
    extensions): the paths into the word's first state times the paths out
    of its last, over the state pairs such a word joins."""
    if system.kind == "orbit":
        return 1  # every window of the single orbit extends uniquely
    M = system.memory
    reach = matpow_int(system.adjacency, max(length - M, 0))
    into = [system.count_words(M + delta, end=s) for s in system.states]
    out = [system.count_words(M + delta, start=s) for s in system.states]
    return max(into[i] * out[j] for i in range(len(into)) for j in range(len(out))
               if reach[i][j])


def least_period_count(system, n):
    """Number of points of least period exactly n (Moebius over fixed points)."""
    if not system.is_word_system:
        return 0
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(n // d) * system.fix_count(d)
    return total


def _moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def per_growth_in_cell(system, m, n):
    """(1/n) log of the max per-cell count of least-period-n points: 0.

    The radius-m itinerary over n steps spans n+2m >= n coordinates, so it
    pins an n-periodic point: the count per cell is at most one and the
    value is zero by convention.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.0


def _trunc_div(num, den):
    """num / den rounded toward zero (den > 0), as int() rounds a Fraction."""
    return num // den if num >= 0 else -(-num // den)


@dataclass(frozen=True)
class ScaleSchedule:
    """Verified scale data consumed by the marker and codec stages."""

    K: int
    alpha: Fraction
    m: tuple
    n: tuple
    nprime: tuple
    r: tuple
    periodic: bool
    C: float = 0.0
    N_cert: int = 64

    @property
    def kmax(self):
        return len(self.n)

    @property
    def alpha_float(self):
        return float(self.alpha)

    def fill1(self, L):
        """1-filling budget of a regular 1-block of length L: int((1 - alpha/2) L).

        Capped at L-2 so every regular 1-block keeps at least one free slot
        for higher-scale markers.
        """
        a, d = self.alpha.numerator, self.alpha.denominator
        return min(_trunc_div((2 * d - a) * L, 2 * d), L - 2)

    def budget(self, L, k):
        """k-filling budget of a k-block of length L (k >= 2): int(alpha L / 2^k)."""
        return _trunc_div(self.alpha.numerator * L, self.alpha.denominator << k)

    def free1(self, L):
        return L - 1 - self.fill1(L)

    def is_special(self, k, m):
        """Whether a singular k-block of orbit period m is special: every
        scale-1 stretch is, and above scale 1 a period of at most n_{k-1}."""
        return k == 1 or m <= self.n[k - 2]

    def block_bounds(self, k):
        """Half-open range of regular block lengths at scale k."""
        return self.n[k - 1], 2 * self.nprime[k - 1]

    def serialize(self):
        lines = [
            "K: %d" % self.K,
            "alpha: %d/%d" % (self.alpha.numerator, self.alpha.denominator),
            "periodic: %d" % int(self.periodic),
            "C: %r" % self.C,
            "N_cert: %d" % self.N_cert,
            "m: [%s]" % ", ".join(map(str, self.m)),
            "n: [%s]" % ", ".join(map(str, self.n)),
            "nprime: [%s]" % ", ".join(map(str, self.nprime)),
            "r: [%s]" % ", ".join(map(str, self.r)),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        kv = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise SpecParseError("schedule line %r" % raw)
            key, val = line.split(":", 1)
            kv[key.strip()] = val.strip()
        try:
            num, den = kv["alpha"].split("/")
            lists = {}
            for key in ("m", "n", "nprime", "r"):
                inner = kv[key].strip()[1:-1]
                lists[key] = tuple(int(v) for v in inner.split(",")) if inner else ()
            return cls(K=int(kv["K"]), alpha=Fraction(int(num), int(den)),
                       m=lists["m"], n=lists["n"], nprime=lists["nprime"],
                       r=lists["r"], periodic=bool(int(kv["periodic"])),
                       C=float(kv["C"]), N_cert=int(kv["N_cert"]))
        except (KeyError, ValueError) as exc:
            raise SpecParseError("bad schedule document: %s" % exc)


# -- inequality families -------------------------------------------------------


def _scale1_counts(system, m1, N_cert):
    """Word counts #W_n for n <= N_cert + 2 m1 (None off word systems) and
    the scale-1 cell counts #V_1^n for n <= N_cert, each computed once."""
    if not system.is_word_system:
        return None, [cell_count(system, m1, n) for n in range(N_cert + 1)]
    counts = [system.count_words(n) for n in range(N_cert + 2 * m1 + 1)]
    return counts, counts[2 * m1:]


def _family1_holds(K, alpha, cells, n):
    """#V_1^n <= e^{n(h+alpha/4)} < K^{n(1-alpha/2)-1} at one n, given cells = #V_1^n."""
    h = math.log(K) - alpha
    mid = n * (h + alpha / 4)
    left = math.log(cells) <= mid + 1e-12
    right = mid < (n * (1 - alpha / 2) - 1) * math.log(K) - 1e-12
    return left and right


def _family2_holds(system, K, alpha, m_prev, m_cur, n, k):
    cc = conditional_count(system, m_prev, m_cur, n)
    return math.log(cc) < (n * alpha / 2 ** k - 1) * math.log(K) - 1e-12


def _family1_tail_certified(system, K, alpha, m1, N_cert, counts):
    """Certify both scale-1 inequalities for all n > N_cert (counts[n] = #W_n)."""
    h = math.log(K) - alpha
    if not system.is_word_system:
        return True  # cell counts are bounded; both sides grow linearly in n
    best = None
    for N0 in range(1, N_cert + 1):
        g0 = math.log(counts[N0]) / N0
        if g0 >= h + alpha / 4:
            continue
        cstar = max(math.log(counts[r]) - r * g0 for r in range(0, N0))
        threshold = (2 * m1 * g0 + cstar) / (h + alpha / 4 - g0)
        if best is None or threshold < best:
            best = threshold
    if best is None or best > N_cert:
        return False
    # right-hand side: affine comparison, positive slope required
    slope = (1 - alpha / 2) * math.log(K) - (h + alpha / 4)
    if slope <= 0:
        return False
    n0 = N_cert + 1
    return n0 * (h + alpha / 4) < (n0 * (1 - alpha / 2) - 1) * math.log(K)


def _family2_tail_certified(system, K, alpha, m_prev, m_cur, k, N_cert):
    """Conditional counts stabilize in n; compare the plateau at N_cert+1."""
    if not system.is_word_system:
        cc = system.modulus(m_cur + 1) // system.modulus(m_prev + 1)
        n0 = N_cert + 1
        return math.log(cc) < (n0 * alpha / 2 ** k - 1) * math.log(K)
    window = 8
    tail_counts = {conditional_count(system, m_prev, m_cur, n)
                   for n in range(max(1, N_cert - window), N_cert + 1)}
    if len(tail_counts) != 1:
        return False
    cc = tail_counts.pop()
    n0 = N_cert + 1
    return math.log(cc) < (n0 * alpha / 2 ** k - 1) * math.log(K)


def verify_schedule(system, schedule):
    """Re-run every inequality family over the certified range.

    Returns a list of (name, scale, ok) records; raises nothing.
    """
    records = []
    K, alpha = schedule.K, schedule.alpha_float
    N = schedule.N_cert
    m, n = schedule.m, schedule.n
    counts, cells1 = _scale1_counts(system, m[0], N)
    ok1 = all(_family1_holds(K, alpha, cells1[nn], nn) for nn in range(n[0], N + 1))
    ok1 = ok1 and _family1_tail_certified(system, K, alpha, m[0], N, counts)
    records.append(("scale1-capacity", 1, ok1))
    for k in range(2, schedule.kmax + 1):
        okk = all(_family2_holds(system, K, alpha, m[k - 2], m[k - 1], nn, k)
                  for nn in range(n[k - 1], N + 1))
        okk = okk and _family2_tail_certified(system, K, alpha, m[k - 2], m[k - 1], k, N)
        records.append(("conditional-capacity", k, okk))
    for k in range(1, schedule.kmax + 1):
        bound = alpha / 2 ** k
        okp = all(per_growth_in_cell(system, m[k - 1], nn) < bound
                  for nn in range(1, 14))
        records.append(("per-growth", k, okp))
    if schedule.periodic and system.is_word_system:
        lp = least_period_count(system, n[0])
        records.append(("periodic-code", 1, lp < K ** (n[0] - 1)))
    for k in range(1, schedule.kmax + 1):
        records.append(("tower-radius", k, schedule.r[k - 1] >= schedule.n[k - 1]))
    tables = layout_free_tables(schedule)
    for k in range(2, schedule.kmax + 1):
        records.append(("layout-capacity", k,
                        _capacity_shortfall(schedule, k, tables[k]) is None))
    return records


def layout_free_tables(schedule):
    """Worst-case free slots of regular compositions, one table per scale.

    Returns {k: best} for 2 <= k <= kmax, where best[L] (0 <= L < 2 n'_k)
    is the fewest (k-1)-free slots, over all tilings of a length-L stretch by
    regular (k-1)-blocks (lengths in block_bounds(k-1)), left for scale-k
    markers and fillings; math.inf where no such tiling exists.

    A part of length p costs free1(p) at scale 1, and at scale k-1 >= 2 the
    free slots of its own worst tiling minus its marker and its (k-1)-budget,
    best_{k-1}[p] - 1 - budget(p, k-1).  The prefix recurrence
    best[t] = min_p best[t - p] + cost(p) reads only smaller totals and part
    costs, neither of which depends on the target length: the run for a
    target L is the prefix, up to L, of the run for any longer target.  So
    one array up to the longest regular k-block, 2 n'_k - 1, answers every
    L of scale k at once, and it covers every part length scale k+1 asks
    of it, which makes the tables chain bottom-up.
    """
    tables = {}
    for k in range(2, schedule.kmax + 1):
        lo, hi = schedule.block_bounds(k - 1)
        cost = {}
        for part in range(lo, hi):
            if k == 2:
                cost[part] = schedule.free1(part)
            else:
                cost[part] = tables[k - 1][part] - 1 - schedule.budget(part, k - 1)
        best = [0] + [math.inf] * (2 * schedule.nprime[k - 1] - 1)
        for total in range(lo, len(best)):
            best[total] = min((best[total - part] + cost[part]
                               for part in range(lo, min(hi - 1, total) + 1)),
                              default=math.inf)
        tables[k] = best
    return tables


def _capacity_shortfall(schedule, k, best):
    """First regular k-block length whose worst case lacks room for its
    marker and k-filling budget, as (L, needed, available); None if none."""
    lo, hi = schedule.block_bounds(k)
    for L in range(lo, hi):
        needed = 1 + schedule.budget(L, k)
        if needed > best[L]:  # an unrealizable length (inf) never fails
            return L, needed, best[L]
    return None


def check_layout_capacity(schedule):
    """Worst-case filling-slot feasibility of pure-regular blocks, all scales."""
    tables = layout_free_tables(schedule)
    for k in range(2, schedule.kmax + 1):
        short = _capacity_shortfall(schedule, k, tables[k])
        if short is not None:
            L, needed, free = short
            raise CapacityError(
                "scale-%d block of length %d: %d slots needed, %s available"
                % (k, L, needed, free), scale=k, block=L)


def build_schedule(system, K, kmax, C=8.0, m=None, N_cert=64, check_capacity=True):
    """Smallest-(n_k) schedule satisfying the three inequality families.

    n_k is the smallest threshold such that the scale-k family holds for
    every n >= n_k on the certified range plus tail.  The growth condition
    alpha*n_k >= C*2^k is applied with the caller's headroom C.
    """
    if m is None:
        m = tuple(k - 1 for k in range(1, kmax + 1))
    m = tuple(m)
    if len(m) != kmax or any(m[i + 1] < m[i] for i in range(kmax - 1)):
        raise ScheduleError("m must be nondecreasing of length kmax")
    est = htop_estimate(system, min(N_cert, 24)) if system.is_word_system else None
    h = est.spectral if est else 0.0
    logK = math.log(K)
    if h >= logK - 1e-12:
        raise ScheduleError("infeasible: h_top = %.6f >= log K = %.6f" % (h, logK))
    alpha = _alpha_fraction(logK - h)
    af = float(alpha)
    periodic = system.is_word_system  # every nonempty SFT/orbit carries periodic points

    counts, cells1 = _scale1_counts(system, m[0], N_cert)
    ns = []
    for k in range(1, kmax + 1):
        lower = 1 if k == 1 else ns[-1] + 1
        while af * lower < C * 2 ** k:
            lower += 1
        if k == 1:
            def holds(nn):
                return _family1_holds(K, af, cells1[nn], nn)

            def tail():
                return _family1_tail_certified(system, K, af, m[0], N_cert, counts)
        else:
            def holds(nn):
                return _family2_holds(system, K, af, m[k - 2], m[k - 1], nn, k)

            def tail():
                return _family2_tail_certified(system, K, af, m[k - 2], m[k - 1], k, N_cert)
        # n0 must see the family hold on all of [n0, N_cert]: one pass down
        # from N_cert finds the last failure, and every n0 past it qualifies.
        start = lower
        for nn in range(N_cert, lower - 1, -1):
            if not holds(nn):
                start = nn + 1
                break
        found = None
        if start <= N_cert and tail():
            for n0 in range(start, N_cert + 1):
                if (k == 1 and periodic
                        and least_period_count(system, n0) >= K ** (n0 - 1)):
                    continue
                found = n0
                break
        if found is None:
            raise ScheduleError("no admissible n_%d within certified range %d" % (k, N_cert))
        ns.append(found)

    nprime = []
    acc = 0
    for nk in ns:
        acc += nk
        nprime.append(acc)
    if not periodic:
        for k in range(1, kmax):
            if nprime[k - 1] >= ns[k]:
                raise ScheduleError("aperiodic constraint n'_k < 2 n_{k+1} failed at k=%d" % k)
    r = tuple(max(m[k - 1] + ns[k - 1], ns[k - 1]) for k in range(1, kmax + 1))
    schedule = ScaleSchedule(K=K, alpha=alpha, m=m, n=tuple(ns), nprime=tuple(nprime),
                             r=r, periodic=periodic, C=C, N_cert=N_cert)
    if check_capacity:
        check_layout_capacity(schedule)
    return schedule


def appendix_fullness_check(system, K, nmax, target=None):
    """Fullness test: #W_n == K**n for every n <= nmax.

    Returns (ok, detail).  On success with a target word given, detail is an
    admissible point matching the target on its window; on failure, detail
    is the first n where the count falls short.
    """
    if not system.is_word_system:
        raise ValueError("fullness check requires a word system")
    if system.alphabet_size != K:
        raise ValueError("precondition A == K violated")
    for n in range(1, nmax + 1):
        if system.count_words(n) != K ** n:
            return False, n
    if target is None:
        return True, None
    return True, complete_to_point(system, target, -(len(target) // 2))


def complete_to_point(system, word, anchor):
    """Extend an admissible word at `anchor` to an eventually periodic point.

    Both tails are grown deterministically (first graph successor or
    predecessor) until an M-block repeats; the repeated stretch becomes the
    tail period, so the result is admissible by construction.
    """
    from .systems import Point
    if not system.is_admissible(word):
        raise ValueError("target word %r is not admissible" % word)
    M = system.memory
    if len(word) < M:
        for s in system.states:
            i = s.find(word)
            if i >= 0:
                anchor -= i
                word = s
                break
    seen = {}
    ext = word
    while ext[-M:] not in seen:
        seen[ext[-M:]] = len(ext)
        ext = ext + system._succ[ext[-M:]][0][-1]
    first = seen[ext[-M:]]
    right_period = ext[first:]
    core_right = ext[len(word):first]
    seen = {}
    ext2 = word
    while ext2[:M] not in seen:
        seen[ext2[:M]] = len(ext2)
        ext2 = system._pred[ext2[:M]][0][0] + ext2
    first2 = seen[ext2[:M]]
    cyc = len(ext2) - first2
    left_period = ext2[:cyc]
    core_left = ext2[cyc:len(ext2) - len(word)]
    core = core_left + word + core_right
    return Point(left_period, core, right_period, anchor - len(core_left))
