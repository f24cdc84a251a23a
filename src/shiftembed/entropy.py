"""Word-counting estimators and the scale schedule.

The schedule fixes, per scale k: a partition radius m_k, a tower length n_k,
the cumulative n'_k and a neighborhood radius r_k.  Admissibility of a
schedule is a family of counting inequalities checked on a certified range
n <= N_cert by exact transfer-matrix counts, extended past the range by a
submultiplicativity tail bound (left family), an affine comparison (right
family) and a stabilization argument (conditional family).

Natural logarithms throughout; capacities compare exact integer counts
against K-ary budgets.  Every count is asked of the system, so the
odometer's answers (no words, bounded cell counts, entropy 0) are its own.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (CapacityError, PeriodicPointsError, ScheduleError, SpecParseError,
                     VerifyReport)
from .systems import (_parse_finite, _parse_fraction, _parse_int, _parse_kv,
                      _parse_list)

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
    """Entropy upper bound from word counts, plus the spectral value; a
    system without words gives its spectral value for both."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    counts = system.word_counts(nmax)
    per_n = {n: math.log(counts[n]) / n for n in range(1, len(counts))}
    spectral = system.spectral_log()
    return EntropyEstimate(min(per_n.values(), default=spectral), spectral, per_n)


def conditional_count(system, m, mp, n):
    """Max number of radius-mp itinerary words refining one radius-m word
    (the system's conditional_count, after checking the arguments)."""
    if mp < m or m < 0:
        raise ValueError("need mp >= m >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if mp == m:
        return 1
    return system.conditional_count(m, mp, n)


def least_period_count(system, n):
    """Number of points of least period exactly n (Moebius over fixed points)."""
    return _moebius_sum(system.fix_count, n)


def _moebius_sum(fix_count, n):
    """The points of least period exactly n, from the fixed-point counts."""
    return sum(_moebius(n // d) * fix_count(d) for d in range(1, n + 1) if n % d == 0)


def periodic_code_fits(system, K, n1):
    """The periodic-code precondition #Per_{n1} < K^{n1-1}: the points of
    least period n1 leave room for a K-ary code of primitive n1-words."""
    return least_period_count(system, n1) < K ** (n1 - 1)


def periodic_shortfall(system, K, n1):
    """The least period p < n1 at which X has more points than the full
    K-shift, as (p, the system's points of least period p, the K-shift's);
    None when there is none.  This is the paper's hypothesis
    #Per_p(X) <= #Per_p({1..K}^Z) below n1; periodic_code_fits states the
    bound at n1."""
    fix = [None] + [system.fix_count(d) for d in range(1, n1)]
    for p in range(1, n1):
        count = _moebius_sum(fix.__getitem__, p)
        most = _moebius_sum(lambda d: K ** d, p)
        if count > most:
            return p, count, most
    return None


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


def _trunc_div(num, den):
    """num / den rounded toward zero (den > 0), as int() rounds a Fraction."""
    return num // den if num >= 0 else -(-num // den)


def neighborhood_radii(m, n):
    """The neighborhood radii r_k = max(m_k + n_k, n_k) of partition radii m
    and tower lengths n, the one rule build_schedule writes and
    ScaleSchedule.parse checks."""
    return tuple(max(mk + nk, nk) for mk, nk in zip(m, n))


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

    def decode_radius(self, k):
        """The stream radius around time zero that inverting at scale k
        needs: 10 n_k on a periodic schedule, 4 n_k otherwise."""
        return (10 if self.periodic else 4) * self.n[k - 1]

    def block_bounds(self, k):
        """Half-open range of regular block lengths at scale k."""
        return self.n[k - 1], 2 * self.nprime[k - 1]

    def layout_bounds(self, k):
        """Half-open range of the lengths a laid-out regular k-block can have.

        Its raw length, between two scale-k returns, is in block_bounds(k).
        Above scale 1 markers._adjust_boundaries moves each end forward onto
        the (k-1)-layer by at most d: not at all from a regular (k-1)-block,
        whose start a tier-1 return sits on; at most n_1 + 1, past the
        protected prefix, into a special singular (k-1)-block; and less than
        the step m' = ceil(n_(k-1) / m) m of the marker progression of a
        non-special one, of period n_(k-2) < m <= n_(k-1).  So the length
        moves by at most d either way.  Scale-1 blocks are never adjusted,
        and an aperiodic system has no singular blocks: there d = 0.
        """
        lo, hi = self.block_bounds(k)
        if k == 1 or not self.periodic:
            return lo, hi
        d = self.n[0] + 1
        if k >= 3:
            n = self.n[k - 2]
            d = max([d] + [-(-n // m) * m - 1 for m in range(self.n[k - 3] + 1, n + 1)])
        return max(lo - d, 1), hi + d

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
        """Read the serialize form back; SpecParseError on anything else."""
        kv = dict(_parse_kv(text, "schedule"))
        for key in ("K", "alpha", "periodic", "C", "N_cert", "m", "n", "nprime", "r"):
            if key not in kv:
                raise SpecParseError("schedule needs '%s'" % key)
        if kv["periodic"] not in ("0", "1"):
            raise SpecParseError("schedule periodic flag must be 0 or 1, not %r"
                                 % kv["periodic"])
        lists = {key: tuple(_parse_int(v, "schedule %s entry" % key)
                            for v in _parse_list(kv[key], "schedule " + key))
                 for key in ("m", "n", "nprime", "r")}
        if not lists["n"] or len(set(map(len, lists.values()))) != 1:
            raise SpecParseError("schedule lists m, n, nprime and r must be nonempty "
                                 "and of one length")
        if lists["nprime"] != tuple(itertools.accumulate(lists["n"])):
            raise SpecParseError("schedule nprime %s is not the running sums of n %s"
                                 % (list(lists["nprime"]), list(lists["n"])))
        if lists["r"] != neighborhood_radii(lists["m"], lists["n"]):
            raise SpecParseError("schedule r %s is not max(m_k + n_k, n_k) of m %s and n %s"
                                 % (list(lists["r"]), list(lists["m"]), list(lists["n"])))
        return cls(K=_parse_int(kv["K"], "schedule K"),
                   alpha=_parse_fraction(kv["alpha"], "schedule alpha"),
                   periodic=kv["periodic"] == "1", C=_parse_finite(kv["C"], "schedule C"),
                   N_cert=_parse_int(kv["N_cert"], "schedule N_cert"), **lists)


# -- inequality families -------------------------------------------------------


def _scale1_counts(system, m1, N_cert):
    """Word counts #W_n for n <= N_cert + 2 m1 (none for a system without
    words) and the scale-1 cell counts #V_1^n for n <= N_cert."""
    return (system.word_counts(N_cert + 2 * m1),
            [system.cell_count(m1, n) for n in range(N_cert + 1)])


def _family1_holds(logK, alpha, cells, n):
    """#V_1^n <= e^{n(h+alpha/4)} < K^{n(1-alpha/2)-1} at one n, given cells = #V_1^n."""
    h = logK - alpha
    mid = n * (h + alpha / 4)
    left = math.log(cells) <= mid + 1e-12
    right = mid < (n * (1 - alpha / 2) - 1) * logK - 1e-12
    return left and right


def _family2_holds(system, logK, alpha, m_prev, m_cur, n, k):
    cc = conditional_count(system, m_prev, m_cur, n)
    return math.log(cc) < (n * alpha / 2 ** k - 1) * logK - 1e-12


def _family1_tail_certified(logK, alpha, m1, N_cert, counts, cells):
    """Certify both scale-1 inequalities for all n > N_cert (counts[n] = #W_n,
    cells[n] = #V_1^n).

    The left-hand side needs a submultiplicative tail only for a system
    with words.  Without words the cell counts do not grow with n, so the
    left-hand side holds past N_cert once it holds at N_cert + 1."""
    h = logK - alpha
    if not counts:
        if math.log(cells[N_cert]) > (N_cert + 1) * (h + alpha / 4) + 1e-12:
            return False
    else:
        logs = [math.log(c) for c in counts[:N_cert + 1]]
        best = None
        for N0 in range(1, N_cert + 1):
            g0 = logs[N0] / N0
            if g0 >= h + alpha / 4:
                continue
            cstar = max(lr - r * g0 for r, lr in enumerate(logs[:N0]))
            threshold = (2 * m1 * g0 + cstar) / (h + alpha / 4 - g0)
            if best is None or threshold < best:
                best = threshold
        if best is None or best > N_cert:
            return False
    # right-hand side: affine comparison, positive slope required
    slope = (1 - alpha / 2) * logK - (h + alpha / 4)
    if slope <= 0:
        return False
    n0 = N_cert + 1
    return n0 * (h + alpha / 4) < (n0 * (1 - alpha / 2) - 1) * logK


def _family2_tail_certified(system, logK, alpha, m_prev, m_cur, k, N_cert):
    """Conditional counts stabilize in n; compare the plateau at N_cert+1."""
    window = 8
    tail_counts = {conditional_count(system, m_prev, m_cur, n)
                   for n in range(max(1, N_cert - window), N_cert + 1)}
    if len(tail_counts) != 1:
        return False
    cc = tail_counts.pop()
    n0 = N_cert + 1
    return math.log(cc) < (n0 * alpha / 2 ** k - 1) * logK


def _family(system, logK, alpha, m, k, N_cert, scale1):
    """The scale-k inequality family as (holds, tail): holds(n) tests one n
    and tail() certifies the plateau past N_cert.  logK is log K, taken once
    by the caller; scale1 is the pair _scale1_counts gives for m[0] and
    N_cert."""
    if k == 1:
        counts, cells1 = scale1
        return (lambda nn: _family1_holds(logK, alpha, cells1[nn], nn),
                lambda: _family1_tail_certified(logK, alpha, m[0], N_cert, counts, cells1))
    return (lambda nn: _family2_holds(system, logK, alpha, m[k - 2], m[k - 1], nn, k),
            lambda: _family2_tail_certified(system, logK, alpha, m[k - 2], m[k - 1], k,
                                            N_cert))


def _growth_holds(n, nprime, k):
    """The growth inequality n'_k < n_{k+1}."""
    return nprime[k - 1] < n[k]


def verify_schedule(system, schedule):
    """Re-run every inequality family over the certified range.

    Returns a VerifyReport of one "entropy" record per family and scale,
    and one growth record per k < kmax; raises nothing.
    """
    report = VerifyReport()
    K, alpha = schedule.K, schedule.alpha_float
    N = schedule.N_cert
    m, n = schedule.m, schedule.n
    scale1 = _scale1_counts(system, m[0], N)
    logK = math.log(K)
    for k in range(1, schedule.kmax + 1):
        holds, tail = _family(system, logK, alpha, m, k, N, scale1)
        ok = all(holds(nn) for nn in range(n[k - 1], N + 1)) and tail()
        report.add("entropy", "scale1-capacity" if k == 1 else "conditional-capacity", k, ok)
    for k in range(1, schedule.kmax):
        report.add("entropy", "growth", k, _growth_holds(n, schedule.nprime, k),
                   "n'_%d = %d, n_%d = %d" % (k, schedule.nprime[k - 1], k + 1, n[k]))
    if schedule.periodic and system.periodic:
        report.add("entropy", "periodic-code", 1, periodic_shortfall(system, K, n[0]) is None
                   and periodic_code_fits(system, K, n[0]))
    for k in range(1, schedule.kmax + 1):
        report.add("entropy", "tower-radius", k, schedule.r[k - 1] >= schedule.n[k - 1])
    tables = layout_free_tables(schedule)
    for k in range(2, schedule.kmax + 1):
        report.add("entropy", "layout-capacity", k,
                   _capacity_shortfall(schedule, k, tables[k]) is None)
    return report


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
        if k == 2:
            cost = [schedule.free1(part) for part in range(lo, hi)]
        else:
            cost = [tables[k - 1][part] - 1 - schedule.budget(part, k - 1)
                    for part in range(lo, hi)]
        best = [0] + [math.inf] * (2 * schedule.nprime[k - 1] - 1)
        for total in range(lo, len(best)):
            # best[total - part] + cost[part] over the parts that leave no
            # remainder or one of at least lo (a remainder in (0, lo) has no
            # tiling): the reversed slice pairs remainder total - lo - j
            # with part lo + j, down to the remainder max(lo, total - hi + 1).
            rests = best[total - lo:max(lo - 1, total - hi):-1]
            value = min(map(operator.add, rests, cost), default=math.inf)
            if total < hi:
                value = min(value, cost[total - lo])
            best[total] = value
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


def check_radii(m, kmax):
    """The partition radii m as a tuple; ScheduleError unless they are kmax
    nondecreasing integers >= 0."""
    m = tuple(m)
    if len(m) != kmax or list(m) != sorted(m) or min(m, default=0) < 0:
        raise ScheduleError("m must be %d nondecreasing radii >= 0, not %s"
                            % (kmax, ",".join(map(str, m))))
    return m


def build_schedule(system, K, kmax, C=8.0, m=None, N_cert=64):
    """Smallest-(n_k) schedule satisfying the three inequality families.

    n_k is the smallest threshold such that the scale-k family holds for
    every n >= n_k on the certified range plus tail.  The growth condition
    alpha*n_k >= C*2^k is applied with the caller's headroom C, and the
    growth inequality n'_k < n_{k+1} is refused at every scale.

    C matters because the families bound only the codeword lengths.  Each
    block also spends a constant on its marker slot and on truncation,
    while the free room it leaves the scales above grows as alpha times its
    length.  C = 0 keeps the shortest blocks the families allow, where the
    constants win, and check_layout_capacity refuses them.  On the golden
    mean with kmax = 3 and N_cert = 64: K = 3, C = 0 is refused by the
    layout capacity ("scale-3 block of length 30: 3 slots needed, 2
    available"), and K = 3, C = 4 gives n = (13, 26, 52), which passes;
    K = 2, C = 0 is refused before the layout, as no n_3 within N_cert is
    admissible (ScheduleError).
    """
    m = tuple(range(kmax)) if m is None else check_radii(m, kmax)
    if not math.isfinite(C):
        raise ScheduleError("headroom C must be finite, not %r" % C)
    h = system.spectral_log()
    logK = math.log(K)
    if h >= logK - 1e-12:
        raise ScheduleError("infeasible: h_top = %.6f >= log K = %.6f" % (h, logK))
    alpha = _alpha_fraction(logK - h)
    af = float(alpha)
    periodic = system.periodic

    scale1 = _scale1_counts(system, m[0], N_cert)
    ns = []
    for k in range(1, kmax + 1):
        lower = 1 if k == 1 else ns[-1] + 1
        while af * lower < C * 2 ** k:
            lower += 1
        holds, tail = _family(system, logK, af, m, k, N_cert, scale1)
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
                if k == 1 and periodic:
                    short = periodic_shortfall(system, K, n0)
                    if short is not None:
                        # below n0 the bound is the K-shift's, whatever n_1 is
                        raise PeriodicPointsError(
                            "%d points of least period %d, more than the full %d-shift's %d"
                            % (short[1], short[0], K, short[2]))
                    if not periodic_code_fits(system, K, n0):
                        continue
                found = n0
                break
        if found is None:
            raise ScheduleError("no admissible n_%d within certified range %d" % (k, N_cert))
        ns.append(found)

    nprime = tuple(itertools.accumulate(ns))
    for k in range(1, kmax):
        if not _growth_holds(ns, nprime, k):
            raise ScheduleError("growth inequality n'_k < n_{k+1} fails at k=%d" % k)
    schedule = ScaleSchedule(K=K, alpha=alpha, m=m, n=tuple(ns), nprime=nprime,
                             r=neighborhood_radii(m, ns), periodic=periodic, C=C,
                             N_cert=N_cert)
    check_layout_capacity(schedule)
    return schedule


def appendix_fullness_check(system, K, nmax, target=None):
    """Fullness test: #W_n == K**n for every n <= nmax.

    Returns (ok, detail).  On success with a target word given, detail is an
    admissible point matching the target on its window; on failure, detail
    is the first n where the count falls short.
    """
    counts = system.word_counts(nmax)
    if not counts:
        raise ValueError("fullness check requires a word system")
    if system.alphabet_size != K:
        raise ValueError("precondition A == K violated")
    for n in range(1, nmax + 1):
        if counts[n] != K ** n:
            return False, n
    if target is None:
        return True, None
    return True, complete_to_point(system, target, -(len(target) // 2))


def complete_to_point(system, word, anchor):
    """Extend an admissible word at `anchor` to an eventually periodic point
    of the system (system.point_through)."""
    if not system.is_admissible(word):
        raise ValueError("target word %r is not admissible" % word)
    return system.point_through(word, anchor)
