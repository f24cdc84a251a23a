import functools
import math
import types
from fractions import Fraction

import pytest

from check_reference import (count_oracle_systems, family1_tail_per_pair_log, matpow_int,
                             within_seconds)
from shiftembed import entropy
from shiftembed.entropy import (ScaleSchedule, _scale1_counts, appendix_fullness_check,
                                build_schedule, conditional_count,
                                check_layout_capacity, complete_to_point,
                                htop_estimate, layout_free_tables,
                                least_period_count, verify_schedule)
from shiftembed.errors import CapacityError, PeriodicPointsError, ScheduleError, VerifyRecord
from shiftembed.pipeline import build_pipeline
from shiftembed.systems import (Sft, dyadic_odometer, full_shift, golden_mean,
                                least_period_words, orbit_system)

PHI = (1 + 5 ** 0.5) / 2


def brute_conditional(system, m, mp, n):
    """Oracle: group fine words by their central coarse window and count."""
    fine = system.words(n + 2 * mp)
    delta = mp - m
    buckets = {}
    for w in fine:
        core = w[delta:len(w) - delta] if delta else w
        buckets[core] = buckets.get(core, 0) + 1
    return max(buckets.values())


class TestHtop:
    def test_full_shift_exact(self):
        est = htop_estimate(full_shift(), 8)
        assert est.upper == pytest.approx(math.log(2))
        assert est.spectral == pytest.approx(math.log(2))

    def test_golden_mean(self):
        est = htop_estimate(golden_mean(), 12)
        assert est.spectral == pytest.approx(math.log(PHI), abs=1e-9)
        assert est.upper >= est.spectral
        assert est.upper == pytest.approx(0.4943, abs=2e-3)

    def test_single_orbit(self):
        est = htop_estimate(orbit_system(2, "0"), 6)
        assert est.upper == 0.0 and est.spectral == 0.0

    def test_upper_nonincreasing_along_doubling(self):
        est = htop_estimate(golden_mean(), 16)
        for n in (1, 2, 4, 8):
            assert est.per_n[2 * n] <= est.per_n[n] + 1e-12
        assert all(v >= est.spectral - 1e-12 for v in est.per_n.values())


class TestConditional:
    def test_golden_radius01(self):
        # coarse cell 000 at n=3 refines into 4 fine cells
        assert conditional_count(golden_mean(), 0, 1, 3) == 4
        assert conditional_count(golden_mean(), 0, 1, 3) == brute_conditional(golden_mean(), 0, 1, 3)

    def test_full_shift_always_four(self):
        for n in (1, 2, 5, 9):
            assert conditional_count(full_shift(), 0, 1, n) == 4

    def test_identity_refinement(self):
        assert conditional_count(golden_mean(), 1, 1, 5) == 1

    def test_matches_bruteforce(self):
        for m, mp, n in [(0, 1, 2), (0, 2, 3), (1, 2, 4), (0, 1, 6)]:
            assert conditional_count(golden_mean(), m, mp, n) == \
                brute_conditional(golden_mean(), m, mp, n)

    def test_monotone_in_mp(self):
        vals = [conditional_count(golden_mean(), 0, mp, 4) for mp in range(0, 4)]
        assert vals == sorted(vals)
        assert vals[0] == 1

    def test_odometer_ratio(self):
        odo = dyadic_odometer(5)
        assert conditional_count(odo, 0, 2, 7) == 4

    @pytest.mark.parametrize("name", sorted(count_oracle_systems()))
    def test_extension_count_equals_matrix_reach(self, name):
        """The count-table reach equals the reach read off the matrix power
        A^(length - M): a pair of states joins when its entry is nonzero."""
        system = count_oracle_systems()[name]
        M, states = system.memory, system.states
        for length in range(1, 30):
            reach = matpow_int(system.adjacency, max(length - M, 0))
            for delta in range(1, 5):
                into = [system.count_words(M + delta, end=s) for s in states]
                out = [system.count_words(M + delta, start=s) for s in states]
                want = max(into[i] * out[j] for i in range(len(states))
                           for j in range(len(states)) if reach[i][j])
                assert system.conditional_count(0, delta, length) == want, \
                    (length, delta)


def least_period_cells(system, n, m):
    """The radius-m cells over n steps from time 0, one per point of least
    period n."""
    from shiftembed.words import periodic_window
    return [periodic_window(w, -m, n - 1 + m) for w in least_period_words(system, n)]


class TestPerGrowth:
    """The per-cell growth of least-period-n points is 0: no radius-m cell
    over n steps holds two of them."""

    def test_full_shift_zero(self):
        # one cell per point, so the cells number the points (Moebius count)
        fs = full_shift()
        for n in range(1, 11):
            assert len(set(least_period_cells(fs, n, 0))) == least_period_count(fs, n)

    def test_golden_zero(self):
        gm = golden_mean()
        for m in range(3):
            assert len(set(least_period_cells(gm, 4, m))) == least_period_count(gm, 4) == 4

    def test_odometer_zero(self):
        # the odometer has no periodic points, so no cell holds one
        odo = dyadic_odometer(4)
        assert [least_period_count(odo, n) for n in range(1, 17)] == [0] * 16

    @pytest.mark.parametrize("system", [golden_mean(), full_shift(),
                                        Sft(3, forbidden=("22", "201"))],
                             ids=["golden", "full", "three-letter"])
    def test_cell_pins_the_periodic_point(self, system):
        """The proven 0: the radius-m itinerary over n steps spans n + 2m
        letters, so no cell holds two points of least period n."""
        for n in range(1, 11):
            for m in range(3):
                cells = least_period_cells(system, n, m)
                assert len(set(cells)) == len(cells)

    def test_least_period_counts(self):
        lp = [least_period_count(golden_mean(), n) for n in range(1, 10)]
        assert lp == [1, 2, 3, 4, 10, 12, 28, 40, 72]


class TestSchedule:
    def test_golden_n1_is_9(self):
        sched = build_schedule(golden_mean(), K=2, kmax=1, C=0.0, m=(0,))
        assert sched.n[0] == 9

    def test_golden_two_scales(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        assert sched.n == (9, 19)
        assert sched.nprime == (9, 28)
        assert sched.r == (9, 19)
        assert sched.periodic

    def test_reverification_passes(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        assert all(r.ok for r in verify_schedule(golden_mean(), sched).records)

    @pytest.mark.parametrize("system, m", [
        (golden_mean(), (-1, 0)), (golden_mean(), (0,)), (golden_mean(), (1, 0)),
        (dyadic_odometer(8), (-1, 0)),
    ], ids=["negative", "too-short", "decreasing", "odometer-negative"])
    def test_bad_radii_are_refused_by_name(self, system, m):
        # refused before any count is taken: (-1, 0) used to reach
        # counts[N0] with N0 = -1 and end in IndexError, and the odometer
        # refused depth 0 instead of naming m
        text = "m must be 2 nondecreasing radii >= 0, not %s" % ",".join(map(str, m))
        with pytest.raises(ScheduleError, match="^%s$" % text):
            build_schedule(system, 2, 2, m=m)

    def test_full_shift_k2_rejected(self):
        with pytest.raises(ScheduleError):
            build_schedule(full_shift(), K=2, kmax=1)

    @pytest.mark.parametrize("C", [math.inf, math.nan, -math.inf], ids=["inf", "nan", "-inf"])
    def test_headroom_must_be_finite(self, C):
        # an infinite C used to keep the growth loop alpha n_k < C 2^k running
        with within_seconds(10), pytest.raises(ScheduleError, match="C must be finite"):
            build_schedule(golden_mean(), K=2, kmax=1, C=C)

    def test_periodic_points_checked_below_n1(self):
        """Two disjoint 2-cycles have 4 points of least period 2, the
        2-shift 2: build_schedule refuses them by name, and the verify record
        fails them at an n_1 whose own bound holds."""
        two_cycles = Sft(4, matrix=[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        with pytest.raises(PeriodicPointsError,
                           match="^4 points of least period 2, more than the full 2-shift's 2$"):
            build_schedule(two_cycles, K=2, kmax=1, C=0.0)
        sched = build_schedule(golden_mean(), K=2, kmax=1, C=0.0, m=(0,))
        assert least_period_count(two_cycles, sched.n[0]) < 2 ** (sched.n[0] - 1)
        assert [r.ok for r in verify_schedule(two_cycles, sched).records
                if r.name == "periodic-code"] == [False]

    def test_single_orbit_small_n1(self):
        sched = build_schedule(orbit_system(2, "0"), K=2, kmax=1, C=0.0, m=(0,))
        assert least_period_count(orbit_system(2, "0"), sched.n[0]) < 2 ** (sched.n[0] - 1)

    def test_odometer_default_headroom(self):
        odo = dyadic_odometer(8)
        sched = build_schedule(odo, K=2, kmax=3, N_cert=128)
        assert not sched.periodic
        assert all(sched.alpha_float * sched.n[k - 1] >= 8 * 2 ** k - 1e-9
                   for k in range(1, 4))
        assert all(r.ok for r in verify_schedule(odo, sched).records)

    def test_alpha_value(self):
        sched = build_schedule(golden_mean(), K=2, kmax=1, C=0.0, m=(0,))
        assert sched.alpha_float == pytest.approx(math.log(2) - math.log(PHI), abs=1e-8)

    def test_serialization_roundtrip(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        text = sched.serialize()
        assert ScaleSchedule.parse(text) == sched
        assert ScaleSchedule.parse(text).serialize() == text

    def test_budget_arithmetic(self):
        sched = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 0), n=(100, 1000),
                              nprime=(100, 1100), r=(100, 1000), periodic=False)
        assert sched.fill1(1000) == 900
        assert sched.budget(10000, 2) == 500

    def test_word_counts_match_count_words(self):
        """The scale-1 counts are count_words, whose extension counts agree
        with transfer-matrix powers, and below the memory with the words."""
        for system in (golden_mean(), full_shift(3), Sft(2, forbidden=("111", "0101")),
                       orbit_system(2, "001")):
            counts, cells = _scale1_counts(system, 1, 38)
            assert counts == [system.count_words(n) for n in range(41)]
            assert cells == counts[2:]
            for n, count in enumerate(counts):
                if n >= system.memory:
                    power = matpow_int(system.adjacency, n - system.memory)
                    assert count == sum(sum(row) for row in power)
                else:
                    assert count == len(system.words(n))

    def test_growth_inequality_refused_on_periodic_systems(self):
        # golden K=4 schedules n = (27, 28, 29), so n'_2 = 55 >= n_3
        with pytest.raises(ScheduleError, match=r"growth inequality n'_k < n_\{k\+1\} fails at k=2"):
            build_schedule(golden_mean(), K=4, kmax=3, C=0.0)

    def test_growth_inequality_is_a_verify_record(self):
        # the same n = (27, 28, 29) as an override passes every other record
        two = build_schedule(golden_mean(), K=4, kmax=2, C=0.0)
        assert two.n == (27, 28)
        sched = ScaleSchedule(K=4, alpha=two.alpha, m=(0, 1, 2), n=(27, 28, 29),
                              nprime=(27, 55, 84), r=(27, 29, 31), periodic=True, C=0.0)
        records = verify_schedule(golden_mean(), sched).records
        assert [r.ok for r in records if r.name == "growth"] == [True, False]
        assert [r.line() for r in records if not r.ok] == [
            "entropy growth scale=2 FAIL n'_2 = 55, n_3 = 29"]
        with pytest.raises(ScheduleError, match="re-verification:\nentropy growth scale=2 FAIL"):
            build_pipeline(golden_mean(), K=4, kmax=3, schedule=sched)

    def test_wordless_scale1_tail_checks_the_cells_past_n_cert(self):
        # the dyadic odometer's radius-7 cells number 256 at every n, and
        # log 256 <= n (h + alpha/4) = n log(2)/4 needs n >= 32: n_1 = 20
        # past N_cert = 16 fails, n_1 = 40 past N_cert = 32 passes
        def record(n1, N_cert):
            sched = ScaleSchedule(K=2, alpha=ODOMETER_ALPHA, m=(7,), n=(n1,), nprime=(n1,),
                                  r=(n1 + 7,), periodic=False, N_cert=N_cert)
            return verify_schedule(dyadic_odometer(8), sched).records[0]
        assert record(20, 16) == VerifyRecord("entropy", "scale1-capacity", 1, False)
        assert record(40, 32) == VerifyRecord("entropy", "scale1-capacity", 1, True)

    def test_capacity_check_passes_for_golden(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        check_layout_capacity(sched)


GOLDEN_ALPHA = Fraction(227563855, 1073741824)      # build_schedule(golden_mean(), K=2, ...)
ODOMETER_ALPHA = Fraction(2977044471, 4294967296)   # log 2 at 2^-32 resolution


def reference_free(sched):
    """Top-down recursion over compositions of one target length at a time:
    fewest free slots a length-L stretch of regular (k-1)-blocks leaves.
    free.run(k, L) is the whole run for target L, best[0..L]."""
    @functools.lru_cache(maxsize=None)
    def run(k, L):
        lo, hi = sched.block_bounds(k - 1)
        best = [0] + [math.inf] * L
        for total in range(1, L + 1):
            for part in range(lo, min(hi - 1, total) + 1):
                avail = free(k - 1, part) - (0 if k == 2 else 1 + sched.budget(part, k - 1))
                best[total] = min(best[total], best[total - part] + avail)
        return best

    def free(k, L):
        return sched.free1(L) if k == 1 else run(k, L)[L]
    free.run = run
    return free


# the schedules the benchmark builds, where the capacity scan runs longest
BENCH_SCHEDULES = {
    "odometer": lambda: build_schedule(dyadic_odometer(8), K=2, kmax=3, N_cert=128),
    "golden-K2": lambda: build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0)),
    "golden-K3": lambda: build_schedule(golden_mean(), K=3, kmax=3, C=4.0, N_cert=128),
}


def small_schedule(alpha, n):
    nprime = tuple(sum(n[:i + 1]) for i in range(len(n)))
    return ScaleSchedule(K=2, alpha=alpha, m=(0,) * len(n), n=n, nprime=nprime,
                         r=n, periodic=False)


class TestLayoutCapacity:
    @pytest.mark.parametrize("alpha, n", [
        (Fraction(1, 5), (4, 9, 20)),
        (Fraction(1, 2), (5, 11, 23)),
        (Fraction(2, 3), (3, 7, 12)),
        (GOLDEN_ALPHA, (6, 13, 27)),
    ])
    def test_table_matches_reference_recursion(self, alpha, n):
        sched = small_schedule(alpha, n)
        tables = layout_free_tables(sched)
        ref = reference_free(sched)
        assert sorted(tables) == [2, 3]
        for k in (2, 3):
            assert len(tables[k]) == 2 * sched.nprime[k - 1]
            for L in range(len(tables[k])):
                assert tables[k][L] == ref(k, L), (k, L)
        # both realizable and unrealizable lengths are exercised
        assert math.inf in tables[3] and any(v != math.inf for v in tables[3])

    @pytest.mark.parametrize("name", sorted(BENCH_SCHEDULES))
    def test_bench_tables_match_reference_recursion(self, name):
        """The scan reads only remainders 0 and >= the shortest part; the
        recursion reads every remainder.  A run for the longest target holds
        the answer for every shorter one, so one run per scale covers every
        entry, unreachable lengths (inf) included."""
        sched = BENCH_SCHEDULES[name]()
        tables = layout_free_tables(sched)
        ref = reference_free(sched)
        assert sorted(tables) == list(range(2, sched.kmax + 1))
        for k, table in tables.items():
            assert table == ref.run(k, len(table) - 1), k
            assert math.inf in table[1:sched.n[k - 2]]

    def test_capacity_error_first_failure(self):
        sched = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 0), n=(20, 100),
                              nprime=(20, 120), r=(20, 100), periodic=False)
        with pytest.raises(CapacityError) as err:
            check_layout_capacity(sched)
        assert err.value.scale == 2
        assert err.value.block == 100
        assert "6 slots needed, 5 available" in str(err.value)

    def test_verify_record_can_fail(self):
        sched = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 0), n=(20, 100),
                              nprime=(20, 120), r=(20, 100), periodic=False)
        records = verify_schedule(golden_mean(), sched).records
        assert VerifyRecord("entropy", "layout-capacity", 2, False) in records

    def test_verify_record_passes_for_golden(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        assert VerifyRecord("entropy", "layout-capacity", 2, True) \
            in verify_schedule(golden_mean(), sched).records

    def test_override_failing_only_capacity_raises_capacity_error(self, monkeypatch):
        with monkeypatch.context() as patch:     # a schedule built unchecked
            patch.setattr(entropy, "check_layout_capacity", lambda schedule: None)
            sched = build_schedule(golden_mean(), K=2, kmax=3, C=0.0, m=(0, 0, 0))
        records = verify_schedule(golden_mean(), sched).records
        assert [r for r in records if not r.ok] == [VerifyRecord("entropy", "layout-capacity",
                                                                 3, False)]
        with pytest.raises(CapacityError) as err:
            build_pipeline(golden_mean(), K=2, kmax=3, schedule=sched)
        assert (err.value.scale, err.value.block) == (3, 38)

    @pytest.mark.parametrize("alpha", [GOLDEN_ALPHA, ODOMETER_ALPHA, Fraction(1, 5),
                                       Fraction(9, 4)])
    def test_integer_budgets_match_fraction_formulas(self, alpha):
        sched = small_schedule(alpha, (9,))
        for L in range(1, 5001):
            assert sched.fill1(L) == min(int((1 - alpha / 2) * L), L - 2)
            for k in (2, 3):
                assert sched.budget(L, k) == int(alpha * L / 2 ** k)

    @pytest.mark.parametrize("name", sorted({**BENCH_SCHEDULES, "golden-K3-kmax2": None}))
    def test_built_budgets_match_fraction_formulas(self, name):
        """The budgets divide alpha's integer numerator and denominator,
        rounding toward zero: at every scale k of a built schedule, every
        length L below layout_bounds(k)'s upper end has the fill1 and budget
        of the Fraction formulas."""
        sched = build_schedule(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 0)) \
            if name == "golden-K3-kmax2" else BENCH_SCHEDULES[name]()
        alpha = sched.alpha
        assert isinstance(alpha, Fraction)
        for k in range(1, sched.kmax + 1):
            for L in range(1, sched.layout_bounds(k)[1]):
                assert sched.fill1(L) == min(int((1 - alpha / 2) * L), L - 2), (k, L)
                assert sched.budget(L, k) == int(alpha * L / 2 ** k), (k, L)

    def test_odometer_schedule_pinned(self):
        sched = build_schedule(dyadic_odometer(8), K=2, kmax=3, N_cert=128)
        assert sched.n == (24, 47, 93)
        assert sched.nprime == (24, 71, 164)
        assert sched.r == (24, 48, 95)


TAIL_SYSTEMS = {
    "golden": golden_mean,
    "no-000": lambda: Sft(2, ["000"]),
    "no-0101": lambda: Sft(2, ["0101", "11"]),
    "three-letter": lambda: Sft(3, ["00", "12", "21"]),
    "odometer": lambda: dyadic_odometer(4),
}


class TestTailCertificate:
    @pytest.mark.parametrize("name", sorted(TAIL_SYSTEMS))
    def test_matches_per_pair_logs(self, name):
        """The certificate takes log #W_r once per r; the reference takes it
        for every pair (N0, r).  Both answer alike, and both answers occur."""
        system = TAIL_SYSTEMS[name]()
        h = system.spectral_log()
        answers = set()
        for K in (2, 3, 4):
            if h >= math.log(K) - 1e-12:
                continue
            alpha = float(entropy._alpha_fraction(math.log(K) - h))
            for m1 in (0, 1, 2):
                for N_cert in (16, 32, 64, 128):
                    counts, cells = _scale1_counts(system, m1, N_cert)
                    args = (alpha, m1, N_cert, counts, cells)
                    answer = entropy._family1_tail_certified(math.log(K), *args)
                    assert answer == family1_tail_per_pair_log(K, *args), (K, m1, N_cert)
                    answers.add(answer)
        assert answers == {False, True}

    def test_build_takes_each_log_once(self, monkeypatch):
        """Counted cost: one golden K = 2 build_schedule makes 171 math.log
        calls in entropy (336 with log K taken again at every n a family
        tests, 2,409 with a log per (N0, r) pair of the scale-1 tail
        certificate)."""
        calls = []

        def log(*args):
            calls.append(args)
            return math.log(*args)
        monkeypatch.setattr(entropy, "math", types.SimpleNamespace(**{**vars(math), "log": log}))
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        assert sched.n == (9, 19)
        assert len(calls) == 171


class TestAppendix:
    def test_full_shift_true_with_witness(self):
        ok, point = appendix_fullness_check(full_shift(), 2, 12, target="010101")
        assert ok
        assert point.word(-3, 2) == "010101"

    def test_golden_rejected_at_two(self):
        ok, n = appendix_fullness_check(golden_mean(), 2, 12)
        assert not ok and n == 2

    def test_full_three_shift_wrong_K(self):
        ok, n = appendix_fullness_check(full_shift(3), 3, 4)
        assert ok
        with pytest.raises(ValueError):
            appendix_fullness_check(full_shift(3), 2, 4)

    def test_orbit_gives_its_point_through_the_target(self):
        from shiftembed.systems import validate_point
        ok, point = appendix_fullness_check(orbit_system(1, "0"), 1, 4, target="00")
        assert ok and point.word(-1, 0) == "00"
        orbit = orbit_system(2, "011")
        point = complete_to_point(orbit, "1011", 3)
        validate_point(orbit, point)
        assert point.word(3, 6) == "1011" and point.word(0, 8) == "101101101"
        with pytest.raises(ValueError):
            complete_to_point(orbit, "00", 0)

    def test_completion_is_admissible(self):
        sys = golden_mean()
        p = complete_to_point(sys, "00100", -2)
        from shiftembed.systems import validate_point
        validate_point(sys, p)
        assert p.word(-2, 2) == "00100"
