import functools
import math
from fractions import Fraction

import pytest

from shiftembed.entropy import (ScaleSchedule, _word_counts, appendix_fullness_check,
                                build_schedule, conditional_count,
                                check_layout_capacity, complete_to_point,
                                htop_estimate, layout_free_tables,
                                least_period_count, per_growth_in_cell,
                                verify_schedule)
from shiftembed.errors import CapacityError, ScheduleError
from shiftembed.pipeline import build_pipeline
from shiftembed.systems import (OrbitSystem, Sft, dyadic_odometer, full_shift,
                                golden_mean)

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
        est = htop_estimate(OrbitSystem(2, "0"), 6)
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


class TestPerGrowth:
    def test_full_shift_zero(self):
        for n in range(1, 11):
            assert per_growth_in_cell(full_shift(), 0, n) == 0.0

    def test_golden_zero(self):
        assert per_growth_in_cell(golden_mean(), 0, 4) == 0.0

    def test_odometer_zero(self):
        assert per_growth_in_cell(dyadic_odometer(4), 0, 5) == 0.0

    def test_nonincreasing_in_m(self):
        for n in (2, 4, 6):
            vals = [per_growth_in_cell(golden_mean(), m, n) for m in range(3)]
            assert vals == sorted(vals, reverse=True)

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
        assert all(ok for _, _, ok in verify_schedule(golden_mean(), sched))

    def test_full_shift_k2_rejected(self):
        with pytest.raises(ScheduleError):
            build_schedule(full_shift(), K=2, kmax=1)

    def test_single_orbit_small_n1(self):
        sched = build_schedule(OrbitSystem(2, "0"), K=2, kmax=1, C=0.0, m=(0,))
        assert least_period_count(OrbitSystem(2, "0"), sched.n[0]) < 2 ** (sched.n[0] - 1)

    def test_odometer_default_headroom(self):
        odo = dyadic_odometer(8)
        sched = build_schedule(odo, K=2, kmax=3, N_cert=128)
        assert not sched.periodic
        assert all(sched.alpha_float * sched.n[k - 1] >= 8 * 2 ** k - 1e-9
                   for k in range(1, 4))
        assert all(ok for _, _, ok in verify_schedule(odo, sched))

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
        for system in (golden_mean(), full_shift(3), Sft(2, forbidden=("111", "0101")),
                       OrbitSystem(2, "001")):
            assert _word_counts(system, 40) == [system.count_words(n) for n in range(41)]

    def test_capacity_check_passes_for_golden(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        check_layout_capacity(sched)


GOLDEN_ALPHA = Fraction(227563855, 1073741824)      # build_schedule(golden_mean(), K=2, ...)
ODOMETER_ALPHA = Fraction(2977044471, 4294967296)   # log 2 at 2^-32 resolution


def reference_free(sched):
    """Top-down recursion over compositions of one target length at a time:
    fewest free slots a length-L stretch of regular (k-1)-blocks leaves."""
    @functools.lru_cache(maxsize=None)
    def free(k, L):
        if k == 1:
            return sched.free1(L)
        lo, hi = sched.block_bounds(k - 1)
        best = [0] + [math.inf] * L
        for total in range(1, L + 1):
            for part in range(lo, min(hi - 1, total) + 1):
                avail = free(k - 1, part) - (0 if k == 2 else 1 + sched.budget(part, k - 1))
                best[total] = min(best[total], best[total - part] + avail)
        return best[L]
    return free


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
        records = verify_schedule(golden_mean(), sched, full=False)
        assert ("layout-capacity", 2, False) in records

    def test_verify_record_passes_for_golden(self):
        sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        assert ("layout-capacity", 2, True) in verify_schedule(golden_mean(), sched)

    def test_override_failing_only_capacity_raises_capacity_error(self):
        sched = build_schedule(golden_mean(), K=2, kmax=3, C=0.0, m=(0, 0, 0),
                               check_capacity=False)
        records = verify_schedule(golden_mean(), sched, full=False)
        assert [r for r in records if not r[2]] == [("layout-capacity", 3, False)]
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

    def test_odometer_schedule_pinned(self):
        sched = build_schedule(dyadic_odometer(8), K=2, kmax=3, N_cert=128)
        assert sched.n == (24, 47, 93)
        assert sched.nprime == (24, 71, 164)
        assert sched.r == (24, 48, 95)


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

    def test_completion_is_admissible(self):
        sys = golden_mean()
        p = complete_to_point(sys, "00100", -2)
        from shiftembed.systems import validate_point
        validate_point(sys, p)
        assert p.word(-2, 2) == "00100"
