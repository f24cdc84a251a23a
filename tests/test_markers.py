from fractions import Fraction

import pytest

from shiftembed.clopen import Clopen, OdoClopen
from shiftembed.entropy import ScaleSchedule, build_schedule
from shiftembed.errors import SeparationError
from shiftembed.markers import (PeriodicNeighborhood, build_towers,
                                return_partition, verify_tower)
from shiftembed.pipeline import (build_pipeline, load_pipeline, sample_points,
                                 save_pipeline)
from shiftembed.systems import (OdometerPoint, OrbitSystem, Point, Sft,
                                dyadic_odometer, full_shift, golden_mean)
from shiftembed.words import necklace, periodic_window


def small_schedule(n1, r1=None, m1=0, K=2, periodic=True):
    n1r = r1 if r1 is not None else max(n1, m1 + n1)
    return ScaleSchedule(K=K, alpha=Fraction(1, 5), m=(m1,), n=(n1,),
                         nprime=(n1,), r=(n1r,), periodic=periodic)


class TestPeriodicNeighborhood:
    def test_golden_period_one(self):
        nb = PeriodicNeighborhood(golden_mean(), 1, 2)
        assert nb.clopen().patterns == frozenset({"00000"})

    def test_golden_period_two(self):
        nb = PeriodicNeighborhood(golden_mean(), 2, 2)
        assert nb.clopen().patterns == frozenset({"00000", "01010", "10101"})

    def test_tagging(self):
        nb = PeriodicNeighborhood(golden_mean(), 2, 3)
        p = Point("01", "01", "01", 0)
        key, phase = nb.member(p, 0)
        assert key == "01"
        assert p.letter(5) == key[(5 + phase) % 2]

    def test_separation_failure_raises(self):
        with pytest.raises(SeparationError):
            PeriodicNeighborhood(golden_mean(), 9, 5)

    def test_radius_below_period_rejected(self):
        with pytest.raises(SeparationError):
            PeriodicNeighborhood(golden_mean(), 4, 2)

    def test_construction_enumerates_nothing(self):
        nb = PeriodicNeighborhood(golden_mean(), 19, 19)
        assert nb.match_word("01" * 19 + "0") == ("01", 0)
        assert "orbits" not in vars(nb)


def test_root_outside_the_system_rejected():
    assert PeriodicNeighborhood(golden_mean(), 2, 2).match_word("11111") is None
    orbit = PeriodicNeighborhood(OrbitSystem(2, "001"), 3, 3)
    assert orbit.match_word("0" * 7) is None
    assert orbit.match_word("0010010") == ("001", 0)


def reference_window_map(system, n, r):
    """Every width-(2r+1) window of an orbit of period <= n, mapped to its
    (necklace, rotation), from an explicit orbit table; a window seen on two
    orbits would break the separation the lazy test relies on."""
    table = {}
    for p in range(1, n + 1):
        for w in system.least_period_words(p):
            table.setdefault(necklace(w), p)
    windows = {}
    for key, p in table.items():
        for j in range(p):
            w = periodic_window(key, j, j + 2 * r)
            assert windows.setdefault(w, (key, j)) == (key, j)
    return table, windows


def _lazy_cases(name, system, ns, radii):
    return [pytest.param(system, n, r, id="%s-n%d-r%d" % (name, n, r))
            for n in ns for r in radii(n)]


LAZY_CASES = (_lazy_cases("golden", golden_mean(), range(1, 9), lambda n: (n, n + 1))
              + _lazy_cases("full", full_shift(), range(1, 6), lambda n: (n,))
              + _lazy_cases("sft3", Sft(3, forbidden=("22", "201")), range(1, 6),
                            lambda n: (n,))
              + _lazy_cases("orbit001", OrbitSystem(2, "001"), range(1, 6),
                            lambda n: (n, n + 1)))


@pytest.mark.parametrize("system,n,r", LAZY_CASES)
def test_lazy_match_equals_table(system, n, r):
    table, windows = reference_window_map(system, n, r)
    nb = PeriodicNeighborhood(system, n, r)
    for w in system.words(2 * r + 1):
        assert nb.match_word(w) == windows.get(w), w
    assert nb.orbits == table
    # admissible windows only ever ask about orbits
    assert set(nb._is_orbit) <= set(table)


def test_load_enumerates_only_the_periodic_code(tmp_path, monkeypatch):
    pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    save_pipeline(pipe, str(tmp_path))
    asked = []
    real = Sft.least_period_words

    def recording(self, n):
        asked.append(n)
        return real(self, n)

    monkeypatch.setattr(Sft, "least_period_words", recording)
    again = load_pipeline(str(tmp_path))
    assert again.schedule.n == (9, 19)
    assert asked and max(asked) <= 9


def test_golden_towers_orbit_counts(pipe):
    lines = pipe.stack.serialize().splitlines()
    counts = [len(line[len("orbits: ["):-1].split(", "))
              for line in lines if line.startswith("orbits: ")]
    assert counts == [25, 1420]


class TestOdometerTowers:
    def test_dyadic_base_tower_is_digit_cylinder(self):
        odo = dyadic_odometer(4)
        sched = small_schedule(2, periodic=False)
        stack = build_towers(odo, sched)
        u1 = stack[1].flat
        assert u1.equals(OdoClopen.digit_cylinder(odo, (0,)))

    def test_three_scales_verify_exactly(self):
        odo = dyadic_odometer(8)
        sched = build_schedule(odo, K=2, kmax=3, N_cert=128)
        stack = build_towers(odo, sched)
        for k in (1, 2, 3):
            report = verify_tower(stack, k)
            assert report.passed, report.lines()

    def test_nesting_is_exact_subset(self):
        odo = dyadic_odometer(8)
        sched = build_schedule(odo, K=2, kmax=3, N_cert=128)
        stack = build_towers(odo, sched)
        assert stack[2].flat.is_subset(stack[1].flat)
        assert stack[3].flat.is_subset(stack[2].flat)

    def test_return_partition_even_times(self):
        odo = dyadic_odometer(4)
        sched = small_schedule(2, periodic=False)
        stack = build_towers(odo, sched)
        p = OdometerPoint(odo, (0, 0, 0, 0))
        part = return_partition(p, stack, 1, (0, 7))
        regs = [iv for iv in part.intervals if iv.kind == "regular"]
        assert all(iv.end - iv.start == 2 for iv in regs)
        assert all(iv.start % 2 == 0 for iv in regs)
        assert any(iv.covers(0) and iv.covers(1) for iv in regs)


class TestFullShiftTower:
    def test_greedy_avoids_fixed_points(self):
        fs = full_shift()
        sched = small_schedule(2, r1=2)
        stack = build_towers(fs, sched)
        tower = stack[1]
        assert tower.flat is not None
        fixed = Clopen.from_cylinder(fs, -2, "00000").refine(tower.flat.radius)
        assert tower.flat.intersection(fixed).is_empty()

    def test_flat_verification_passes(self):
        fs = full_shift()
        sched = small_schedule(2, r1=2)
        stack = build_towers(fs, sched)
        report = verify_tower(stack, 1)
        assert report.passed, report.lines()

    def test_corrupted_tower_fails_disjointness(self):
        fs = full_shift()
        sched = small_schedule(2, r1=2)
        stack = build_towers(fs, sched)
        tower = stack[1]
        w = 2 * tower.flat.radius + 1
        corrupt = tower.flat.union(Clopen(fs, tower.flat.radius, {"0" * w}, check=False))
        tower.flat = corrupt
        report = verify_tower(stack, 1)
        dis = [r for r in report.records if r.invariant == "disjointness"]
        assert any(not r.ok for r in dis)


@pytest.fixture(scope="module")
def pipe():
    return build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))


class TestGoldenTowers:

    def test_verify_both_scales(self, pipe):
        probes = sample_points(golden_mean(), 4, seed=5)
        for k in (1, 2):
            report = verify_tower(pipe.stack, k, probe_points=probes)
            assert report.passed, report.lines()

    def test_return_gaps_in_range(self, pipe):
        pts = sample_points(golden_mean(), 12, seed=9)
        for p in pts:
            part = return_partition(p, pipe.stack, 1, (-60, 60))
            for t0, t1 in zip(part.returns, part.returns[1:]):
                assert t1 - t0 >= pipe.schedule.n[0]

    def test_partition_equivariance(self, pipe):
        p = Point("10", "00100101", "001", -3)
        a = return_partition(p, pipe.stack, 1, (-30, 30))
        b = return_partition(p.shifted(1), pipe.stack, 1, (-31, 29))
        assert [t - 1 for t in a.returns] == b.returns

    def test_fully_periodic_point_is_one_singular_block(self, pipe):
        p = Point("01", "01", "01", 0)
        part = return_partition(p, pipe.stack, 1, (-20, 20))
        assert len(part.intervals) == 1
        iv = part.intervals[0]
        assert iv.kind == "singular" and iv.special
        assert (iv.start, iv.end) == (None, None)
        assert iv.orbit == "01"

    def test_one_sided_singular_interval(self, pipe):
        p = Point("00100", "00100", "0", 0)  # right tail collapses to the fixed point
        part = return_partition(p, pipe.stack, 1, (-30, 30))
        last = part.intervals[-1]
        assert last.kind == "singular" and last.end is None
        assert last.orbit == "0"
        assert last.start is not None

    def test_singular_tags_carry_phase(self, pipe):
        p = Point("001", "001", "001", 0)
        part = return_partition(p, pipe.stack, 1, (-10, 10))
        iv = part.intervals[0]
        assert iv.orbit == "001"
        for t in (-3, 0, 4):
            assert p.letter(t) == iv.orbit[(t + iv.phase) % 3]


def test_periodic_neighborhood_wrapper():
    from shiftembed.markers import periodic_neighborhood
    assert periodic_neighborhood(dyadic_odometer(4), 3, 3) is None
    nb = periodic_neighborhood(golden_mean(), 1, 2)
    assert nb.clopen().patterns == frozenset({"00000"})
