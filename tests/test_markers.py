import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftembed.clopen import Clopen, OdoClopen
from shiftembed.entropy import ScaleSchedule, build_schedule
from shiftembed.errors import SeparationError
from shiftembed.markers import (PeriodicNeighborhood, build_towers,
                                return_partition, verify_tower)
from shiftembed.pipeline import (build_pipeline, load_pipeline, sample_points,
                                 save_pipeline)
from shiftembed.systems import (OdometerPoint, OrbitSystem, Point, Sft,
                                dyadic_odometer, full_shift, golden_mean)
from shiftembed.words import (is_primitive, least_period_at_most, min_period, necklace,
                              periodic_window)


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


@pytest.mark.parametrize("letters, longest", [("01", 12), ("012", 7)],
                         ids=["two-letter", "three-letter"])
def test_least_rotation_against_every_rotation(letters, longest):
    """necklace is the least of all rotations of every word, and the
    rotation that match_word returns with it rebuilds a primitive window."""
    system = full_shift(len(letters))
    for p in range(1, longest + 1):
        nb = PeriodicNeighborhood(system, p, p)
        for w in itertools.product(letters, repeat=p):
            w = "".join(w)
            assert necklace(w) == min(w[i:] + w[:i] for i in range(p)), w
            if is_primitive(w):
                v, d = nb.match_word(periodic_window(w, 0, 2 * p))
                assert v == necklace(w) and w == v[d:] + v[:d], w


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
    from shiftembed import codec, systems
    pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    save_pipeline(pipe, str(tmp_path))
    asked = []
    real = systems._lyndon_orbits

    def recording(system, nmax):
        asked.append(nmax)
        return real(system, nmax)

    def refuse(*args):
        raise AssertionError("load rebuilt the periodic code")

    monkeypatch.setattr(systems, "_lyndon_orbits", recording)
    monkeypatch.setattr(codec, "build_periodic_code", refuse)
    again = load_pipeline(str(tmp_path))
    assert again.schedule.n == (9, 19)
    assert asked and max(asked) <= 9
    assert again.periodic_code.orbit_code == pipe.periodic_code.orbit_code


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

    def test_residue_returns_equal_member_scan(self):
        # the bench odometer pipeline: returns found by residue arithmetic
        # are exactly the times of a membership scan over the same range
        odo = dyadic_odometer(8)
        pipe = build_pipeline(odo, K=2, kmax=3, N_cert=128)
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        for p in sample_points(odo, 20, seed=12):
            for k in (1, 2, 3):
                tower = pipe.stack[k]
                part = return_partition(p, pipe.stack, k, window)
                lo, hi = part.computed_range
                assert part.returns == [t for t in range(lo, hi + 1) if tower.member(p, t)]
                # ranges that start or end exactly on a return keep it
                mod = odo.modulus(tower.depth)
                for t in part.returns[:3]:
                    for a, b in ((t - mod, t), (t, t + mod), (t, t)):
                        assert tower.returns(p, a, b) == \
                            [u for u in range(a, b + 1) if tower.member(p, u)]


# -- the flat reference -------------------------------------------------------
#
# The package decides word-tower membership only by the lazy rank chase
# (WordTower.member).  The flat evaluator below runs the same greedy rule
# three-valued on finite words and widens the words until every admissible
# context resolves.  Where that fits the budget it gives the tower as one
# pattern set, whose three invariants are plain set algebra.

FLAT_BUDGET = 300_000
UNKNOWN = "unknown"


def flat_rank(tower, parent, word, pos):
    """WordTower.rank of the piece at word[pos], read off the word alone:
    UNKNOWN when the word is too short to tell.  `parent` is the flat set
    of the previous scale."""
    R = tower.piece_halfwidth
    lo, hi = pos - R, pos + R
    if lo < 0 or hi >= len(word):
        return UNKNOWN
    window = word[lo:hi + 1]
    central = window[R - tower.r: R + tower.r + 1]

    def outside_orbits(w):
        return tower.pernbhd is None or tower.pernbhd.match_word(w) is None

    if tower.k == 1:
        return (1, window) if outside_orbits(central) else None
    prad = parent.radius

    def in_parent(q):
        if q - prad < 0 or q + prad >= len(word):
            return UNKNOWN
        return word[q - prad: q + prad + 1] in parent.patterns

    inside = in_parent(pos)
    if inside == UNKNOWN:
        return UNKNOWN
    if inside:
        return (1, window) if outside_orbits(window) else None
    for i in range(-(tower.prev_nprime - 1), tower.prev_nprime):
        near = in_parent(pos + i)
        if near == UNKNOWN:
            return UNKNOWN
        if near:
            return None  # near the parent tower but outside it: in neither tier
    return (2, window) if outside_orbits(central) else None


def flat_member(tower, parent, word, center):
    """Three-valued greedy acceptance on a finite word: True, False, or None
    when the word is too short to tell."""
    rk = flat_rank(tower, parent, word, center)
    if rk == UNKNOWN:
        return None
    if rk is None:
        return False
    unknown = False
    for m in tower.chase_order:
        rk2 = flat_rank(tower, parent, word, center + m)
        if rk2 == UNKNOWN:
            unknown = True
        elif rk2 is not None and rk2 < rk:
            sub = flat_member(tower, parent, word, center + m)
            if sub is True:
                return False
            if sub is None:
                unknown = True
    return None if unknown else True


def materialize(tower, parent=None):
    """The tower as one exact pattern set: the narrowest width, in steps of
    2(n_k - 1) beyond the piece width, on which every admissible word
    decides its center; None when that passes FLAT_BUDGET words."""
    system = tower.system
    base = 2 * tower.piece_halfwidth + 1
    for extra in range(1, 9):
        width = base + 2 * (tower.n - 1) * extra
        if system.count_words(width) > FLAT_BUDGET:
            return None
        pats = set()
        for w in system.words(width):
            val = flat_member(tower, parent, w, width // 2)
            if val is None:
                break
            if val:
                pats.add(w)
        else:
            return Clopen(system, width // 2, pats, width_cap=width + 1, check=False)
    return None


def flat_disjointness(tower, flat):
    """None when no admissible word holds two patterns at distance below
    n_k, else the first overlap found."""
    W = 2 * flat.radius + 1
    by_prefix = {}
    for v in flat.patterns:
        for i in range(1, tower.n):
            by_prefix.setdefault(v[:W - i], set()).add(v)
    for u in sorted(flat.patterns):
        for i in range(1, tower.n):
            for v in sorted(by_prefix.get(u[i:], ())):
                if tower.system.is_admissible(u + v[W - i:]):
                    return "patterns %r / %r overlap at shift %d" % (u, v, i)
    return None


def flat_covering(tower, flat):
    """None when every admissible point has a pattern within distance
    n'_k - 1 or sits in the periodic neighborhood, else an uncovered word."""
    W = 2 * flat.radius + 1
    span = W + 2 * (tower.nprime - 1)
    mid = span // 2
    for w in tower.system.words(span):
        if any(w[mid + i - flat.radius: mid + i + flat.radius + 1] in flat.patterns
               for i in range(-(tower.nprime - 1), tower.nprime)):
            continue
        central = w[mid - tower.r: mid + tower.r + 1]
        if tower.pernbhd is None or tower.pernbhd.match_word(central) is None:
            return "uncovered word %r" % w
    return None


def flat_nesting(tower, flat, parent):
    """None when every pattern's center lies in the parent set or has no
    parent member within distance n'_(k-1) - 1 (the two tiers), else the
    first pattern that is near the parent set but outside it."""
    c = flat.radius
    assert c >= parent.radius + tower.prev_nprime - 1
    for u in sorted(flat.patterns):
        windows = {i: u[c + i - parent.radius: c + i + parent.radius + 1]
                   for i in range(-(tower.prev_nprime - 1), tower.prev_nprime)}
        if windows[0] in parent.patterns:
            continue
        if any(v in parent.patterns for v in windows.values()):
            return "pattern %r is near the parent tower but outside it" % u
    return None


def flat_stack(system, schedule):
    """(lazy stack, flat set per scale); a scale that does not resolve
    within the budget, and every scale above it, has None."""
    stack = build_towers(system, schedule)
    flats = []
    parent = None
    for k in range(1, len(stack) + 1):
        parent = materialize(stack[k], parent) if k == 1 or parent else None
        flats.append(parent)
    return stack, flats


def lazy_equals_flat(stack, k, flat):
    """Windows of the flat width whose lazy membership at their center
    differs from the flat set.  Each window is embedded in a point with
    letter 0 repeated on both sides, which is admissible in the golden mean
    and the full shift."""
    R = flat.radius
    out = []
    for w in stack.system.words(2 * R + 1):
        point = Point("0", w, "0", -R)
        if stack[k].member(point, 0, stack.runtime(point)) != (w in flat.patterns):
            out.append(w)
    return out


@pytest.fixture(scope="module")
def full_flat():
    """The full shift's tower at n = n' = r = 2 with its flat set (radius 7,
    13,340 patterns)."""
    stack, (flat,) = flat_stack(full_shift(), small_schedule(2))
    return stack, flat


@pytest.fixture(scope="module")
def golden_flats():
    """n_1 -> (lazy stack, flat sets) of two golden scales with
    n = n' = r = (n_1, 2), the smallest golden schedules whose scale-2
    tower resolves within the budget.  With n_1 = 1 a tier-1 and a tier-2
    piece can meet in the rank chase; with n_1 = 2 a piece beside a parent
    member is in neither tier, which is what the nesting check reads."""
    out = {}
    for n1 in (1, 2):
        schedule = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 0), n=(n1, 2),
                                 nprime=(n1, 2), r=(n1, 2), periodic=True)
        out[n1] = flat_stack(golden_mean(), schedule)
    return out


class TestFullShiftTower:
    def test_greedy_avoids_fixed_points(self, full_flat):
        _, flat = full_flat
        fixed = Clopen.from_cylinder(full_shift(), -2, "00000").refine(flat.radius)
        assert flat.intersection(fixed).is_empty()

    def test_flat_verification_passes(self, full_flat):
        stack, flat = full_flat
        assert flat_disjointness(stack[1], flat) is None
        assert flat_covering(stack[1], flat) is None
        report = verify_tower(stack, 1)
        assert report.passed, report.lines()

    def test_corrupted_tower_fails_disjointness(self, full_flat):
        _, flat = full_flat
        stack = build_towers(full_shift(), small_schedule(2))
        tower = stack[1]
        w = 2 * flat.radius + 1
        corrupt = flat.union(Clopen(full_shift(), flat.radius, {"0" * w}, check=False))
        assert "overlap at shift 1" in flat_disjointness(tower, corrupt)
        # the lazy tower, corrupted to chase smaller ranks on the right only:
        # of two neighboring pieces, the smaller-ranked one no longer vetoes
        # its right neighbor
        probes = sample_points(full_shift(), 3, seed=5)
        assert verify_tower(stack, 1, probe_points=probes).passed
        tower.chase_order = [m for m in tower.chase_order if m > 0]
        report = verify_tower(stack, 1, probe_points=probes)
        dis = [r for r in report.records if (r.invariant, r.method) == ("disjointness", "probe")]
        assert dis and not any(r.ok for r in dis)


class TestFlatReference:
    """The flat sets as the reference for lazy membership, and their
    invariant checks against corrupted sets."""

    def test_lazy_member_equals_flat_set_full_shift(self, full_flat):
        stack, flat = full_flat
        assert 2 * flat.radius + 1 == 15
        assert lazy_equals_flat(stack, 1, flat) == []

    def test_lazy_member_equals_flat_set_golden(self):
        stack, (flat,) = flat_stack(golden_mean(), small_schedule(2))
        assert 2 * flat.radius + 1 == 15
        assert lazy_equals_flat(stack, 1, flat) == []

    def test_lazy_member_equals_flat_set_at_scale_two(self, golden_flats):
        assert {n1: [f.radius for f in flats] for n1, (_, flats) in golden_flats.items()} \
            == {1: [1, 9], 2: [7, 9]}
        for stack, flats in golden_flats.values():
            for k in (1, 2):
                assert lazy_equals_flat(stack, k, flats[k - 1]) == []

    def test_invariants_hold_at_both_scales(self, golden_flats):
        for stack, (flat1, flat2) in golden_flats.values():
            for k, flat in ((1, flat1), (2, flat2)):
                assert flat_disjointness(stack[k], flat) is None
                assert flat_covering(stack[k], flat) is None
            assert flat_nesting(stack[2], flat2, flat1) is None

    def test_corrupted_sets_fail(self, golden_flats):
        golden = golden_mean()
        stack, (flat1, flat2) = golden_flats[2]
        tower = stack[2]
        W = 2 * flat2.radius + 1
        doubled = flat2.union(Clopen(golden, flat2.radius, {"0" * W}, check=False))
        assert "overlap at shift 1" in flat_disjointness(tower, doubled)
        # with n' = n every member is the only one within distance n' - 1,
        # so the points around a dropped pattern are uncovered
        dropped = Clopen(golden, flat2.radius, sorted(flat2.patterns)[1:], check=False)
        assert "uncovered word" in flat_covering(tower, dropped)
        # a center just beside a parent member, outside the parent set
        c, R1 = flat2.radius, flat1.radius
        beside = next(w for w in golden.words(W)
                      if w[c + 1 - R1: c + 2 + R1] in flat1.patterns
                      and w[c - R1: c + R1 + 1] not in flat1.patterns)
        near = flat2.union(Clopen(golden, flat2.radius, {beside}, check=False))
        assert "near the parent tower" in flat_nesting(tower, near, flat1)


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


def near_reference(tower, point, pos, w, runtime):
    """The sweep TowerRuntime.near replaces."""
    return any(tower.member(point, pos + i, runtime) for i in range(-(w - 1), w))


class TestNearAReturn:
    # the first query fixes the array's base; the rest grow it to the right
    # and to the left, or fall inside what is already counted
    POSITIONS = [0, 5, 40, -3, -50, 90, -120, 1, 200, -7] + list(range(-30, 31, 7))

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_sweep(self, pipe, k):
        tower = pipe.stack[k]
        for point in sample_points(golden_mean(), 6, seed=21) + [Point("01", "01", "01", 0)]:
            fast = pipe.stack.runtime(point)
            slow = pipe.stack.runtime(point)
            for pos in self.POSITIONS:
                for w in (tower.nprime, tower.n, 1):
                    assert fast.near(tower, pos, w) == near_reference(tower, point, pos, w, slow)
            base, right, left = fast._counts[k]
            assert base - len(left) + 1 <= -120 - (tower.nprime - 1)
            assert base + len(right) - 1 >= 200 + tower.nprime

    def test_scales_count_separately(self, pipe):
        point = Point("10", "00100101", "001", -3)
        rt = pipe.stack.runtime(point)
        rt.near(pipe.stack[2], 0, pipe.stack[2].nprime)   # reads scale 1 through the ranks
        assert set(rt._counts) == {1, 2}
        ref = pipe.stack.runtime(point)
        for t in range(-60, 60):
            for k in (1, 2):
                tower = pipe.stack[k]
                assert rt.near(tower, t, tower.nprime) == \
                    near_reference(tower, point, t, tower.nprime, ref)


def test_chase_order_is_the_sorted_offsets():
    for n in range(1, 26):
        stack = build_towers(golden_mean(), small_schedule(n))
        assert stack[1].chase_order == [m for m in sorted(range(-(n - 1), n), key=abs)
                                        if m != 0]


periodic_words = st.builds(lambda root, reps, cut: (root * reps)[:max(1, len(root) * reps - cut)],
                           st.text("01", min_size=1, max_size=9), st.integers(1, 9),
                           st.integers(0, 8))


@settings(max_examples=500, deadline=None)
@given(w=st.one_of(st.text("012", min_size=1, max_size=45), periodic_words),
       n=st.integers(1, 30))
def test_bounded_period_test_equals_min_period(w, n):
    p = min_period(w)
    assert least_period_at_most(w, n) == (p if p <= n else None)


def test_periodic_neighborhood_wrapper():
    from shiftembed.markers import periodic_neighborhood
    assert periodic_neighborhood(dyadic_odometer(4), 3, 3) is None
    nb = periodic_neighborhood(golden_mean(), 1, 2)
    assert nb.clopen().patterns == frozenset({"00000"})
