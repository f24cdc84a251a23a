import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from check_reference import escaping_pieces, filtered_least_period_words, min_period
from clopen_reference import Clopen, OdoClopen
from encode_reference import bounded_stretch_points, long_tail_points, reference_tag
from rank_reference import ReferenceTowers
from shiftembed.blocks import LayoutBlock
from shiftembed.entropy import ScaleSchedule, build_schedule
from shiftembed.errors import (NestingError, ScheduleError, SeparationError, ShiftEmbedError,
                               WindowError)
from shiftembed import codec, markers
from shiftembed.markers import (Interval, PeriodicNeighborhood, ReturnPartition, TowerStack,
                                _adjust_boundaries, _check_special_nesting, _tag_singular,
                                build_towers, return_partition, verify_tower)
from shiftembed.pipeline import (_encode_pass, build_pipeline, load_pipeline, sample_points,
                                 save_pipeline, verify_pipeline)
from shiftembed.systems import (OdometerPoint, Point, Sft, dyadic_odometer, full_shift,
                                golden_mean, least_period_words, orbit_system)
from shiftembed.words import (is_primitive, least_period_at_most, necklace, periodic_name,
                              periodic_window, primitive_root)


def small_schedule(n1, r1=None, m1=0, K=2, periodic=True):
    n1r = r1 if r1 is not None else max(n1, m1 + n1)
    return ScaleSchedule(K=K, alpha=Fraction(1, 5), m=(m1,), n=(n1,),
                         nprime=(n1,), r=(n1r,), periodic=periodic)


def matched_windows(nb):
    """The admissible width-(2r+1) words that the lazy membership test accepts."""
    return {w for w in nb.system.words(2 * nb.r + 1) if nb.match_word(w)}


class TestPeriodicNeighborhood:
    def test_golden_period_one(self):
        nb = PeriodicNeighborhood(golden_mean(), 1, 2)
        assert matched_windows(nb) == {"00000"}

    def test_golden_period_two(self):
        nb = PeriodicNeighborhood(golden_mean(), 2, 2)
        assert matched_windows(nb) == {"00000", "01010", "10101"}

    def test_tagging(self):
        stack = build_towers(golden_mean(), small_schedule(2, 3))
        p = Point("01", "01", "01", 0)
        key, phase, period = stack.runtime(p).match(stack[1], 0)
        assert (key, period) == ("01", 2)
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
    orbit = PeriodicNeighborhood(orbit_system(2, "001"), 3, 3)
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
        for w in filtered_least_period_words(system, p):
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
              + _lazy_cases("orbit001", orbit_system(2, "001"), range(1, 6),
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
    assert [len(tower.pernbhd.orbits) for tower in pipe.stack] == [25, 1420]


def residue_set(tower):
    """The odometer tower as a reference residue set."""
    return OdoClopen(tower.system, tower.depth, tower.residues)


def dyadic_stack():
    """Towers of the depth-8 dyadic odometer, K = 2, kmax = 3: each scale
    holds the one residue 0, modulo 32, 64 and 128."""
    odo = dyadic_odometer(8)
    stack = build_towers(odo, build_schedule(odo, K=2, kmax=3, N_cert=128))
    assert [(odo.modulus(stack[k].depth), stack[k].residues) for k in (1, 2, 3)] \
        == [(32, {0}), (64, {0}), (128, {0})]
    return stack


def flat_exact_records(stack, k):
    """invariant -> (ok, detail) of the records verify_tower gives scale k."""
    records = verify_tower(stack, k).records
    assert {r.name.partition("(")[2] for r in records} == {"flat-exact)"}
    return {r.name.partition("(")[0]: (r.ok, r.detail) for r in records}


class TestOdometerTowers:
    def test_dyadic_base_tower_is_digit_cylinder(self):
        odo = dyadic_odometer(4)
        sched = small_schedule(2, periodic=False)
        stack = build_towers(odo, sched)
        u1 = residue_set(stack[1])
        assert u1.equals(OdoClopen.digit_cylinder(odo, (0,)))

    def test_three_scales_verify_exactly(self):
        stack = dyadic_stack()
        for k in (1, 2, 3):
            report = verify_tower(stack, k)
            assert report.passed, report.lines()

    def test_nesting_is_exact_subset(self):
        stack = dyadic_stack()
        assert residue_set(stack[2]).is_subset(residue_set(stack[1]))
        assert residue_set(stack[3]).is_subset(residue_set(stack[2]))

    def test_residue_beside_a_member_fails_disjointness(self):
        stack = dyadic_stack()
        stack[1].residues |= {1}
        assert flat_exact_records(stack, 1) == {"disjointness": (False, ""),
                                                "covering": (True, "uncovered=0")}

    def test_dropped_residue_fails_covering(self):
        stack = dyadic_stack()
        stack[1].residues = frozenset()
        assert flat_exact_records(stack, 1)["covering"] == (False, "uncovered=32")

    def test_nesting_reads_the_parent_at_its_own_depth(self):
        # scale 2 counts modulo 64 and scale 1 modulo 32: the residue 32 of
        # scale 2 lies over the residue 0 of scale 1, and 16 over 16, which
        # scale 1 does not hold
        stack = dyadic_stack()
        stack[2].residues = frozenset({32})
        assert flat_exact_records(stack, 2)["nesting"] == (True, "")
        stack[2].residues = frozenset({16})
        assert flat_exact_records(stack, 2) == {"disjointness": (True, ""),
                                                "covering": (True, "uncovered=0"),
                                                "nesting": (False, "")}

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
        return tower.pernbhd.match_word(w) is None

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
            return Clopen(system, width // 2, pats, width_cap=width + 1)
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
        if tower.pernbhd.match_word(central) is None:
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
        corrupt = flat.union(Clopen(full_shift(), flat.radius, {"0" * w}))
        assert "overlap at shift 1" in flat_disjointness(tower, corrupt)
        # the lazy tower, corrupted to chase smaller ranks on the right only:
        # of two neighboring pieces, the smaller-ranked one no longer vetoes
        # its right neighbor
        probes = sample_points(full_shift(), 3, seed=5)
        assert verify_tower(stack, 1, probe_points=probes).passed
        tower.chase_order = [m for m in tower.chase_order if m > 0]
        report = verify_tower(stack, 1, probe_points=probes)
        dis = [r for r in report.records if r.name == "disjointness(probe)"]
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
        doubled = flat2.union(Clopen(golden, flat2.radius, {"0" * W}))
        assert "overlap at shift 1" in flat_disjointness(tower, doubled)
        # with n' = n every member is the only one within distance n' - 1,
        # so the points around a dropped pattern are uncovered
        dropped = Clopen(golden, flat2.radius, sorted(flat2.patterns)[1:])
        assert "uncovered word" in flat_covering(tower, dropped)
        # a center just beside a parent member, outside the parent set
        c, R1 = flat2.radius, flat1.radius
        beside = next(w for w in golden.words(W)
                      if w[c + 1 - R1: c + 2 + R1] in flat1.patterns
                      and w[c - R1: c + R1 + 1] not in flat1.patterns)
        near = flat2.union(Clopen(golden, flat2.radius, {beside}))
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


def short_period_record(stack):
    """(ok, count) of the scale-1 structural-exact disjointness record."""
    (record,) = [r for r in verify_tower(stack, 1).records
                 if r.name == "disjointness(structural-exact)"]
    prefix = "short-period pieces escaping the neighborhood: "
    assert record.detail.startswith(prefix)
    return record.ok, int(record.detail[len(prefix):])


class TestShortPeriodPieces:
    """The disjointness record lists the pieces of least period below n_1
    as periodic extensions of shorter words; the full scan over every
    piece-width word is the reference."""

    @pytest.mark.parametrize("make", [
        lambda: build_towers(golden_mean(), build_schedule(
            golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))),
        lambda: build_towers(golden_mean(), build_schedule(
            golden_mean(), K=3, kmax=2, C=0.0, m=(0, 0))),
        lambda: build_towers(full_shift(), small_schedule(2)),
    ], ids=["golden-K2", "golden-K3", "full-shift"])
    def test_count_equals_the_full_scan(self, make):
        stack = make()
        assert short_period_record(stack) == (True, len(escaping_pieces(stack[1])))

    @pytest.mark.parametrize("orbit", ["01", "00000001"])
    def test_a_dropped_orbit_fails_the_record(self, orbit):
        """Each of the orbit's rotations, extended to the piece width, is
        a piece the neighborhood no longer matches; n_1 = 9, so the
        period-8 orbit is the longest the record has to list."""
        stack = build_towers(golden_mean(), build_schedule(
            golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0)))
        stack[1].pernbhd._is_orbit[orbit] = False
        escaping = escaping_pieces(stack[1])
        assert sorted(escaping) == sorted(periodic_window(orbit, d, d + 18)
                                          for d in range(len(orbit)))
        assert short_period_record(stack) == (False, len(escaping))

    @pytest.mark.parametrize("orbit", ["01", "00000001"])
    def test_a_dropped_orbit_fails_the_precheck(self, monkeypatch, orbit):
        """The build-time precheck refuses the same towers, naming the
        failing record by its verify line."""
        from shiftembed import pipeline as pipeline_module
        real = pipeline_module.build_towers

        def dropping(system, schedule):
            stack = real(system, schedule)
            stack[1].pernbhd._is_orbit[orbit] = False
            return stack

        monkeypatch.setattr(pipeline_module, "build_towers", dropping)
        with pytest.raises(ScheduleError) as err:
            build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0), precheck=True)
        assert str(err.value).splitlines() == [
            "tower verification failed at scale 1:",
            "markers disjointness(structural-exact) scale=1 FAIL short-period pieces "
            "escaping the neighborhood: %d" % len(orbit)]

    def test_the_build_never_lists_the_piece_width(self, monkeypatch):
        asked = set()
        real = Sft.words

        def recording(self, n):
            asked.add(n)
            return real(self, n)

        monkeypatch.setattr(Sft, "words", recording)
        pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0, m=(0, 0), precheck=True)
        assert 2 * pipe.stack[1].piece_halfwidth + 1 == 19
        assert asked and 19 not in asked


def near_reference(tower, point, pos, w, runtime):
    """The member-by-member test TowerRuntime.near replaces."""
    return any(tower.member(point, pos + i, runtime) for i in range(-(w - 1), w))


class TestNearAReturn:
    # -120 and 200 lie past the quiet bounds of these points, outside any
    # swept range; the rest meet the cores
    POSITIONS = [0, 5, 40, -3, -50, 90, -120, 1, 200, -7] + list(range(-30, 31, 7))

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_sweep(self, pipe, k):
        self._check(pipe, k, swept=False)

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_sweep_after_a_return_partition(self, pipe, k):
        self._check(pipe, k, swept=True)

    def _check(self, pipe, k, swept):
        tower = pipe.stack[k]
        for point in sample_points(golden_mean(), 6, seed=21) + [Point("01", "01", "01", 0)]:
            fast = pipe.stack.runtime(point)
            slow = pipe.stack.runtime(point)
            if swept:
                return_partition(point, pipe.stack, k, (-60, 60), runtime=fast)
                lo, hi, _ = fast.swept[k]
                assert -120 < lo and hi < 200
            for pos in self.POSITIONS:
                for w in (tower.nprime, tower.n, 1):
                    assert fast.near(tower, pos, w) == near_reference(tower, point, pos, w, slow)

    @pytest.mark.parametrize("k", [1, 2])
    def test_across_the_edge_of_the_swept_range(self, pipe, k):
        """Sides that keep returning put members on both sides of each edge
        of the swept range: a query window that straddles an edge reads one
        part by bisection and decides the other member by member."""
        tower = pipe.stack[k]
        straddled = 0
        for point in long_tail_points((23, 31), 2):
            fast = pipe.stack.runtime(point)
            slow = pipe.stack.runtime(point)
            return_partition(point, pipe.stack, k, (-30, 30), runtime=fast)
            lo, hi, members = fast.swept[k]
            assert members and lo == members[0] and hi == members[-1]
            for edge in (lo, hi):
                for pos in range(edge - 2 * tower.nprime, edge + 2 * tower.nprime):
                    for w in (tower.nprime, tower.n):
                        a, b = pos - w + 1, pos + w - 1
                        straddled += a < lo <= b or a <= hi < b
                        assert fast.near(tower, pos, w) == \
                            near_reference(tower, point, pos, w, slow)
        assert straddled

    def test_scales_count_separately(self, pipe):
        point = Point("10", "00100101", "001", -3)
        rt = pipe.stack.runtime(point)
        return_partition(point, pipe.stack, 1, (-30, 30), runtime=rt)
        rt.near(pipe.stack[2], 0, pipe.stack[2].nprime)   # reads scale 1 through the ranks
        assert set(rt.swept) == {1}
        ref = pipe.stack.runtime(point)
        for t in range(-60, 60):
            for k in (1, 2):
                tower = pipe.stack[k]
                assert rt.near(tower, t, tower.nprime) == \
                    near_reference(tower, point, t, tower.nprime, ref)

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_reference_after_the_probes(self, pipe, k):
        """A verify_tower probe records the members it decided on
        [-4 n'_k, 4 n'_k] as the swept range: near reads them by bisection
        at every position the covering probe asks, and past the range's
        edges decides the rest member by member."""
        tower = pipe.stack[k]
        lo, hi = -4 * tower.nprime, 4 * tower.nprime
        for point in sample_points(golden_mean(), 4, seed=17) + long_tail_points((13, 29), 1):
            fast = pipe.stack.runtime(point)
            for j in range(1, k + 1):
                verify_tower(pipe.stack, j, probe_points=[point], runtimes=[fast])
            assert fast.swept[k][:2] == (lo, hi)
            slow = pipe.stack.runtime(point)
            for pos in range(lo - tower.nprime, hi + tower.nprime + 1):
                for w in (tower.nprime, tower.n, 1):
                    assert fast.near(tower, pos, w) == \
                        near_reference(tower, point, pos, w, slow), (point, pos, w)


def encoded(scales):
    """The symbols and resolution of each stream of one encode pass, and
    the text of the error that ended it, or None."""
    streams, err = _encode_pass(scales)
    return [(s.symbols, s.resolution) for s in streams], err and str(err)


class TestSharedRuntime:
    """verify_pipeline reads a sample point through one runtime: the probes
    of every scale, then the encodes on the verify windows.  Each stream,
    symbols and resolution alike, and each refusal equal the ones a fresh
    runtime gives: at three scales the first point is refused at scale 3,
    "codeword of length 1 cannot fit 0 slots", on every window."""

    CONFIGS = {
        "golden-K2": dict(K=2, kmax=2, C=0.0, m=(0, 0)),
        "golden-K3": dict(K=3, kmax=2, C=0.0, m=(0, 0)),
        "golden-K3-kmax3": dict(K=3, kmax=3, C=4.0, N_cert=128),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_probes_then_encodes_equal_fresh_runtimes(self, name):
        pipe = build_pipeline(golden_mean(), **self.CONFIGS[name])
        margin = pipe.decode_margin()
        N = pipe.schedule.n[0] ** 2
        windows = [(-60, 60), (-60 - margin, 60 + margin), (-4 * N, 4 * N)]
        points = sample_points(golden_mean(), 4, seed=17) + long_tail_points((13, 29), 1)
        shared = [pipe.stack.runtime(point) for point in points]
        for k in range(1, pipe.kmax + 1):
            report = verify_tower(pipe.stack, k, probe_points=points, runtimes=shared)
            assert report.passed, report.lines()
        for point, runtime in zip(points, shared):
            for window in windows:
                got = encoded(codec.encode_scales(point, pipe, window, runtime))
                assert got == encoded(codec.encode_scales(point, pipe, window)), \
                    (name, point, window)


class TestRankOrderSweep:
    """WordTower.members decides a range in rank order; on a fresh runtime
    it lists exactly the positions the recursive member accepts."""

    CONFIGS = {
        "golden-K2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
        "golden-K3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
        "golden-K3-kmax3": (golden_mean, dict(K=3, kmax=3, C=4.0, N_cert=128)),
        "sft-111-0101": (lambda: Sft(2, ("111", "0101")), dict(K=2, kmax=2, C=0.0, m=(0, 0))),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_sweep_equals_the_recursive_rule(self, name):
        make_system, kwargs = self.CONFIGS[name]
        system = make_system()
        stack = build_pipeline(system, **kwargs).stack
        points = sample_points(system, 6, seed=13)
        if name.startswith("golden"):
            points += long_tail_points((7, 13, 29), 1)
        for point in points:
            for tower in stack:
                lo, hi = -3 * tower.nprime, 3 * tower.nprime
                lazy = stack.runtime(point)
                runtime = stack.runtime(point)
                assert tower.members(point, lo, hi, runtime) == \
                    [t for t in range(lo, hi + 1) if tower.member(point, t, lazy)], \
                    (name, point, tower.k)
                assert {t: runtime.member_cache[tower.k][t] for t in range(lo, hi + 1)} == \
                    {t: lazy.member_cache[tower.k][t] for t in range(lo, hi + 1)}


def match_table_points():
    """Tails of least period 1-6, plain and under sampled cores, and the
    stitched points whose tails have least period 13, 20 or 31."""
    system = golden_mean()
    points = [Point(w, w, w, 0) for p in range(1, 7) for w in least_period_words(system, p)[:1]]
    points += sample_points(system, 6, seed=21)
    return points + long_tail_points((13, 20, 31), 3)


def reference_match(tower, point, t):
    """match_word of the rebuilt central window, with the phase found by
    trying every rotation of the necklace against the window."""
    r = tower.pernbhd.r
    window = point.word(t - r, t + r)
    hit = tower.pernbhd.match_word(window)
    if hit is None:
        return None
    key = hit[0]
    phase = next(c for c in range(len(key))
                 if periodic_window(key, t - r, t + r, phase=c) == window)
    return key, phase, len(key)


class TestMatchTable:
    """The runtime's slid match table against a match of every window
    rebuilt from the point, whatever order the positions are asked in."""

    POSITIONS = range(-150, 151)

    @pytest.mark.parametrize("K", [2, 3])
    def test_equals_match_of_every_window(self, K):
        pipe = build_pipeline(golden_mean(), K=K, kmax=2, C=0.0, m=(0, 0))
        shuffled = list(self.POSITIONS)
        random.Random(5).shuffle(shuffled)
        orders = [list(self.POSITIONS), list(reversed(self.POSITIONS)), shuffled]
        periods = set()
        for point in match_table_points():
            for k in (1, 2):
                tower = pipe.stack[k]
                expected = {t: reference_match(tower, point, t) for t in self.POSITIONS}
                periods.update(hit and hit[2] for hit in expected.values())
                for order in orders:
                    runtime = pipe.stack.runtime(point)
                    assert {t: runtime.match(tower, t) for t in order} == expected, point
        # matches of every tail period 1-6 and windows that match nothing
        assert {None, 1, 2, 3, 4, 5, 6} <= periods


class TestTagSingular:
    """_tag_singular checks one run of a stretch with one periodicity test;
    the reference matches every position of it that has no member within
    n'_k - 1."""

    CONFIGS = {
        "golden-K2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
        "golden-K3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
        "orbit001": (lambda: orbit_system(2, "001"), dict(K=2, kmax=1, C=0.0, m=(0,))),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_equals_reference_on_every_singular_stretch(self, name):
        make_system, kwargs = self.CONFIGS[name]
        system = make_system()
        pipe = build_pipeline(system, **kwargs)
        golden = make_system is golden_mean
        points = sample_points(system, 6, seed=3)
        if golden:
            points += long_tail_points((10, 13, 19, 31), 1) + bounded_stretch_points()
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        open_sides = set()
        for point in points:
            runtime = pipe.stack.runtime(point)
            for part in pipe.context(point, window).partitions:
                for iv in part.intervals:
                    if iv.kind == "singular":
                        assert (iv.orbit, iv.phase, iv.special) == reference_tag(
                            Interval(iv.start, iv.end, "singular"), pipe.stack, part.scale,
                            part.computed_range, runtime)
                        open_sides.add((iv.start is None, iv.end is None))
        if golden:
            assert {(True, False), (False, True), (False, False)} <= open_sides
        else:
            assert open_sides == {(True, True)}

    @staticmethod
    def _flipped(point, j):
        """The point with the letter at time j flipped: its core widened by
        whole tail periods to reach j, every other letter unchanged."""
        lo = point.anchor - len(point.left) * max(0, -(-(point.anchor - j) // len(point.left)))
        c1 = point.anchor + len(point.core)
        hi = c1 + len(point.right) * max(0, -(-(j + 1 - c1) // len(point.right)))
        word = point.word(lo, hi - 1)
        i = j - lo
        return Point(point.left, word[:i] + "10"[int(word[i])] + word[i + 1:], point.right, lo)

    @pytest.mark.parametrize("side", ["bounded", "open-left", "open-right"])
    def test_a_corrupted_letter_breaks_the_run_at_the_same_time(self, pipe, side):
        """A flipped letter at either end or in the middle of a scale-1
        stretch's run: both taggers name the first window that holds it.
        The members are those of the point before the flip."""
        if side == "bounded":
            point = bounded_stretch_points()[1]     # a core of period 2
        else:
            point = Point("10", "00100101", "001", -3)
        tower = pipe.stack[1]
        honest = pipe.stack.runtime(point)
        part = return_partition(point, pipe.stack, 1, (-60, 60), runtime=honest)
        lo, hi = part.computed_range
        for t in range(lo - tower.nprime, hi + tower.nprime):
            tower.member(point, t, honest)
        iv = {"bounded": part.intervals[len(part.intervals) // 2],
              "open-left": part.intervals[0], "open-right": part.intervals[-1]}[side]
        assert iv.kind == "singular" and (iv.start is None, iv.end is None) == \
            (side == "open-left", side == "open-right")
        u = lo if iv.start is None else iv.start + tower.nprime
        v = hi - 1 if iv.end is None else iv.end - tower.nprime
        for j in (u - tower.r, u, (u + v) // 2, v + tower.r):
            bad = self._flipped(point, j)
            assert [bad.letter(i) != point.letter(i) for i in range(j - 99, j + 100)] == \
                [i == 99 for i in range(199)]
            texts = []
            for tag in (_tag_singular, reference_tag):
                runtime = pipe.stack.runtime(bad)
                runtime.member_cache[1].update(honest.member_cache[1])
                with pytest.raises(ShiftEmbedError) as exc:
                    tag(Interval(iv.start, iv.end, "singular"), pipe.stack, 1, (lo, hi), runtime)
                texts.append(str(exc.value))
            assert texts == ["covering violated: time %d of a singular stretch matches no "
                             "orbit" % max(u, j - tower.r)] * 2

    def test_a_stretch_shorter_than_two_n_prime_has_no_interior_points(self, pipe):
        """The longest regular gap, 2 n'_1 - 1, tagged as a stretch: every
        position of it is within n'_1 - 1 of one of its ends."""
        point = bounded_stretch_points()[5]
        runtime = pipe.stack.runtime(point)
        part = return_partition(point, pipe.stack, 1, (-60, 60), runtime=runtime)
        iv = max((iv for iv in part.intervals if iv.kind == "regular"),
                 key=lambda iv: iv.end - iv.start)
        assert iv.end - iv.start == 2 * pipe.stack[1].nprime - 1
        for tag in (_tag_singular, reference_tag):
            with pytest.raises(ShiftEmbedError, match=r"singular stretch \(%d, %d\) has no "
                               r"interior points" % (iv.start, iv.end)):
                tag(Interval(iv.start, iv.end, "singular"), pipe.stack, 1,
                    part.computed_range, runtime)


def test_match_word_runs_only_where_no_neighbour_matched(pipe, monkeypatch):
    """These encodes ask for the match of 4,774 windows, most of them at
    scattered chase positions; sliding from matched neighbours leaves
    3,176 of them to match_word."""
    calls = []
    real = PeriodicNeighborhood.match_word

    def counting(self, window):
        calls.append(window)
        return real(self, window)

    monkeypatch.setattr(PeriodicNeighborhood, "match_word", counting)
    for point in sample_points(golden_mean(), 60, seed=11):
        pipe.encode(point, 2, (-446, 446))
    assert len(calls) <= 5000


@pytest.fixture
def runtimes(monkeypatch):
    """Every TowerRuntime the stacks create while the test runs."""
    made = []
    real = TowerStack.runtime

    def recording(self, point):
        made.append(real(self, point))
        return made[-1]

    monkeypatch.setattr(TowerStack, "runtime", recording)
    return made


def test_encode_matches_central_windows_only_between_the_quiet_bounds(pipe, runtimes):
    """These encodes match 850 central windows at scale 1 and 763 at scale 2.
    Evaluating the quiet tails 2 n'_k past their bounds matched 4,135 and
    2,987; a change that walks them again fails here."""
    for point in sample_points(golden_mean(), 20, seed=11):
        pipe.encode(point, 2, (-446, 446))
    assert [sum(len(rt._matches[k]) for rt in runtimes) for k in (1, 2)] == [850, 763]


class TestQuietTails:
    """Past the quiet bound of a tail of least period at most n_k, each of
    the 2 n'_k positions that the computed range reaches has its piece
    window inside the tail, a central window that match_word matches and,
    at k >= 2, a full window that keeps the match's period: no tier of the
    rank holds there, so the towers skip those positions.  Computed from
    the point's letters, not through rank."""

    CONFIGS = {
        "golden-K2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
        "golden-K3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
        "sft-00-111-K3": (lambda: Sft(2, ("00", "111")), dict(K=3, kmax=2, C=0.0, m=(0, 0))),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_position_past_a_quiet_bound_is_in_no_piece(self, name):
        make_system, kwargs = self.CONFIGS[name]
        system = make_system()
        stack = build_towers(system, build_schedule(system, **kwargs))
        points = sample_points(system, 20, seed=11)
        sides = 0
        for point in points:
            core_lo, core_hi = point.core_span()
            runtime = stack.runtime(point)
            for tower in stack.towers:
                H, r, span = tower.piece_halfwidth, tower.r, 2 * tower.nprime
                left, right = runtime.quiet_bounds(tower)
                past = []
                if left is not None:
                    past += [(t, t + H < core_lo) for t in range(left - span, left)]
                if right is not None:
                    past += [(t, t - H >= core_hi) for t in range(right + 1, right + span + 1)]
                sides += (left is not None) + (right is not None)
                for t, in_tail in past:
                    assert in_tail, (point, tower.k, t)
                    hit = tower.pernbhd.match_word(point.word(t - r, t + r))
                    assert hit is not None, (point, tower.k, t)
                    if tower.k >= 2:
                        full, p = point.word(t - H, t + H), len(hit[0])
                        assert full[p:] == full[:-p], (point, tower.k, t)
        # the sampler draws tails of least period 1-6, all quiet at every scale
        assert sides == 2 * len(points) * len(stack)


class TestRankReference:
    """The range pass against tests/rank_reference.py, a rank rule that
    slides nothing and keeps no rank, position by position on [-3 n'_k,
    3 n'_k].  The configurations and points are TestRankOrderSweep's and
    TestQuietTails'.  One runtime sweeps the scales in order, as an encode
    does, so each scale's pass reads its parent's swept members; a second
    runtime ranks each position alone, as the lazy chase does."""

    CONFIGS = {**TestRankOrderSweep.CONFIGS, **TestQuietTails.CONFIGS}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_ranks_and_members_equal_the_reference(self, name):
        make_system, kwargs = self.CONFIGS[name]
        system = make_system()
        stack = build_pipeline(system, **kwargs).stack
        points = []
        if name in TestRankOrderSweep.CONFIGS:
            points += sample_points(system, 6, seed=13)
        if name in TestQuietTails.CONFIGS:
            points += sample_points(system, 20, seed=11)
        if name.startswith("golden"):
            points += long_tail_points((7, 13, 29), 1)
        quiet = 0
        for point in points:
            swept, lazy = stack.runtime(point), stack.runtime(point)
            ref = ReferenceTowers(stack, point)
            for tower in stack:
                k, lo, hi = tower.k, -3 * tower.nprime, 3 * tower.nprime
                members = tower.members(point, lo, hi, swept)
                for t in range(lo, hi + 1):
                    rk, member = ref.rank(k, t), ref.member(k, t)
                    assert swept.rank_cache[k].get(t) == rk, (name, point, k, t)
                    assert swept.member_cache[k][t] == member, (name, point, k, t)
                    assert tower.rank(point, t, lazy) == rk, (name, point, k, t)
                    assert tower.member(point, t, lazy) == member, (name, point, k, t)
                    quiet += t not in swept.rank_cache[k]
                assert members == [t for t in range(lo, hi + 1) if ref.member(k, t)]
        # positions past a quiet bound, which the pass skips, are compared too
        assert quiet


def test_a_chase_deeper_than_the_limit_is_refused_by_name(pipe, runtimes, monkeypatch):
    """The limit bounds the nested chase frames a runtime records: an
    encode that reaches depth d passes at CHASE_LIMIT = d and is refused at
    d - 1.  Inside a swept range no member is chased, so the point's sides
    keep returning at scale 1 (tail periods 10 and 11 above n_1 = 9), and
    the lazy chase nests past the range's edges."""
    point = Point("0100100010", "0010010100101", "00100010001", 0)
    pipe.encode(point, 2, (-446, 446))
    depth = runtimes[-1].chase_depth_max
    assert depth >= 2 and runtimes[-1].chase_depth == 0
    monkeypatch.setattr(markers, "CHASE_LIMIT", depth)
    pipe.encode(point, 2, (-446, 446))
    monkeypatch.setattr(markers, "CHASE_LIMIT", depth - 1)
    with pytest.raises(ShiftEmbedError, match="rank chase deeper than %d frames" % (depth - 1)):
        pipe.encode(point, 2, (-446, 446))


def test_sampled_golden_encodes_chase_nothing(pipe, runtimes):
    """The sampled points' tails are quiet at both scales, so the swept
    ranges reach the quiet bounds and no member is decided by a chase."""
    for point in sample_points(golden_mean(), 20, seed=3):
        pipe.encode(point, 2, (-446, 446))
    assert {rt.chase_depth_max for rt in runtimes} == {0}


def test_a_golden_verify_resolves_each_point_once(pipe, runtimes):
    """Counted cost: one golden K = 2 verify_pipeline at its default seed
    and 12 points makes 24 runtimes, one per sampled point and one per
    shifted point, and they evaluate 2,568 ranks.  A fresh runtime per
    probe and per encode pass made 42 runtimes and 4,413 ranks."""
    assert verify_pipeline(pipe).passed
    assert len(runtimes) == 24
    assert sum(len(cache) for rt in runtimes for cache in rt.rank_cache.values()) == 2568


def test_a_radius_below_the_period_bound_fails_covering():
    stack = build_towers(golden_mean(), build_schedule(
        golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0)))
    stack[2].pernbhd.r = stack[2].n - 1
    (record,) = [r for r in verify_tower(stack, 2).records
                 if r.name == "covering(structural-exact)"]
    assert (record.ok, record.detail) == (False, "radius 18 below period bound 19")


class ProgressionLayout:
    """A previous layout whose every position lies in one singular block
    with the given marker progression."""

    def __init__(self, marks):
        self.marks = marks

    def block_at(self, k, t):
        return LayoutBlock(scale=k, start=None, end=None, kind="singular")

    def marker_progression(self, blk, k):
        return self.marks


def test_boundary_adjustment_bisects_the_progression():
    """A boundary in a singular block moves to the first marker position at
    or after it, the one a walk over the whole progression finds, and stays
    put when there is none."""
    rng = random.Random(7)
    for _ in range(2000):
        s = rng.randrange(-80, 80)
        marks = range(s, s + rng.randrange(0, 120), rng.randrange(1, 25))
        b, e = sorted(rng.sample(range(-100, 100), 2))
        iv = Interval(b, e, "singular")
        _adjust_boundaries([iv], ProgressionLayout(marks), 2)
        assert (iv.adj_start, iv.adj_end) == tuple(
            next((p for p in marks if p >= t), t) for t in (b, e))


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


@pytest.mark.parametrize("letters, longest", [("01", 16), ("012", 9)],
                         ids=["two-letter", "three-letter"])
def test_bounded_period_test_on_every_short_word(letters, longest):
    """Every word up to the length and every n <= len + 2, on both sides of
    2n = len, where the test switches from the loop to one recurrence."""
    wrong = []
    for length in range(1, longest + 1):
        for letter_tuple in itertools.product(letters, repeat=length):
            w = "".join(letter_tuple)
            p = min_period(w)
            if [least_period_at_most(w, n) for n in range(length + 3)] != \
                    [None] * p + [p] * (length + 3 - p):
                wrong.append(w)
    assert wrong == []


@settings(max_examples=300, deadline=None)
@given(w=st.one_of(st.text("012", min_size=1, max_size=45), periodic_words))
def test_primitive_root_equals_the_least_period_rule(w):
    """The first shift at which w occurs in w w is its least period when
    that divides len(w), and len(w) otherwise."""
    p = min_period(w)
    root = w[:p] if len(w) % p == 0 else w
    assert primitive_root(w) == root
    assert is_primitive(w) == (root == w)


@settings(max_examples=300, deadline=None)
@given(w=st.one_of(st.text("012", min_size=1, max_size=45), periodic_words),
       n=st.integers(1, 30))
def test_periodic_name_rebuilds_the_word(w, n):
    """The necklace of the least-period root and the shift that lays it
    back over the word, or None when the least period exceeds n."""
    p = min_period(w)
    hit = periodic_name(w, n)
    if p > n:
        assert hit is None
    else:
        v, shift = hit
        assert v == necklace(w[:p]) and periodic_window(v, 0, len(w) - 1, shift) == w


def test_iterating_a_stack_yields_its_towers():
    golden = build_towers(golden_mean(), build_schedule(golden_mean(), K=2, kmax=2, C=0.0,
                                                        m=(0, 0)))
    odo = build_towers(dyadic_odometer(8), build_schedule(dyadic_odometer(8), K=2, kmax=3,
                                                          N_cert=128))
    for stack, scales in ((golden, 2), (odo, 3)):
        assert len(stack) == scales and list(stack) == stack.towers


def test_periodic_neighborhood_wrapper():
    """Each word tower holds the periodic neighborhood of its scale;
    odometer towers, having no periodic points, hold none."""
    odo = build_towers(dyadic_odometer(8), small_schedule(3, 3))
    assert not any(hasattr(tower, "pernbhd") for tower in odo)
    nb = build_towers(golden_mean(), small_schedule(1, 2))[1].pernbhd
    assert (nb.n, nb.r) == (1, 2)
    assert matched_windows(nb) == {"00000"}


def test_a_special_block_outside_the_coarser_singular_blocks_is_named():
    """The nesting refusal names the scale, the block and the position
    whose coarser block is regular; a block whose middle is singular at the
    previous scale passes."""
    prev = ReturnPartition(scale=1, intervals=[Interval(None, 0, "regular"),
                                               Interval(0, 10, "singular"),
                                               Interval(10, None, "regular")],
                           returns=[0, 10], computed_range=(-20, 30))
    nested = ReturnPartition(scale=2, intervals=[Interval(2, 8, "singular", special=True)],
                             returns=[2, 8], computed_range=(-20, 30))
    _check_special_nesting(nested, prev)
    part = ReturnPartition(scale=2, intervals=[Interval(12, 20, "singular", special=True)],
                           returns=[12, 20], computed_range=(-20, 30))
    with pytest.raises(NestingError) as err:
        _check_special_nesting(part, prev)
    assert str(err.value) == \
        "scale-2 special singular block (12, 20) not nested in previous scale at 15"
    assert (err.value.scale, err.value.block, err.value.position) == (2, (12, 20), 15)


def test_a_special_block_whose_middle_the_coarser_scale_did_not_compute_is_refused():
    """The nesting check tests the block's own middle: one left of the
    previous scale's computed range is refused by that partition, which
    names its scale and the position."""
    prev = ReturnPartition(scale=1, intervals=[Interval(-10, 0, "regular"),
                                               Interval(0, 10, "singular")],
                           returns=[-10, 0, 10], computed_range=(-11, 11))
    part = ReturnPartition(scale=2, intervals=[Interval(-40, -20, "singular", special=True)],
                           returns=[-40, -20], computed_range=(-60, 30))
    with pytest.raises(WindowError) as err:
        _check_special_nesting(part, prev)
    assert str(err.value) == "time -31 outside computed range (-11, 11)"
    assert (err.value.scale, err.value.position) == (1, -31)
