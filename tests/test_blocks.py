from fractions import Fraction

import pytest

from shiftembed.blocks import (ROLE_CLOSING, ROLE_FILL, ROLE_FREE, ROLE_MARKER,
                               BlockLayout, LayoutBlock, _slots_in, append_layer,
                               SpanOrderError, span_keys)
from shiftembed.codec import SymbolStream, _append_decoded_layer, build_point_context
from shiftembed.entropy import ScaleSchedule
from shiftembed.errors import CapacityError, MalformedStreamError, WindowError
from shiftembed.markers import Interval, ReturnPartition
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import Point, dyadic_odometer, golden_mean


def schedule(alpha=Fraction(1, 5), m=(0, 0), n=(100, 1000), periodic=False):
    nprime = []
    acc = 0
    for nk in n:
        acc += nk
        nprime.append(acc)
    return ScaleSchedule(K=2, alpha=alpha, m=m, n=tuple(n), nprime=tuple(nprime),
                         r=tuple(max(mk + nk, nk) for mk, nk in zip(m, n)),
                         periodic=periodic)


def build_block_layout(sched, partitions, window_range, periodic):
    """The layout chain of return partitions at scales 1..k over one range,
    laid out layer by layer as encode and decode lay it out."""
    layout = BlockLayout(schedule=sched, lo=window_range[0], hi=window_range[1],
                         periodic=periodic)
    for part in partitions:
        append_layer(layout, part)
    return layout


def partition(scale, intervals, rng=(-50, 1100)):
    ivs = [Interval(*spec[:3], **(spec[3] if len(spec) > 3 else {})) for spec in intervals]
    return ReturnPartition(scale=scale, intervals=ivs, returns=[],
                           computed_range=(rng[0] - 1, rng[1] + 1))


class TestScaleOne:
    def test_thousand_block_budget(self):
        sched = schedule()
        part = partition(1, [(0, 1000, "regular")])
        layout = build_block_layout(sched, [part], (0, 999), periodic=False)
        blk = layout.layer(1).blocks[0]
        assert blk.marker_pos == 0
        assert blk.fill_positions == tuple(range(1, 901))
        assert blk.free_slots == tuple(range(901, 1000))
        assert layout.layer(1).role[0] == ROLE_MARKER
        assert layout.layer(1).role[901] == ROLE_FREE

    def test_scale_two_budgets(self):
        # ten thousand-blocks concatenate into one scale-2 block:
        # 990 inherited frees, one marker, 500 fillings, 489 free
        sched = schedule(n=(100, 10000))
        part1 = partition(1, [(i * 1000, (i + 1) * 1000, "regular") for i in range(10)])
        part2 = partition(2, [(0, 10000, "regular")])
        layout = build_block_layout(sched, [part1, part2], (0, 9999), periodic=False)
        blk = layout.layer(2).blocks[0]
        assert blk.marker_pos == 901
        assert len(blk.fill_positions) == 500
        assert len(blk.free_slots) == 990 - 1 - 500

    def test_capacity_error_reports_scale_and_block(self):
        # five length-20 blocks leave 5 frees; a scale-2 block needs 1 + 5
        sched = schedule(n=(20, 100))
        part1 = partition(1, [(i * 20, (i + 1) * 20, "regular") for i in range(5)])
        part2 = partition(2, [(0, 100, "regular")])
        with pytest.raises(CapacityError) as err:
            build_block_layout(sched, [part1, part2], (0, 99), periodic=False)
        assert err.value.scale == 2
        assert err.value.block == (0, 100)


class TestNextScaleMarkers:
    def test_regular_block_first_free(self):
        sched = schedule()
        part = partition(1, [(0, 1000, "regular")])
        part2 = partition(2, [(0, 1000, "regular")])
        layout = build_block_layout(sched, [part, part2], (0, 999), periodic=False)
        assert layout.layer(2).blocks[0].marker_pos == 901

    def test_unbounded_singular_progression(self):
        # m'=12 is the smallest multiple of m=3 reaching n_k=10
        from shiftembed.blocks import LayoutBlock, _marker_progression
        sched = schedule(alpha=Fraction(1, 5), m=(0,), n=(10,), periodic=True)
        blk = LayoutBlock(scale=1, start=None, end=None, kind="singular",
                          special=False, orbit="001", phase=0, m=3)
        blk.free_slots = tuple(range(0, 48, 3))
        marks = _marker_progression(sched, blk, 1, 0, 47)
        assert marks
        assert all((q - marks[0]) % 12 == 0 for q in marks)

    def test_one_sided_progression_steps_forward(self):
        from shiftembed.blocks import LayoutBlock, _marker_progression
        sched = schedule(alpha=Fraction(1, 5), m=(0,), n=(10,), periodic=True)
        blk = LayoutBlock(scale=1, start=5, end=None, kind="singular",
                          special=False, orbit="001", phase=0, m=3)
        blk.free_slots = (14, 17, 20, 23)
        marks = _marker_progression(sched, blk, 1, 0, 60)
        assert marks[0] == 14
        assert all(b - a == 12 for a, b in zip(marks, marks[1:]))

    def test_special_singular_protects_prefix(self):
        sched = schedule(m=(0,), n=(9,), periodic=True)
        part = partition(1, [(0, 40, "singular",
                              dict(special=True, orbit="0", phase=0, m=1))])
        layout = build_block_layout(sched, [part], (0, 39), periodic=True)
        blk = layout.layer(1).blocks[0]
        marks = layout.marker_progression(blk, 1)
        assert min(marks) == 0 + 9 + 1


class TestPeriodicGrammar:
    def test_terminator_after_prefix(self):
        sched = schedule(m=(0,), n=(9,), periodic=True)
        part = partition(1, [(0, 11, "regular"),
                             (11, 40, "singular",
                              dict(special=True, orbit="0", phase=0, m=1))])
        layout = build_block_layout(sched, [part], (0, 39), periodic=True)
        assert layout.layer(1).role[11 + 9] == ROLE_CLOSING

    def test_block_adjusted_to_no_length_refused(self):
        # both ends of a regular scale-2 interval move to one position of a
        # singular 1-block: the block has no length, below layout_bounds(2)
        sched = schedule(m=(0, 0), n=(9, 20), periodic=True)
        part1 = partition(1, [(0, 40, "singular",
                               dict(special=True, orbit="0", phase=0, m=1))])
        part2 = partition(2, [(10, 30, "regular")])
        part2.intervals[0].adj_start = 30
        with pytest.raises(CapacityError, match=r"length 0 outside \[10, 68\)") as err:
            build_block_layout(sched, [part1, part2], (0, 39), periodic=True)
        assert (err.value.scale, err.value.block) == (2, (30, 30))

    def test_freeing_formula_literal(self):
        # unbounded special singular block: freed positions are jm - r in
        # canonical coordinates, r = 1..floor(alpha m / 4)
        from shiftembed.blocks import _free_special_singular
        sched = schedule(alpha=Fraction(1, 5), m=(0, 0), n=(9, 40), periodic=True)
        blk_cls = layout_block(m=40, phase=0)
        freed = _free_special_singular(sched, blk_cls, 2, 0, 120)
        budget = int(Fraction(1, 5) * 40 / 4)
        assert budget == 2
        assert all((p % 40) in {38, 39} for p in freed)

    def test_floor_zero_frees_nothing(self):
        from shiftembed.blocks import _free_special_singular
        sched = schedule(alpha=Fraction(1, 20), m=(0, 0), n=(9, 12), periodic=True)
        blk = layout_block(m=3, phase=0, start=0, end=60)
        assert _free_special_singular(sched, blk, 2, 0, 59) == []

    def test_one_sided_freeing_respects_n1(self):
        from shiftembed.blocks import _free_special_singular
        sched = schedule(alpha=Fraction(2, 5), m=(0, 0), n=(9, 20), periodic=True)
        blk = layout_block(m=10, phase=0, start=0, end=100)
        freed = _free_special_singular(sched, blk, 2, 0, 99)
        assert freed and min(freed) > 9
        budget = int(Fraction(2, 5) * 10 / 4)
        assert all((l - 9) % 10 in {(-r) % 10 for r in range(1, budget + 1)}
                   for l in ((p - 0) for p in freed))


def layout_block(m, phase, start=None, end=None):
    from shiftembed.blocks import LayoutBlock
    return LayoutBlock(scale=1, start=start, end=end, kind="singular",
                       special=True, orbit="x" * 0 or None, phase=phase, m=m)


class TestRoleMonotonicity:
    def test_roles_only_promote_from_free(self):
        from shiftembed.pipeline import build_pipeline, sample_points
        from shiftembed.systems import golden_mean
        pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        for p in sample_points(golden_mean(), 6, seed=21):
            ctx = pipe.context(p, (-40, 40))
            l1, l2 = ctx.layout.layers[0], ctx.layout.layers[1]
            for pos, role in l2.role.items():
                prev = l1.role.get(pos)
                if role == ROLE_FILL or role in ("leftBracket", "rightBracket",
                                                 "bothBracket", "markerK"):
                    # promotions must come from free or freed singular slots
                    assert prev in (ROLE_FREE, "singularFilling", None)


class TestMirrors:
    def test_right_bounded_freeing_mirrored(self):
        from shiftembed.blocks import _free_special_singular
        sched = schedule(alpha=Fraction(2, 5), m=(0, 0), n=(9, 20), periodic=True)
        blk = layout_block(m=10, phase=0, start=None, end=100)
        freed = _free_special_singular(sched, blk, 2, 0, 99)
        assert freed and max(freed) < 100 - 9
        left = layout_block(m=10, phase=0, start=0, end=100)
        freed_l = _free_special_singular(sched, left, 2, 0, 99)
        assert sorted(99 - p for p in freed) == freed_l

    def test_layout_dump_format(self):
        sched = schedule()
        part = partition(1, [(0, 1000, "regular")])
        layout = build_block_layout(sched, [part], (0, 999), periodic=False)
        lines = layout.dump_lines()
        assert lines[0].split() == ["0", "1", "marker1"]
        assert lines[1].split() == ["1", "1", "filling"]
        assert lines[950].split() == ["950", "1", "free"]


def _scan(spans, t):
    return next((s for s in spans if s.covers(t)), None)


class TestBisectLookups:
    """Layer and partition lookups bisect on the sorted starts; each answer
    must equal a linear scan, inside blocks, in gaps and past both ends."""

    @pytest.fixture(scope="class")
    def pipe3(self):
        return build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 0))

    @pytest.mark.parametrize("point, first_unbounded, last_unbounded", [
        (Point("0010101", "0100010010", "0100100010001", 0), True, False),
        (Point("0100100010001", "0100010010", "0010101", 0), False, True),
        (Point("0100100010001", "01", "0010010001000101", 0), False, False),
    ], ids=["left-stretch", "right-stretch", "bounded"])
    def test_golden_k3_lookups_equal_scans(self, pipe3, point, first_unbounded,
                                           last_unbounded):
        # period-7 tails shadow a singular stretch, period-13 tails keep
        # returning, so their edge blocks are cut by the resolved range
        ctx = build_point_context(pipe3, point, (-60, 60))
        for layer in ctx.layout.layers:
            assert layer.keys is not None
            assert (layer.blocks[0].start is None) == first_unbounded
            assert (layer.blocks[-1].end is None) == last_unbounded
            for t in range(ctx.lo - 5, ctx.hi + 6):
                assert layer.block_at(t) is _scan(layer.blocks, t)
            for a, b in ((ctx.lo, ctx.lo + 40), (-7, 30), (ctx.hi - 40, ctx.hi)):
                near = layer.blocks_near(a, b)
                assert [s for s in layer.blocks if any(s.covers(t) for t in range(a, b + 1))] \
                    == [s for s in near if any(s.covers(t) for t in range(a, b + 1))]
            for start, end in ((None, None), (None, 0), (0, None), (-30, 31), (5, 5)):
                s = ctx.lo if start is None else start
                e = ctx.hi + 1 if end is None else end
                assert _slots_in(layer.free, start, end, ctx.lo, ctx.hi) == \
                    [p for p in layer.free if s <= p < e]
        for part in ctx.partitions:
            assert part.keys is not None
            lo, hi = part.computed_range
            for t in range(lo - 5, hi + 6):
                want = _scan(part.intervals, t)
                if want is None:
                    with pytest.raises(WindowError, match="outside computed range"):
                        part.interval_at(t)
                else:
                    assert part.interval_at(t) is want

    def test_gap_between_blocks(self):
        sched = schedule()
        part = partition(1, [(0, 100, "regular"), (150, 250, "regular")])
        layer = build_block_layout(sched, [part], (-20, 300), periodic=False).layer(1)
        assert layer.keys == [0, 150]
        for t in range(-20, 301):
            assert layer.block_at(t) is _scan(layer.blocks, t)
        assert layer.block_at(120) is None and layer.block_at(-1) is None
        assert layer.block_at(250) is None and layer.block_at(149) is None
        for t in range(-20, 301):
            want = _scan(part.intervals, t)
            if want is None:
                with pytest.raises(WindowError):
                    part.interval_at(t)
            else:
                assert part.interval_at(t) is want

    def test_overlapping_spans_are_refused(self):
        # a singular gap that starts inside a regular block overlaps it: the
        # partition is refused with the pair named, never scanned, and the
        # refusal is not a stream error, since no stream was read
        with pytest.raises(SpanOrderError,
                           match=r"overlap or run backwards: \[16, 35\), \[16, None\)"):
            partition(2, [(None, -10, "singular"), (-10, 16, "regular"),
                          (16, 35, "regular"), (16, None, "singular"),
                          (35, None, "singular")])
        with pytest.raises(SpanOrderError, match=r"\[5, 4\)$"):
            span_keys([LayoutBlock(1, 5, 4, "regular")])
        assert span_keys([LayoutBlock(1, 5, 5, "regular")]) == [5]
        touching = [LayoutBlock(1, 0, 10, "regular"), LayoutBlock(1, 10, 20, "regular")]
        assert span_keys(touching) == [0, 10]
        touching[0].end = 11
        with pytest.raises(SpanOrderError, match=r"\[0, 11\), \[10, 20\)"):
            span_keys(touching)
        assert not issubclass(SpanOrderError, MalformedStreamError)

    def test_block_the_layout_refuses_read_off_a_stream_is_malformed(self):
        # the scale-2 block of test_capacity_error_reports_scale_and_block,
        # read off a stream: the encoder never emits it
        sched = schedule(n=(20, 100))
        part1 = partition(1, [(i * 20, (i + 1) * 20, "regular") for i in range(5)])
        layout = build_block_layout(sched, [part1], (0, 99), periodic=False)
        with pytest.raises(MalformedStreamError, match=r"\(0, 100\): 5 filling slots needed"):
            _append_decoded_layer(layout, 2, (0, 99), [Interval(0, 100, "regular")])

    def test_overlapping_spans_read_off_a_stream_are_malformed(self):
        # a stray close bracket at time 44 starts a second right-unbounded
        # singular gap after the one at 28: the decoder refuses the stream
        pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        point = Point("0001", "010101010010101010100100010000101010", "001010", -19)
        margin = pipe.decode_margin()
        stream = pipe.encode(point, 2, (-100 - margin, 100 + margin))
        assert stream.a == -346 and stream.symbols[390] == "1"
        symbols = list(stream.symbols)
        symbols[390] = "]"
        bad = SymbolStream(stream.a, stream.b, symbols, list(stream.resolution))
        with pytest.raises(MalformedStreamError,
                           match=r"^spans overlap or run backwards: \[28, None\), \[44, None\)$"):
            pipe.decode(bad, 2)


class TestLayoutBounds:
    """ScaleSchedule.layout_bounds is the one rule for the length of a
    laid-out regular block: the layout refuses a block outside it, and the
    decoder checks lengths against it."""

    CONFIGS = {
        "golden-k2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
        "golden-k3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
        "growing-radius": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 1))),
        "odometer": (lambda: dyadic_odometer(8), dict(K=2, kmax=3, N_cert=128)),
    }
    # its scale-2 block [-2, 7) starts n_1 + 1 = 10 into the stretch [-12, 7)
    SHORT_BLOCK_POINT = Point("10010", "101010010101010010010000010001000100100000", "010", -7)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_laid_out_regular_blocks_are_inside_the_rule(self, name):
        make_system, kwargs = self.CONFIGS[name]
        system = make_system()
        pipe = build_pipeline(system, **kwargs)
        sched = pipe.schedule
        margin = pipe.decode_margin()
        points = sample_points(system, 20, seed=3)
        if name == "golden-k2":
            points.append(self.SHORT_BLOCK_POINT)
        outside_raw = set()
        for point in points:
            layout = pipe.context(point, (-200 - margin, 200 + margin)).layout
            for k in range(1, sched.kmax + 1):
                lo, hi = sched.layout_bounds(k)
                raw_lo, raw_hi = sched.block_bounds(k)
                for blk in layout.layer(k).blocks:
                    if blk.kind == "regular":
                        assert lo <= blk.length() < hi
                        if not raw_lo <= blk.length() < raw_hi:
                            outside_raw.add((k, blk.start, blk.end))
        if name == "golden-k2":
            assert (2, -2, 7) in outside_raw
        if name == "odometer":
            assert not outside_raw

    def test_displacement_bound(self):
        # golden K=2: n = (9, 19), n' = (9, 28); scale-1 stretches are all
        # special, so an end moves at most n_1 + 1 = 10
        sched = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0)).schedule
        assert sched.layout_bounds(1) == sched.block_bounds(1) == (9, 18)
        assert sched.block_bounds(2) == (19, 56)
        assert sched.layout_bounds(2) == (9, 66)
        # at scale 3 a non-special scale-2 block of period m in (9, 20] steps
        # by m' = ceil(20 / m) m, at most 38 at m = 19: an end moves at most 37
        three = schedule(m=(0, 0, 0), n=(9, 20, 50), periodic=True)
        assert three.layout_bounds(2) == (20 - 10, 2 * 29 + 10)
        assert three.layout_bounds(3) == (50 - 37, 2 * 79 + 37)
        # an aperiodic system has no singular block to move an end into
        flat = schedule(n=(9, 20, 50), periodic=False)
        assert [flat.layout_bounds(k) for k in (1, 2, 3)] == \
            [flat.block_bounds(k) for k in (1, 2, 3)]

    def test_block_outside_the_rule_refused(self):
        # both ends of a regular scale-2 interval sit on regular 1-blocks and
        # stay, so the block keeps its length 8 < n_2 - (n_1 + 1) = 10
        sched = schedule(m=(0, 0), n=(9, 20), periodic=True)
        part1 = partition(1, [(i * 8, (i + 1) * 8, "regular") for i in range(4)])
        part2 = partition(2, [(8, 16, "regular")])
        with pytest.raises(CapacityError, match=r"length 8 outside \[10, 68\)") as err:
            build_block_layout(sched, [part1, part2], (0, 31), periodic=True)
        assert (err.value.scale, err.value.block) == (2, (8, 16))
