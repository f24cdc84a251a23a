import functools
import random
from fractions import Fraction

import pytest

from check_reference import roundtrip_or_named
from encode_reference import long_tail_points
from layout_reference import (ROLE_FILL, ROLE_FREE, dump_lines, free_special_singular,
                              layer_roles, marker_progression, record_layouts,
                              reference_layers, reference_pi_symbols, roles)
from shiftembed import codec
from shiftembed.blocks import (ROLE_CLOSING, ROLE_MARKER, BlockLayout, LayoutBlock, _slots_in,
                               _free_special_singular, _marker_progression, append_layer,
                               SpanOrderError, span_keys)
from shiftembed.codec import SymbolStream, _append_decoded_layer, build_point_context
from shiftembed.entropy import ScaleSchedule
from shiftembed.errors import CapacityError, MalformedStreamError, ShiftEmbedError, WindowError
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


def build_block_layout(sched, partitions, window_range):
    """The layout chain of return partitions at scales 1..k over one range,
    laid out layer by layer as encode and decode lay it out."""
    layout = BlockLayout(schedule=sched, lo=window_range[0], hi=window_range[1])
    for part in partitions:
        append_layer(layout, part.intervals)
    return layout


def partition(scale, intervals, rng=(-50, 1100)):
    ivs = [Interval(*spec[:3], **(spec[3] if len(spec) > 3 else {})) for spec in intervals]
    return ReturnPartition(scale=scale, intervals=ivs,
                           computed_range=(rng[0] - 1, rng[1] + 1))


class TestScaleOne:
    def test_thousand_block_budget(self):
        sched = schedule()
        part = partition(1, [(0, 1000, "regular")])
        layout = build_block_layout(sched, [part], (0, 999))
        blk = layout.layer(1).blocks[0]
        assert blk.marker_pos == 0
        assert blk.fill_positions == range(1, 901)
        assert blk.free_slots == range(901, 1000)
        assert layer_roles(layout, 1)[0] == ROLE_MARKER
        assert layer_roles(layout, 1)[901] == ROLE_FREE

    def test_scale_two_budgets(self):
        # ten thousand-blocks concatenate into one scale-2 block:
        # 990 inherited frees, one marker, 500 fillings, 489 free
        sched = schedule(n=(100, 10000))
        part1 = partition(1, [(i * 1000, (i + 1) * 1000, "regular") for i in range(10)])
        part2 = partition(2, [(0, 10000, "regular")])
        layout = build_block_layout(sched, [part1, part2], (0, 9999))
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
            build_block_layout(sched, [part1, part2], (0, 99))
        assert err.value.scale == 2
        assert err.value.block == (0, 100)


class TestNextScaleMarkers:
    def test_regular_block_first_free(self):
        sched = schedule()
        part = partition(1, [(0, 1000, "regular")])
        part2 = partition(2, [(0, 1000, "regular")])
        layout = build_block_layout(sched, [part, part2], (0, 999))
        assert layout.layer(2).blocks[0].marker_pos == 901

    def test_unbounded_singular_progression(self):
        # m'=12 is the smallest multiple of m=3 reaching n_k=10
        from shiftembed.blocks import LayoutBlock, _marker_progression
        sched = schedule(alpha=Fraction(1, 5), m=(0,), n=(10,), periodic=True)
        blk = LayoutBlock(start=None, end=None, kind="singular",
                          special=False, orbit="001", phase=0, m=3)
        blk.free_slots = tuple(range(0, 48, 3))
        marks = _marker_progression(sched, blk, 1, 0, 47)
        assert marks
        assert all((q - marks[0]) % 12 == 0 for q in marks)

    def test_one_sided_progression_steps_forward(self):
        from shiftembed.blocks import LayoutBlock, _marker_progression
        sched = schedule(alpha=Fraction(1, 5), m=(0,), n=(10,), periodic=True)
        blk = LayoutBlock(start=5, end=None, kind="singular",
                          special=False, orbit="001", phase=0, m=3)
        blk.free_slots = (14, 17, 20, 23)
        marks = _marker_progression(sched, blk, 1, 0, 60)
        assert marks[0] == 14
        assert all(b - a == 12 for a, b in zip(marks, marks[1:]))

    def test_special_singular_protects_prefix(self):
        sched = schedule(m=(0,), n=(9,), periodic=True)
        part = partition(1, [(0, 40, "singular",
                              dict(special=True, orbit="0", phase=0, m=1))])
        layout = build_block_layout(sched, [part], (0, 39))
        blk = layout.layer(1).blocks[0]
        marks = layout.marker_progression(blk, 1)
        assert min(marks) == 0 + 9 + 1


class TestPeriodicGrammar:
    def test_terminator_after_prefix(self):
        sched = schedule(m=(0,), n=(9,), periodic=True)
        part = partition(1, [(0, 11, "regular"),
                             (11, 40, "singular",
                              dict(special=True, orbit="0", phase=0, m=1))])
        layout = build_block_layout(sched, [part], (0, 39))
        assert layer_roles(layout, 1)[11 + 9] == ROLE_CLOSING

    def test_block_adjusted_to_no_length_refused(self):
        # both ends of a regular scale-2 interval move to one position of a
        # singular 1-block: the block has no length, below layout_bounds(2)
        sched = schedule(m=(0, 0), n=(9, 20), periodic=True)
        part1 = partition(1, [(0, 40, "singular",
                               dict(special=True, orbit="0", phase=0, m=1))])
        part2 = partition(2, [(10, 30, "regular")])
        part2.intervals[0].adj_start = 30
        with pytest.raises(CapacityError, match=r"length 0 outside \[10, 68\)") as err:
            build_block_layout(sched, [part1, part2], (0, 39))
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
    return LayoutBlock(start=start, end=end, kind="singular",
                       special=True, orbit="x" * 0 or None, phase=phase, m=m)


class TestRoleMonotonicity:
    def test_roles_only_promote_from_free(self):
        from shiftembed.pipeline import build_pipeline, sample_points
        from shiftembed.systems import golden_mean
        pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        for p in sample_points(golden_mean(), 6, seed=21):
            ctx = pipe.context(p, (-40, 40))
            l1, l2 = layer_roles(ctx.layout, 1), layer_roles(ctx.layout, 2)
            for pos, role in l2.items():
                prev = l1.get(pos)
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
        layout = build_block_layout(sched, [part], (0, 999))
        lines = dump_lines(layout)
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
        lo, hi = ctx.layout.lo, ctx.layout.hi
        for layer in ctx.layout.layers:
            assert layer.keys is not None
            assert (layer.blocks[0].start is None) == first_unbounded
            assert (layer.blocks[-1].end is None) == last_unbounded
            for t in range(lo - 5, hi + 6):
                assert layer.block_at(t) is _scan(layer.blocks, t)
            for a, b in ((lo, lo + 40), (-7, 30), (hi - 40, hi)):
                near = layer.blocks_near(a, b)
                assert [s for s in layer.blocks if any(s.covers(t) for t in range(a, b + 1))] \
                    == [s for s in near if any(s.covers(t) for t in range(a, b + 1))]
            for start, end in ((None, None), (None, 0), (0, None), (-30, 31), (5, 5)):
                s = lo if start is None else start
                e = hi + 1 if end is None else end
                assert _slots_in(layer.free, start, end, lo, hi) == \
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
        layer = build_block_layout(sched, [part], (-20, 300)).layer(1)
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
            span_keys([LayoutBlock(5, 4, "regular")])
        assert span_keys([LayoutBlock(5, 5, "regular")]) == [5]
        touching = [LayoutBlock(0, 10, "regular"), LayoutBlock(10, 20, "regular")]
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
        layout = build_block_layout(sched, [part1], (0, 99))
        with pytest.raises(MalformedStreamError, match=r"\(0, 100\): 5 filling slots needed"):
            _append_decoded_layer(layout, 2, [Interval(0, 100, "regular")])

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


    def test_a_refused_layer_names_the_block(self):
        """A layer the decoder refuses names the start of the block refused:
        the one the layout refuses, or the span that runs backwards or
        starts inside the one before it."""
        sched = schedule(n=(20, 100))
        part1 = partition(1, [(i * 20, (i + 1) * 20, "regular") for i in range(5)])
        layout = build_block_layout(sched, [part1], (0, 99))
        with pytest.raises(MalformedStreamError) as info:
            _append_decoded_layer(layout, 2, [Interval(0, 100, "regular")])
        assert (info.value.scale, info.value.position) == (2, 0)
        for spans, start in [([(None, 10, "singular"), (5, 30, "regular")], 5),
                             ([(0, 20, "regular"), (40, 30, "regular")], 40)]:
            with pytest.raises(MalformedStreamError) as info:
                _append_decoded_layer(layout, 2, [Interval(*span) for span in spans])
            assert (info.value.scale, info.value.position) == (2, start)

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
            build_block_layout(sched, [part1, part2], (0, 31))
        assert (err.value.scale, err.value.block) == (2, (8, 16))


def _slots(blk):
    return (blk.marker_pos, tuple(blk.fill_positions), blk.cond_positions,
            blk.ident_positions, blk.freed_positions, tuple(blk.free_slots))


REFERENCE_CONFIGS = dict(TestLayoutBounds.CONFIGS, **{
    "long-tail-k2": TestLayoutBounds.CONFIGS["golden-k2"],
    "long-tail-k3": TestLayoutBounds.CONFIGS["golden-k3"],
})
MUTATION_TOKENS = ["1", "2", "|", "=", "[", "]", "][", "o", "?"]


@functools.lru_cache(maxsize=None)
def recorded_layouts(name):
    """(pipeline, [(layout, partitions, error, decoded stream or None)]) of
    the encode contexts of a few points, and of the decodes of their
    streams at every scale and of seeded mutations of their top streams.
    A decode's stream tags the last layout it lays out, its own."""
    make_system, kwargs = REFERENCE_CONFIGS[name]
    system = make_system()
    pipe = build_pipeline(system, **kwargs)
    margin = pipe.decode_margin()
    window = (-200 - margin, 200 + margin)
    points = (long_tail_points((10, 13, 19, 20, 31, 40), 1) if name.startswith("long-tail")
              else sample_points(system, 6, seed=31))
    rng = random.Random(31)
    out = []

    def record(stream, fn, *args):
        seen, error = record_layouts(fn, *args)
        out.extend((layout, parts, error, stream if i == len(seen) - 1 else None)
                   for i, (layout, parts) in enumerate(seen))

    for point in points:
        record(None, codec.build_point_context, pipe, point, window)
        try:
            streams = list(pipe.encode_scales(point, window))
        except ShiftEmbedError:
            continue
        for k, stream in enumerate(streams, 1):
            record(stream, pipe.decode, stream, k)
        for _ in range(4):
            top = streams[-1]
            symbols = list(top.symbols)
            symbols[rng.randrange(len(symbols))] = rng.choice(MUTATION_TOKENS)
            mutated = SymbolStream(top.a, top.b, symbols)
            record(mutated, pipe.decode, mutated, pipe.kmax)
    return pipe, out


class TestSpanLayoutAgainstReference:
    """The span layout against the position-by-position one of
    tests/layout_reference.py, laid out from the same partitions: equal
    roles at every position of every layer, equal free lists and slots,
    and the same refusal; pi_k and the stretch check against the merged
    role dicts; and the freeing and marker progressions against per-position
    scans."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_layouts_equal_the_reference(self, name):
        _, recorded = recorded_layouts(name)
        for layout, partitions, error, _ in recorded:
            ref, ref_error = reference_layers(layout, partitions)
            assert len(ref) == len(layout.layers)
            for k, (role, free, ref_blocks) in enumerate(ref, 1):
                assert layer_roles(layout, k) == role
                assert layout.layer(k).free == free
                assert [_slots(b) for b in layout.layer(k).blocks] == \
                    [_slots(b) for b in ref_blocks]
            if len(partitions) > len(layout.layers):    # the last one was refused
                assert ref_error.partition(": ")[2] == error.partition(": ")[2]
            else:
                assert ref_error is None

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_pi_symbols_equal_the_reference(self, name):
        """The decoder refuses every stream whose stretches the reference
        refuses, and where both decode, their pi_k symbols are equal."""
        pipe, recorded = recorded_layouts(name)
        decoded = [(layout, partitions, stream) for layout, partitions, error, stream in recorded
                   if stream is not None and error is None]
        assert decoded
        for layout, partitions, stream in decoded:
            assert reference_pi_symbols(stream, pipe, layout, partitions) == \
                pipe.decode(stream, layout.kmax).stream_k.symbols

    def test_free_after_the_top_layer_is_not_the_top_free_list(self):
        # a special singular 2-block or a cut regular 2-block leaves the
        # 1-free slots inside it free, so pi_k frees more than layer 2 does
        _, recorded = recorded_layouts("golden-k3")
        assert any({t for t, (role, _) in roles(layout).items() if role == ROLE_FREE}
                   - set(layout.layer(2).free)
                   for layout, *_ in recorded if layout.kmax == 2)

    @pytest.mark.parametrize("hi", [99, 199], ids=["next-block-cut", "next-block-laid-out"])
    def test_terminator_past_a_short_stretch(self, hi):
        # the terminator 0 + n_1 = 9 of the stretch [0, 5) lies in the next
        # regular block: that block takes it when it is laid out, and it
        # stays a terminator when the range cuts the block
        sched = schedule(m=(0,), n=(9,), periodic=True)
        part = partition(1, [(0, 5, "singular", dict(special=True, orbit="0", phase=0, m=1)),
                             (5, 150, "regular")])
        layout = build_block_layout(sched, [part], (0, hi))
        (role, free, _), = reference_layers(layout, [part.intervals])[0]
        assert layer_roles(layout, 1) == role and layout.layer(1).free == free
        assert (role[9] == ROLE_CLOSING) == (hi == 99)

    def test_freeing_equals_the_position_scan(self):
        rng = random.Random(5)
        for _ in range(3000):
            sched = schedule(alpha=Fraction(rng.randrange(1, 20), 20), m=(0, 0),
                             n=(rng.randrange(2, 12), 40), periodic=True)
            lo = rng.randrange(-60, 0)
            hi = lo + rng.randrange(0, 150)
            start = rng.choice([None, rng.randrange(lo - 30, hi + 10)])
            end = rng.choice([None, (start if start is not None else lo) + rng.randrange(0, 150)])
            blk = LayoutBlock(start=start, end=end, kind="singular", special=True,
                              phase=rng.randrange(0, 50), m=rng.randrange(1, 50))
            k = rng.choice([2, 3])
            assert _free_special_singular(sched, blk, k, lo, hi) == \
                free_special_singular(sched, blk, k, lo, hi)

    def test_marker_progression_equals_the_position_scan(self):
        rng = random.Random(6)
        for _ in range(3000):
            sched = schedule(m=(0, 0), n=(rng.randrange(2, 12), rng.randrange(12, 40)),
                             periodic=True)
            lo = rng.randrange(-60, 0)
            hi = lo + rng.randrange(0, 150)
            start = rng.choice([None, rng.randrange(lo - 30, hi + 10)])
            end = rng.choice([None, (start if start is not None else lo) + rng.randrange(1, 150)])
            blk = LayoutBlock(start=start, end=end, kind="singular",
                              special=rng.random() < 0.3, phase=rng.randrange(0, 50),
                              m=rng.randrange(1, 30))
            s = lo if start is None else max(start, lo)
            e = hi + 1 if end is None else min(end, hi + 1)
            blk.free_slots = tuple(sorted(rng.sample(range(s, e), min(max(e - s, 0),
                                                                     rng.randrange(0, 6)))))
            k = rng.choice([1, 2])
            assert list(_marker_progression(sched, blk, k, lo, hi)) == \
                marker_progression(sched, blk, k, lo, hi)


class TestFreeInSpecialSubblocks:
    """A witness for blocks._free_in_special_subblocks on golden K=3: the
    core repeats the period-9 orbit word 000000001 three times, so the
    scale-1 layer has the bounded special stretch (-6, 13) inside the
    regular scale-2 block [-15, 23).  budget(19, 2) = 2, so the rule frees
    every second position of the stretch past n_1 = 9: 4, 6, 8, 10, 12.
    The block fills the first four and leaves 12 a free slot."""

    POINT = Point("0", "0" + "000000001" * 3 + "0", "0", -15)

    @pytest.fixture(scope="class")
    def pipe(self):
        make_system, kwargs = TestLayoutBounds.CONFIGS["golden-k3"]
        pipe = build_pipeline(make_system(), **kwargs)
        assert pipe.schedule.n == (9, 10)
        return pipe

    def _block(self, layout):
        return next(blk for blk in layout.layer(2).blocks
                    if blk.kind == "regular" and blk.freed_positions)

    def test_freed_positions_at_encode_and_decode(self, pipe):
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        layout = pipe.context(self.POINT, window).layout
        stretch = layout.layer(1).block_at(0)
        assert (stretch.kind, stretch.special, stretch.start, stretch.end, stretch.m) == \
            ("singular", True, -6, 13, 9)
        blk = self._block(layout)
        assert (blk.start, blk.end, blk.freed_positions) == (-15, 23, (4, 6, 8, 10, 12))
        assert blk.fill_positions == (-7, 4, 6, 8, 10)
        assert [blk for blk in layout.layer(2).blocks if blk.freed_positions] == [blk]
        stream = pipe.encode(self.POINT, 2, window)
        assert [stream.get(t) for t in blk.freed_positions] == ["1", "1", "1", "1", "o"]
        seen, error = record_layouts(pipe.decode, stream, 2)
        assert error is None
        decoded = self._block(seen[-1][0])
        assert (decoded.start, decoded.end, decoded.freed_positions, decoded.fill_positions) \
            == (blk.start, blk.end, blk.freed_positions, blk.fill_positions)

    def test_roundtrip(self, pipe):
        roundtrip_or_named(pipe, self.POINT, 2, (-200, 200), None)


class TestClosingBracket:
    """The ']' that closes a regular k-block before a singular one: the
    k-boundary's (k-1)-block decides where it goes."""

    @staticmethod
    def _closings(monkeypatch, encode):
        """(boundary, holding (k-1)-block, position) of every closing
        bracket an encode places."""
        from shiftembed import blocks
        seen, real = [], blocks._closing_bracket_pos

        def spy(schedule, prev_layer, boundary):
            pos = real(schedule, prev_layer, boundary)
            seen.append((boundary, prev_layer.block_at(boundary), pos))
            return pos

        monkeypatch.setattr(blocks, "_closing_bracket_pos", spy)
        return seen, encode()

    def test_a_boundary_outside_every_laid_out_block_closes_nothing(self, monkeypatch):
        """The core ends the scale-2 returns at 188, and the tail of period
        11, above n_1 = 9, keeps returning at scale 1: the scale-1 block
        from 188 runs past the resolved range, so no block is laid out
        there and no bracket closes the scale-2 block."""
        pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        point = Point("0", "0001000100000", "00001000001", 150)
        seen, stream = self._closings(monkeypatch, lambda: pipe.encode(point, 2, (-30, 30)))
        assert [(boundary, pos) for boundary, blk, pos in seen if blk is None] == [(188, None)]
        layout = pipe.context(point, (-30, 30)).layout
        assert layout.hi < 188 and layout.block_at(1, 188) is None
        assert stream.symbols.count("]") == 0

    def test_a_boundary_in_a_non_special_stretch_is_the_bracket(self, monkeypatch):
        """On three scales a tail of period 21, in (n_1, n_2] = (13, 26],
        is a non-special singular scale-2 stretch: the scale-3 block before
        it closes at the boundary itself."""
        pipe = build_pipeline(golden_mean(), K=3, kmax=3, C=4.0, N_cert=128)
        point = Point("0", "0001000100000", "0" * 20 + "1", 0)
        seen, stream = self._closings(monkeypatch, lambda: pipe.encode(point, 3, (-60, 60)))
        [(boundary, blk, pos)] = [entry for entry in seen
                                  if entry[1] is not None and entry[1].kind == "singular"]
        assert (boundary, blk.special, blk.m, pos) == (47, False, 21, 47)
        assert stream.get(47) == "]"
