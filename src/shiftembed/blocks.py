"""The empty-block grammar: the slots of every block at every scale.

A layout layer at scale k holds its blocks in order, and each block holds
its slots as runs: its marker slot, its filling slots and its free slots.
At scale 1 a regular block's runs are ranges; above it they are sorted
tuples taken out of the (k-1)-free slots inside the block.  Regular
k-blocks spend their budgets out of those slots: one marker slot, then
floor(alpha L / 2^k) filling slots, the rest staying free for scale k+1.
Singular blocks follow the periodic-case rules: protected n_1-prefix,
arithmetic-progression freeing anchored equivariantly, per-period
conditional/identification slots, and marker progressions stepped by the
smallest multiple of the orbit period reaching n_k.  A layer also holds
its free slots, joined in block order, and its few structural positions
(markers, brackets, stretch terminators) as (position, role) pairs.

Every k-budget is ScaleSchedule.budget, exact integer arithmetic on
alpha's numerator and denominator.  Capacity shortfalls raise with
(scale, block) provenance, except where singular boundary subblocks
legitimately eat slots: there the filling count clamps, which stays
decodable because the decoder recomputes the same layout.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import le

from .errors import CapacityError

ROLE_MARKER = "marker1"
ROLE_CLOSING = "closing1"        # scale-1 closing marker before a singular stretch
ROLE_MARKER_K = "markerK"
ROLE_BRACKET_OPEN = "leftBracket"
ROLE_BRACKET_CLOSE = "rightBracket"
ROLE_BRACKET_BOTH = "bothBracket"


@dataclass(slots=True)
class LayoutBlock:
    scale: int
    start: object               # None = unbounded side
    end: object                 # half-open
    kind: str                   # "regular" | "singular"
    special: bool = False
    orbit: str = None
    phase: int = None
    m: int = None
    marker_pos: int = None
    # slot runs, each sorted: ranges at scale 1, tuples above
    fill_positions: tuple = ()
    cond_positions: tuple = ()  # non-special singular: conditional-code slots
    ident_positions: tuple = () # non-special singular: identification slots
    freed_positions: tuple = ()
    free_slots: tuple = ()

    def covers(self, t):
        return (self.start is None or t >= self.start) and (self.end is None or t < self.end)

    def length(self):
        return None if (self.start is None or self.end is None) else self.end - self.start


class SpanOrderError(ValueError):
    """Spans that overlap or run backwards; `block` is the (start, end) of
    the span that runs backwards or starts inside the one before it.  The
    decoder reports it as a malformed stream; from an encode layout it is a
    broken invariant."""

    def __init__(self, message, block):
        super().__init__(message)
        self.block = block


def span_keys(spans):
    """Bisect keys of sorted, pairwise disjoint spans: their starts, an
    unbounded start as -inf.  A pair that breaks start <= end <= next start
    raises SpanOrderError naming it."""
    inf = float("inf")
    keys = [-inf if s.start is None else s.start for s in spans]
    ends = [inf if s.end is None else s.end for s in spans]
    nexts = keys[1:] + [inf]
    if all(map(le, keys, ends)) and all(map(le, ends, nexts)):
        return keys
    i = next(i for i, (key, end, nxt) in enumerate(zip(keys, ends, nexts))
             if not key <= end <= nxt)
    bad = spans[i] if keys[i] > ends[i] else spans[i + 1]
    raise SpanOrderError("spans overlap or run backwards: %s" % ", ".join(
        "[%s, %s)" % (s.start, s.end) for s in spans[i:i + 2]), (bad.start, bad.end))


def span_at(spans, keys, t):
    """The span covering t, or None: only the last span starting at or
    before t can cover it."""
    i = bisect_right(keys, t) - 1
    return spans[i] if i >= 0 and spans[i].covers(t) else None


@dataclass
class LayoutLayer:
    scale: int
    blocks: list
    marks: list                 # (pos, role) of the structural symbols; a later pair wins
    free: list                  # positions free at this scale (sorted)
    keys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keys = span_keys(self.blocks)

    def block_at(self, t):
        return span_at(self.blocks, self.keys, t)

    def blocks_near(self, a, b):
        """A run of the blocks, in order, holding every block that meets
        [a, b]."""
        return self.blocks[max(bisect_right(self.keys, a) - 1, 0):bisect_right(self.keys, b)]


@dataclass
class BlockLayout:
    """Layout layers for scales 1..kmax over one resolved position range."""

    schedule: object
    lo: int
    hi: int
    layers: list = field(default_factory=list)

    @property
    def kmax(self):
        return len(self.layers)

    def layer(self, k):
        return self.layers[k - 1]

    def block_at(self, k, t):
        return self.layer(k).block_at(t)

    def marker_progression(self, blk, k):
        return _marker_progression(self.schedule, blk, k, self.lo, self.hi)


def _slots_in(slots, start, end, lo, hi):
    """The sorted slots in [start, end), an unbounded side cut at lo or hi."""
    s = lo if start is None else start
    e = hi + 1 if end is None else end
    return slots[bisect_left(slots, s):bisect_left(slots, e)]


def _build_scale1(schedule, partition, window_range):
    lo, hi = window_range
    n1 = schedule.n[0]
    blocks, marks, closings = [], [], []
    for iv in partition.intervals:
        start, end = iv.start, iv.end
        if iv.kind == "regular":
            if start < lo or end > hi + 1:
                continue  # cut by the resolved range: unusable for coding
            fill_end = start + 1 + schedule.fill1(end - start)
            blk = LayoutBlock(1, start, end, "regular")
            blk.marker_pos = start
            blk.fill_positions = range(start + 1, fill_end)
            blk.free_slots = range(fill_end, end)
            blocks.append(blk)
            marks.append((start, ROLE_MARKER))
        else:
            blk = LayoutBlock(scale=1, start=iv.start, end=iv.end, kind="singular",
                              special=True, orbit=iv.orbit, phase=iv.phase, m=iv.m)
            blocks.append(blk)
            if schedule.periodic and iv.start is not None and lo <= iv.start + n1 <= hi:
                # prefix terminator: one mark right after the protected
                # prefix anchors the stretch start for the decoder and never
                # costs a block slot
                closings.append((blk, iv.start + n1))
    layer = LayoutLayer(1, blocks, marks, list(chain.from_iterable(b.free_slots for b in blocks)))
    for blk, pos in closings:
        owner = layer.block_at(pos)     # a later block laid out there takes it
        if owner is blk or owner is None:
            marks.append((pos, ROLE_CLOSING))
    return layer


def _build_scale_k(schedule, partition, prev_layer, window_range):
    k = partition.scale
    lo, hi = window_range
    blocks, marks = [], []
    base_free = prev_layer.free
    intervals = partition.intervals
    len_lo, len_hi = schedule.layout_bounds(k)
    singular = [sub for sub in prev_layer.blocks if sub.kind == "singular"]
    specials = any(sub.special for sub in singular)

    for idx, iv in enumerate(intervals):
        start, end = iv.adj_start, iv.adj_end
        if iv.kind == "regular":
            if start < lo or end > hi + 1:
                continue  # cut by the resolved range
            L = end - start
            if not len_lo <= L < len_hi:
                raise CapacityError("scale-%d block %r has length %d outside [%d, %d)"
                                    % (k, (start, end), L, len_lo, len_hi),
                                    scale=k, block=(start, end))
            blk = LayoutBlock(k, start, end, "regular")
            freed = _free_in_special_subblocks(schedule, prev_layer, blk, k) if specials else ()
            blk.freed_positions = tuple(freed)
            slots = base_free[bisect_left(base_free, start):bisect_left(base_free, end)]
            if freed:
                slots = sorted(set(slots).union(freed))
            start_sub = prev_layer.block_at(start) if singular else None
            if start_sub is not None and start_sub.kind == "singular":
                # the adjusted boundary sits at a marker-capable singular
                # position: the bracket lands there, costing no free slot
                blk.marker_pos = start
                i = 1 if slots[:1] == [start] else 0
            else:
                if not slots:
                    raise CapacityError("scale-%d block %r has no slot for its marker"
                                        % (k, (start, end)), scale=k, block=(start, end))
                blk.marker_pos = slots[0]
                i = 1
            budget = schedule.budget(L, k)
            if len(slots) - i < budget:
                # singular subblocks and closing markers legitimately eat
                # slots; a block built purely from open regular subblocks
                # must fit
                eaten = any(sub.kind == "singular"
                            for sub in prev_layer.blocks_near(start, end - 1)
                            if sub.covers(start) or sub.covers(end - 1) or
                            (sub.start is not None and start <= sub.start and
                             sub.end is not None and sub.end <= end))
                if not eaten:
                    raise CapacityError(
                        "scale-%d block %r: %d filling slots needed, %d available"
                        % (k, (start, end), budget, len(slots) - i),
                        scale=k, block=(start, end))
                budget = len(slots) - i
            if schedule.periodic:
                prev_adj = idx > 0 and intervals[idx - 1].kind == "regular"
                marks.append((blk.marker_pos,
                              ROLE_BRACKET_BOTH if prev_adj else ROLE_BRACKET_OPEN))
            else:
                marks.append((blk.marker_pos, ROLE_MARKER_K))
            blk.fill_positions = tuple(slots[i:i + budget])
            blk.free_slots = tuple(slots[i + budget:])
            blocks.append(blk)
        else:
            blk = LayoutBlock(scale=k, start=start, end=end, kind="singular",
                              special=iv.special, orbit=iv.orbit, phase=iv.phase, m=iv.m)
            if iv.special:
                blk.freed_positions = blk.free_slots = tuple(
                    _free_special_singular(schedule, blk, k, lo, hi))
            else:
                _lay_out_nonspecial_singular(schedule, blk, k, base_free, lo, hi)
            blocks.append(blk)

    free = list(chain.from_iterable(b.free_slots for b in blocks))   # sorted: blocks in order
    if schedule.periodic:
        for idx in range(len(intervals) - 1):
            if intervals[idx].kind == "regular" and intervals[idx + 1].kind == "singular":
                pos = _closing_bracket_pos(schedule, prev_layer, intervals[idx + 1].start)
                if pos is not None and lo <= pos <= hi:
                    # the bracket wins over whatever a block made of pos
                    marks.append((pos, ROLE_BRACKET_CLOSE))
                    i = bisect_left(free, pos)
                    if free[i:i + 1] == [pos]:
                        del free[i]
    return LayoutLayer(k, blocks, marks, free)


def _closing_bracket_pos(schedule, prev_layer, boundary):
    """']' position closing a regular k-block whose successor is singular:
    the marker slot of the (k-1)-block holding the boundary, or the nearest
    marker-capable position inside a singular (k-1)-block (respecting the
    protected prefix)."""
    if boundary is None:
        return None
    blk = prev_layer.block_at(boundary)
    if blk is None:
        return None
    if blk.kind == "regular":
        return blk.free_slots[0] if blk.free_slots else None
    if blk.special and blk.start is not None:
        return max(boundary, blk.start + schedule.n[0] + 1)
    return boundary


def _free_in_special_subblocks(schedule, prev_layer, blk, k):
    """Freeing inside bounded special singular (k-1)-subblocks of a regular
    k-block: multiples of floor(|v| alpha / 2^k) past the n_1-protected
    prefix (implemented literally; zero freed when the floor vanishes)."""
    n1 = schedule.n[0]
    freed = []
    for sub in prev_layer.blocks_near(blk.start, blk.end - 1):
        if sub.kind != "singular" or not sub.special:
            continue
        if sub.start is None or sub.end is None:
            continue
        s, e = max(sub.start, blk.start), min(sub.end, blk.end)
        if s >= e:
            continue
        step = schedule.budget(e - s, k)
        if step > 0:
            freed.extend(s + l for l in range(step, e - s, step) if l > n1)
    return freed


def _free_special_singular(schedule, blk, k, lo, hi):
    """Freeing inside a special singular k-block: the last `budget`
    positions of every orbit period, the periods counted past the
    n_1-prefix from the bounded end, or in canonical orbit coordinates when
    both ends are unbounded (unbounded blocks stay equivariant that way).
    The freed runs start in an arithmetic progression of step m."""
    n1 = schedule.n[0]
    m = blk.m
    budget = schedule.budget(m, k)
    if budget <= 0:
        return []
    s = lo if blk.start is None else max(blk.start, lo)
    e = hi + 1 if blk.end is None else min(blk.end, hi + 1)
    low, stop = s - budget + 1, e       # the runs that meet [s, e) start in [low, stop)
    if blk.start is not None:
        anchor = blk.start + n1 + m - budget    # the first run
        low = max(low, anchor)
    elif blk.end is not None:
        anchor = blk.end - n1 - m               # the last run
        stop = min(stop, anchor + 1)
    else:
        anchor = -blk.phase - budget
    first = low + (anchor - low) % m
    return [p for q in range(first, stop, m) for p in range(max(q, s), min(q + budget, e))]


def _lay_out_nonspecial_singular(schedule, blk, k, base_free, lo, hi):
    """Per-period conditional and identification slots of a non-special
    singular k-block, taken from the inherited (k-1)-free slots of each
    repetition of the orbit word."""
    m = blk.m
    budget = schedule.budget(m, k)
    slots = _slots_in(base_free, blk.start, blk.end, lo, hi)
    if budget > 0 and slots:
        c = blk.phase
        by_instance = {}
        for p in slots:
            by_instance.setdefault((p + c) // m, []).append(p)
        cond, ident = [], []
        for ps in by_instance.values():         # in order, as the slots are
            cond.extend(ps[:budget])
            ident.extend(ps[budget:2 * budget])
        blk.cond_positions = tuple(cond)
        blk.ident_positions = tuple(ident)
        used = set(cond) | set(ident)
        slots = [p for p in slots if p not in used]
    blk.free_slots = tuple(slots)


def _marker_progression(schedule, blk, k, lo, hi):
    """Scale-(k+1)-marker-capable positions of a singular k-block.

    Special blocks expose every position except the protected n_1-prefix
    after a bounded start (those coordinates are never changed, so the
    decoder can always read the orbit name there)."""
    if blk.special:
        s = lo if blk.start is None else max(blk.start + schedule.n[0] + 1, lo)
        e = hi if blk.end is None else min(blk.end - 1, hi)
        return range(s, e + 1)
    m = blk.m
    mprime = -(-schedule.n[k - 1] // m) * m
    frees = blk.free_slots
    if not frees:
        return range(0)
    # one progression of step m' from an anchor, within the block and range
    if blk.start is not None:
        anchor, s, e = frees[0], frees[0], hi + 1 if blk.end is None else min(blk.end, hi + 1)
    elif blk.end is not None:
        anchor, s, e = frees[-1], lo, frees[-1] + 1
    else:
        # first free positive position in canonical orbit coordinates
        l0 = min(f if f > 0 else f + m for f in {(p + blk.phase) % m for p in frees})
        anchor, s, e = l0 - blk.phase, lo, hi + 1
    return range(s + (anchor - s) % mprime, e, mprime)


def append_layer(layout, partition):
    """Extend a layout chain by the layer of the next scale."""
    prev = layout.layers[-1] if layout.layers else None
    rng = (layout.lo, layout.hi)
    if partition.scale == 1:
        layer = _build_scale1(layout.schedule, partition, rng)
    else:
        layer = _build_scale_k(layout.schedule, partition, prev, rng)
    layout.layers.append(layer)
    return layer

