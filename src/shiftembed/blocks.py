"""The empty-block grammar: marker/filling/free roles at every scale.

A layout layer at scale k assigns each position of a resolved range a role:
marker, bracket, filling(k), free(k), or it inherits deeper roles from
earlier scales.  Regular k-blocks spend their budgets out of the (k-1)-free
slots: one marker slot, then floor(alpha L / 2^k) filling slots, the rest
staying free for scale k+1.  Singular blocks follow the periodic-case
rules: protected n_1-prefix, arithmetic-progression freeing anchored
equivariantly, per-period conditional/identification slots, and marker
progressions stepped by the smallest multiple of the orbit period
reaching n_k.

Every k-budget is ScaleSchedule.budget, exact integer arithmetic on
alpha's numerator and denominator.  Capacity shortfalls raise with
(scale, block) provenance, except where singular boundary subblocks
legitimately eat slots: there the filling count clamps, which stays
decodable because the decoder recomputes the same layout.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import CapacityError

ROLE_MARKER = "marker1"
ROLE_CLOSING = "closing1"        # scale-1 closing marker before a singular stretch
ROLE_MARKER_K = "markerK"
ROLE_BRACKET_OPEN = "leftBracket"
ROLE_BRACKET_CLOSE = "rightBracket"
ROLE_BRACKET_BOTH = "bothBracket"
ROLE_FILL = "filling"
ROLE_FREE = "free"
ROLE_SINGULAR_FILL = "singularFilling"
ROLE_UNRESOLVED = "unresolvedBeyond"


@dataclass
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
    """Spans that overlap or run backwards.  The decoder reports it as a
    malformed stream; from an encode layout it is a broken invariant."""


def span_keys(spans):
    """Bisect keys of sorted, pairwise disjoint spans: their starts, an
    unbounded start as -inf.  A pair that breaks start <= end <= next start
    raises SpanOrderError naming it."""
    inf = float("inf")
    keys = [-inf if s.start is None else s.start for s in spans]
    ends = [inf if s.end is None else s.end for s in spans]
    for i, (key, end, nxt) in enumerate(zip(keys, ends, keys[1:] + [inf])):
        if not key <= end <= nxt:
            raise SpanOrderError("spans overlap or run backwards: %s" % ", ".join(
                "[%s, %s)" % (s.start, s.end) for s in spans[i:i + 2]))
    return keys


def span_at(spans, keys, t):
    """The span covering t, or None: only the last span starting at or
    before t can cover it."""
    i = bisect_right(keys, t) - 1
    return spans[i] if i >= 0 and spans[i].covers(t) else None


@dataclass
class LayoutLayer:
    scale: int
    blocks: list
    role: dict                  # pos -> role str, decided at this scale
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
    periodic: bool
    layers: list = field(default_factory=list)

    @property
    def kmax(self):
        return len(self.layers)

    def layer(self, k):
        return self.layers[k - 1]

    def block_at(self, k, t):
        return self.layer(k).block_at(t)

    def role_at(self, t, upto=None):
        """(role, scale) of a position after the layers up to `upto`."""
        upto = upto or self.kmax
        out = None
        for k in range(1, upto + 1):
            hit = self.layers[k - 1].role.get(t)
            if hit is not None:
                out = (hit, k)
        if out is None:
            return (ROLE_UNRESOLVED, upto)
        if out[0] == ROLE_FREE and out[1] < upto:
            # freed at some scale and never promoted: still free at upto
            for k in range(out[1] + 1, upto + 1):
                hit = self.layers[k - 1].role.get(t)
                if hit is not None:
                    out = (hit, k)
        return out

    def marker_progression(self, blk, k):
        return _marker_progression(self.schedule, blk, k, self.lo, self.hi)

    def dump_lines(self):
        out = []
        for t in range(self.lo, self.hi + 1):
            role, scale = self.role_at(t)
            out.append("%d %d %s" % (t, scale, role))
        return out


def _slots_in(slots, start, end, lo, hi):
    """The sorted slots in [start, end), an unbounded side cut at lo or hi."""
    s = lo if start is None else start
    e = hi + 1 if end is None else end
    return slots[bisect_left(slots, s):bisect_left(slots, e)]


def _build_scale1(schedule, partition, window_range, periodic):
    lo, hi = window_range
    n1 = schedule.n[0]
    role = {}
    blocks = []
    for iv in partition.intervals:
        if iv.kind == "regular":
            if iv.start < lo or iv.end > hi + 1:
                continue  # cut by the resolved range: unusable for coding
            L = iv.end - iv.start
            fill = schedule.fill1(L)
            blk = LayoutBlock(scale=1, start=iv.start, end=iv.end, kind="regular",
                              marker_pos=iv.start)
            role[iv.start] = ROLE_MARKER
            fills = tuple(range(iv.start + 1, iv.start + 1 + fill))
            for p in fills:
                role[p] = ROLE_FILL
            frees = tuple(range(iv.start + 1 + fill, iv.end))
            for p in frees:
                role[p] = ROLE_FREE
            blk.fill_positions = fills
            blk.free_slots = frees
            blocks.append(blk)
        else:
            blk = LayoutBlock(scale=1, start=iv.start, end=iv.end, kind="singular",
                              special=True, orbit=iv.orbit, phase=iv.phase, m=iv.m)
            s = lo if iv.start is None else max(iv.start, lo)
            e = hi + 1 if iv.end is None else min(iv.end, hi + 1)
            for p in range(s, e):
                role[p] = ROLE_SINGULAR_FILL
            if periodic and iv.start is not None:
                # prefix terminator: one mark right after the protected
                # prefix anchors the stretch start for the decoder and never
                # costs a block slot
                pos = iv.start + n1
                if lo <= pos <= hi:
                    role[pos] = ROLE_CLOSING
            blocks.append(blk)
    free = sorted(p for p, r in role.items() if r == ROLE_FREE)
    return LayoutLayer(1, blocks, role, free)


def _build_scale_k(schedule, partition, prev_layer, window_range, periodic):
    k = partition.scale
    lo, hi = window_range
    role = {}
    blocks = []
    base_free = prev_layer.free
    intervals = partition.intervals

    for idx, iv in enumerate(intervals):
        start = iv.adj_start if iv.start is not None else None
        end = iv.adj_end if iv.end is not None else None
        if iv.kind == "regular":
            if start < lo or end > hi + 1:
                continue  # cut by the resolved range
            L = end - start
            blk = LayoutBlock(scale=k, start=start, end=end, kind="regular")
            freed = _free_in_special_subblocks(schedule, prev_layer, blk, k)
            blk.freed_positions = tuple(freed)
            slots = sorted(set(_slots_in(base_free, start, end, lo, hi)) | set(freed))
            start_sub = prev_layer.block_at(start)
            if start_sub is not None and start_sub.kind == "singular":
                # the adjusted boundary sits at a marker-capable singular
                # position: the bracket lands there, costing no free slot
                if L <= 0:
                    raise CapacityError("scale-%d block %r has no position for its marker"
                                        % (k, (start, end)), scale=k, block=(start, end))
                blk.marker_pos = start
                slots = [p for p in slots if p != start]
            else:
                if not slots:
                    raise CapacityError("scale-%d block %r has no slot for its marker"
                                        % (k, (start, end)), scale=k, block=(start, end))
                blk.marker_pos = slots[0]
                slots = slots[1:]
            budget = schedule.budget(L, k)
            # singular subblocks and closing markers legitimately eat slots;
            # a block built purely from open regular subblocks must fit
            eaten = any(sub.kind == "singular"
                        for sub in prev_layer.blocks_near(min(start, end - 1), max(start, end - 1))
                        if sub.covers(start) or sub.covers(end - 1) or
                        (sub.start is not None and start <= sub.start and
                         sub.end is not None and sub.end <= end))
            if len(slots) < budget:
                if not eaten:
                    raise CapacityError(
                        "scale-%d block %r: %d filling slots needed, %d available"
                        % (k, (start, end), budget, len(slots)),
                        scale=k, block=(start, end))
                budget = len(slots)
            if periodic:
                prev_adj = idx > 0 and intervals[idx - 1].kind == "regular"
                role[blk.marker_pos] = ROLE_BRACKET_BOTH if prev_adj else ROLE_BRACKET_OPEN
            else:
                role[blk.marker_pos] = ROLE_MARKER_K
            fills = tuple(slots[:budget])
            for p in fills:
                role[p] = ROLE_FILL
            blk.fill_positions = fills
            blk.free_slots = tuple(slots[budget:])
            for p in blk.free_slots:
                role[p] = ROLE_FREE
            blocks.append(blk)
        else:
            blk = LayoutBlock(scale=k, start=start, end=end, kind="singular",
                              special=iv.special, orbit=iv.orbit, phase=iv.phase, m=iv.m)
            if iv.special:
                freed = _free_special_singular(schedule, blk, k, lo, hi)
                blk.freed_positions = tuple(freed)
                blk.free_slots = tuple(freed)
                for p in freed:
                    role[p] = ROLE_FREE
            else:
                _lay_out_nonspecial_singular(schedule, blk, k, role, base_free, lo, hi)
            blocks.append(blk)

    if periodic:
        for idx in range(len(intervals) - 1):
            if intervals[idx].kind == "regular" and intervals[idx + 1].kind == "singular":
                pos = _closing_bracket_pos(schedule, prev_layer, intervals[idx + 1].start)
                if pos is not None and lo <= pos <= hi:
                    role[pos] = ROLE_BRACKET_CLOSE
    free = sorted(p for p, r in role.items() if r == ROLE_FREE)
    return LayoutLayer(k, blocks, role, free)


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
        if step <= 0:
            continue
        p = 1
        while step * p < e - s:
            l = step * p
            if l > n1:
                freed.append(s + l)
            p += 1
    return freed


def _free_special_singular(schedule, blk, k, lo, hi):
    """Freeing inside a special singular k-block: arithmetic progressions in
    the orbit period, anchored at the bounded end or at the canonical orbit
    representative (unbounded blocks stay equivariant that way)."""
    n1 = schedule.n[0]
    m = blk.m
    budget = schedule.budget(m, k)
    if budget <= 0:
        return []
    freed = set()
    if blk.start is not None:
        e = hi + 1 if blk.end is None else blk.end
        j = 1
        while blk.start + n1 + j * m - budget <= e:
            for r in range(1, budget + 1):
                pos = blk.start + n1 + j * m - r
                if blk.covers(pos) and lo <= pos <= hi:
                    freed.add(pos)
            j += 1
    elif blk.end is not None:
        j = 1
        while blk.end - 1 - (n1 + j * m - budget) >= lo:
            for r in range(1, budget + 1):
                pos = blk.end - 1 - (n1 + j * m - r)
                if blk.covers(pos) and lo <= pos <= hi:
                    freed.add(pos)
            j += 1
    else:
        c = blk.phase
        targets = {(-r) % m for r in range(1, budget + 1)}
        for pos in range(lo, hi + 1):
            if (pos + c) % m in targets:
                freed.add(pos)
    return sorted(freed)


def _lay_out_nonspecial_singular(schedule, blk, k, role, base_free, lo, hi):
    """Per-period conditional and identification slots of a non-special
    singular k-block, taken from the inherited (k-1)-free slots of each
    repetition of the orbit word."""
    m = blk.m
    budget = schedule.budget(m, k)
    slots = _slots_in(base_free, blk.start, blk.end, lo, hi)
    used = set()
    if budget > 0 and slots:
        c = blk.phase
        by_instance = {}
        for p in slots:
            by_instance.setdefault((p + c) // m, []).append(p)
        cond, ident = [], []
        for inst in sorted(by_instance):
            ps = sorted(by_instance[inst])
            cond.extend(ps[:budget])
            ident.extend(ps[budget:2 * budget])
        blk.cond_positions = tuple(cond)
        blk.ident_positions = tuple(ident)
        used = set(cond) | set(ident)
        for p in used:
            role[p] = ROLE_FILL
    remaining = tuple(p for p in slots if p not in used)
    blk.free_slots = remaining
    for p in remaining:
        role[p] = ROLE_FREE


def _marker_progression(schedule, blk, k, lo, hi):
    """Scale-(k+1)-marker-capable positions of a singular k-block.

    Special blocks expose every position except the protected n_1-prefix
    after a bounded start (those coordinates are never changed, so the
    decoder can always read the orbit name there)."""
    if blk.special:
        s = lo if blk.start is None else max(blk.start + schedule.n[0] + 1, lo)
        e = hi if blk.end is None else min(blk.end - 1, hi)
        return list(range(s, e + 1))
    n_k = schedule.n[k - 1]
    m = blk.m
    mprime = -(-n_k // m) * m
    frees = blk.free_slots
    out = []
    if blk.start is not None:
        if not frees:
            return []
        anchor = frees[0]
        p = anchor
        while p <= hi:
            if blk.covers(p):
                out.append(p)
            p += mprime
    elif blk.end is not None:
        if not frees:
            return []
        anchor = frees[-1]
        p = anchor
        while p >= lo:
            if blk.covers(p):
                out.append(p)
            p -= mprime
    else:
        # first free positive position in canonical orbit coordinates
        c = blk.phase
        residues = sorted({(p + c) % m for p in frees})
        if not residues:
            return []
        l0 = min(f if f > 0 else f + m for f in residues)
        for p in range(lo, hi + 1):
            if (p + c - l0) % mprime == 0:
                out.append(p)
    return sorted(out)


def append_layer(layout, partition):
    """Extend a layout chain by the layer of the next scale."""
    prev = layout.layers[-1] if layout.layers else None
    rng = (layout.lo, layout.hi)
    if partition.scale == 1:
        layer = _build_scale1(layout.schedule, partition, rng, layout.periodic)
    else:
        layer = _build_scale_k(layout.schedule, partition, prev, rng, layout.periodic)
    layout.layers.append(layer)
    return layer


def build_block_layout(schedule, partitions, window_range, periodic):
    """Layout chain for return partitions at scales 1..k over one range."""
    lo, hi = window_range
    layout = BlockLayout(schedule=schedule, lo=lo, hi=hi, periodic=periodic)
    for part in partitions:
        append_layer(layout, part)
    return layout


def next_scale_markers(layout, k):
    """Exact positions where scale-(k+1) markers would be placed."""
    out = []
    for blk in layout.layer(k).blocks:
        if blk.kind == "regular":
            if not blk.free_slots:
                raise CapacityError("block %r has no free slot for the next marker"
                                    % ((blk.start, blk.end),), scale=k,
                                    block=(blk.start, blk.end))
            out.append(blk.free_slots[0])
        else:
            out.extend(layout.marker_progression(blk, k))
    return sorted(set(out))
