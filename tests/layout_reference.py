"""Reference layouts for the tests: a role for every position.

The package lays out each block's slots as runs and each layer's
structural positions as a list.  This module reads a role for every
position back out of that span layout (`layer_roles`, `roles`,
`dump_lines`), and keeps the layout's earlier position-by-position forms:
`reference_layers` writes one role per position into a dict per layer and
then rescans the dict for the free slots, `marker_progression` tests
every position of the range, and `reference_pi_symbols` builds the pi_k
symbols and checks singular stretches one position at a time against the
merged role dicts.  `record_layouts` captures the partitions a call lays
out, so that a test can lay them out both ways and compare.
"""

from shiftembed import blocks, codec
from shiftembed.blocks import (ROLE_BRACKET_BOTH, ROLE_BRACKET_CLOSE, ROLE_BRACKET_OPEN,
                               ROLE_CLOSING, ROLE_MARKER, ROLE_MARKER_K, LayoutBlock,
                               LayoutLayer)
from shiftembed.errors import CapacityError, MalformedStreamError, ShiftEmbedError
from shiftembed.words import kary_alphabet

ROLE_FILL = "filling"
ROLE_FREE = "free"
ROLE_SINGULAR_FILL = "singularFilling"
ROLE_UNRESOLVED = "unresolvedBeyond"


# -- roles read out of the span layout -------------------------------------------


def layer_roles(layout, k):
    """pos -> role decided by the scale-k layer: its blocks' slots (at scale
    1 every position of a block), then its structural positions."""
    layer = layout.layer(k)
    role = {}
    for blk in layer.blocks:
        if k == 1 and blk.kind == "singular":
            s = layout.lo if blk.start is None else max(blk.start, layout.lo)
            e = layout.hi + 1 if blk.end is None else min(blk.end, layout.hi + 1)
            role.update(dict.fromkeys(range(s, e), ROLE_SINGULAR_FILL))
        for run in (blk.fill_positions, blk.cond_positions, blk.ident_positions):
            role.update(dict.fromkeys(run, ROLE_FILL))
        role.update(dict.fromkeys(blk.free_slots, ROLE_FREE))
    role.update(layer.marks)
    return role


def roles(layout):
    """pos -> (role, scale) after every layer: a position takes the role of
    the last layer that decides it."""
    merged = {}
    for k in range(1, layout.kmax + 1):
        merged.update({t: (role, k) for t, role in layer_roles(layout, k).items()})
    return merged


def dump_lines(layout):
    """'position scale role' for every position of the layout's range."""
    merged = roles(layout)
    out = []
    for t in range(layout.lo, layout.hi + 1):
        role, scale = merged.get(t, (ROLE_UNRESOLVED, layout.kmax))
        out.append("%d %d %s" % (t, scale, role))
    return out


def record_layouts(fn, *args):
    """([(layout, partitions)], error text or None) of the call fn(*args):
    every layout it extends through blocks.append_layer, in order, with
    the partitions passed for it, the one that raised included."""
    seen = []
    real = blocks.append_layer

    def append_layer(layout, partition):
        parts = next((parts for known, parts in seen if known is layout), None)
        if parts is None:
            parts = []
            seen.append((layout, parts))
        parts.append(partition)
        return real(layout, partition)

    blocks.append_layer = append_layer
    try:
        fn(*args)
        error = None
    except ShiftEmbedError as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        blocks.append_layer = real
    return seen, error


# -- the position-by-position layout -----------------------------------------------


def reference_layers(layout, partitions):
    """(role dict, free list, blocks) of each layer that the earlier
    position-by-position build lays out from the partitions over the
    layout's range, and the text of the error that ends it, or None."""
    rng = (layout.lo, layout.hi)
    out, prev = [], None
    try:
        for part in partitions:
            if part.scale == 1:
                prev = _build_scale1(layout.schedule, part, rng)
            else:
                prev = _build_scale_k(layout.schedule, part, prev, rng)
            out.append((prev.role, prev.free, prev.blocks))
    except (CapacityError, blocks.SpanOrderError) as exc:
        return out, "%s: %s" % (type(exc).__name__, exc)
    return out, None


def _layer(k, block_list, role):
    layer = LayoutLayer(k, block_list, [], sorted(p for p, r in role.items() if r == ROLE_FREE))
    layer.role = role
    return layer


def _build_scale1(schedule, partition, window_range):
    lo, hi = window_range
    n1 = schedule.n[0]
    role = {}
    block_list = []
    for iv in partition.intervals:
        if iv.kind == "regular":
            if iv.start < lo or iv.end > hi + 1:
                continue
            fill = schedule.fill1(iv.end - iv.start)
            blk = LayoutBlock(scale=1, start=iv.start, end=iv.end, kind="regular",
                              marker_pos=iv.start)
            role[iv.start] = ROLE_MARKER
            blk.fill_positions = tuple(range(iv.start + 1, iv.start + 1 + fill))
            for p in blk.fill_positions:
                role[p] = ROLE_FILL
            blk.free_slots = tuple(range(iv.start + 1 + fill, iv.end))
            for p in blk.free_slots:
                role[p] = ROLE_FREE
            block_list.append(blk)
        else:
            blk = LayoutBlock(scale=1, start=iv.start, end=iv.end, kind="singular",
                              special=True, orbit=iv.orbit, phase=iv.phase, m=iv.m)
            s = lo if iv.start is None else max(iv.start, lo)
            e = hi + 1 if iv.end is None else min(iv.end, hi + 1)
            for p in range(s, e):
                role[p] = ROLE_SINGULAR_FILL
            if schedule.periodic and iv.start is not None and lo <= iv.start + n1 <= hi:
                role[iv.start + n1] = ROLE_CLOSING
            block_list.append(blk)
    return _layer(1, block_list, role)


def _build_scale_k(schedule, partition, prev_layer, window_range):
    k = partition.scale
    lo, hi = window_range
    role = {}
    block_list = []
    intervals = partition.intervals
    for idx, iv in enumerate(intervals):
        start, end = iv.adj_start, iv.adj_end
        if iv.kind == "regular":
            if start < lo or end > hi + 1:
                continue
            L = end - start
            len_lo, len_hi = schedule.layout_bounds(k)
            if not len_lo <= L < len_hi:
                raise CapacityError("scale-%d block %r has length %d outside [%d, %d)"
                                    % (k, (start, end), L, len_lo, len_hi))
            blk = LayoutBlock(scale=k, start=start, end=end, kind="regular")
            freed = blocks._free_in_special_subblocks(schedule, prev_layer, blk, k)
            blk.freed_positions = tuple(freed)
            slots = sorted(set(blocks._slots_in(prev_layer.free, start, end, lo, hi))
                           | set(freed))
            start_sub = prev_layer.block_at(start)
            if start_sub is not None and start_sub.kind == "singular":
                blk.marker_pos = start
                slots = [p for p in slots if p != start]
            else:
                if not slots:
                    raise CapacityError("scale-%d block %r has no slot for its marker"
                                        % (k, (start, end)))
                blk.marker_pos = slots[0]
                slots = slots[1:]
            budget = schedule.budget(L, k)
            eaten = any(sub.kind == "singular"
                        for sub in prev_layer.blocks_near(start, end - 1)
                        if sub.covers(start) or sub.covers(end - 1) or
                        (sub.start is not None and start <= sub.start and
                         sub.end is not None and sub.end <= end))
            if len(slots) < budget:
                if not eaten:
                    raise CapacityError("scale-%d block %r: %d filling slots needed, "
                                        "%d available" % (k, (start, end), budget, len(slots)))
                budget = len(slots)
            if schedule.periodic:
                prev_adj = idx > 0 and intervals[idx - 1].kind == "regular"
                role[blk.marker_pos] = ROLE_BRACKET_BOTH if prev_adj else ROLE_BRACKET_OPEN
            else:
                role[blk.marker_pos] = ROLE_MARKER_K
            blk.fill_positions = tuple(slots[:budget])
            for p in blk.fill_positions:
                role[p] = ROLE_FILL
            blk.free_slots = tuple(slots[budget:])
            for p in blk.free_slots:
                role[p] = ROLE_FREE
            block_list.append(blk)
        else:
            blk = LayoutBlock(scale=k, start=start, end=end, kind="singular",
                              special=iv.special, orbit=iv.orbit, phase=iv.phase, m=iv.m)
            if iv.special:
                freed = free_special_singular(schedule, blk, k, lo, hi)
                blk.freed_positions = blk.free_slots = tuple(freed)
                for p in freed:
                    role[p] = ROLE_FREE
            else:
                _lay_out_nonspecial_singular(schedule, blk, k, role, prev_layer.free, lo, hi)
            block_list.append(blk)
    if schedule.periodic:
        for idx in range(len(intervals) - 1):
            if intervals[idx].kind == "regular" and intervals[idx + 1].kind == "singular":
                pos = blocks._closing_bracket_pos(schedule, prev_layer,
                                                  intervals[idx + 1].start)
                if pos is not None and lo <= pos <= hi:
                    role[pos] = ROLE_BRACKET_CLOSE
    return _layer(k, block_list, role)


def free_special_singular(schedule, blk, k, lo, hi):
    """The freed positions of a special singular k-block, one period at a
    time from the bounded end, or by a residue test at every position of
    the range when both ends are unbounded."""
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
        targets = {(-r) % m for r in range(1, budget + 1)}
        for pos in range(lo, hi + 1):
            if (pos + blk.phase) % m in targets:
                freed.add(pos)
    return sorted(freed)


def _lay_out_nonspecial_singular(schedule, blk, k, role, base_free, lo, hi):
    m = blk.m
    budget = schedule.budget(m, k)
    slots = blocks._slots_in(base_free, blk.start, blk.end, lo, hi)
    used = set()
    if budget > 0 and slots:
        by_instance = {}
        for p in slots:
            by_instance.setdefault((p + blk.phase) // m, []).append(p)
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
    blk.free_slots = tuple(p for p in slots if p not in used)
    for p in blk.free_slots:
        role[p] = ROLE_FREE


def marker_progression(schedule, blk, k, lo, hi):
    """The scale-(k+1)-marker-capable positions of a singular k-block, each
    position of the range tested."""
    if blk.special:
        s = lo if blk.start is None else max(blk.start + schedule.n[0] + 1, lo)
        e = hi if blk.end is None else min(blk.end - 1, hi)
        return list(range(s, e + 1))
    m = blk.m
    mprime = -(-schedule.n[k - 1] // m) * m
    frees = blk.free_slots
    if not frees:
        return []
    if blk.start is not None:
        return [p for p in range(frees[0], hi + 1)
                if (p - frees[0]) % mprime == 0 and blk.covers(p)]
    if blk.end is not None:
        return [p for p in range(lo, frees[-1] + 1)
                if (frees[-1] - p) % mprime == 0 and blk.covers(p)]
    l0 = min(f if f > 0 else f + m for f in {(p + blk.phase) % m for p in frees})
    return [p for p in range(lo, hi + 1) if (p + blk.phase - l0) % mprime == 0]


# -- pi_k and the stretch check, one position at a time ------------------------------


def reference_pi_symbols(stream, pipeline, layout, partitions):
    """The pi_k symbols of a stream over a decoded layout, from the merged
    role dicts of the position-by-position layout, or the text of the error
    the stretch check raises."""
    merged = {}
    for k, (role, _, _) in enumerate(reference_layers(layout, partitions)[0], 1):
        merged.update({t: (r, k) for t, r in role.items()})
    symbols = [codec.SYM_FREE if merged.get(t, (ROLE_FREE, None))[0] == ROLE_FREE else ch
               for t, ch in enumerate(stream.symbols, stream.a)]
    try:
        for blk in layout.layer(1).blocks:
            if blk.kind == "singular":
                _check_stretch(stream, pipeline, blk, merged,
                               layout.kmax == pipeline.schedule.kmax, symbols)
    except MalformedStreamError as exc:
        return str(exc)
    return symbols


def _check_stretch(stream, pipeline, blk, merged, top, symbols):
    sched = pipeline.schedule
    letters = set(kary_alphabet(sched.K))
    A, B = stream.a, stream.b
    brackets = (codec.SYM_LB, codec.SYM_RB, codec.SYM_DB)
    free_symbols = (codec.SYM_FREE, codec.SYM_UNRESOLVED)
    prefix_end = A if blk.start is None else blk.start + sched.n[0]
    lo_t = A if blk.start is None else max(blk.start, A)
    hi_t = B + 1 if blk.end is None else min(blk.end, B + 1)
    for t in range(lo_t, hi_t):
        ch = stream.symbols[t - A]
        letter = pipeline.periodic_code.stream_letter(blk.orbit, blk.phase, t)
        role, _ = merged[t]
        in_prefix = t < prefix_end
        if role == ROLE_FREE:
            if top and ch not in free_symbols:
                raise MalformedStreamError("freed slot %d of a stretch holds %r" % (t, ch))
            continue
        if role != ROLE_SINGULAR_FILL and not in_prefix:
            continue
        symbols[t - A] = letter
        deeper = not top and (ch in letters or ch in free_symbols)
        if ch == letter or not in_prefix and (ch in brackets or deeper):
            continue
        raise MalformedStreamError(
            "stretch content clashes with orbit %r at %d" % (blk.orbit, t) if ch in letters
            else "unexpected terminator inside a stretch at %d" % t if ch == codec.SYM_TERM
            else "bracket inside a protected prefix at %d" % t if ch in brackets
            else "free slot inside a stretch at %d" % t if ch in free_symbols
            else "alien symbol %r inside a stretch at %d" % (ch, t))
