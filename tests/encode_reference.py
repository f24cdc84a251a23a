"""Reference encode pieces for the tests.

Long-tail golden points: tails of least period above n_1, so that the
return structure holds regular blocks between returns along the tails,
where the sampler's tails of period at most 6 are singular throughout.
Bounded-stretch points add a long periodic core between such tails, so
that a singular stretch lies between two returns.

The references are the encoder's earlier position-by-position forms: the
singular-stretch tagger that tests every position of a stretch, and the
render that writes every scale into one dict of (symbol, scale) pairs.
"""

import itertools
import random

from layout_reference import layer_roles
from shiftembed import codec
from shiftembed.errors import SeparationError, ShiftEmbedError
from shiftembed.pipeline import _stitch_point
from shiftembed.systems import Point, golden_mean, validate_point
from shiftembed.words import is_primitive, necklace


def cyclic_golden_word(rng, p):
    """A random golden-mean word of least period p whose period repeats
    admissibly."""
    while True:
        w = "0"
        while len(w) < p:
            w += rng.choice("0" if w[-1] == "1" else "01")
        if golden_mean().is_cyclic_word(w) and is_primitive(w):
            return w


def long_tail_points(periods, per_period, seed=7):
    """per_period stitched golden points for each tail period, both tails of
    that least period, under a random core of at most 39 letters."""
    system = golden_mean()
    rng = random.Random(seed)
    points = []
    for p in periods:
        for _ in range(per_period):
            point = _stitch_point(system, rng, cyclic_golden_word(rng, p),
                                  cyclic_golden_word(rng, p), rng.randrange(0, 40))
            assert point is not None
            points.append(point)
    return points


def bounded_stretch_points(seed=3):
    """Golden points with tails of least period 31 around a core of about
    100 letters of least period 1, 2, 3, 5, 7, 13 or 17: each core is a
    bounded singular stretch at scale 1 (periods up to n_1) or at scale 2."""
    system = golden_mean()
    rng = random.Random(seed)
    points = []
    for cycle in ("0", "01", "001", "00101", "0010101",
                  cyclic_golden_word(rng, 13), cyclic_golden_word(rng, 17)):
        tail = cyclic_golden_word(rng, 31)
        core = "0" + cycle * -(-96 // len(cycle)) + "0"
        point = Point(tail, core, tail, -len(core) // 2)
        validate_point(system, point)
        points.append(point)
    return points


def reference_tag(iv, stack, k, comp_range, runtime):
    """(orbit, phase, special) of a singular stretch, from the match of
    every position of it with no member within n'_k - 1."""
    tower = stack[k]
    lo = comp_range[0] if iv.start is None else iv.start
    hi = comp_range[1] if iv.end is None else iv.end
    hits = set()
    for t in range(lo, hi):
        if not runtime.near(tower, t, tower.nprime):
            hit = runtime.match(tower, t)
            if hit is None:
                raise ShiftEmbedError(
                    "covering violated: time %d of a singular stretch matches no orbit" % t)
            hits.add(hit[:2])
    if not hits:
        raise ShiftEmbedError("singular stretch %r has no interior points" % ((iv.start, iv.end),))
    if len(hits) > 1:
        raise SeparationError("singular stretch matches several orbits: %r" % hits)
    key, phase = hits.pop()
    return key, phase, stack.schedule.is_special(k, len(key))


def _dict_render_layer(pipeline, ctx, l, sym):
    sched, system = pipeline.schedule, pipeline.system
    point = ctx.point
    layer = ctx.layout.layer(l)
    m_l = sched.m[l - 1]
    for blk in layer.blocks:
        for pos in blk.freed_positions:
            sym[pos] = (codec.SYM_FREE, None)
        if blk.kind == "regular":
            n = blk.length()
            coarse = system.labels(point, blk.start, sched.m[l - 2], n) if l >= 2 else None
            cb = codec._block_codebook(pipeline, l, blk, coarse)
            word = cb.encode(system.labels(point, blk.start, m_l, n),
                             pad_to=len(blk.fill_positions))
            for pos, ch in zip(blk.fill_positions, word):
                sym[pos] = (ch, l)
        elif l == 1:
            s = blk.start if blk.start is not None else ctx.layout.lo
            e = blk.end if blk.end is not None else ctx.layout.hi + 1
            for t in range(max(s, ctx.layout.lo), min(e, ctx.layout.hi + 1)):
                sym[t] = (pipeline.periodic_code.stream_letter(blk.orbit, blk.phase, t), 1)
        elif not blk.special:
            coarse = codec._orbit_key(blk.orbit, sched.m[l - 2], blk.m)
            fine = codec._orbit_key(blk.orbit, m_l, blk.m)
            cond = pipeline.cond_codebook(l, blk.m, coarse).encode(
                fine, pad_to=sched.budget(blk.m, l))
            ident = pipeline.ident_codebook(l, blk.m, fine).encode(
                necklace(blk.orbit), pad_to=sched.budget(blk.m, l))
            groups = {}
            for p in blk.cond_positions:
                groups.setdefault((p + blk.phase) // blk.m, [[], []])[0].append(p)
            for p in blk.ident_positions:
                groups.setdefault((p + blk.phase) // blk.m, [[], []])[1].append(p)
            for _, (cps, ips) in sorted(groups.items()):
                for pos, ch in zip(sorted(cps), cond):
                    sym[pos] = (ch, l)
                for pos, ch in zip(sorted(ips), ident):
                    sym[pos] = (ch, l)
    for pos, role in layer_roles(ctx.layout, l).items():
        ch = codec._ROLE_SYMBOL.get(role)
        if ch is not None:
            sym[pos] = (ch, l)


def dict_render_scales(point, pipeline, window):
    """The to_text of psi_1, ..., psi_kmax on the window, then the error
    text that ended the pass, if any; and the context range with the
    positions the dict was written at."""
    a, b = window
    sym = {}
    texts = []
    rng = None
    try:
        for k, ctx in enumerate(codec._context_scales(pipeline, point, window), 1):
            rng = (ctx.layout.lo, ctx.layout.hi)
            _dict_render_layer(pipeline, ctx, k, sym)
            cells = list(map(sym.get, range(a, b + 1),
                             itertools.repeat((codec.SYM_FREE, None))))
            texts.append(codec.SymbolStream(a, b, [ch for ch, _ in cells],
                                            [scale for _, scale in cells]).to_text())
    except ShiftEmbedError as exc:
        texts.append("%s: %s" % (type(exc).__name__, exc))
    return texts, rng, set(sym)
