"""Encoders, codebooks and decoders.

The scale-k code of a point writes, into the filling slots of each regular
k-block, the codeword of its itinerary word (conditionally on the coarser
itinerary for k >= 2); singular blocks carry the repetition of the orbit's
period code word, anchored equivariantly, with a protected n_1-prefix from
which the decoder recovers the orbit and phase.

Streams use one token per position.  Internal symbols:

    "|"  scale-1 marker and closing marker      (serialized B1)
    "="  scale-k marker, aperiodic grammar      (serialized B2)
    "[", "]", "]["  periodic-case brackets      (LB, RB, DB)
    "o"  free slot                              (FR)
    "?"  unresolved beyond the pipeline depth   (UN)
    "1".."K"  code letters                      (digits)

Decoding rebuilds the block structure scale by scale from the markers and
re-runs the same layout arithmetic, so encoder and decoder cannot drift
apart; codewords are then inverted per context.
"""

from dataclasses import dataclass
from functools import cached_property

from .blocks import (ROLE_BRACKET_BOTH, ROLE_BRACKET_CLOSE, ROLE_BRACKET_OPEN,
                     ROLE_CLOSING, ROLE_FREE, ROLE_MARKER, ROLE_MARKER_K,
                     ROLE_SINGULAR_FILL, ROLE_UNRESOLVED)
from .errors import (CapacityError, MalformedStreamError, ScheduleError,
                     ShiftEmbedError, WindowError)
from .markers import Interval, ReturnPartition, return_partition
from .systems import cell_label, periodic_orbits
from .words import (code_length_needed, has_short_period_prefix, is_primitive,
                    kary_alphabet, kary_index, kary_word, necklace, periodic_window,
                    repetition_prefix)

SYM_M1 = "|"
SYM_MK = "="
SYM_LB = "["
SYM_RB = "]"
SYM_DB = "]["
SYM_TERM = "="   # stretch terminator in the periodic grammar
SYM_FREE = "o"
SYM_UNRESOLVED = "?"

_TOKEN_OUT = {SYM_M1: "B1", SYM_MK: "B2", SYM_LB: "LB", SYM_RB: "RB",
              SYM_DB: "DB", SYM_FREE: "FR", SYM_UNRESOLVED: "UN"}
_TOKEN_IN = {v: k for k, v in _TOKEN_OUT.items()}


@dataclass
class SymbolStream:
    """Symbols over an inclusive coordinate window, one token per position."""

    a: int
    b: int
    symbols: list
    resolution: list = None    # per-position resolution scale; None entries mean > kmax

    def __post_init__(self):
        if len(self.symbols) != self.b - self.a + 1:
            raise ValueError("symbol count does not match window")
        if self.resolution is None:
            self.resolution = [None] * len(self.symbols)

    def get(self, t):
        if not self.a <= t <= self.b:
            raise WindowError("position %d outside stream window [%d, %d]" % (t, self.a, self.b))
        return self.symbols[t - self.a]

    def window(self):
        return (self.a, self.b)

    def restrict(self, a, b):
        if a < self.a or b > self.b:
            raise WindowError("restriction exceeds stream window")
        return SymbolStream(a, b, self.symbols[a - self.a: b - self.a + 1],
                            self.resolution[a - self.a: b - self.a + 1])

    def to_text(self):
        toks = [_TOKEN_OUT.get(s, s) for s in self.symbols]
        res = " ".join("-" if r is None else str(r) for r in self.resolution)
        return "window: %d:%d\nsymbols: %s\nresolution: %s\n" % (
            self.a, self.b, " ".join(toks), res)

    @classmethod
    def from_text(cls, text):
        kv = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, val = line.split(":", 1)
            kv[key.strip()] = val.strip()
        a, b = (int(v) for v in kv["window"].split(":"))
        syms = [_TOKEN_IN.get(tok, tok) for tok in kv["symbols"].split()]
        res = None
        if "resolution" in kv:
            res = [None if tok == "-" else int(tok) for tok in kv["resolution"].split()]
        return cls(a, b, syms, res)

    def __eq__(self, other):
        return isinstance(other, SymbolStream) and (self.a, self.b, self.symbols) == \
            (other.a, other.b, other.symbols)


# -- codebooks -----------------------------------------------------------------


class Codebook:
    """Injective lexicographic map from itinerary words to K-ary words."""

    def __init__(self, scale, n, length, keys, K, context=None):
        if len(keys) > K ** length:
            raise CapacityError("codebook domain %d exceeds K^%d" % (len(keys), length),
                                scale=scale, block=n)
        self.scale = scale
        self.n = n
        self.length = length
        self.K = K
        self.context = context
        self.encode_map = {key: kary_word(i, length, K) for i, key in enumerate(sorted(keys))}
        self.decode_map = {v: k for k, v in self.encode_map.items()}

    def encode(self, key, pad_to=None):
        if key not in self.encode_map:
            raise MalformedStreamError("itinerary word %r not in codebook domain" % (key,))
        word = self.encode_map[key]
        if pad_to is not None:
            if pad_to < self.length:
                raise CapacityError("codeword of length %d cannot fit %d slots"
                                    % (self.length, pad_to), scale=self.scale, block=self.n)
            word = word + "1" * (pad_to - self.length)
        return word

    def decode(self, word):
        word = word[:self.length]
        if word not in self.decode_map:
            raise MalformedStreamError("codeword %r not in codebook image" % word)
        return self.decode_map[word]

    def __len__(self):
        return len(self.encode_map)


class RankedCodebook(Codebook):
    """The scale-1 codebook of an SFT, computed per lookup.

    Sliding windows of equal length compare as the word they slide over, so
    the sorted itinerary keys are the sorted (n + 2m)-words and a key's index
    is its word's rank among the admissible words, which the SFT counts on
    its graph.  Every command starts with cold codebooks; this makes a
    lookup cost the same whatever the block length, instead of a table of
    all the words of that length.  Looked-up codewords are kept.
    """

    def __init__(self, system, m, n, length, K):
        self.size = system.count_words(n + 2 * m)
        if self.size > K ** length:
            raise CapacityError("codebook domain %d exceeds K^%d" % (self.size, length),
                                scale=1, block=n)
        self.system = system
        self.m = m
        self.scale = 1
        self.n = n
        self.length = length
        self.K = K
        self.context = None
        self._words = {}            # key -> codeword, filled by encode
        self._keys = {}             # codeword -> key, filled by decode

    def _key_of(self, w):
        return tuple(w[i:i + 2 * self.m + 1] for i in range(self.n))

    def encode(self, key, pad_to=None):
        word = self._words.get(key)
        if word is None:
            index = None
            if isinstance(key, tuple) and len(key) == self.n and all(
                    isinstance(lab, str) and len(lab) == 2 * self.m + 1 for lab in key):
                w = key[0] + "".join(lab[-1] for lab in key[1:])
                if self._key_of(w) == key:
                    index = self.system.word_rank(w)
            if index is None:
                raise MalformedStreamError("itinerary word %r not in codebook domain" % (key,))
            word = self._words[key] = kary_word(index, self.length, self.K)
        if pad_to is not None:
            if pad_to < self.length:
                raise CapacityError("codeword of length %d cannot fit %d slots"
                                    % (self.length, pad_to), scale=self.scale, block=self.n)
            word = word + "1" * (pad_to - self.length)
        return word

    def decode(self, word):
        word = word[:self.length]
        key = self._keys.get(word)
        if key is None:
            letters = kary_alphabet(self.K)
            index = self.size
            if len(word) == self.length and all(c in letters for c in word):
                index = kary_index(word, self.K)
            if index >= self.size:
                raise MalformedStreamError("codeword %r not in codebook image" % word)
            w = self.system.word_at(index, self.n + 2 * self.m)
            key = self._keys[word] = self._key_of(w)
        return key

    def __len__(self):
        return self.size

    @cached_property
    def encode_map(self):
        keys = itinerary_keys(self.system, self.m, self.n)
        return {key: kary_word(i, self.length, self.K) for i, key in enumerate(sorted(keys))}

    @cached_property
    def decode_map(self):
        return {v: k for k, v in self.encode_map.items()}


def itinerary_keys(system, m, n):
    """All realized itinerary words of the radius-m partition over n steps."""
    if system.is_word_system:
        out = []
        for w in system.words(n + 2 * m):
            out.append(tuple(w[i:i + 2 * m + 1] for i in range(n)))
        return out
    mod = system.modulus(m + 1)
    out = []
    for rho in range(mod):
        out.append(tuple(system.digits_of_residue((rho + t) % mod, m + 1)
                         for t in range(n)))
    return sorted(set(out))


def refinement_keys(system, m, mp, n, coarse):
    """Realized radius-mp itinerary words refining one radius-m word."""
    if system.is_word_system:
        u = coarse[0] + "".join(lab[-1] for lab in coarse[1:])
        if not system.is_admissible(u):
            return []
    if mp == m:
        return [coarse]
    if system.is_word_system:
        u = coarse[0] + "".join(lab[-1] for lab in coarse[1:])
        delta = mp - m
        out = []
        for w in system.words(n + 2 * mp):
            if w[delta:len(w) - delta] == u:
                out.append(tuple(w[i:i + 2 * mp + 1] for i in range(n)))
        return out
    mod_c, mod_f = system.modulus(m + 1), system.modulus(mp + 1)
    out = []
    for rho in range(mod_f):
        key_c = tuple(system.digits_of_residue((rho + t) % mod_c, m + 1) for t in range(n))
        if key_c == coarse:
            out.append(tuple(system.digits_of_residue((rho + t) % mod_f, mp + 1)
                             for t in range(n)))
    return sorted(set(out))


def build_first_codebook(system, schedule, n, length=None):
    """Scale-1 codebook for blocks of length n (code length = filling budget)."""
    if n < schedule.n[0]:
        raise ScheduleError("block length %d below n_1 = %d" % (n, schedule.n[0]))
    if length is None:
        length = schedule.fill1(n)
    m = schedule.m[0]
    if system.kind == "sft" and n + 2 * m >= system.memory:
        return RankedCodebook(system, m, n, length, schedule.K)
    keys = itinerary_keys(system, m, n)
    return Codebook(1, n, length, keys, schedule.K)


def build_conditional_codebook(system, schedule, k, n, coarse):
    """Per-context scale-k codebook; the code length is what the refinement
    count needs, never more than the filling budget."""
    if k < 2:
        raise ValueError("conditional codebooks start at scale 2")
    m, mp = schedule.m[k - 2], schedule.m[k - 1]
    keys = refinement_keys(system, m, mp, n, coarse)
    if not keys:
        raise MalformedStreamError("unknown context %r" % (coarse,))
    length = code_length_needed(len(keys), schedule.K)
    budget = schedule.budget(n, k)
    if length > budget and mp != m:
        raise CapacityError("conditional code needs %d letters, budget %d"
                            % (length, budget), scale=k, block=n)
    return Codebook(k, n, length, keys, schedule.K, context=coarse)


def build_identification_codebook(system, schedule, k, m_period, fine):
    """Identify the periodic orbit of a singular block among the orbits whose
    scale-k itinerary over one period matches the conditional code content.
    Cylinder partitions pin the orbit, so the code is usually empty."""
    mp = schedule.m[k - 1]
    candidates = []
    for w in system.least_period_words(m_period):
        key = tuple(periodic_window(w, t - mp, t + mp) for t in range(m_period))
        if key == fine:
            candidates.append(necklace(w))
    candidates = sorted(set(candidates))
    length = code_length_needed(len(candidates), schedule.K)
    budget = schedule.budget(m_period, k)
    if length > budget:
        raise CapacityError("identification needs %d letters, budget %d"
                            % (length, budget), scale=k, block=m_period)
    return Codebook(k, m_period, length, candidates, schedule.K, context=fine)


# -- the periodic code (prefix-injective orbit naming) --------------------------


class PeriodicCode:
    """Equivariant injective naming of the periodic points of period <= n_1.

    Each orbit necklace gets a primitive K-ary word of the same length; the
    induced point map sends phase c of orbit v to the shifted repetition of
    the code word.  The n_1-prefix map over all (orbit, rotation) pairs is
    injective, verified exhaustively at construction.
    """

    def __init__(self, n1, K, orbit_code):
        self.n1 = n1
        self.K = K
        self.orbit_code = dict(orbit_code)
        self.prefix_table = {}
        for v, w in self.orbit_code.items():
            p = len(w)
            for d in range(p):
                prefix = repetition_prefix(w[d:] + w[:d], n1)
                if prefix in self.prefix_table:
                    raise ShiftEmbedError("periodic code prefix collision at %r" % prefix)
                self.prefix_table[prefix] = (v, d)

    def stream_letter(self, orbit, phase, t):
        w = self.orbit_code[orbit]
        return w[(t + phase) % len(w)]

    def lookup_prefix(self, word):
        return self.prefix_table.get(word)

    def verify_injective(self):
        return len(self.prefix_table) == sum(len(w) for w in self.orbit_code.values())

    def serialize(self):
        lines = ["n1: %d" % self.n1, "K: %d" % self.K]
        for v in sorted(self.orbit_code):
            lines.append("orbit: %s -> %s" % (v, self.orbit_code[v]))
        return "\n".join(lines) + "\n"


def build_periodic_code(system, K, n1):
    """Greedy lexicographic assignment satisfying the prefix-shape condition.

    Orbits of least period n in (sqrt(n1), n1] must avoid code words whose
    n1-fold repetition prefix has a period below n; shorter orbits take any
    unused primitive necklace.  Global prefix injectivity is enforced during
    assignment and re-verified exhaustively.
    """
    from .entropy import least_period_count
    if least_period_count(system, n1) >= K ** (n1 - 1):
        raise ScheduleError("periodic-code precondition #Per_{n1} < K^{n1-1} fails")
    by_period = {}
    for v, n in periodic_orbits(system, n1).items():
        by_period.setdefault(n, []).append(v)
    sqrt_n1 = n1 ** 0.5
    used_prefixes = set()
    used_necklaces = set()
    orbit_code = {}
    for n in sorted(by_period):
        orbits = sorted(by_period[n])
        cursor = 0
        top = K ** n
        for v in orbits:
            assigned = None
            while cursor < top:
                cand = kary_word(cursor, n, K)
                cursor += 1
                if not is_primitive(cand):
                    continue
                if necklace(cand) in used_necklaces:
                    continue
                if n > sqrt_n1 and has_short_period_prefix(cand, n1, n):
                    continue
                prefixes = [repetition_prefix(cand[d:] + cand[:d], n1) for d in range(n)]
                if len(set(prefixes)) != n or any(p in used_prefixes for p in prefixes):
                    continue
                assigned = cand
                break
            if assigned is None:
                raise CapacityError("periodic code exhausted at period %d" % n,
                                    scale=1, block=n)
            orbit_code[v] = assigned
            used_necklaces.add(necklace(assigned))
            used_prefixes.update(repetition_prefix(assigned[d:] + assigned[:d], n1)
                                 for d in range(n))
    code = PeriodicCode(n1, K, orbit_code)
    if not code.verify_injective():
        raise ShiftEmbedError("periodic code failed the exhaustive injectivity check")
    return code


# -- encoding -------------------------------------------------------------------


@dataclass
class PointContext:
    """Partitions and layout chain of one point over an inflated range."""

    point: object
    lo: int
    hi: int
    partitions: list
    layout: object
    runtime: object


def build_point_context(pipeline, point, window):
    """Resolve return partitions and the layout chain around a window."""
    from .blocks import BlockLayout, append_layer
    sched = pipeline.schedule
    a, b = window
    pad = pipeline.decode_margin() + 4 * sum(sched.nprime)
    lo, hi = a - pad, b + pad
    runtime = pipeline.stack.runtime(point)
    layout = BlockLayout(schedule=sched, lo=lo, hi=hi, periodic=pipeline.periodic)
    partitions = []
    for k in range(1, sched.kmax + 1):
        part = return_partition(point, pipeline.stack, k, (lo, hi),
                                prev_layout=layout if k >= 2 else None,
                                prev_partition=partitions[-1] if partitions else None,
                                runtime=runtime)
        partitions.append(part)
        append_layer(layout, part)
    return PointContext(point, lo, hi, partitions, layout, runtime)


def _block_key(pipeline, point, blk, m):
    return tuple(cell_label(pipeline.system, point, t, m)
                 for t in range(blk.start, blk.end))


def _orbit_key(system, orbit, phase, m, span):
    """Itinerary key of the shadowed periodic point over a span of times."""
    lo, hi = span
    return tuple(periodic_window(orbit, t - m, t + m, phase) for t in range(lo, hi))


def _render(pipeline, ctx, k):
    """Symbols of psi_k over the context range: pos -> (symbol, scale)."""
    sched = pipeline.schedule
    system = pipeline.system
    point = ctx.point
    sym = {}

    for l in range(1, k + 1):
        layer = ctx.layout.layer(l)
        m_l = sched.m[l - 1]
        for blk in layer.blocks:
            if blk.kind == "regular":
                if l == 1:
                    key = _block_key(pipeline, point, blk, m_l)
                    cb = pipeline.first_codebook(blk.length(), len(blk.fill_positions))
                    word = cb.encode(key)
                    for pos, ch in zip(blk.fill_positions, word):
                        sym[pos] = (ch, 1)
                else:
                    for pos in blk.freed_positions:
                        sym[pos] = (SYM_FREE, l)
                    coarse = _block_key(pipeline, point, blk, sched.m[l - 2])
                    fine = _block_key(pipeline, point, blk, m_l)
                    cb = pipeline.cond_codebook(l, blk.length(), coarse)
                    word = cb.encode(fine, pad_to=len(blk.fill_positions))
                    for pos, ch in zip(blk.fill_positions, word):
                        sym[pos] = (ch, l)
            else:
                if l == 1:
                    s = blk.start if blk.start is not None else ctx.lo
                    e = blk.end if blk.end is not None else ctx.hi + 1
                    for t in range(max(s, ctx.lo), min(e, ctx.hi + 1)):
                        sym[t] = (pipeline.periodic_code.stream_letter(
                            blk.orbit, blk.phase, t), 1)
                else:
                    for pos in blk.freed_positions:
                        sym[pos] = (SYM_FREE, l)
                    if not blk.special and blk.m > sched.n[l - 2]:
                        span = (0, blk.m)
                        coarse = _orbit_key(system, blk.orbit, 0, sched.m[l - 2], span)
                        fine = _orbit_key(system, blk.orbit, 0, m_l, span)
                        cb = pipeline.cond_codebook(l, blk.m, coarse)
                        icb = pipeline.ident_codebook(l, blk.m, fine)
                        budget = sched.budget(blk.m, l)
                        _write_singular_codes(sym, blk, cb.encode(fine, pad_to=budget),
                                              icb.encode(necklace(blk.orbit), pad_to=budget),
                                              budget, l)
        for pos, role in layer.role.items():
            if role == ROLE_MARKER:
                sym[pos] = (SYM_M1, l)
            elif role == ROLE_CLOSING:
                sym[pos] = (SYM_TERM, l)
            elif role == ROLE_MARKER_K:
                sym[pos] = (SYM_MK, l)
            elif role == ROLE_BRACKET_OPEN:
                sym[pos] = (SYM_LB, l)
            elif role == ROLE_BRACKET_CLOSE:
                sym[pos] = (SYM_RB, l)
            elif role == ROLE_BRACKET_BOTH:
                sym[pos] = (SYM_DB, l)
    return sym


def _write_singular_codes(sym, blk, cond_word, ident_word, budget, scale):
    groups = {}
    for p in blk.cond_positions:
        groups.setdefault((p + blk.phase) // blk.m, [[], []])[0].append(p)
    for p in blk.ident_positions:
        groups.setdefault((p + blk.phase) // blk.m, [[], []])[1].append(p)
    for _, (cps, ips) in sorted(groups.items()):
        for pos, ch in zip(sorted(cps), cond_word):
            sym[pos] = (ch, scale)
        for pos, ch in zip(sorted(ips), ident_word):
            sym[pos] = (ch, scale)


def encode_k(point, pipeline, k, window):
    """The scale-k code of a point on an inclusive window."""
    if not 1 <= k <= pipeline.schedule.kmax:
        raise ValueError("scale %d out of range" % k)
    ctx = pipeline.context(point, window)
    sym = _render(pipeline, ctx, k)
    a, b = window
    symbols, resolution = [], []
    for t in range(a, b + 1):
        ch, scale = sym.get(t, (SYM_FREE, None))
        if ch == SYM_FREE:
            symbols.append(SYM_FREE)
            resolution.append(None)
        else:
            symbols.append(ch)
            resolution.append(scale)
    return SymbolStream(a, b, symbols, resolution)


def encode_limit(point, pipeline, window):
    """The pointwise-limit code at the pipeline depth: positions still free
    at k_max stay unresolved and are emitted as '?'."""
    ctx = pipeline.context(point, window)
    sym = _render(pipeline, ctx, pipeline.schedule.kmax)
    a, b = window
    symbols, resolution = [], []
    for t in range(a, b + 1):
        ch, scale = sym.get(t, (SYM_FREE, None))
        if ch == SYM_FREE:
            symbols.append(SYM_UNRESOLVED)
            resolution.append(None)
        else:
            symbols.append(ch)
            resolution.append(scale)
    return SymbolStream(a, b, symbols, resolution)


# -- decoding -------------------------------------------------------------------


@dataclass
class DecodeResult:
    itineraries: dict          # scale -> {t: cell label}
    certified: dict            # scale -> (lo, hi) inclusive, or None
    orbits: list               # orbit necklaces read from singular blocks
    stream_k: SymbolStream     # the pi_k form of the input stream
    layout: object = None

    def itinerary_list(self, k, window):
        lo, hi = window
        cert = self.certified.get(k)
        if cert is None or cert[0] > lo or cert[1] < hi:
            raise WindowError("window %r not certified at scale %d (have %r)"
                              % (window, k, cert))
        table = self.itineraries[k]
        return [table[t] for t in range(lo, hi + 1)]


def _digit_run(stream, t, length, K):
    """The word of `length` code letters starting at t, or None."""
    letters = set("123456789"[:K])
    out = []
    for i in range(length):
        if not stream.a <= t + i <= stream.b:
            return None
        ch = stream.get(t + i)
        if ch not in letters:
            return None
        out.append(ch)
    return "".join(out)


def _decode_scale1(stream, pipeline):
    """Segment the stream into scale-1 blocks and singular stretches.

    Block starts carry '|'; every bounded singular stretch carries one
    terminator symbol right after its protected n_1-prefix, so structure
    boundaries are the '|' positions plus (terminator - n_1) positions, and
    classification is immediate.
    """
    sched = pipeline.schedule
    periodic = pipeline.periodic
    n1, np1 = sched.n[0], sched.nprime[0]
    K = sched.K
    A, B = stream.a, stream.b
    code = pipeline.periodic_code
    starts = [t for t in range(A, B + 1) if stream.get(t) == SYM_M1]
    terms = [t for t in range(A, B + 1) if stream.get(t) == SYM_TERM] if periodic else []

    def lookup_at(s):
        if s < A or s + n1 - 1 > B:
            return None
        word = _digit_run(stream, s, n1, K)
        return None if word is None else code.lookup_prefix(word)

    boundaries = sorted(set(starts) | {u - n1 for u in terms})
    stretch_starts = {u - n1 for u in terms}

    intervals = []
    labels = {}
    m1 = sched.m[0]
    cert_parts = []
    orbits = []

    for s in starts:
        nxt = min((b for b in boundaries if b > s), default=None)
        if nxt is None:
            continue  # cut by the window edge
        if not n1 <= nxt - s < 2 * np1:
            raise MalformedStreamError("block [%d, %d) has impossible length" % (s, nxt))
        fill = sched.fill1(nxt - s)
        word = _digit_run(stream, s + 1, fill, K)
        if word is None:
            raise MalformedStreamError("block at %d has non-letter filling content" % s)
        cb = pipeline.first_codebook(nxt - s, fill)
        key = cb.decode(word)
        for t in range(s, nxt):
            _put_label(labels, t, key[t - s])
        intervals.append(Interval(s, nxt, "regular"))
        cert_parts.append((s, nxt - 1))

    stretch_bounds = []
    for s in sorted(stretch_starts):
        nxt = min((b for b in boundaries if b > s), default=None)
        stretch_bounds.append((s, nxt))
    first_boundary = boundaries[0] if boundaries else None
    if periodic and (first_boundary is None or first_boundary > A):
        stretch_bounds.append((None, first_boundary))

    for s, e in stretch_bounds:
        if s is not None and e is not None and e - s < 2 * np1:
            raise MalformedStreamError("singular stretch [%d, %d) too short" % (s, e))
        tag = None
        anchor = None
        if s is not None:
            tag = lookup_at(s)
            anchor = s
        if tag is None:
            u = A if s is None else s
            stop = B if e is None else e - 1
            while u + n1 - 1 <= stop:
                tag = lookup_at(u)
                if tag is not None:
                    anchor = u
                    break
                u += 1
        if tag is None:
            if s is not None and e is not None:
                raise MalformedStreamError("singular stretch %r has no readable prefix"
                                           % ((s, e),))
            continue  # edge region too dirty to certify: drop it
        v, d = tag
        phase = (d - anchor) % len(v)
        _validate_stretch_content(stream, pipeline, s, e, v, phase)
        lo_t = A if s is None else s
        hi_t = B + 1 if e is None else e
        for t in range(lo_t, hi_t):
            _put_label(labels, t, periodic_window(v, t - m1, t + m1, phase))
        intervals.append(Interval(s, e, "singular", special=True,
                                  orbit=v, phase=phase, m=len(v)))
        orbits.append(v)
        cert_parts.append((lo_t, hi_t - 1))
    intervals.sort(key=lambda iv: iv.start if iv.start is not None else A - 1)
    for iv in intervals:
        iv.adj_start, iv.adj_end = iv.start, iv.end
    return intervals, labels, orbits, cert_parts


def _validate_stretch_content(stream, pipeline, s, e, orbit, phase):
    """Strict content check of a singular stretch: letters must match the
    orbit prediction; structural symbols only where the grammar places them
    (terminator at depth n_1, brackets and markers past the protected
    prefix, freed slots on the arithmetic progressions)."""
    sched = pipeline.schedule
    code = pipeline.periodic_code
    K = sched.K
    letters = set("123456789"[:K])
    A, B = stream.a, stream.b
    lo_t = A if s is None else max(s, A)
    hi_t = B + 1 if e is None else min(e, B + 1)
    freed = _stretch_freed_positions(sched, s, e, len(orbit), phase, (lo_t, hi_t - 1))
    n1 = sched.n[0]
    for t in range(lo_t, hi_t):
        ch = stream.get(t)
        if ch in letters:
            if ch != code.stream_letter(orbit, phase, t):
                raise MalformedStreamError(
                    "stretch content clashes with orbit %r at %d" % (orbit, t))
        elif ch == SYM_TERM:
            if s is None or t != s + n1:
                raise MalformedStreamError("unexpected terminator inside a stretch at %d" % t)
        elif ch == SYM_M1:
            raise MalformedStreamError("block marker inside a stretch at %d" % t)
        elif ch in (SYM_LB, SYM_RB, SYM_DB):
            if s is not None and t < s + n1 + 1:
                raise MalformedStreamError("bracket inside a protected prefix at %d" % t)
        elif ch in (SYM_FREE, SYM_UNRESOLVED):
            if t not in freed:
                raise MalformedStreamError("free slot inside a stretch at %d" % t)
        else:
            raise MalformedStreamError("alien symbol %r inside a stretch at %d" % (ch, t))


def _stretch_freed_positions(sched, s, e, m, phase, span):
    """Union over scales >= 2 of the freed positions of a special singular
    stretch (same arithmetic the layout uses)."""
    lo, hi = span
    n1 = sched.n[0]
    freed = set()
    for k in range(2, sched.kmax + 1):
        budget = int(sched.alpha * m / 2 ** k)
        if budget <= 0:
            continue
        if s is not None:
            j = 1
            while s + n1 + j * m - budget <= hi:
                for r in range(1, budget + 1):
                    pos = s + n1 + j * m - r
                    if lo <= pos <= hi and (e is None or pos < e):
                        freed.add(pos)
                j += 1
        elif e is not None:
            j = 1
            while e - 1 - (n1 + j * m - budget) >= lo:
                for r in range(1, budget + 1):
                    pos = e - 1 - (n1 + j * m - r)
                    if lo <= pos <= hi:
                        freed.add(pos)
                j += 1
        else:
            targets = {(-r) % m for r in range(1, budget + 1)}
            for pos in range(lo, hi + 1):
                if (pos + phase) % m in targets:
                    freed.add(pos)
    return freed


def _put_label(labels, t, value):
    old = labels.get(t)
    if old is not None and old != value:
        raise MalformedStreamError("inconsistent labels at %d: %r vs %r" % (t, old, value))
    labels[t] = value


def _covered_range(parts, within):
    """The contiguous covered run with the largest overlap with `within`."""
    if not parts:
        return None
    pts = set()
    for lo, hi in parts:
        pts.update(range(lo, hi + 1))
    runs = []
    for t in sorted(pts):
        if runs and t == runs[-1][1] + 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    lo0, hi0 = within
    best = max(runs, key=lambda r: min(r[1], hi0) - max(r[0], lo0))
    return (best[0], best[1])


def _decode_scale_k(stream, pipeline, k, layout, labels_prev, intervals_prev):
    """Reconstruct scale-k structure from markers/brackets, re-run the layout,
    and invert the per-context codes."""
    sched = pipeline.schedule
    system = pipeline.system
    A, B = stream.a, stream.b
    nk, npk = sched.n[k - 1], sched.nprime[k - 1]
    prev_layer = layout.layer(k - 1)

    boundaries = []   # (pos_of_symbol, boundary, type)
    for t in range(A, B + 1):
        ch = stream.get(t)
        if ch in (SYM_LB, SYM_DB, SYM_RB):
            blk = prev_layer.block_at(t)
            if blk is None:
                continue
            b = blk.start if blk.kind == "regular" else t
            if b is None:
                continue
            boundaries.append((t, b, ch))
        elif ch == SYM_MK and not pipeline.periodic:
            # a scale-k marker occupies the first free slot of its block;
            # markers of deeper scales sit on later slots and are skipped
            blk = prev_layer.block_at(t)
            if blk is None or blk.kind != "regular":
                continue
            if not blk.free_slots or blk.free_slots[0] != t:
                continue
            boundaries.append((t, blk.start, SYM_MK))
    boundaries.sort(key=lambda x: x[1])

    intervals = []
    cert_parts = []
    if pipeline.periodic:
        opens = [(b, ch) for _, b, ch in boundaries if ch in (SYM_LB, SYM_DB)]
        closes = [b for _, b, ch in boundaries if ch in (SYM_RB, SYM_DB)]
        for i, (b, ch) in enumerate(opens):
            nxt_open = opens[i + 1][0] if i + 1 < len(opens) else None
            nxt_close = min((c for c in closes if c > b), default=None)
            if nxt_open is not None and (nxt_close is None or nxt_open <= nxt_close):
                e, adjacent = nxt_open, True
            elif nxt_close is not None:
                e, adjacent = nxt_close, False
            else:
                continue  # cut by the window edge
            if not nk <= e - b < 2 * npk:
                raise MalformedStreamError("scale-%d block [%d, %d) has impossible length"
                                           % (k, b, e))
            intervals.append(Interval(b, e, "regular"))
        # singular gaps between a close and the next open
        for c in closes:
            nxt = min((b for b, ch in opens if b > c), default=None)
            if nxt is None:
                intervals.append(Interval(c, None, "singular"))
            elif nxt - c > 0:
                intervals.append(Interval(c, nxt, "singular"))
        if opens and (not closes or min(b for b, _ in opens) < min(closes)):
            first_open = min(b for b, _ in opens)
            if first_open > A:
                intervals.append(Interval(None, first_open, "singular"))
        if not opens and not closes:
            intervals.append(Interval(None, None, "singular"))
    else:
        cands = [b for _, b, ch in boundaries if ch == SYM_MK]
        for b, e in zip(cands, cands[1:]):
            if not nk <= e - b < 2 * npk:
                raise MalformedStreamError("scale-%d gap %d out of range" % (k, e - b))
            intervals.append(Interval(b, e, "regular"))
        if not intervals:
            raise MalformedStreamError("no scale-%d markers found" % k)

    # tag singular intervals from the previous scale's content
    m_k = sched.m[k - 1]
    labels = {}
    orbits = []
    out_intervals = []
    m_prev = sched.m[k - 2]
    for iv in sorted(intervals, key=lambda iv: iv.start if iv.start is not None else A - 1):
        if iv.kind == "singular":
            pieces = _split_singular_region(iv, pipeline, k, labels_prev,
                                            intervals_prev, (A, B))
            for piece in pieces:
                orbits.append(piece.orbit)
                piece.adj_start, piece.adj_end = piece.start, piece.end
                out_intervals.append(piece)
            # labels come from the previous scale's letters, never from the
            # orbit extrapolated past where the point departs from it
            lo_t = A if iv.start is None else iv.start
            hi_t = B + 1 if iv.end is None else iv.end
            covered_lo, covered_hi = None, None
            for t in range(lo_t, hi_t):
                lab = _refine_label(pipeline, labels_prev, t, m_prev, m_k)
                if lab is None:
                    if covered_lo is not None and covered_hi is None:
                        covered_hi = t - 1
                    continue
                if covered_lo is None:
                    covered_lo = t
                _put_label(labels, t, lab)
            if covered_lo is not None:
                cert_parts.append((covered_lo,
                                   covered_hi if covered_hi is not None else hi_t - 1))
        else:
            iv.adj_start, iv.adj_end = iv.start, iv.end
            out_intervals.append(iv)

    from .blocks import append_layer
    part = ReturnPartition(scale=k, window=(A, B), intervals=out_intervals,
                           returns=[], computed_range=(A - 1, B + 1))
    layer = append_layer(layout, part)

    for blk in layer.blocks:
        if blk.kind != "regular":
            continue
        try:
            coarse = tuple(labels_prev[t] for t in range(blk.start, blk.end))
        except KeyError:
            continue  # outside the previous certified region
        cb = pipeline.cond_codebook(k, blk.length(), coarse)
        letters = []
        ok = True
        for pos in blk.fill_positions[:cb.length]:
            if not A <= pos <= B:
                ok = False
                break
            letters.append(stream.get(pos))
        if not ok:
            continue
        fine = cb.decode("".join(letters))
        for t in range(blk.start, blk.end):
            _put_label(labels, t, fine[t - blk.start])
        cert_parts.append((blk.start, blk.end - 1))
        if (stream.get(blk.marker_pos) if A <= blk.marker_pos <= B else None) not in (
                SYM_MK, SYM_LB, SYM_DB):
            raise MalformedStreamError("marker slot %d lacks its symbol" % blk.marker_pos)
    return labels, orbits, cert_parts


def _refine_label(pipeline, labels_prev, t, m_prev, m_new):
    """Radius-m_new cell label at t from radius-m_prev labels (word systems:
    stitch center letters; identity refinement passes labels through)."""
    if m_new == m_prev:
        return labels_prev.get(t)
    if not pipeline.system.is_word_system:
        return None
    letters = []
    for i in range(t - m_new, t + m_new + 1):
        lab = labels_prev.get(i)
        if lab is None:
            return None
        letters.append(lab[m_prev])
    return "".join(letters)


def _split_singular_region(iv, pipeline, k, labels_prev, intervals_prev, window):
    """Split a singular scale-k region along previous-scale stretch
    boundaries and identify the orbit of each part.

    Only the deep zone (past the covering margin n\'_k at bounded ends) is
    consulted: edge material near the bounding returns is not shadowed.
    Tier-1 returns sit at previous-scale boundaries, so stretch transitions
    split exactly.
    """
    A, B = window
    sched = pipeline.schedule
    npk = sched.nprime[k - 1]
    lo = A if iv.start is None else iv.start
    hi = B + 1 if iv.end is None else iv.end
    deep_lo = lo if iv.start is None else lo + npk
    deep_hi = hi if iv.end is None else hi - npk
    if deep_lo >= deep_hi:
        return []
    prevs = sorted((pv for pv in intervals_prev),
                   key=lambda pv: pv.start if pv.start is not None else A - 1)
    tagged = []
    for pv in prevs:
        if pv.kind != "singular" or pv.orbit is None:
            continue
        p_lo = deep_lo if pv.start is None else max(pv.start, deep_lo)
        p_hi = deep_hi if pv.end is None else min(pv.end, deep_hi)
        if p_lo < p_hi:
            tagged.append([pv.start, pv.end, pv.orbit, pv.phase])
    pieces = []
    cursor = deep_lo
    for seg in tagged:
        s = cursor if seg[0] is None else max(seg[0], deep_lo)
        if s > cursor:
            gap_tag = _extract_period(pipeline, k, labels_prev, cursor, s, (A, B))
            if gap_tag is not None:
                pieces.append([cursor, s, gap_tag[0], gap_tag[1]])
        pieces.append([s, seg[1], seg[2], seg[3]])
        cursor = deep_hi if seg[1] is None else min(seg[1], deep_hi)
    if cursor < deep_hi:
        gap_tag = _extract_period(pipeline, k, labels_prev, cursor, deep_hi, (A, B))
        if gap_tag is not None:
            pieces.append([cursor, deep_hi, gap_tag[0], gap_tag[1]])
    if not pieces:
        return []
    pieces[0][0] = iv.start
    pieces[-1][1] = iv.end
    out = []
    for s, e, orbit, phase in pieces:
        out.append(Interval(s, e, "singular", special=len(orbit) <= sched.n[k - 2],
                            orbit=orbit, phase=phase % len(orbit), m=len(orbit)))
    return out


def _extract_period(pipeline, k, labels_prev, s, e, window):
    """Orbit of a regular-tiled shadowed zone from its decoded letters."""
    A, B = window
    sched = pipeline.schedule
    if not pipeline.system.is_word_system:
        return None
    m_prev = sched.m[k - 2]
    lo = A if s is None else s
    hi = B + 1 if e is None else e
    word = []
    t = lo
    while t < hi and t in labels_prev:
        word.append(labels_prev[t][m_prev])
        t += 1
    if len(word) <= sched.n[k - 1]:
        return None
    text = "".join(word)
    from .words import min_period as _mp
    p = _mp(text)
    if p > sched.n[k - 1]:
        raise MalformedStreamError("shadowed region content is not periodic")
    root = text[:p]
    v = necklace(root)
    d = next(i for i in range(p) if v[i:] + v[:i] == root)
    phase = (d - lo) % p
    return v, phase


def decode_k(stream, pipeline, k):
    """Invert the scale-k code: block structure, itineraries, orbit ids."""
    from .blocks import BlockLayout
    sched = pipeline.schedule
    if not 1 <= k <= sched.kmax:
        raise ValueError("scale %d out of range" % k)
    A, B = stream.a, stream.b
    intervals1, labels1, orbits, cert1_parts = _decode_scale1(stream, pipeline)
    layout = BlockLayout(schedule=sched, lo=A, hi=B, periodic=pipeline.periodic)
    part1 = ReturnPartition(scale=1, window=(A, B), intervals=intervals1,
                            returns=[], computed_range=(A - 1, B + 1))
    from .blocks import append_layer
    append_layer(layout, part1)
    itineraries = {1: labels1}
    certified = {1: _covered_range(cert1_parts, (A, B))}
    labels_prev, intervals_prev = labels1, intervals1
    for l in range(2, k + 1):
        labels_l, orbits_l, cert_parts = _decode_scale_k(
            stream, pipeline, l, layout, labels_prev, intervals_prev)
        itineraries[l] = labels_l
        certified[l] = _covered_range(cert_parts, (A, B))
        orbits.extend(o for o in orbits_l if o not in orbits)
        labels_prev = labels_l
        intervals_prev = layout.layer(l).blocks
        intervals_prev = [Interval(b.start, b.end, b.kind, special=b.special,
                                   orbit=b.orbit, phase=b.phase, m=b.m)
                          for b in layout.layer(l).blocks]
    # pi_k form: deeper-scale symbols revert to free slots, and brackets
    # written over singular content revert to the orbit letters
    structural = {SYM_LB, SYM_RB, SYM_DB, SYM_MK}
    def orbit_letter(t):
        for iv in intervals1:
            if iv.kind == "singular" and iv.covers(t):
                return pipeline.periodic_code.stream_letter(iv.orbit, iv.phase, t)
        return None
    symbols = []
    for t in range(A, B + 1):
        role, scale = layout.role_at(t, upto=min(k, len(layout.layers)))
        ch = stream.get(t)
        if role in (ROLE_FREE, ROLE_UNRESOLVED):
            symbols.append(SYM_FREE)
        elif role == ROLE_SINGULAR_FILL and ch in structural:
            symbols.append(orbit_letter(t) or ch)
        else:
            symbols.append(ch)
    stream_k = SymbolStream(A, B, symbols)
    return DecodeResult(itineraries=itineraries, certified=certified,
                        orbits=orbits, stream_k=stream_k, layout=layout)


def invert(stream, pipeline, k):
    """The radius-m_k cell of every preimage point at time zero."""
    sched = pipeline.schedule
    margin = (10 if pipeline.periodic else 4) * sched.n[k - 1]
    if stream.a > -margin or stream.b < margin:
        raise WindowError("invert at scale %d needs the stream to cover [%d, %d]"
                          % (k, -margin, margin))
    result = decode_k(stream, pipeline, k)
    cert = result.certified.get(k)
    if cert is None or not cert[0] <= 0 <= cert[1]:
        raise WindowError("time zero not certified at scale %d" % k)
    return result.itineraries[k][0]
