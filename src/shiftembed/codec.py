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

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .blocks import (ROLE_BRACKET_BOTH, ROLE_BRACKET_CLOSE, ROLE_BRACKET_OPEN,
                     ROLE_CLOSING, ROLE_FREE, ROLE_MARKER, ROLE_MARKER_K,
                     ROLE_SINGULAR_FILL, ROLE_UNRESOLVED, LayoutBlock, SpanOrderError,
                     _free_special_singular)
from .errors import (CapacityError, MalformedStreamError, ScheduleError,
                     ShiftEmbedError, SpecParseError, WindowError)
from .markers import Interval, ReturnPartition, return_partition
from .systems import cell_label, periodic_orbits
from .words import (code_length_needed, has_short_period_prefix, is_primitive,
                    kary_alphabet, kary_index, kary_word, least_rotation, min_period,
                    necklace, periodic_window, repetition_prefix)

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

# the stream symbol of each structural layout role
_ROLE_SYMBOL = {ROLE_MARKER: SYM_M1, ROLE_CLOSING: SYM_TERM, ROLE_MARKER_K: SYM_MK,
                ROLE_BRACKET_OPEN: SYM_LB, ROLE_BRACKET_CLOSE: SYM_RB,
                ROLE_BRACKET_BOTH: SYM_DB}


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
        """Parse the to_text form; SpecParseError on anything else."""
        kv = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            if ":" not in line:
                raise SpecParseError("stream line %d: expected 'key: value'" % lineno)
            key, val = line.split(":", 1)
            kv[key.strip()] = val.strip()
        for key in ("window", "symbols"):
            if key not in kv:
                raise SpecParseError("stream needs '%s'" % key)
        try:
            a, b = (int(v) for v in kv["window"].split(":"))
        except ValueError:
            raise SpecParseError("stream window must look like a:b, not %r"
                                 % kv["window"]) from None
        syms = [_TOKEN_IN.get(tok, tok) for tok in kv["symbols"].split()]
        if len(syms) != b - a + 1:
            raise SpecParseError("stream has %d symbols for window %d:%d"
                                 % (len(syms), a, b))
        res = None
        if "resolution" in kv:
            try:
                res = [None if tok == "-" else int(tok) for tok in kv["resolution"].split()]
            except ValueError:
                raise SpecParseError("stream resolution entries must be integers or '-'") \
                    from None
            if len(res) != len(syms):
                raise SpecParseError("stream has %d resolution entries for %d symbols"
                                     % (len(res), len(syms)))
        return cls(a, b, syms, res)

    def unresolved(self):
        """The stream with its free slots written '?', as in the limit code."""
        return SymbolStream(self.a, self.b, [SYM_UNRESOLVED if ch == SYM_FREE else ch
                                             for ch in self.symbols], list(self.resolution))

    def __eq__(self, other):
        return isinstance(other, SymbolStream) and (self.a, self.b, self.symbols) == \
            (other.a, other.b, other.symbols)


# -- codebooks -----------------------------------------------------------------


class Codebook:
    """Injective lexicographic map from itinerary words to K-ary words: a
    key's codeword is the K-ary word of its index among the sorted keys.

    This class lists its keys (an orbit's, at most p, or the one orbit of an
    identification); a subclass counts them, supplying `_rank` and `_unrank`.
    A length of None is the one the key count needs.
    """

    def __init__(self, scale, n, length, keys, K, context=None):
        self._sorted = sorted(keys)
        self._index = {key: i for i, key in enumerate(self._sorted)}
        self._setup(scale, n, length, len(self._sorted), K, context)

    def _setup(self, scale, n, length, size, K, context):
        if length is None:
            length = code_length_needed(size, K)
        if size > K ** length:
            raise CapacityError("codebook domain %d exceeds K^%d" % (size, length),
                                scale=scale, block=n)
        self.scale = scale
        self.n = n
        self.length = length
        self.size = size
        self.K = K
        self.context = context

    def _rank(self, key):
        """Index of a key among the sorted keys; None outside the domain."""
        return self._index.get(key)

    def _unrank(self, index):
        return self._sorted[index]

    def encode(self, key, pad_to=None):
        index = self._rank(key)
        if index is None:
            raise MalformedStreamError("itinerary word %r not in codebook domain" % (key,))
        word = kary_word(index, self.length, self.K)
        if pad_to is not None:
            if pad_to < self.length:
                raise CapacityError("codeword of length %d cannot fit %d slots"
                                    % (self.length, pad_to), scale=self.scale, block=self.n)
            word = word + "1" * (pad_to - self.length)
        return word

    def decode(self, word):
        """The key of a codeword, given as a string or as its stream tokens
        and read up to the code length; a token that is not one code letter
        puts it outside the image."""
        head = word[:self.length]
        index = self.size
        if len(head) == self.length and set(kary_alphabet(self.K)).issuperset(head):
            index = kary_index(head, self.K)
        if index >= self.size:
            raise MalformedStreamError("codeword %r not in codebook image"
                                       % "".join(word)[:self.length])
        return self._unrank(index)

    def __len__(self):
        return self.size


def _window_key(w, m, n):
    """The radius-m itinerary key of an (n + 2m)-word: its n windows."""
    return tuple(w[i:i + 2 * m + 1] for i in range(n))


def _spelled(key, m, n):
    """The (n + 2m)-word whose radius-m windows the key is, or None."""
    w = key[0] + "".join(lab[-1:] for lab in key[1:]) if len(key) == n else ""
    return w if len(w) == n + 2 * m and _window_key(w, m, n) == key else None


class RankedCodebook(Codebook):
    """The scale-1 codebook of an SFT, computed per lookup.

    Sliding windows of equal length compare as the word they slide over, so
    the sorted itinerary keys are the sorted (n + 2m)-words and a key's index
    is its word's rank, which the SFT counts on its graph.
    """

    def __init__(self, system, m, n, length, K):
        self.system = system
        self.m = m
        self._setup(1, n, length, system.count_words(n + 2 * m), K, None)

    def _rank(self, key):
        w = _spelled(key, self.m, self.n)
        return None if w is None else self.system.word_rank(w)

    def _unrank(self, index):
        return _window_key(self.system.word_at(index, self.n + 2 * self.m), self.m, self.n)


class RefinementCodebook(Codebook):
    """The scale-k codebook of an SFT given the word u its context spells:
    the radius-m' windows of the words x + u + y, |x| = |y| = m' - m.

    Every forbidden word fits in M + 1 letters (M the memory), so for
    |u| >= M, x + u + y is admissible exactly when x + u[:M] and u[-M:] + y
    are: L left extensions into one state times R right extensions out of
    another.  With u fixed the words sort as the pairs (x, y), so a key's
    index is rank_left * R + rank_right.
    """

    def __init__(self, system, k, m, mp, n, K, coarse, u):
        M = system.memory
        if len(u) < M:
            raise ScheduleError("context %r is shorter than the memory" % (u,))
        self.system = system
        self.m = mp
        self.u = u
        self.into, self.out = u[:M], u[len(u) - M:]
        self.ext = M + mp - m               # the length of x + u[:M] and of u[-M:] + y
        self._right = system.count_words(self.ext, start=self.out)
        self._setup(k, n, None, system.count_words(self.ext, end=self.into) * self._right,
                    K, coarse)

    def _rank(self, key):
        w = _spelled(key, self.m, self.n)
        d = self.ext - len(self.into)
        if w is None or w[d:len(w) - d] != self.u:
            return None
        left = self.system.word_rank(w[:self.ext], end=self.into)
        right = self.system.word_rank(w[len(w) - self.ext:], start=self.out)
        return None if left is None or right is None else left * self._right + right

    def _unrank(self, index):
        left, right = divmod(index, self._right)
        x = self.system.word_at(left, self.ext, end=self.into)
        y = self.system.word_at(right, self.ext, start=self.out)
        return _window_key(x[:len(x) - len(self.into)] + self.u + y[len(self.out):],
                           self.m, self.n)


class ResidueCodebook(Codebook):
    """An odometer codebook in residue arithmetic, computed per lookup.

    A key is the run of depth-d cells from the residue its first label
    names, so keys sort as their first labels, digit 0 most significant.
    The leading digits are the context's (none at scale 1), and a key's
    index is the rest of its first label read as a mixed-radix number; the
    key is in the domain when the run of that index is the key itself.
    """

    def __init__(self, system, scale, depth, n, length, K, context=None):
        self.system = system
        self.depth = depth
        self.lo = len(context[0]) if context else 0
        self.radix = system.base[self.lo:depth]
        self.offset = system.residue_of_digits(context[0]) if context else 0
        self._setup(scale, n, length, math.prod(self.radix), K, context)

    def _rank(self, key):
        if len(key) != self.n:
            return None
        index = 0
        for digit, p in zip(key[0][self.lo:], self.radix):
            index = index * p + digit
        return index if 0 <= index < self.size and self._unrank(index) == key else None

    def _unrank(self, index):
        shift = 0                           # the ranked digits, digit lo least significant
        for p in reversed(self.radix):
            index, digit = divmod(index, p)
            shift = shift * p + digit
        step = self.system.moduli[self.lo - 1] if self.lo else 1
        return self.system.cell_run(self.offset + step * shift, self.depth, self.n)


def build_first_codebook(system, schedule, n, length=None):
    """Scale-1 codebook for blocks of length n (code length = filling budget)."""
    if n < schedule.n[0]:
        raise ScheduleError("block length %d below n_1 = %d" % (n, schedule.n[0]))
    if length is None:
        length = schedule.fill1(n)
    m = schedule.m[0]
    if system.kind == "sft":
        return RankedCodebook(system, m, n, length, schedule.K)
    if system.kind == "odometer":
        return ResidueCodebook(system, 1, m + 1, n, length, schedule.K)
    keys = [_window_key(w, m, n) for w in system.words(n + 2 * m)]
    return Codebook(1, n, length, keys, schedule.K)


def build_conditional_codebook(system, schedule, k, n, coarse):
    """Per-context scale-k codebook; the code length is what the refinement
    count needs, never more than the filling budget."""
    if k < 2:
        raise ValueError("conditional codebooks start at scale 2")
    m, mp = schedule.m[k - 2], schedule.m[k - 1]
    if system.kind == "odometer":
        cb = ResidueCodebook(system, k, mp + 1, n, None, schedule.K, coarse)
        known = system.cell_run(cb.offset, m + 1, n) == coarse
    else:
        u = coarse[0] + "".join(lab[-1] for lab in coarse[1:])
        known = system.is_admissible(u)
    if not known:
        raise MalformedStreamError("unknown context %r" % (coarse,))
    if system.kind == "sft":
        cb = RefinementCodebook(system, k, m, mp, n, schedule.K, coarse, u)
    elif system.kind == "orbit":
        keys = [_window_key(w, mp, n) for w in system.words(n + 2 * mp)
                if w[mp - m:len(w) - mp + m] == u]
        cb = Codebook(k, n, None, keys, schedule.K, context=coarse)
    budget = schedule.budget(n, k)
    if cb.length > budget and mp != m:
        raise CapacityError("conditional code needs %d letters, budget %d"
                            % (cb.length, budget), scale=k, block=n)
    return cb


def build_identification_codebook(system, schedule, k, m_period, fine):
    """Identify the periodic orbit of a singular block among the orbits whose
    scale-k itinerary over one period is `fine`.

    The radius-m' window at time t of the periodic point of a word w is w's
    periodic window centred at t, so its middle letter is w[t mod p]: over
    one period the middle letters of `fine` spell w itself.  At most one word
    of least period p has the itinerary `fine`, so the domain is that word's
    necklace alone and the code is empty.
    """
    mp = schedule.m[k - 1]
    w = "".join(lab[mp] for lab in fine)
    keys = []
    if (system.is_cyclic_word(w) and is_primitive(w)
            and _orbit_key(w, mp, m_period) == fine):
        keys = [necklace(w)]
    return Codebook(k, m_period, 0, keys, schedule.K, context=fine)


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

    @classmethod
    def parse(cls, text, system, n1, K):
        """Read the serialize form back, checked against the system and the
        schedule's n1 and K; SpecParseError on anything the greedy
        assignment could not have written."""
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if len(lines) < 2 or lines[0] != "n1: %d" % n1 or lines[1] != "K: %d" % K:
            raise SpecParseError("periodic code header must be 'n1: %d' and 'K: %d'"
                                 % (n1, K))
        orbit_code = {}
        for line in lines[2:]:
            key, _, rest = line.partition(":")
            v, arrow, w = rest.strip().partition(" -> ")
            if key != "orbit" or not arrow or v in orbit_code:
                raise SpecParseError("periodic code line %r" % line)
            orbit_code[v] = w
        orbits = periodic_orbits(system, n1)
        if set(orbit_code) != set(orbits):
            raise SpecParseError("periodic code names %d orbits, the system has %d of "
                                 "period <= %d" % (len(orbit_code), len(orbits), n1))
        alphabet = set(kary_alphabet(K))
        for v, w in orbit_code.items():
            if len(w) != orbits[v]:
                problem = "has length %d, not the orbit's %d" % (len(w), orbits[v])
            elif not set(w) <= alphabet:
                problem = "is not over the %d-letter code alphabet" % K
            elif not is_primitive(w):
                problem = "is not primitive"
            elif not _shape_ok(w, n1):
                problem = "repeats to an n1-prefix of period below its length"
            else:
                continue
            raise SpecParseError("code word %r of orbit %r %s" % (w, v, problem))
        try:
            code = cls(n1, K, orbit_code)
        except ShiftEmbedError as exc:
            raise SpecParseError(str(exc)) from None
        if not code.verify_injective():
            raise SpecParseError("periodic code fails the injectivity check")
        return code


def _shape_ok(w, n1):
    """The prefix-shape condition of the periodic-code lemma: a code word of
    length n in (sqrt(n1), n1] has no n1-prefix of period below n."""
    return len(w) <= n1 ** 0.5 or not has_short_period_prefix(w, n1, len(w))


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
                if not _shape_ok(cand, n1):
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


def _context_scales(pipeline, point, window):
    """Resolve a point's context around a window one scale at a time,
    yielding it after each scale's return partition and layer."""
    from .blocks import BlockLayout, append_layer
    sched = pipeline.schedule
    a, b = window
    # room for a complete block of every scale on each side, so that every
    # block meeting the window is laid out whole; callers that decode have
    # already widened the window by the decode margin
    pad = 4 * sum(sched.nprime)
    lo, hi = a - pad, b + pad
    ctx = PointContext(point, lo, hi, [],
                       BlockLayout(schedule=sched, lo=lo, hi=hi, periodic=pipeline.periodic))
    runtime = pipeline.stack.runtime(point)
    for k in range(1, sched.kmax + 1):
        part = return_partition(point, pipeline.stack, k, (lo, hi),
                                prev_layout=ctx.layout if k >= 2 else None,
                                prev_partition=ctx.partitions[-1] if k >= 2 else None,
                                runtime=runtime)
        ctx.partitions.append(part)
        append_layer(ctx.layout, part)
        yield ctx


def build_point_context(pipeline, point, window):
    """Resolve return partitions and the layout chain around a window."""
    *_, ctx = _context_scales(pipeline, point, window)
    return ctx


def _block_key(pipeline, point, blk, m):
    system = pipeline.system
    if not system.is_word_system:
        return system.cell_run(point.residue_at(blk.start, m + 1), m + 1, blk.end - blk.start)
    return tuple(cell_label(system, point, t, m) for t in range(blk.start, blk.end))


def _orbit_key(orbit, m, n):
    """Itinerary key of the periodic point of a word over times 0..n-1."""
    return tuple(periodic_window(orbit, t - m, t + m) for t in range(n))


def _block_codebook(pipeline, l, blk, coarse):
    """The codebook of a regular l-block's codeword: at scale 1 the code of
    its length and filling, above it the code conditioned on the block's
    coarse itinerary."""
    if l == 1:
        return pipeline.first_codebook(blk.length(), len(blk.fill_positions))
    return pipeline.cond_codebook(l, blk.length(), coarse)


def _render_layer(pipeline, ctx, l, sym):
    """Write the scale-l layer over the context range into sym, which holds
    psi_{l-1} as pos -> (symbol, scale), a free slot's scale None, and then
    holds psi_l."""
    sched = pipeline.schedule
    point = ctx.point
    layer = ctx.layout.layer(l)
    m_l = sched.m[l - 1]
    for blk in layer.blocks:
        for pos in blk.freed_positions:         # none at scale 1
            sym[pos] = (SYM_FREE, None)
        if blk.kind == "regular":
            coarse = _block_key(pipeline, point, blk, sched.m[l - 2]) if l >= 2 else None
            cb = _block_codebook(pipeline, l, blk, coarse)
            word = cb.encode(_block_key(pipeline, point, blk, m_l),
                             pad_to=len(blk.fill_positions))
            for pos, ch in zip(blk.fill_positions, word):
                sym[pos] = (ch, l)
        elif l == 1:
            s = blk.start if blk.start is not None else ctx.lo
            e = blk.end if blk.end is not None else ctx.hi + 1
            for t in range(max(s, ctx.lo), min(e, ctx.hi + 1)):
                sym[t] = (pipeline.periodic_code.stream_letter(blk.orbit, blk.phase, t), 1)
        elif not blk.special:
            coarse = _orbit_key(blk.orbit, sched.m[l - 2], blk.m)
            fine = _orbit_key(blk.orbit, m_l, blk.m)
            cb = pipeline.cond_codebook(l, blk.m, coarse)
            icb = pipeline.ident_codebook(l, blk.m, fine)
            budget = sched.budget(blk.m, l)
            _write_singular_codes(sym, blk, cb.encode(fine, pad_to=budget),
                                  icb.encode(necklace(blk.orbit), pad_to=budget), l)
    for pos, role in layer.role.items():
        ch = _ROLE_SYMBOL.get(role)
        if ch is not None:
            sym[pos] = (ch, l)


def _write_singular_codes(sym, blk, cond_word, ident_word, scale):
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


def encode_scales(point, pipeline, window):
    """Yield psi_1, ..., psi_kmax of a point on an inclusive window from one
    context, psi_k writing scale k's layer into the slots psi_{k-1} left
    free.  Scale k is resolved right before it is rendered, and a scale
    that raises ends the iteration with its error."""
    a, b = window
    sym = {}
    for k, ctx in enumerate(_context_scales(pipeline, point, window), 1):
        _render_layer(pipeline, ctx, k, sym)
        cells = list(map(sym.get, range(a, b + 1), itertools.repeat((SYM_FREE, None))))
        yield SymbolStream(a, b, [ch for ch, _ in cells], [scale for _, scale in cells])


def encode_k(point, pipeline, k, window):
    """The scale-k code of a point on an inclusive window."""
    if not 1 <= k <= pipeline.schedule.kmax:
        raise ValueError("scale %d out of range" % k)
    return next(itertools.islice(encode_scales(point, pipeline, window), k - 1, None))


def encode_limit(point, pipeline, window):
    """The pointwise-limit code at the pipeline depth: positions still free
    at k_max stay unresolved and are emitted as '?'."""
    *_, top = encode_scales(point, pipeline, window)
    return top.unresolved()


# -- decoding -------------------------------------------------------------------


@dataclass
class DecodeResult:
    itineraries: dict          # scale -> {t: cell label}
    certified: dict            # scale -> (lo, hi) inclusive, or None
    orbits: list               # orbit necklaces read from singular blocks
    stream_k: SymbolStream     # the pi_k form of the input stream

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
    letters = set(kary_alphabet(K))
    out = []
    for i in range(length):
        if not stream.a <= t + i <= stream.b:
            return None
        ch = stream.get(t + i)
        if ch not in letters:
            return None
        out.append(ch)
    return "".join(out)


def _next_after(values, x):
    """The first of the sorted values above x, or None."""
    i = bisect_right(values, x)
    return values[i] if i < len(values) else None


def _decode_scale1(stream, pipeline):
    """Segment the stream into scale-1 blocks and singular stretches.

    Block starts carry '|'; every bounded singular stretch carries one
    terminator symbol right after its protected n_1-prefix, so structure
    boundaries are the '|' positions plus (terminator - n_1) positions, and
    classification is immediate.  Stretches are read here; the codewords of
    the regular blocks are read from the laid-out layer.
    """
    sched = pipeline.schedule
    periodic = pipeline.periodic
    n1 = sched.n[0]
    len_lo, len_hi = sched.block_bounds(1)
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
        nxt = _next_after(boundaries, s)
        if nxt is None:
            continue  # cut by the window edge
        if not len_lo <= nxt - s < len_hi:
            raise MalformedStreamError("block [%d, %d) has impossible length" % (s, nxt))
        intervals.append(Interval(s, nxt, "regular"))

    stretch_bounds = []
    for s in sorted(stretch_starts):
        stretch_bounds.append((s, _next_after(boundaries, s)))
    first_boundary = boundaries[0] if boundaries else None
    if periodic and (first_boundary is None or first_boundary > A):
        stretch_bounds.append((None, first_boundary))

    for s, e in stretch_bounds:
        if s is not None and e is not None and e - s < len_hi:
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
        try:
            _validate_stretch_content(stream, pipeline, s, e, v, phase)
        except MalformedStreamError:
            if s is None and e is not None and e - A < len_hi:
                continue  # shorter than a regular block: one the left edge cut
            raise
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
    prefix, freed slots where the layout's own freeing of a special
    singular block puts them at scales 2..k_max)."""
    sched = pipeline.schedule
    code = pipeline.periodic_code
    letters = set(kary_alphabet(sched.K))
    A, B = stream.a, stream.b
    lo_t = A if s is None else max(s, A)
    hi_t = B + 1 if e is None else min(e, B + 1)
    stretch = LayoutBlock(scale=1, start=s, end=e, kind="singular", special=True,
                          orbit=orbit, phase=phase, m=len(orbit))
    freed = set()
    for k in range(2, sched.kmax + 1):
        freed.update(_free_special_singular(sched, stretch, k, lo_t, hi_t - 1))
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


def _decode_scale_k(stream, pipeline, k, layout, labels_prev):
    """Reconstruct scale-k structure from markers/brackets above the
    decoded layers, and read its singular regions."""
    sched = pipeline.schedule
    A, B = stream.a, stream.b
    len_lo, len_hi = sched.block_bounds(k)
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
        # both sorted, as boundaries are sorted by boundary
        opens = [b for _, b, ch in boundaries if ch in (SYM_LB, SYM_DB)]
        closes = [b for _, b, ch in boundaries if ch in (SYM_RB, SYM_DB)]
        for i, b in enumerate(opens):
            nxt_open = opens[i + 1] if i + 1 < len(opens) else None
            nxt_close = _next_after(closes, b)
            if nxt_open is not None and (nxt_close is None or nxt_open <= nxt_close):
                e, adjacent = nxt_open, True
            elif nxt_close is not None:
                e, adjacent = nxt_close, False
            else:
                continue  # cut by the window edge
            if not len_lo <= e - b < len_hi:
                raise MalformedStreamError("scale-%d block [%d, %d) has impossible length"
                                           % (k, b, e))
            intervals.append(Interval(b, e, "regular"))
        # singular gaps between a close and the next open; a close that is
        # also an open ("][") opens a regular block, so no gap starts there
        open_set = set(opens)
        for c in closes:
            if c in open_set:
                continue
            intervals.append(Interval(c, _next_after(opens, c), "singular"))
        if opens and opens[0] > A and (not closes or opens[0] < closes[0]):
            intervals.append(Interval(None, opens[0], "singular"))
        if not opens and not closes:
            intervals.append(Interval(None, None, "singular"))
    else:
        cands = [b for _, b, ch in boundaries if ch == SYM_MK]
        for b, e in zip(cands, cands[1:]):
            if not len_lo <= e - b < len_hi:
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
                                            prev_layer.blocks, (A, B))
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

    return out_intervals, labels, orbits, cert_parts


def _read_codewords(stream, pipeline, layer, labels_prev, labels, cert_parts):
    """Invert the codeword of every regular block of a decoded layer into
    its itinerary labels and certify the block.  A block is skipped when a
    coarse label or a codeword slot lies outside what is decoded; above
    scale 1 its marker slot must hold a marker."""
    k = layer.scale
    A, B = stream.a, stream.b
    for blk in layer.blocks:
        if blk.kind != "regular":
            continue
        coarse = None
        if k >= 2:
            try:
                coarse = tuple(labels_prev[t] for t in range(blk.start, blk.end))
            except KeyError:
                continue  # outside the previous certified region
        cb = _block_codebook(pipeline, k, blk, coarse)
        slots = blk.fill_positions[:cb.length]
        if not all(A <= pos <= B for pos in slots):
            continue
        fine = cb.decode([stream.get(pos) for pos in slots])
        for t in range(blk.start, blk.end):
            _put_label(labels, t, fine[t - blk.start])
        cert_parts.append((blk.start, blk.end - 1))
        if k >= 2 and (stream.get(blk.marker_pos) if A <= blk.marker_pos <= B else None) \
                not in (SYM_MK, SYM_LB, SYM_DB):
            raise MalformedStreamError("marker slot %d lacks its symbol" % blk.marker_pos)


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


def _split_singular_region(iv, pipeline, k, labels_prev, blocks_prev, window):
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
    prevs = sorted((pv for pv in blocks_prev),
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
        out.append(Interval(s, e, "singular", special=sched.is_special(k, len(orbit)),
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
    p = min_period(text)
    if p > sched.n[k - 1]:
        raise MalformedStreamError("shadowed region content is not periodic")
    root = text[:p]         # primitive: a shorter period of it would be one of the text
    i = least_rotation(root)
    return root[i:] + root[:i], (-i - lo) % p


def _append_decoded_layer(layout, k, window, intervals):
    """Append the scale-k layer of intervals read off a stream.  Spans that
    overlap or run backwards come from the stream, so they make it malformed."""
    from .blocks import append_layer
    A, B = window
    try:
        part = ReturnPartition(scale=k, intervals=intervals, returns=[],
                               computed_range=(A - 1, B + 1))
        return append_layer(layout, part)
    except SpanOrderError as exc:
        raise MalformedStreamError(str(exc)) from None


def decode_k(stream, pipeline, k):
    """Invert the scale-k code: block structure, itineraries, orbit ids."""
    from .blocks import BlockLayout
    sched = pipeline.schedule
    if not 1 <= k <= sched.kmax:
        raise ValueError("scale %d out of range" % k)
    A, B = stream.a, stream.b
    layout = BlockLayout(schedule=sched, lo=A, hi=B, periodic=pipeline.periodic)
    itineraries, certified = {}, {}
    for l in range(1, k + 1):
        if l == 1:
            intervals, labels, orbits, cert_parts = _decode_scale1(stream, pipeline)
        else:
            intervals, labels, orbits_l, cert_parts = _decode_scale_k(
                stream, pipeline, l, layout, itineraries[l - 1])
            orbits.extend(o for o in orbits_l if o not in orbits)
        layer = _append_decoded_layer(layout, l, (A, B), intervals)
        _read_codewords(stream, pipeline, layer, itineraries.get(l - 1), labels, cert_parts)
        itineraries[l] = labels
        certified[l] = _covered_range(cert_parts, (A, B))
    # pi_k form: deeper-scale symbols revert to free slots, and brackets
    # written over singular content revert to the orbit letters
    structural = {SYM_LB, SYM_RB, SYM_DB, SYM_MK}
    symbols = []
    for t in range(A, B + 1):
        role, scale = layout.role_at(t, upto=min(k, len(layout.layers)))
        ch = stream.get(t)
        if role in (ROLE_FREE, ROLE_UNRESOLVED):
            symbols.append(SYM_FREE)
        elif role == ROLE_SINGULAR_FILL and ch in structural:
            blk = layout.layer(1).block_at(t)       # the singular stretch holding t
            symbols.append(pipeline.periodic_code.stream_letter(blk.orbit, blk.phase, t))
        else:
            symbols.append(ch)
    stream_k = SymbolStream(A, B, symbols)
    return DecodeResult(itineraries=itineraries, certified=certified,
                        orbits=orbits, stream_k=stream_k)


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
