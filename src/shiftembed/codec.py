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
apart: lengths obey ScaleSchedule.layout_bounds.  Codewords are then
inverted per context, each distinct one once per layer, and the decoded
layers are rendered by the encoder's slot writer and compared with the
stream.  A decode raises the first refusal it meets, in one order: per
layer while parsing, laying out and reading codewords, then at a block
end, then at the first position where the render and the stream differ.
"""

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .blocks import (ROLE_BRACKET_BOTH, ROLE_BRACKET_CLOSE, ROLE_BRACKET_OPEN,
                     ROLE_CLOSING, ROLE_MARKER, ROLE_MARKER_K, SpanOrderError)
from .errors import (CapacityError, MalformedStreamError, ScheduleError,
                     ShiftEmbedError, SpecParseError, WindowError)
from .entropy import periodic_code_fits
from .markers import Interval, ReturnPartition, return_partition
from .systems import (OdometerPoint, _parse_int, _parse_kv, _parse_window,
                      periodic_orbits)
from .words import (CODE_CHARS, _window_key, code_length_needed, is_primitive,
                    kary_alphabet, kary_index, kary_word, least_period_at_most, necklace,
                    periodic_name, periodic_window)

SYM_M1 = "|"
SYM_MK = "="
SYM_LB = "["
SYM_RB = "]"
SYM_DB = "]["
SYM_TERM = "="   # stretch terminator in the periodic grammar
SYM_FREE = "o"
SYM_UNRESOLVED = "?"
SYM_PAD = "1"      # the first code letter, written after a short codeword

_TOKEN_OUT = {SYM_M1: "B1", SYM_MK: "B2", SYM_LB: "LB", SYM_RB: "RB",
              SYM_DB: "DB", SYM_FREE: "FR", SYM_UNRESOLVED: "UN"}
# every token a stream file may hold: the structural names and the code letters
_TOKEN_IN = {**{v: k for k, v in _TOKEN_OUT.items()}, **{c: c for c in CODE_CHARS}}
# the resolution tokens to_text writes up to scale 9; any other goes through int()
_RESOLUTION_IN = {"-": None, **{str(r): r for r in range(1, 10)}}
_RESOLUTION_OUT = {r: tok for tok, r in _RESOLUTION_IN.items()}

# the stream symbol of each structural layout role
_ROLE_SYMBOL = {ROLE_MARKER: SYM_M1, ROLE_CLOSING: SYM_TERM, ROLE_MARKER_K: SYM_MK,
                ROLE_BRACKET_OPEN: SYM_LB, ROLE_BRACKET_CLOSE: SYM_RB,
                ROLE_BRACKET_BOTH: SYM_DB}
_STRUCTURE = frozenset(_ROLE_SYMBOL.values())
_BRACKETS = frozenset((SYM_LB, SYM_RB, SYM_DB))
_OPENING = frozenset((SYM_LB, SYM_DB))
_FREE_SYMBOLS = frozenset((SYM_FREE, SYM_UNRESOLVED))


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
            raise WindowError("position %d outside stream window [%d, %d]" % (t, self.a, self.b),
                              position=t)
        return self.symbols[t - self.a]

    def to_text(self):
        toks = " ".join(map(_TOKEN_OUT.get, self.symbols, self.symbols))
        try:
            res = " ".join(map(_RESOLUTION_OUT.__getitem__, self.resolution))
        except KeyError:        # a scale above 9
            res = " ".join("-" if r is None else str(r) for r in self.resolution)
        return "window: %d:%d\nsymbols: %s\nresolution: %s\n" % (self.a, self.b, toks, res)

    @classmethod
    def from_text(cls, text):
        """Parse the to_text form; SpecParseError on anything else."""
        kv = dict(_parse_kv(text, "stream"))
        if "window" not in kv or "symbols" not in kv:
            raise SpecParseError("stream needs 'window' and 'symbols'")
        a, b = _parse_window(kv["window"], "stream window")
        try:
            syms = list(map(_TOKEN_IN.__getitem__, kv["symbols"].split()))
        except KeyError as exc:
            raise SpecParseError("stream token %r is not one of B1 B2 LB RB DB FR UN "
                                 "or a code letter" % exc.args[0]) from None
        if len(syms) != b - a + 1:
            raise SpecParseError("stream has %d symbols for window %d:%d"
                                 % (len(syms), a, b))
        res = None
        if "resolution" in kv:
            toks = kv["resolution"].split()
            try:
                res = list(map(_RESOLUTION_IN.__getitem__, toks))
            except KeyError:        # entry by entry, to name the first that is no integer
                res = [None if tok == "-" else _parse_int(tok, "stream resolution entry")
                       for tok in toks]
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

    This class lists its keys (the one orbit of an identification); a
    subclass counts them, supplying `_rank` and `_unrank`, and codes a
    regular block, supplying `encode_block`, the codeword of a point's block.
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
        return self._codeword(index, pad_to)

    def _codeword(self, index, pad_to):
        """The K-ary word of an index, padded to pad_to slots when given."""
        word = kary_word(index, self.length, self.K)
        if pad_to is not None:
            if pad_to < self.length:
                raise CapacityError("codeword of length %d cannot fit %d slots"
                                    % (self.length, pad_to), scale=self.scale, block=self.n)
            word = word + SYM_PAD * (pad_to - self.length)
        return word

    def decode(self, word):
        """The key of a codeword, given as a string or as its stream tokens
        and read up to the code length; a token that is not one code letter
        puts it outside the image."""
        head = word[:self.length]
        index = self.size
        if len(head) == self.length and _code_letters(self.K).issuperset(head):
            index = kary_index(head, self.K)
        if index >= self.size:
            raise MalformedStreamError("codeword %r not in codebook image"
                                       % "".join(word)[:self.length])
        return self._unrank(index)

    def __len__(self):
        return self.size


@functools.cache
def _code_letters(K):
    return frozenset(kary_alphabet(K))


def _spelled(key, m, n):
    """The (n + 2m)-word whose radius-m windows the key is, or None."""
    w = key[0] + "".join(lab[-1:] for lab in key[1:]) if len(key) == n else ""
    return w if len(w) == n + 2 * m and _window_key(w, m, n) == key else None


class _WordCodebook(Codebook):
    """An SFT codebook whose keys are the radius-m windows of (n + 2m)-words.

    Sliding windows of equal length compare as the word they slide over, so
    a key ranks as the word it spells, through the subclass's `_word_rank`.
    """

    def _rank(self, key):
        w = _spelled(key, self.m, self.n)
        return None if w is None else self._word_rank(w)

    def encode_block(self, point, start, pad_to=None):
        """The codeword of the point's block of length n at start: the rank
        of the point's (n + 2m)-word there, its key never built.  A word
        outside the domain is refused by encode, with its key."""
        w = point.word(start - self.m, start + self.n - 1 + self.m)
        index = self._word_rank(w)
        if index is None:
            return self.encode(_window_key(w, self.m, self.n), pad_to)
        return self._codeword(index, pad_to)


class RankedCodebook(_WordCodebook):
    """The scale-1 codebook of an SFT, computed per lookup: the sorted
    itinerary keys are the sorted (n + 2m)-words, and a key's index is its
    word's rank, which the SFT counts on its graph.
    """

    def __init__(self, system, m, n, length, K):
        self.system = system
        self.m = m
        self._setup(1, n, length, system.count_words(n + 2 * m), K, None)

    def _word_rank(self, w):
        return self.system.word_rank(w)

    def _unrank(self, index):
        return _window_key(self.system.word_at(index, self.n + 2 * self.m), self.m, self.n)


class RefinementCodebook(_WordCodebook):
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

    def _word_rank(self, w):
        d = self.ext - len(self.into)
        if w[d:len(w) - d] != self.u:
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

    def encode_block(self, point, start, pad_to=None):
        """The codeword of the point's block of length n at start: the key
        of its n cells of depth d."""
        return self.encode(self.system.labels(point, start, self.depth - 1, self.n), pad_to)


def build_first_codebook(system, schedule, n, length=None):
    """Scale-1 codebook for blocks of length n (code length = filling budget)."""
    if n < schedule.n[0]:
        raise ScheduleError("block length %d below n_1 = %d" % (n, schedule.n[0]))
    if length is None:
        length = schedule.fill1(n)
    m = schedule.m[0]
    if system.kind == "odometer":
        return ResidueCodebook(system, 1, m + 1, n, length, schedule.K)
    return RankedCodebook(system, m, n, length, schedule.K)


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
    injective: one prefix table holds every claimed word's rotation
    prefixes, and a word with a taken prefix is refused.
    """

    def __init__(self, n1, K, orbit_code):
        self.n1 = n1
        self.K = K
        self.orbit_code = dict(orbit_code)
        self.prefix_table = {p: (v, d) for v, w in orbit_code.items()
                             for d, p in enumerate(_rotation_prefixes(w, n1))}
        if len(self.prefix_table) == sum(map(len, orbit_code.values())):
            return
        # some prefix is claimed twice: replay the claims in order to name the
        # first word that takes a taken prefix
        self.orbit_code, self.prefix_table = {}, {}
        for v, w in orbit_code.items():
            if not self.claim(v, w):
                raise ShiftEmbedError("periodic code prefix collision: code word %r of "
                                      "orbit %r" % (w, v))

    def claim(self, v, w):
        """Name orbit v by the code word w, unless the n_1-prefix of one of
        w's rotations is already taken: then change nothing and return False."""
        prefixes = _rotation_prefixes(w, self.n1)
        if not self.prefix_table.keys().isdisjoint(prefixes):
            return False
        self.orbit_code[v] = w
        self.prefix_table.update((p, (v, d)) for d, p in enumerate(prefixes))
        return True

    def stream_letter(self, orbit, phase, t):
        w = self.orbit_code[orbit]
        return w[(t + phase) % len(w)]

    def lookup_prefix(self, word):
        return self.prefix_table.get(word)

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
        pairs = _parse_kv(text, "periodic code")
        if pairs[:2] != [("n1", str(n1)), ("K", str(K))]:
            raise SpecParseError("periodic code header must be 'n1: %d' and 'K: %d'"
                                 % (n1, K))
        orbit_code = {}
        for key, value in pairs[2:]:
            v, arrow, w = value.partition(" -> ")
            if key != "orbit" or not arrow or v in orbit_code:
                raise SpecParseError("periodic code line '%s: %s'" % (key, value))
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
            elif not _code_word_ok(w, n1):
                problem = ("is not primitive" if not is_primitive(w) else
                           "repeats to an n1-prefix of period below its length")
            else:
                continue
            raise SpecParseError("code word %r of orbit %r %s" % (w, v, problem))
        try:
            return cls(n1, K, orbit_code)
        except ShiftEmbedError as exc:
            raise SpecParseError(str(exc)) from None


def _rotation_prefixes(w, n1):
    """The n1-prefix of the repetition of each rotation w[d:] + w[:d], in
    order of d: the n1-letter slices of w w w ... at 0, ..., len(w) - 1."""
    text = periodic_window(w, 0, n1 + len(w) - 2)
    return [text[d:d + n1] for d in range(len(w))]


def _code_word_ok(w, n1):
    """The code-word rule of the periodic-code lemma for 1 <= len(w) <= n1:
    the n1-letter prefix of w w w ... has least period len(w).

    This is the lemma's pair of conditions, w primitive and, when len(w) >
    sqrt(n1), no n1-prefix of period below len(w), read as one test.  Above
    sqrt(n1) it is the shape condition, which implies primitivity: w = u^j
    with j >= 2 gives the prefix the period len(u) < len(w).  Up to sqrt(n1)
    it is primitivity, by Fine and Wilf (1965): a prefix of length n1 >=
    len(w)^2 >= len(w) + q - 1 with periods q < len(w) and len(w) has the
    period g = gcd(q, len(w)), which divides len(w), so w = w[:g]^(len(w)/g)
    is a power; and a power w = u^j gives the prefix the period len(u).
    """
    return least_period_at_most(periodic_window(w, 0, n1 - 1), len(w) - 1) is None


def build_periodic_code(system, K, n1):
    """Greedy lexicographic assignment satisfying the code-word rule.

    The orbits of least period n, in necklace order, share one stream of
    the K-ary n-words in lexicographic order; every orbit takes the next
    word that passes _code_word_ok and whose rotation prefixes the code has
    not taken.  A rotation of a taken word is refused that way too: its
    prefixes are the taken word's.  The n prefixes of one word are
    distinct, since each starts with its rotation and a primitive word's
    rotations are distinct.  The precondition checked here is the one at
    n1; more points of a shorter least period than the K-shift has (which
    build_schedule refuses) exhaust that period's words.
    """
    if not periodic_code_fits(system, K, n1):
        raise ScheduleError("periodic-code precondition #Per_{n1} < K^{n1-1} fails")
    by_period = {}
    for v, n in periodic_orbits(system, n1).items():
        by_period.setdefault(n, []).append(v)
    code = PeriodicCode(n1, K, {})
    for n in sorted(by_period):
        candidates = map("".join, itertools.product(kary_alphabet(K), repeat=n))
        for v in sorted(by_period[n]):
            for cand in candidates:
                if _code_word_ok(cand, n1) and code.claim(v, cand):
                    break
            else:
                raise CapacityError("periodic code exhausted at period %d" % n,
                                    scale=1, block=n)
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


def _context_scales(pipeline, point, window, runtime=None):
    """Resolve a point's context around a window one scale at a time,
    yielding it after each scale's return partition and layer.  The towers
    read the point through the given runtime, or a fresh one."""
    from .blocks import BlockLayout, append_layer
    sched = pipeline.schedule
    a, b = window
    # room for a complete block of every scale on each side, so that every
    # block meeting the window is laid out whole; callers that decode have
    # already widened the window by the decode margin
    pad = 4 * sum(sched.nprime)
    lo, hi = a - pad, b + pad
    ctx = PointContext(point, lo, hi, [], BlockLayout(schedule=sched, lo=lo, hi=hi))
    if runtime is None:
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


def _orbit_key(orbit, m, n):
    """Itinerary key of the periodic point of a word over times 0..n-1."""
    return _window_key(periodic_window(orbit, -m, n - 1 + m), m, n)


def _block_codebook(pipeline, l, blk, coarse):
    """The codebook of a regular l-block's codeword: at scale 1 the code of
    its length and filling, above it the code conditioned on the block's
    coarse itinerary."""
    if l == 1:
        return pipeline.first_codebook(blk.length(), len(blk.fill_positions))
    return pipeline.cond_codebook(l, blk.length(), coarse)


def _point_codewords(pipeline, point, l):
    """The encoder's codeword source at scale l: a regular block's codeword
    of the point's word over the block, padded to its filling slots."""
    sched, system = pipeline.schedule, pipeline.system

    def codeword(blk):
        coarse = system.labels(point, blk.start, sched.m[l - 2], blk.length()) if l >= 2 else None
        return _block_codebook(pipeline, l, blk, coarse).encode_block(
            point, blk.start, pad_to=len(blk.fill_positions))
    return codeword


def _render_layer(pipeline, layout, l, codeword, syms, res):
    """Write the scale-l layer of a layout over its range into syms and res,
    which hold psi_{l-1} on [layout.lo, layout.hi], a symbol and a
    resolution scale per position (a free slot's None), and then hold
    psi_l.  codeword(blk) is a regular l-block's filling, padded to its
    slots: the encoder's from a point's labels, the decoder's as read."""
    sched = pipeline.schedule
    lo, layer = layout.lo, layout.layer(l)

    def put(positions, word):
        for pos, ch in zip(positions, word):
            syms[pos - lo] = ch
            res[pos - lo] = l

    for blk in layer.blocks:
        for pos in blk.freed_positions:         # none at scale 1
            syms[pos - lo], res[pos - lo] = SYM_FREE, None
        if blk.kind == "regular" and l == 1:    # one run of filling slots
            fill = blk.fill_positions
            syms[fill.start - lo:fill.stop - lo] = codeword(blk)
            res[fill.start - lo:fill.stop - lo] = [1] * len(fill)
        elif blk.kind == "regular":
            put(blk.fill_positions, codeword(blk))
        elif l == 1:
            s = lo if blk.start is None else max(blk.start, lo)
            e = layout.hi + 1 if blk.end is None else min(blk.end, layout.hi + 1)
            if s < e:
                w = pipeline.periodic_code.orbit_code[blk.orbit]
                syms[s - lo:e - lo] = periodic_window(w, s, e - 1, blk.phase)
                res[s - lo:e - lo] = [1] * (e - s)
        elif not blk.special:
            coarse = _orbit_key(blk.orbit, sched.m[l - 2], blk.m)
            fine = _orbit_key(blk.orbit, sched.m[l - 1], blk.m)
            cb = pipeline.cond_codebook(l, blk.m, coarse)
            icb = pipeline.ident_codebook(l, blk.m, fine)
            budget = sched.budget(blk.m, l)
            _write_singular_codes(put, blk, cb.encode(fine, pad_to=budget),
                                  icb.encode(necklace(blk.orbit), pad_to=budget))
    for pos, role in layer.marks:
        syms[pos - lo], res[pos - lo] = _ROLE_SYMBOL[role], l


def _write_singular_codes(put, blk, cond_word, ident_word):
    """Each repetition of the orbit word holds both codes in its slots."""
    for slots, word in ((blk.cond_positions, cond_word), (blk.ident_positions, ident_word)):
        for _, run in itertools.groupby(slots, key=lambda p: (p + blk.phase) // blk.m):
            put(list(run), word)


def render_scales(point, pipeline, window, runtime=None):
    """Yield psi_1, ..., psi_kmax of a point on an inclusive window from one
    context, psi_k writing scale k's layer into the slots psi_{k-1} left
    free.  Scale k is resolved right before it is rendered, through the
    given tower runtime of the point or a fresh one, and a scale that
    raises ends the iteration with its error."""
    a, b = window
    for k, ctx in enumerate(_context_scales(pipeline, point, window, runtime), 1):
        if k == 1:
            size = ctx.hi - ctx.lo + 1
            syms, res = [SYM_FREE] * size, [None] * size
        _render_layer(pipeline, ctx.layout, k, _point_codewords(pipeline, point, k), syms, res)
        yield SymbolStream(a, b, syms[a - ctx.lo:b - ctx.lo + 1], res[a - ctx.lo:b - ctx.lo + 1])


def odometer_period(pipeline):
    """psi_1, ..., psi_kmax of the residue-0 point on [0, P - 1], or () when
    that pass raises.  P is the modulus of the deepest digit depth a scale
    reads, a tower's or a key cell's, so the residue mod P is all the
    encoder reads of an odometer point and every code is periodic in P."""
    system, sched = pipeline.system, pipeline.schedule
    try:
        depth = max(max(tower.depth for tower in pipeline.stack.towers), max(sched.m) + 1)
        zero = OdometerPoint(system, (0,) * system.depth)
        return tuple(render_scales(zero, pipeline, (0, system.modulus(depth) - 1)))
    except ShiftEmbedError:
        return ()


def _period_streams(pipeline, width):
    """An odometer pipeline's period streams, one (symbols, resolution, P)
    per scale, or () for a word system or when the period pass raised.
    They are kept in Pipeline.period_tiles, the pipeline's one copy of its
    period: built from odometer_period on the first encode, each holds a
    whole number of periods P, so that one slice reads any window of
    `width` positions, and doubles while it is shorter than P - 1 + width;
    an encode slices them, and a decode reads none."""
    if pipeline.system.kind != "odometer":
        return ()
    tiles = pipeline.period_tiles
    if tiles is None:
        tiles = pipeline.period_tiles = tuple(
            (s.symbols, s.resolution, len(s.symbols)) for s in odometer_period(pipeline))
    if tiles and len(tiles[0][0]) < tiles[0][2] - 1 + width:
        q = 2
        while len(tiles[0][0]) * q < tiles[0][2] - 1 + width:
            q *= 2
        tiles = pipeline.period_tiles = tuple(
            (symbols * q, resolution * q, P) for symbols, resolution, P in tiles)
    return tiles


def _period_slice(tile, point, window):
    """A period stream read on an inclusive window from a point's residue."""
    a, b = window
    symbols, resolution, P = tile
    s = (a + point.residue) % P
    return SymbolStream(a, b, symbols[s:s + b - a + 1], resolution[s:s + b - a + 1])


def encode_scales(point, pipeline, window, runtime=None):
    """Yield psi_1, ..., psi_kmax of a point on an inclusive window.  An
    odometer point's codes are its pipeline's period streams read from its
    residue, unless the period pass raised: then, as for word systems, the
    point's own window is rendered, through the given tower runtime of the
    point or a fresh one."""
    periods = _period_streams(pipeline, window[1] - window[0] + 1)
    if not periods:
        yield from render_scales(point, pipeline, window, runtime)
        return
    for tile in periods:
        yield _period_slice(tile, point, window)


def encode_k(point, pipeline, k, window):
    """The scale-k code of a point on an inclusive window; of an odometer
    point, one slice of the scale-k period stream."""
    if not 1 <= k <= pipeline.schedule.kmax:
        raise ValueError("scale %d out of range" % k)
    periods = _period_streams(pipeline, window[1] - window[0] + 1)
    if periods:
        return _period_slice(periods[k - 1], point, window)
    return next(itertools.islice(render_scales(point, pipeline, window), k - 1, None))


def encode_limit(point, pipeline, window):
    """The pointwise-limit code at the pipeline depth: positions still free
    at k_max stay unresolved and are emitted as '?'."""
    *_, top = encode_scales(point, pipeline, window)
    return top.unresolved()


# -- decoding -------------------------------------------------------------------


@dataclass
class DecodeResult:
    itineraries: dict          # scale -> cell labels over [stream_k.a, stream_k.b], None undecoded
    certified: dict            # scale -> (lo, hi) inclusive, or None
    orbits: list               # orbit necklaces read from singular blocks
    stream_k: SymbolStream     # the pi_k form of the input stream

    def itinerary_list(self, k, window):
        lo, hi = window
        cert = self.certified.get(k)
        if cert is None or cert[0] > lo or cert[1] < hi:
            raise WindowError("window %r not certified at scale %d (have %r)"
                              % (window, k, cert), scale=k)
        A = self.stream_k.a
        return self.itineraries[k][lo - A:hi + 1 - A]


def _next_after(values, x):
    """The first of the sorted values above x, or None."""
    i = bisect_right(values, x)
    return values[i] if i < len(values) else None


def _decode_scale1(stream, pipeline, structure):
    """Segment the stream into scale-1 blocks and singular stretches.

    Block starts carry '|'; every bounded singular stretch carries one
    terminator symbol right after its protected n_1-prefix, so structure
    boundaries are the '|' positions plus (terminator - n_1) positions, and
    classification is immediate.  Stretches are tagged here and checked
    once every layer is laid out; codewords are read from the laid-out
    layer.  A region before the first boundary, shorter than a regular
    block and holding more than orbit letters and brackets, is dropped.
    `structure` holds (position, symbol) of every marker, terminator and
    bracket of the stream, in order.
    """
    sched = pipeline.schedule
    periodic = sched.periodic
    n1 = sched.n[0]
    len_lo, len_hi = sched.layout_bounds(1)
    letters = _code_letters(sched.K)
    A, B = stream.a, stream.b
    symbols = stream.symbols
    code = pipeline.periodic_code
    starts = [t for t, ch in structure if ch == SYM_M1]
    terms = [t for t, ch in structure if ch == SYM_TERM] if periodic else []

    def lookup_at(s):
        word = symbols[s - A:s - A + n1] if s >= A else ()
        if len(word) < n1 or not letters.issuperset(word):
            return None
        return code.lookup_prefix("".join(word))

    stretch_starts = {u - n1 for u in terms}
    boundaries = sorted(set(starts) | stretch_starts)
    following = dict(zip(boundaries, boundaries[1:]))    # each boundary's next, if any

    intervals = []
    labels = [None] * (B - A + 1)
    m1 = sched.m[0]
    cert_parts = []
    orbits = []

    for s in starts:
        nxt = following.get(s)
        if nxt is None:
            continue  # cut by the window edge
        if not len_lo <= nxt - s < len_hi:
            raise MalformedStreamError("block [%d, %d) has impossible length" % (s, nxt),
                                       scale=1, position=s)
        intervals.append(Interval(s, nxt, "regular"))

    stretch_bounds = [(s, following.get(s)) for s in sorted(stretch_starts)]
    first_boundary = boundaries[0] if boundaries else None
    if periodic and (first_boundary is None or first_boundary > A):
        stretch_bounds.append((None, first_boundary))

    for s, e in stretch_bounds:
        if s is not None and e is not None and e - s < len_hi:
            raise MalformedStreamError("singular stretch [%d, %d) too short" % (s, e),
                                       scale=1, position=s)
        stop = B + 1 if e is None else e       # the first readable prefix names the orbit
        anchor = next((u for u in range(A if s is None else s, stop - n1 + 1)
                       if lookup_at(u) is not None), None)
        if anchor is None:
            if s is not None and e is not None:
                raise MalformedStreamError("singular stretch %r has no readable prefix"
                                           % ((s, e),), scale=1, position=s)
            continue  # edge region too dirty to certify: drop it
        v, d = lookup_at(anchor)
        phase = (d - anchor) % len(v)
        if s is None and e is not None and e - A < len_hi and any(
                ch != code.stream_letter(v, phase, t) and ch not in _BRACKETS
                for t, ch in enumerate(symbols[:e - A], A)):
            continue  # a block the left edge cut
        lo_t = A if s is None else max(s, A)    # a stretch is read inside the stream only
        hi_t = B + 1 if e is None else e
        cycle = _window_key(periodic_window(v, lo_t - m1, lo_t + len(v) - 1 + m1, phase),
                            m1, len(v))
        labels[lo_t - A:hi_t - A] = periodic_window(cycle, 0, hi_t - lo_t - 1)
        intervals.append(Interval(s, e, "singular", special=True,
                                  orbit=v, phase=phase, m=len(v)))
        orbits.append(v)
        cert_parts.append((lo_t, hi_t - 1))
    intervals.sort(key=lambda iv: iv.start if iv.start is not None else A - 1)
    return intervals, labels, orbits, cert_parts


def _covered_range(parts, within):
    """The contiguous covered run with the largest overlap with `within`,
    the first such run on a tie.  The inclusive parts, each nonempty, merge
    in order of their starts: a part that overlaps or touches the last run
    extends it."""
    runs = []
    for lo, hi in sorted(parts):
        if runs and lo <= end + 1:
            if hi > end:
                end = runs[-1][1] = hi
        else:
            end = hi
            runs.append([lo, hi])
    if not runs:
        return None
    lo0, hi0 = within
    best = max(runs, key=lambda r: min(r[1], hi0) - max(r[0], lo0))
    return (best[0], best[1])


def _decode_scale_k(stream, pipeline, k, layout, labels_prev, structure):
    """Reconstruct scale-k structure from markers/brackets above the
    decoded layers, and read its singular regions; the layout checks block
    lengths (layout_bounds), for the decoder as for the encoder."""
    sched = pipeline.schedule
    A, B = stream.a, stream.b
    prev_layer = layout.layer(k - 1)

    # a scale-k marker occupies the first free slot of its block; markers
    # of deeper scales sit on later slots and are skipped
    firsts = {} if sched.periodic else {blk.free_slots[0]: blk.start for blk in prev_layer.blocks
                                        if blk.kind == "regular" and blk.free_slots}
    boundaries = []   # (pos_of_symbol, boundary, type)
    for t, ch in structure:
        if ch in _BRACKETS:
            blk = prev_layer.block_at(t)
            if blk is None:
                continue
            b = blk.start if blk.kind == "regular" else t
            if b is not None:
                boundaries.append((t, b, ch))
        elif ch == SYM_MK and t in firsts:
            boundaries.append((t, firsts[t], SYM_MK))
    boundaries.sort(key=lambda x: x[1])

    intervals = []
    cert_parts = []
    if sched.periodic:
        # both sorted, as boundaries are sorted by boundary
        opens = [b for _, b, ch in boundaries if ch in (SYM_LB, SYM_DB)]
        closes = [b for _, b, ch in boundaries if ch in (SYM_RB, SYM_DB)]
        for i, b in enumerate(opens):
            ends = [e for e in (opens[i + 1] if i + 1 < len(opens) else None,
                                _next_after(closes, b)) if e is not None]
            if ends:        # else cut by the window edge
                intervals.append(Interval(b, min(ends), "regular"))
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
        intervals = [Interval(b, e, "regular") for b, e in zip(cands, cands[1:])]
        if not intervals:
            raise MalformedStreamError("no scale-%d markers found" % k, scale=k)

    # tag singular intervals from the previous scale's content
    m_k = sched.m[k - 1]
    labels = [None] * len(labels_prev)
    orbits = []
    out_intervals = []
    m_prev = sched.m[k - 2]
    for iv in sorted(intervals, key=lambda iv: iv.start if iv.start is not None else A - 1):
        if iv.kind == "singular":
            pieces = _split_singular_region(iv, pipeline, k, labels_prev, prev_layer, (A, B))
            for piece in pieces:
                orbits.append(piece.orbit)
                out_intervals.append(piece)
            # labels come from the previous scale's letters, never from the
            # orbit extrapolated past where the point departs from it, so
            # regions that overlap label their common positions alike
            s = 0 if iv.start is None else iv.start - A
            e = len(labels) if iv.end is None else iv.end - A
            labels[s:e] = (labels_prev[s:e] if m_k == m_prev else
                           [_refine_label(labels_prev, i, m_prev, m_k) for i in range(s, e)])
            i = next((i for i in range(s, e) if labels[i] is not None), e)
            if i < e:       # certified over the first run of known positions
                try:
                    run_end = labels.index(None, i, e)
                except ValueError:
                    run_end = e
                cert_parts.append((A + i, A + run_end - 1))
        else:
            out_intervals.append(iv)

    return out_intervals, labels, orbits, cert_parts


def _read_codewords(stream, pipeline, layer, labels_prev, labels, cert_parts):
    """Label and certify the regular blocks of a decoded layer, in order,
    and return each block's filling as _render_layer writes it, by start.
    A block with undecoded coarse labels keeps the stream's filling; any
    other, its codeword and pads.  A layer's codebooks are keyed by block
    length and filling size and, above scale 1, by the first and last
    labels of the coarse itinerary, the whole itinerary confirmed by list
    equality, which short-circuits on the label objects that blocks of one
    codeword share.  Each distinct codeword of a codebook is read once per
    layer, its labels and padded filling kept for the next block that
    holds it.  A codeword or a context no stream holds raises at once,
    naming the block's start."""
    k = layer.scale
    A = stream.a
    symbols = stream.symbols
    books = {}      # key -> [(coarse, codebook, {head: (labels, padded filling)})]
    words = {}
    for blk in layer.blocks:
        if blk.kind != "regular":
            continue
        s, e = blk.start - A, blk.end - A
        fill = blk.fill_positions
        coarse = labels_prev[s:e] if k >= 2 else None
        key = (e - s, len(fill)) if k == 1 else (e - s, len(fill), coarse[0], coarse[-1])
        for entry in books.get(key, ()):
            if entry[0] == coarse:      # a kept context's labels are all decoded
                break
        else:
            if k >= 2 and not all(coarse):      # no label is empty: only None is false
                words[blk.start] = [symbols[t - A] for t in fill]
                continue
            entry = None
        try:
            if entry is None:
                context = tuple(coarse) if k >= 2 else None
                entry = (coarse, _block_codebook(pipeline, k, blk, context), {})
                books.setdefault(key, []).append(entry)
            _, cb, read = entry
            n = cb.length
            head = tuple(symbols[fill.start - A:fill.start - A + n]) if k == 1 else \
                tuple([symbols[t - A] for t in fill[:n]])
            got = read.get(head)
            if got is None:
                got = read[head] = (cb.decode(head), list(head) + [SYM_PAD] * (len(fill) - n))
        except MalformedStreamError as exc:
            exc.scale, exc.position = k, blk.start
            raise
        except CapacityError as exc:            # a block no stream holds
            raise MalformedStreamError("scale-%d block [%d, %d): %s" % (
                k, blk.start, blk.end, exc), scale=k, position=blk.start) from None
        fine, words[blk.start] = got
        labels[s:e] = fine
        cert_parts.append((blk.start, blk.end - 1))
    return words


def _refine_label(labels_prev, i, m_prev, m_new):
    """Radius-m_new cell label at index i of a label list from its radius-
    m_prev labels, m_new > m_prev (stitch center letters: only word systems
    have singular regions); None when a label it needs is not decoded."""
    if i < m_new or i + m_new >= len(labels_prev):
        return None
    letters = []
    for lab in labels_prev[i - m_new:i + m_new + 1]:
        if lab is None:
            return None
        letters.append(lab[m_prev])
    return "".join(letters)


def _split_singular_region(iv, pipeline, k, labels_prev, prev_layer, window):
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
    tagged = [pv for pv in prev_layer.blocks_near(deep_lo, deep_hi - 1)
              if pv.kind == "singular" and pv.orbit is not None
              and (deep_lo if pv.start is None else max(pv.start, deep_lo))
              < (deep_hi if pv.end is None else min(pv.end, deep_hi))]
    pieces, cursor = [], deep_lo
    # each stretch, and each gap before one or before deep_hi, is a piece
    for pv in tagged + [Interval(deep_hi, deep_hi, "singular")]:
        s = cursor if pv.start is None else max(pv.start, deep_lo)
        if s > cursor:
            gap_tag = _extract_period(pipeline, k, labels_prev, cursor, s, (A, B))
            if gap_tag is not None:
                pieces.append([cursor, s, *gap_tag])
        if pv.orbit is not None:
            pieces.append([s, pv.end, pv.orbit, pv.phase])
        cursor = deep_hi if pv.end is None else min(pv.end, deep_hi)
    if not pieces:
        return []
    pieces[0][0], pieces[-1][1] = iv.start, iv.end
    return [Interval(s, e, "singular", special=sched.is_special(k, len(orbit)),
                     orbit=orbit, phase=phase % len(orbit), m=len(orbit))
            for s, e, orbit, phase in pieces]


def _extract_period(pipeline, k, labels_prev, s, e, window):
    """Orbit of a regular-tiled shadowed zone from its decoded letters."""
    A, B = window
    sched = pipeline.schedule
    m_prev = sched.m[k - 2]
    lo = A if s is None else s
    hi = B + 1 if e is None else e
    word = []
    for lab in labels_prev[max(lo - A, 0):max(hi - A, 0)]:
        if lab is None:
            break
        word.append(lab[m_prev])
    if len(word) <= sched.n[k - 1]:
        return None
    hit = periodic_name("".join(word), sched.n[k - 1])
    if hit is None:
        raise MalformedStreamError("shadowed region content is not periodic",
                                   scale=k, position=lo)
    v, shift = hit
    return v, (shift - lo) % len(v)


def _append_decoded_layer(layout, k, window, intervals):
    """Append the scale-k layer of intervals read off a stream.  Spans that
    overlap or run backwards, or a block the layout refuses, come from the
    stream, so they make it malformed: the encoder emits neither.  The
    refusal names the start of the block refused."""
    from .blocks import append_layer
    A, B = window
    try:
        part = ReturnPartition(scale=k, intervals=intervals, returns=[],
                               computed_range=(A - 1, B + 1))
        return append_layer(layout, part)
    except (SpanOrderError, CapacityError) as exc:
        raise MalformedStreamError(str(exc), scale=k, position=exc.block[0]) from None


def _check_render(stream, pipeline, layout, syms, res):
    """Compare the render with the stream position by position and return
    the pi_k symbols: the render, with a free slot where no layer decides a
    position.  A protected prefix holds its orbit letters where no layer
    frees a slot, and a block opens with '[' or '][' as the stream says:
    the decoder cannot see the block before a layer's first block, nor lays
    out a singular region too short to name its orbit.  Only these other
    differences pass:
    - a free slot is compared only where every layer lays out a block;
    - a bracket of a cut block may stand past a stretch's prefix;
    - below the top scale, a deeper symbol may stand in a free slot and
      past a stretch's prefix;
    - at the top, a free slot holds 'o' or '?'.
    The first position that differs otherwise raises the text of the role
    its slot has."""
    sched = pipeline.schedule
    A, src = stream.a, stream.symbols
    n1 = sched.n[0]
    top = layout.kmax == sched.kmax
    letters = _code_letters(sched.K)
    deeper = letters | _FREE_SYMBOLS | (_BRACKETS if sched.periodic else {SYM_MK})
    last = layout.layers[-1].blocks     # the deepest layer lays out no block outside [lo, hi)
    lo = A if not last or last[0].start is None else last[0].start
    hi = A if not last else stream.b + 1 if last[-1].end is None else last[-1].end
    for blk in layout.layer(1).blocks:
        if blk.kind == "singular" and blk.start is not None:
            s, e = max(blk.start, A) - A, min(blk.start + n1, stream.b + 1) - A
            if res[s:e].count(1) < e - s:       # a layer above 1 writes into the prefix
                w = pipeline.periodic_code.orbit_code[blk.orbit]
                for i, letter in enumerate(periodic_window(w, A + s, A + e - 1, blk.phase), s):
                    if syms[i] != SYM_FREE:
                        syms[i], res[i] = letter, 1
    step = 64           # slices compare fast, and the two differ at few positions
    for i in [i for j in range(0, len(src), step) if syms[j:j + step] != src[j:j + step]
              for i in range(j, min(j + step, len(src))) if syms[i] != src[i]]:
        t, ch, l = A + i, src[i], res[i]
        if syms[i] == SYM_FREE:
            if ch in (_FREE_SYMBOLS if top else deeper) or not lo <= t < hi or \
                    any(layer.block_at(t) is None for layer in layout.layers):
                continue
            if layout.block_at(1, t).kind == "singular":
                raise MalformedStreamError("freed slot %d of a stretch holds %r" % (t, ch),
                                           scale=1, position=t)
        elif l == 1:
            stretch = layout.block_at(1, t)
            if (stretch.start is None or t >= stretch.start + n1) and \
                    (ch in _BRACKETS or not top and ch in deeper):
                continue
            raise MalformedStreamError(
                "stretch content clashes with orbit %r at %d" % (stretch.orbit, t)
                if ch in letters
                else "unexpected terminator inside a stretch at %d" % t if ch == SYM_TERM
                else "bracket inside a protected prefix at %d" % t if ch in _BRACKETS
                else "free slot inside a stretch at %d" % t if ch in _FREE_SYMBOLS
                else "alien symbol %r inside a stretch at %d" % (ch, t), scale=1, position=t)
        elif {syms[i], ch} <= _OPENING:
            syms[i] = ch
            continue
        else:
            blk = layout.block_at(l, t)
            if blk is not None and blk.kind == "regular":
                if t == blk.marker_pos and ch not in (SYM_MK, SYM_LB, SYM_DB):
                    raise MalformedStreamError("marker slot %d lacks its symbol" % t,
                                               scale=l, position=t)
                if syms[i] not in _STRUCTURE:
                    raise MalformedStreamError("padding slot %d of a scale-%d block holds %r"
                                               % (t, l, ch), scale=l, position=t)
        raise MalformedStreamError(
            "free slot %d holds %r" % (t, ch) if l is None
            else "marker slot %d holds %r, not %r" % (t, ch, syms[i]) if syms[i] in _STRUCTURE
            else "code slot %d of a singular scale-%d block holds %r" % (t, l, ch),
            scale=l or layout.kmax, position=t)
    return syms


def _check_block_ends(pipeline, layout, itineraries):
    """Refuse labels that no point has: at the end t of every block, the
    labels at t - 1 and t must be cells of one point at consecutive times
    (system.follows).  The label lists start at layout.lo, the stream's a,
    and every bounded block end t of a decoded layout has a < t <= b."""
    system = pipeline.system
    A = layout.lo
    for layer in layout.layers:
        k = layer.scale
        labels = itineraries[k]
        last_a = last_b = None      # the last pair that follows: blocks of one codeword repeat it
        for t in (blk.end for blk in layer.blocks if blk.end is not None):
            a, b = labels[t - 1 - A], labels[t - A]
            if a is None or b is None or a is last_a and b is last_b:
                continue
            last_a, last_b = a, b
            if not system.follows(a, b):
                raise MalformedStreamError("scale-%d labels %r at %d and %r at %d "
                                           "describe no point" % (k, a, t - 1, b, t),
                                           scale=k, position=t)


def decode_k(stream, pipeline, k):
    """Invert the scale-k code: block structure, itineraries, orbit ids.

    Layers 1..k are laid out from the stream's markers, and each regular
    block's codeword is read; then the encoder's writer, _render_layer,
    renders the layers from those codewords and the singular blocks'
    orbits, and the render must be the stream (_check_render lists what
    may differ).  The render is the pi_k form.

    A malformed stream raises the first refusal met: per layer, at its
    parse, its layout (append_layer; above scale 1 its layout_bounds is the
    one length rule) and its codewords; then at a block end; then at the
    first position where the render and the stream differ.
    """
    from .blocks import BlockLayout
    sched = pipeline.schedule
    if not 1 <= k <= sched.kmax:
        raise ValueError("scale %d out of range" % k)
    A, B = stream.a, stream.b
    layout = BlockLayout(schedule=sched, lo=A, hi=B)
    structure = [(t, ch) for t, ch in enumerate(stream.symbols, A) if ch in _STRUCTURE]
    itineraries, certified, orbits = {}, {}, []
    syms, res = [SYM_FREE] * (B - A + 1), [None] * (B - A + 1)
    for l in range(1, k + 1):
        intervals, labels, orbits_l, cert_parts = \
            _decode_scale1(stream, pipeline, structure) if l == 1 else \
            _decode_scale_k(stream, pipeline, l, layout, itineraries[l - 1], structure)
        layer = _append_decoded_layer(layout, l, (A, B), intervals)
        orbits.extend(o for o in orbits_l if l == 1 or o not in orbits)
        words = _read_codewords(stream, pipeline, layer, itineraries.get(l - 1),
                                labels, cert_parts)
        _render_layer(pipeline, layout, l, lambda blk: words[blk.start], syms, res)
        itineraries[l] = labels
        certified[l] = _covered_range(cert_parts, (A, B))
    _check_block_ends(pipeline, layout, itineraries)
    stream_k = SymbolStream(A, B, _check_render(stream, pipeline, layout, syms, res))
    return DecodeResult(itineraries=itineraries, certified=certified,
                        orbits=orbits, stream_k=stream_k)


def invert(stream, pipeline, k):
    """The radius-m_k cell of every preimage point at time zero."""
    margin = pipeline.schedule.decode_radius(k)
    if stream.a > -margin or stream.b < margin:
        raise WindowError("invert at scale %d needs the stream to cover [%d, %d]"
                          % (k, -margin, margin), scale=k)
    result = decode_k(stream, pipeline, k)
    cert = result.certified.get(k)
    if cert is None or not cert[0] <= 0 <= cert[1]:
        raise WindowError("time zero not certified at scale %d" % k, scale=k, position=0)
    return result.itineraries[k][-stream.a]
