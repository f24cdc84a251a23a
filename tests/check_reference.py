"""Reference checks for the tests: plain functions that the package never
runs.

`min_period` is the least period by the KMP border table, the oracle for
the package's slice tests of periods and powers.  `restrict` cuts a symbol
stream to a sub-window.  `verify_injective` rebuilds a periodic code's
rotation prefixes from its code words, which `PeriodicCode.claim` already
refuses to let collide, so it can fail only on a code that a test has
corrupted.  `count_disagreements` reads the exact disagreement count on
[-n, n] from the running table that `dN_distance` extends.  `l1`,
`marginal_left` and `marginal_right` compare and project the frequency
tables of empirical measures, and `forbidden_shape_count_bound` is the
counting bound of the periodic-code lemma.  `primitive_and_shaped` is the
lemma's code-word rule as its two tests, primitivity and, above sqrt(n1),
the prefix-shape condition, which `codec._code_word_ok` reads as one.
`escaping_pieces` is the full scan over every piece-width word that the
scale-1 disjointness record of `verify_tower` replaces with the periodic
extensions of shorter words.
`within_seconds` fails a block that outlives its time limit, so that a call
which used to loop forever fails its test instead of stalling the suite.
`matpow_int` is the exact transfer-matrix power, the independent oracle for
the count tables: Fix(sigma^n) = tr A^n, and (A^n)[s][t] > 0 when a path of
length n joins s to t; `count_oracle_systems` are the SFTs it is checked on.
`filtered_least_period_words` lists the primitive cyclically admissible
n-words by filtering every n-word, the reference for the orbit walk's
least-period words; it filters with `doubled_window_cyclic`, the
doubled-window test that `Sft.is_cyclic_word` replaced.
`scanned_admissible` and `scanned_cyclic` are the string scans for
forbidden factors and non-states that `Sft.is_admissible` and
`Sft.is_cyclic_word` replaced with steps through the transition table.
`lcm_window_on_orbit` tests membership of a finite orbit on one window per
phase, the oracle for `validate_point` on an `orbit_system`, and
`orbit_probe_points` draws points on and next to an orbit to compare the
two; `listed_orbit_words` lists an orbit's n-words as its windows at every
phase, the words of a finite orbit read off the word alone.
`roundtrip_or_named` round-trips a point and lets an error through only
when its text is the one a strict xfail names.
`fraction_measure_distance` is the truncated d_* as a Fraction sum, each
cylinder's mass summed over the frequency table word by word, the oracle
for `measure_distance`'s integer counts.  `family1_tail_per_pair_log` is
the scale-1 tail certificate that takes the logarithm of a word count for
every (N0, r) pair, the oracle for `entropy._family1_tail_certified`.
`lexicographic_periodic_code` is the periodic code's greedy over every
K-ary word of each period, the reference for `codec.build_periodic_code`,
which draws Lyndon words only; `lyndon_by_rotations` lists the Lyndon words
by their definition, and `small_sft_family` is the family of small SFTs
the code is compared on.
"""

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest

from shiftembed.codec import PeriodicCode, SymbolStream, _code_word_ok, _rotation_prefixes
from shiftembed.entropy import periodic_code_fits
from shiftembed.errors import CapacityError, ScheduleError, ShiftEmbedError, WindowError
from shiftembed.metrics import _extend_counts, disagreement_data
from shiftembed.systems import (Point, Sft, full_shift, golden_mean, itinerary,
                                periodic_orbits)
from shiftembed.words import is_primitive, kary_alphabet, periodic_window


def min_period(s):
    """Least period of s, 0 for the empty word: len(s) minus its longest
    proper border, read off the KMP prefix table."""
    n = len(s)
    table = [0] * n
    for i in range(1, n):
        k = table[i - 1]
        while k and s[i] != s[k]:
            k = table[k - 1]
        if s[i] == s[k]:
            k += 1
        table[i] = k
    return n - table[n - 1] if n else 0


def _matmul_int(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            if ai[k]:
                bk = b[k]
                f = ai[k]
                for j in range(p):
                    oi[j] += f * bk[j]
    return out


def matpow_int(mat, n):
    """Exact integer power of a square matrix (list of lists)."""
    size = len(mat)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [row[:] for row in mat]
    while n:
        if n & 1:
            result = _matmul_int(result, base)
        base = _matmul_int(base, base)
        n >>= 1
    return result


def count_oracle_systems():
    """id -> SFT: memories 1-3, up to 8 states, pruned and matrix-given."""
    return {"golden": golden_mean(), "full3": full_shift(3),
            "sft3": Sft(3, forbidden=("22", "201")),
            "matrix3": Sft(3, matrix=[[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
            "memory3": Sft(2, forbidden=("111", "0101")),
            "pruned-state": Sft(2, forbidden=("000", "0011", "111", "110")),
            "wrap-refuses3": Sft(3, forbidden=("10", "20", "111"))}


def filtered_least_period_words(system, n):
    """The n-words whose bi-infinite repetition has least period exactly n,
    by filtering every admissible n-word."""
    return [w for w in system.words(n) if doubled_window_cyclic(system, w) and is_primitive(w)]


def doubled_window_cyclic(system, w):
    """Whether the bi-infinite repetition of w is admissible for an Sft: no
    forbidden word starts in the first period of w repeated past the longest
    one, and every memory-window starting there is a state of the essential
    graph."""
    reps = max(2, -(-max(system._forbidden_lengths, default=1) // len(w)) + 1)
    doubled = w * reps
    for L in system._forbidden_lengths:
        for i in range(len(w)):
            if i + L <= len(doubled) and doubled[i:i + L] in system._forbidden_set:
                return False
    M = system.memory
    ext = w * max(2, -(-M // len(w)) + 1)
    return all(ext[i:i + M] in system.states for i in range(len(w)))


def scanned_admissible(system, w):
    """Whether w is a word of an Sft's essential subshift, by scanning
    strings: every memory-window of w is a state of the essential graph and
    no forbidden word is a factor of w; a word shorter than the memory must
    be a factor of a state."""
    M = system.memory
    if len(w) < M:
        return any(w in s for s in system.states)
    return (all(w[i:i + M] in system.states for i in range(len(w) - M + 1))
            and not any(f in w for f in system.forbidden))


def scanned_cyclic(system, w):
    """Whether the bi-infinite repetition of a nonempty w is admissible, by
    the string scan of enough repetitions that every window of the
    repetition, of length up to the longest forbidden word, is a factor."""
    longest = max(map(len, system.forbidden), default=1)
    return scanned_admissible(system, w * (max(longest, system.memory) // len(w) + 2))


def lcm_window_on_orbit(system, point):
    """Whether a word point lies on the orbit of an orbit_system: it matches
    some phase of the orbit word on a window wide enough that tail
    periodicity propagates the agreement."""
    w = system.orbit_word
    p = len(w)
    a, b = point.core_span()
    lo = a - math.lcm(p, len(point.left)) - 1
    hi = b + math.lcm(p, len(point.right)) + 1
    return any(all(point.letter(i) == w[(i + phase) % p] for i in range(lo, hi + 1))
               for phase in range(p))


def listed_orbit_words(word, n):
    """The n-words of the orbit of a primitive word: its n-windows at every
    phase, sorted."""
    return sorted({periodic_window(word, j, j + n - 1) for j in range(len(word))})


def orbit_probe_points(system, count, seed):
    """Points of the orbit of an orbit_system, written with tails of one or
    two periods and a short core at a random anchor, half of them with one
    letter of a tail or the core flipped."""
    rng = random.Random(seed)
    w = system.orbit_word
    p = len(w)
    out = []
    for _ in range(count):
        x = Point(w, "", w, -rng.randrange(p))
        a = rng.randrange(-p - 3, p + 3)
        b = a + rng.randrange(0, 6)
        parts = [x.word(a - p * rng.randrange(1, 3), a - 1), x.word(a, b - 1),
                 x.word(b, b + p * rng.randrange(1, 3) - 1)]
        if rng.random() < 0.5:
            i = rng.choice([j for j, part in enumerate(parts) if part])
            pos = rng.randrange(len(parts[i]))
            flip = rng.choice([c for c in system.letters if c != parts[i][pos]])
            parts[i] = parts[i][:pos] + flip + parts[i][pos + 1:]
        out.append(Point(parts[0], parts[1], parts[2], a))
    return out


def roundtrip_or_named(pipe, point, k, window, text):
    """Encode the point at scale k on the window plus the decode margin,
    decode it at scale k and compare every scale's labels over the window
    with the itinerary.  An error whose text is not `text` fails the test
    outright, so a strict xfail passes only on the error it names."""
    a, b = window
    margin = pipe.decode_margin()
    try:
        res = pipe.decode(pipe.encode(point, k, (a - margin, b + margin)), k)
    except ShiftEmbedError as exc:
        if str(exc) != text:
            pytest.fail("raised %r, not %r" % (str(exc), text))
        raise
    for l in range(1, k + 1):
        assert res.itinerary_list(l, window) == itinerary(
            pipe.system, point, pipe.schedule.m[l - 1], window)


def restrict(stream, a, b):
    """The stream's symbols and resolutions over [a, b], inside its window."""
    if a < stream.a or b > stream.b:
        raise WindowError("restriction exceeds stream window")
    return SymbolStream(a, b, stream.symbols[a - stream.a: b - stream.a + 1],
                        stream.resolution[a - stream.a: b - stream.a + 1])


def verify_injective(code):
    """Rebuild every rotation prefix from the code's orbit_code: True when
    they are pairwise distinct and its prefix_table holds exactly them."""
    rebuilt = {}
    for v, w in code.orbit_code.items():
        for d, p in enumerate(_rotation_prefixes(w, code.n1)):
            if rebuilt.setdefault(p, (v, d)) != (v, d):
                return False
    return rebuilt == code.prefix_table


def count_disagreements(x, y, n):
    """Exact number of coordinate disagreements on [-n, n]."""
    _, counts, _, _ = disagreement_data(x, y)
    return _extend_counts(x, y, counts, n)[n]


def l1(mu, nu):
    """The l1 distance of two empirical measures' frequency tables."""
    return sum(abs(mu(w) - nu(w)) for w in set(mu.freqs) | set(nu.freqs))


def marginal_left(mu):
    """The frequencies of each word with its last letter dropped."""
    out = {}
    for w, f in mu.freqs.items():
        out[w[:-1]] = out.get(w[:-1], Fraction(0)) + f
    return out


def marginal_right(mu):
    """The frequencies of each word with its first letter dropped."""
    out = {}
    for w, f in mu.freqs.items():
        out[w[1:]] = out.get(w[1:], Fraction(0)) + f
    return out


def fraction_measure_distance(mu, nu, alphabet, depth):
    """sum_i |mu(A_i) - nu(A_i)| / 2^i over the cylinder words A_i by
    length, lexicographic, as tuples of the alphabet's symbols."""
    def mass(m, word):
        return sum((f for w, f in m.freqs.items() if tuple(w)[:len(word)] == word),
                   Fraction(0))
    words = [w for L in range(1, depth + 1)
             for w in sorted(itertools.product(alphabet, repeat=L))]
    total = Fraction(0)
    for i, word in enumerate(words, start=1):
        total += abs(mass(mu, word) - mass(nu, word)) / Fraction(2 ** i)
    return total


def family1_tail_per_pair_log(K, alpha, m1, N_cert, counts, cells):
    """Both scale-1 inequalities past N_cert, with log #W_r taken afresh for
    every pair (N0, r)."""
    h = math.log(K) - alpha
    if not counts:
        if math.log(cells[N_cert]) > (N_cert + 1) * (h + alpha / 4) + 1e-12:
            return False
    else:
        best = None
        for N0 in range(1, N_cert + 1):
            g0 = math.log(counts[N0]) / N0
            if g0 >= h + alpha / 4:
                continue
            cstar = max(math.log(counts[r]) - r * g0 for r in range(0, N0))
            threshold = (2 * m1 * g0 + cstar) / (h + alpha / 4 - g0)
            if best is None or threshold < best:
                best = threshold
        if best is None or best > N_cert:
            return False
    slope = (1 - alpha / 2) * math.log(K) - (h + alpha / 4)
    if slope <= 0:
        return False
    n0 = N_cert + 1
    return n0 * (h + alpha / 4) < (n0 * (1 - alpha / 2) - 1) * math.log(K)


def lexicographic_periodic_code(system, K, n1):
    """The periodic code of `codec.build_periodic_code` as its greedy over
    every K-ary n-word: the orbits of least period n, in necklace order,
    share one stream of the K-ary n-words in lexicographic order, and every
    orbit takes the next word that passes _code_word_ok and claim."""
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


def lyndon_by_rotations(letters, n):
    """The words of length n over the letters that are smaller than each
    of their proper rotations, in lexicographic order."""
    return [w for w in map("".join, itertools.product(letters, repeat=n))
            if all(w < w[i:] + w[:i] for i in range(1, n))]


def small_sft_family():
    """id -> Sft for every pair of forbidden words of length 2-3 on two
    letters and every pair of forbidden 2-words on three letters: 102
    shifts, none of them empty."""
    family = {}
    for A, lengths in ((2, (2, 3)), (3, (2,))):
        words = ["".join(w) for L in lengths
                 for w in itertools.product("012"[:A], repeat=L)]
        for pair in itertools.combinations(words, 2):
            family["A%d-%s" % (A, "-".join(pair))] = Sft(A, forbidden=pair)
    return family


def forbidden_shape_count_bound(n, K):
    """(sum_{l<n} K^l, K^n / (K-1)) as exact numbers for the counting bound."""
    total = sum(K ** l for l in range(n))
    return total, Fraction(K ** n, K - 1)


def primitive_and_shaped(w, n1):
    """w is primitive (its least period is len(w) or does not divide it)
    and, when len(w) > sqrt(n1), the n1-prefix of its repetition has no
    period below len(w)."""
    p = min_period(w)
    return (p == len(w) or len(w) % p != 0) and (
        len(w) ** 2 <= n1 or min_period(periodic_window(w, 0, n1 - 1)) >= len(w))


def escaping_pieces(tower):
    """The scale-1 pieces of least period below n that the periodic
    neighborhood does not match, from every admissible piece-width word."""
    w1 = 2 * tower.piece_halfwidth + 1
    return [u for u in tower.system.words(w1)
            if min_period(u) < tower.n and tower.pernbhd.match_word(u) is None]


@contextlib.contextmanager
def within_seconds(seconds):
    """Raise AssertionError in the block once it has run `seconds` (a
    SIGALRM timer, so only on the main thread)."""
    def expire(signum, frame):
        raise AssertionError("still running after %g s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
