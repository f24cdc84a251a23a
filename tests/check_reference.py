"""Reference checks for the tests: plain functions that the package never
runs.

`restrict` cuts a symbol stream to a sub-window.  `verify_injective`
rebuilds a periodic code's rotation prefixes from its code words, which
`PeriodicCode.claim` already refuses to let collide, so it can fail only on
a code that a test has corrupted.  `count_disagreements` reads the exact
disagreement count on [-n, n] from the running table that `dN_distance`
extends.  `l1`, `marginal_left` and `marginal_right` compare and project the
frequency tables of empirical measures, and `forbidden_shape_count_bound`
is the counting bound of the periodic-code lemma.  `escaping_pieces` is the
full scan over every piece-width word that the scale-1 disjointness record
of `verify_tower` replaces with the periodic extensions of shorter words.
`within_seconds` fails a block that outlives its time limit, so that a call
which used to loop forever fails its test instead of stalling the suite.
"""

import contextlib
import signal
from fractions import Fraction

from shiftembed.codec import SymbolStream, _rotation_prefixes
from shiftembed.errors import WindowError
from shiftembed.metrics import _extend_counts, disagreement_data
from shiftembed.words import min_period


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


def forbidden_shape_count_bound(n, K):
    """(sum_{l<n} K^l, K^n / (K-1)) as exact numbers for the counting bound."""
    total = sum(K ** l for l in range(n))
    return total, Fraction(K ** n, K - 1)


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
