"""Low-level word combinatorics: periods, rotations, necklaces, K-ary words.

Words are plain Python strings over a small alphabet of single characters.
"""

from fractions import Fraction

ALPHABET_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

# Code alphabet for stream payloads: the letters 1..K rendered as characters.
CODE_CHARS = "123456789"


def kmp_border(s):
    """Length of the longest proper border of s (KMP prefix function value)."""
    n = len(s)
    pi = 0
    table = [0] * n
    for i in range(1, n):
        k = table[i - 1]
        while k and s[i] != s[k]:
            k = table[k - 1]
        if s[i] == s[k]:
            k += 1
        table[i] = k
    return table[n - 1] if n else 0


def min_period(s):
    """Smallest p with s[i] == s[i+p] for all valid i (p = len(s) for border-free s)."""
    if not s:
        return 0
    return len(s) - kmp_border(s)


def least_period_at_most(s, n):
    """min_period(s) of a nonempty word s when it is at most n, else None.

    Exact without computing the least period: a q with s[q:] == s[:-q] is a
    period of s, so when the least period is at most n it is the first such
    q in 1..n.
    """
    return next((q for q in range(1, n + 1) if s[q:] == s[:-q]), None)


def least_rotation(w):
    """The start i of the lexicographically least rotation w[i:] + w[:i] of
    a nonempty word, compared as the slices of w + w; the least such i when
    w is a power, the only one when w is primitive."""
    ww = w + w
    p = len(w)
    return ww.index(min([ww[i:i + p] for i in range(p)]))


def necklace(w):
    """Canonical representative of the rotation class: lexicographically least rotation."""
    i = least_rotation(w)
    return w[i:] + w[:i]


def is_primitive(w):
    """True when w is not a power of a strictly shorter word."""
    n = len(w)
    p = min_period(w)
    return p == n or n % p != 0


def primitive_root(w):
    """Shortest u with w = u^k."""
    p = min_period(w)
    if len(w) % p == 0:
        return w[:p]
    return w


def periodic_window(w, a, b, phase=0):
    """Word w^inf restricted to coordinates a..b inclusive: letter i is
    w[(i + phase) % len(w)]."""
    if b < a:
        return ""
    n = len(w)
    s = (a + phase) % n
    return (w * ((s + b - a) // n + 1))[s: s + b - a + 1]


def kary_alphabet(K):
    if not 1 <= K <= len(CODE_CHARS):
        raise ValueError("K out of supported range 1..%d" % len(CODE_CHARS))
    return CODE_CHARS[:K]


def kary_word(index, length, K):
    """index-th K-ary word of the given length in lexicographic order."""
    if index < 0 or index >= K ** length:
        raise ValueError("index out of range for K^length")
    letters = kary_alphabet(K)
    out = []
    while index:                # the leading zero digits are the first letter
        index, r = divmod(index, K)
        out.append(letters[r])
    return letters[0] * (length - len(out)) + "".join(reversed(out))


def kary_index(word, K):
    letters = kary_alphabet(K)
    idx = 0
    for c in word:
        idx = idx * K + letters.index(c)
    return idx


def code_length_needed(count, K):
    """Smallest L with count <= K**L."""
    L = 0
    cap = 1
    while cap < count:
        cap *= K
        L += 1
    return L


def repetition_prefix(w, length):
    """First `length` letters of w w w ..."""
    reps = -(-length // len(w))
    return (w * reps)[:length]


def has_short_period_prefix(w, prefix_len, bound):
    """True when the prefix_len-prefix of w^inf has a period strictly below bound.

    This is the forbidden shape of the periodic-code lemma: a prefix of the
    form u...u ubar with |u| < bound.
    """
    pref = repetition_prefix(w, prefix_len)
    return min_period(pref) < bound


def forbidden_shape_count_bound(n, K):
    """(sum_{l<n} K^l, K^n / (K-1)) as exact numbers for the counting bound."""
    total = sum(K ** l for l in range(n))
    return total, Fraction(K ** n, K - 1)
