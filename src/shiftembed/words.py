"""Low-level word combinatorics: periods, rotations, necklaces, K-ary words.

Words are plain Python strings over a small alphabet of single characters.
"""

ALPHABET_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

# Code alphabet for stream payloads: the letters 1..K rendered as characters.
CODE_CHARS = "123456789"
_LETTER_DIGITS = str.maketrans(CODE_CHARS, "012345678")


def least_period_at_most(s, n):
    """The least period of a nonempty word s when it is at most n, else None.

    Exact without computing the least period: a q with s[q:] == s[:-q] is a
    period of s, so when the least period is at most n it is the first such
    q in 1..n.  When len(s) >= 2n that q is the first recurrence q of s[:n]:
    a least period p <= n puts s[:n] at p, so q <= p, and the length-(n + q)
    prefix has periods p and q, hence period gcd(p, q) by Fine and Wilf
    (1965), which p being least makes p itself; so q = p.
    """
    if n and 2 * n <= len(s):
        q = s.find(s[:n], 1, 2 * n)
        return q if q > 0 and s[q:] == s[:-q] else None
    for q in range(1, n + 1):
        if s[q:] == s[:-q]:
            return q
    return None


def least_rotation(w):
    """The start i of the lexicographically least rotation w[i:] + w[:i] of
    a nonempty word, compared as the slices of w + w; the least such i when
    w is a power, the only one when w is primitive."""
    ww = w + w
    p = len(w)
    return ww.index(min([ww[i:i + p] for i in range(p)]))


def periodic_name(s, n):
    """(necklace, shift) of a nonempty word s whose least period p is at
    most n, else None: s[j] == v[(j + shift) % p] for the necklace v.

    The root s[:p] is primitive: a shorter period of it would be one of s.
    """
    p = least_period_at_most(s, n)
    if p is None:
        return None
    root = s[:p]
    i = least_rotation(root)
    return root[i:] + root[:i], -i % p


def necklace(w):
    """Canonical representative of the rotation class: lexicographically least rotation."""
    i = least_rotation(w)
    return w[i:] + w[:i]


def is_primitive(w):
    """True when the nonempty word w is not a power of a strictly shorter
    word: w occurs in w w only at 0 and len(w)."""
    return (w + w).find(w, 1) == len(w)


def primitive_root(w):
    """Shortest u with w = u^k: the first shift at which the nonempty word w
    occurs in w w is the length of its primitive root."""
    return w[:(w + w).find(w, 1)]


def periodic_window(w, a, b, phase=0):
    """Word w^inf restricted to coordinates a..b inclusive: letter i is
    w[(i + phase) % len(w)]."""
    if b < a:
        return ""
    n = len(w)
    s = (a + phase) % n
    return (w * ((s + b - a) // n + 1))[s: s + b - a + 1]


def _window_key(w, m, n):
    """The radius-m itinerary key of an (n + 2m)-word: its n windows."""
    return tuple(w[i:i + 2 * m + 1] for i in range(n))


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
    """Index of a K-ary word (a string or a list of letters) in
    lexicographic order: the word read as one base-K numeral, its letters
    1..K shifted down to the digits 0..K-1.  The one word of each length
    over one letter has index 0."""
    word = "".join(word)
    return int(word.translate(_LETTER_DIGITS), K) if K > 1 and word else 0


def code_length_needed(count, K):
    """Smallest L with count <= K**L."""
    L = 0
    cap = 1
    while cap < count:
        cap *= K
        L += 1
    return L
