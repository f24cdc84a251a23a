import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from check_reference import (count_oracle_systems, doubled_window_cyclic,
                             filtered_least_period_words, lcm_window_on_orbit,
                             listed_orbit_words, lyndon_by_rotations, matpow_int,
                             orbit_probe_points, scanned_admissible, scanned_cyclic,
                             within_seconds)
from shiftembed.entropy import (EntropyEstimate, appendix_fullness_check, htop_estimate,
                               least_period_count)
from shiftembed.errors import (EmptySubshiftError, EnumerationBudgetError,
                               InvalidPointError, SpecParseError)
from shiftembed import systems
from shiftembed.systems import (Odometer, OdometerPoint, Point,
                                Sft, _lyndon_orbits, coordinate, dyadic_odometer,
                                enumerate_periodic, enumerate_words,
                                full_shift, golden_mean, itinerary,
                                least_period_words, lyndon_words, orbit_system, parse_point,
                                parse_system,
                                periodic_orbits, product_coding, serialize_point,
                                serialize_system, validate_point)
from shiftembed.words import ALPHABET_CHARS, necklace, periodic_window, primitive_root

# an orbit of period 33, longer than any n_k its schedules pick
ORBIT33 = "0" + "".join(format(i, "04b") for i in range(1, 9))
# an orbit whose (L - 1)-windows part only at L = 22: 2^22 words of that length
LONG_RUN = "0" * 21 + "1"


def brute_words(forbidden, n, A=2):
    """Independent oracle: filter all A^n words for forbidden factors."""
    import itertools
    letters = "01"[:A] if A == 2 else "0123456789"[:A]
    out = []
    for t in itertools.product(letters, repeat=n):
        w = "".join(t)
        if not any(f in w for f in forbidden):
            out.append(w)
    return out


def brute_cyclic(forbidden, n, A=2):
    """Oracle for Fix(sigma^n): words whose doubled repetition stays clean."""
    out = []
    for w in brute_words(forbidden, n, A):
        big = w * (max((len(f) for f in forbidden), default=1) // n + 2)
        if not any(f in big for f in forbidden):
            out.append(w)
    return out


def filtered_orbits(system, nmax):
    """Reference orbit list: the necklace of every cyclically admissible
    primitive word of length <= nmax, found by filtering all words."""
    table = {}
    for n in range(1, nmax + 1):
        for w in filtered_least_period_words(system, n):
            table.setdefault(necklace(w), n)
    return table


class TestParse:
    def test_golden_spec_matrix(self):
        s = parse_system("kind: sft\nalphabet: 2\nforbidden: [11]\n")
        assert s.adjacency == [[1, 1], [1, 0]]

    def test_full_shift_spec(self):
        s = parse_system("kind: sft\nalphabet: 2\nforbidden: []\n")
        assert s.adjacency == [[1, 1], [1, 1]]

    def test_empty_subshift(self):
        with pytest.raises(EmptySubshiftError):
            parse_system("kind: sft\nalphabet: 2\nforbidden: [0, 1]\n")

    def test_matrix_form(self):
        s = parse_system("kind: sft\nalphabet: 2\nmatrix: [[1,1],[1,0]]\n")
        assert s.adjacency == [[1, 1], [1, 0]]

    def test_matrix_is_a_list_of_lists(self):
        """A matrix reads by the list grammar of every document: spaces and
        comments are free, and each row is a bracketed list."""
        s = parse_system("kind: sft  # golden\nalphabet: 2\nmatrix: [ [1, 1], [1,0] ]\n")
        assert s.adjacency == [[1, 1], [1, 0]]
        with pytest.raises(SpecParseError, match="matrix row must be a"):
            parse_system("kind: sft\nalphabet: 2\nmatrix: [[1,1],[1,0]\n")

    def test_roundtrip_bit_exact(self):
        docs = [
            "kind: sft\nalphabet: 2\nforbidden: [11]\n",
            "kind: sft\nalphabet: 2\nmatrix: [[1,1],[1,0]]\n",
            "kind: odometer\nbase: [2, 2, 2]\n",
            "kind: orbit\nalphabet: 2\nword: 01\n",
            "kind: orbit\nalphabet: 1\nword: 0\n",
            "kind: orbit\nalphabet: 2\nword: 0\n",
            "kind: orbit\nalphabet: 2\nword: 001\n",
            "kind: orbit\nalphabet: 2\nword: %s\n" % ORBIT33,
            "kind: orbit\nalphabet: 2\nword: %s\n" % LONG_RUN,
            "kind: orbit\nalphabet: 36\nword: 00001\n",
        ]
        for doc in docs:
            assert serialize_system(parse_system(doc)) == doc
        # an orbit is written back by its primitive root
        assert serialize_system(parse_system("kind: orbit\nalphabet: 2\nword: 0101\n")) == \
            "kind: orbit\nalphabet: 2\nword: 01\n"

    def test_point_roundtrip(self):
        sys = golden_mean()
        doc = "left: 0\ncore: 010@0\nright: 01\n"
        p = parse_point(doc, sys)
        assert serialize_point(p) == doc
        odo = dyadic_odometer(3)
        doc2 = "digits: [0, 1, 0]\n"
        assert serialize_point(parse_point(doc2, odo)) == doc2

    def test_bad_point_rejected(self):
        with pytest.raises(InvalidPointError):
            parse_point("left: 1\ncore: @0\nright: 1\n", golden_mean())

    def test_syntax_error(self):
        with pytest.raises(SpecParseError):
            parse_system("kind: sft\nalphabet 2\n")

    @pytest.mark.parametrize("doc", [
        "kind: sft\nalphabet: x\nforbidden: [11]\n",
        "kind: sft\nalphabet: 2\nmatrix: [[1,1],[1,z]]\n",
        "kind: odometer\nbase: [2, two]\n",
        "kind: orbit\nalphabet: 2.0\nword: 01\n",
    ], ids=["alphabet", "matrix", "base", "orbit-alphabet"])
    def test_non_integer_rejected(self, doc):
        with pytest.raises(SpecParseError, match="must be an integer"):
            parse_system(doc)

    @pytest.mark.parametrize("doc,system", [
        ("left: 0\ncore: 010@x\nright: 01\n", golden_mean()),
        ("digits: [0, one, 0]\n", dyadic_odometer(3)),
    ], ids=["anchor", "digits"])
    def test_non_integer_point_rejected(self, doc, system):
        with pytest.raises(SpecParseError, match="must be an integer"):
            parse_point(doc, system)


def letters(point, a, b):
    """Reference for Point.word: one letter at a time."""
    return "".join(point.letter(i) for i in range(a, b + 1))


class TestPointWord:
    POINT = Point("011", "10010", "0001", 3)   # core on coordinates 3..7

    @pytest.mark.parametrize("a,b", [
        (5, 4), (5, 1), (-4, -9),             # b < a: empty
        (-20, 2), (-3, -3), (2, 2),           # wholly in the left tail
        (3, 7), (4, 6), (7, 7),               # wholly in the core
        (8, 30), (8, 8), (11, 19),            # wholly in the right tail
        (-10, 5), (0, 3), (6, 12), (7, 8),    # across one boundary
        (-10, 20), (2, 8), (-40, 40),         # across both
    ])
    def test_regions(self, a, b):
        assert self.POINT.word(a, b) == letters(self.POINT, a, b)
        assert len(self.POINT.word(a, b)) == max(0, b - a + 1)

    def test_empty_core(self):
        p = Point("01", "", "1", -2)
        for a, b in ((-9, -3), (-2, 5), (-6, 4), (-1, 3), (-3, -2)):
            assert p.word(a, b) == letters(p, a, b)

    @settings(max_examples=300, deadline=None)
    @given(w=st.text("012", min_size=1, max_size=7), a=st.integers(-40, 40),
           width=st.integers(-4, 60), phase=st.integers(-20, 20))
    def test_periodic_window_equals_letter_by_letter(self, w, a, width, phase):
        b = a + width
        assert periodic_window(w, a, b, phase) == "".join(
            w[(i + phase) % len(w)] for i in range(a, b + 1))

    @settings(max_examples=400, deadline=None)
    @given(left=st.text("012", min_size=1, max_size=6),
           core=st.text("012", max_size=12),
           right=st.text("012", min_size=1, max_size=6),
           anchor=st.integers(-15, 15), a=st.integers(-45, 45),
           width=st.integers(-4, 70))
    def test_equals_letter_by_letter(self, left, core, right, anchor, a, width):
        p = Point(left, core, right, anchor)
        assert p.word(a, a + width) == letters(p, a, a + width)


class TestPointEquality:
    @pytest.mark.parametrize("p, q, equal", [
        (Point("01", "", "01", 0), Point("10", "", "10", 1), True),
        (Point("0", "1", "0", 0), Point("0", "01", "0", -1), True),
        (Point("01", "", "01", 0), Point("01", "", "01", 1), False),
        (Point("0", "1", "0", 0), Point("0", "1", "0", 1), False),
        (Point("0", "", "1", 0), Point("0", "", "1", 0), True),
    ])
    def test_equal_when_every_letter_agrees(self, p, q, equal):
        assert (p == q) is equal and (q == p) is equal
        assert (p.word(-30, 30) == q.word(-30, 30)) is equal

    def test_not_equal_to_another_type(self):
        assert Point("0", "", "0", 0) != "0"


class TestCoordinate:
    def test_all_zero(self):
        p = Point("0", "0", "0", 0)
        assert coordinate(p, -7) == "0"

    def test_parity(self):
        p = Point("01", "01", "01", 0)
        assert coordinate(p, 3) == "1"

    def test_mixed_tails(self):
        # hand-unfolded periodic extension: ...000 | 010 | 010101...
        p = Point("0", "010", "01", 0)
        assert [coordinate(p, i) for i in range(-2, 8)] == list("0001001010")
        assert coordinate(p, 5) == "0"


class TestOdometerPoints:
    def test_a_point_of_its_own_system_is_valid(self):
        odo = dyadic_odometer(3)
        point = OdometerPoint(odo, [1, 0, 1])
        assert validate_point(odo, point) is None
        assert repr(point) == "OdometerPoint((1, 0, 1))"


class TestItinerary:
    def test_radius_zero(self):
        sys = golden_mean()
        p = Point("01", "01", "01", 0)
        assert itinerary(sys, p, 0, (0, 3)) == ["0", "1", "0", "1"]

    def test_radius_one_constant(self):
        sys = golden_mean()
        p = Point("0", "0", "0", 0)
        assert itinerary(sys, p, 1, (0, 0)) == ["000"]

    def test_sliding_windows(self):
        sys = golden_mean()
        p = Point("0", "00100", "0", -1)
        assert itinerary(sys, p, 1, (0, 2)) == ["001", "010", "100"]

    def test_equivariance(self):
        sys = golden_mean()
        p = Point("0", "00100101", "010", -3)
        assert itinerary(sys, p, 1, (1, 7)) == itinerary(sys, p.shifted(1), 1, (0, 6))

    def test_odometer_cells(self):
        odo = dyadic_odometer(3)
        p = OdometerPoint(odo, (0, 0, 0))
        assert itinerary(odo, p, 0, (0, 3)) == [(0,), (1,), (0,), (1,)]
        assert itinerary(odo, p, 1, (0, 3)) == [(0, 0), (1, 0), (0, 1), (1, 1)]


class TestWords:
    def test_golden_counts_match_brute_force(self):
        sys = golden_mean()
        for n in range(1, 12):
            assert enumerate_words(sys, n) == brute_words(["11"], n)

    def test_golden_small(self):
        assert enumerate_words(golden_mean(), 2) == ["00", "01", "10"]
        assert len(enumerate_words(golden_mean(), 4)) == 8

    def test_full_shift(self):
        assert len(enumerate_words(full_shift(), 5)) == 32

    def test_a_state_with_no_predecessor_is_pruned(self):
        """No letter may precede 0, so no bi-infinite sequence holds
        it: state '0' has successors but no predecessors and is pruned."""
        forbidden = ("00", "10", "20")
        s = Sft(3, forbidden=forbidden)
        assert s.states == ["1", "2"]
        # brute force: the words that a clean word holds with a letter on each side
        middles = [{w[1:-1] for w in brute_words(forbidden, n + 2, A=3)} for n in range(1, 6)]
        assert [s.count_words(n) for n in range(1, 6)] == list(map(len, middles)) == \
            [2, 4, 8, 16, 32]

    def test_transfer_matrix_count_agrees(self):
        sys = golden_mean()
        for n in range(1, 21):
            assert sys.count_words(n) == len(sys.words(n))

    def test_submultiplicative(self):
        sys = golden_mean()
        for m in range(1, 8):
            for n in range(1, 8):
                assert sys.count_words(m + n) <= sys.count_words(m) * sys.count_words(n)

    def test_longer_memory_sft(self):
        sys = Sft(2, forbidden=("111", "00"))
        for n in range(1, 10):
            assert sys.words(n) == brute_words(["111", "00"], n)

    @pytest.mark.parametrize("sys", [golden_mean(), full_shift(),
                                     Sft(2, forbidden=("111", "00")),
                                     Sft(3, forbidden=("22", "201"))],
                             ids=["golden", "full", "memory-2", "three-letter"])
    def test_rank_and_unrank_follow_words(self, sys):
        for n in range(sys.memory, 9):
            words = sys.words(n)
            for i, w in enumerate(words):
                assert sys.word_rank(w) == i
                assert sys.word_at(i, n) == w
            with pytest.raises(IndexError):
                sys.word_at(len(words), n)

    @pytest.mark.parametrize("sys", [golden_mean(), full_shift(),
                                     Sft(2, forbidden=("111", "00")),
                                     Sft(3, forbidden=("22", "201"))],
                             ids=["golden", "full", "memory-2", "three-letter"])
    def test_rank_and_unrank_with_fixed_end_states(self, sys):
        """Right extensions out of a state and left extensions into one rank
        in the order of the words they are, as do words below the memory."""
        M = sys.memory
        for n in range(0, M):
            for i, w in enumerate(sys.words(n)):
                assert sys.word_rank(w) == i and sys.word_at(i, n) == w
        for r in range(0, 5):
            words = sys.words(M + r)
            for s in sys.states:
                for start, end in ((s, None), (None, s), (s, s)):
                    chosen = [w for w in words if start in (None, w[:M])
                              and end in (None, w[-M:])]
                    assert sys.count_words(M + r, start, end) == len(chosen)
                    for i, w in enumerate(chosen):
                        assert sys.word_rank(w, start, end) == i
                        assert sys.word_at(i, M + r, start, end) == w
                    for w in words:
                        if w not in chosen:
                            assert sys.word_rank(w, start, end) is None

    def test_rank_of_inadmissible_word_is_none(self):
        sys = Sft(3, forbidden=("22", "201"))
        assert sys.word_rank("0122") is None
        assert sys.word_rank("2010") is None
        assert sys.word_rank("0013") is None
        assert golden_mean().word_rank("0110") is None


class TestPeriodic:
    def test_golden_fix_counts(self):
        sys = golden_mean()
        # trace of matrix powers: Lucas numbers 1, 3, 4, 7, 11, 18, ...
        expected = [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322]
        for n, want in enumerate(expected, start=1):
            pts, fix = enumerate_periodic(sys, n)
            assert fix == want
            assert fix == len(brute_cyclic(["11"], n))

    def test_golden_least_period(self):
        sys = golden_mean()
        pts, fix = enumerate_periodic(sys, 1)
        assert [p.core for p in pts] == ["0"] and fix == 1
        pts2, fix2 = enumerate_periodic(sys, 2)
        assert sorted(p.core for p in pts2) == ["01", "10"] and fix2 == 3
        pts4, _ = enumerate_periodic(sys, 4)
        assert len(pts4) == 4 and sys.fix_count(4) == 7

    def test_moebius_reassembly(self):
        sys = golden_mean()
        for n in range(1, 13):
            total = sum(len(enumerate_periodic(sys, d)[0])
                        for d in range(1, n + 1) if n % d == 0)
            assert total == sys.fix_count(n)

    @pytest.mark.parametrize("name", sorted(count_oracle_systems()))
    def test_fix_count_equals_matrix_trace(self, name):
        system = count_oracle_systems()[name]
        for n in range(1, 40):
            power = matpow_int(system.adjacency, n)
            assert system.fix_count(n) == sum(power[i][i] for i in range(len(power))), n

    @pytest.mark.parametrize("name", sorted(count_oracle_systems()))
    def test_least_period_words_equal_filter(self, name):
        system = count_oracle_systems()[name]
        # the filter reads every n-word: 3^12 of them on full3, seconds per system
        nmax = 10 if name in ("full3", "sft3") else 12
        for n in range(1, nmax + 1):
            assert least_period_words(system, n) == filtered_least_period_words(system, n), n

    def test_least_period_words_golden_19_and_orbit(self):
        gm, orb = golden_mean(), orbit_system(2, "001")
        assert least_period_words(gm, 19) == filtered_least_period_words(gm, 19)
        assert least_period_words(orb, 3) == filtered_least_period_words(orb, 3) == \
            ["001", "010", "100"]
        assert least_period_words(orb, 4) == filtered_least_period_words(orb, 4) == []

    def test_orbit_system(self):
        orb = orbit_system(2, "01")
        assert orb.fix_count(2) == 2
        assert orb.fix_count(3) == 0
        assert least_period_words(orb, 2) == ["01", "10"]
        assert orb.count_words(5) == 2

    @pytest.mark.parametrize("A, word", [(1, "0"), (2, "0"), (2, "01"), (2, "0101"),
                                         (2, "001"), (2, ORBIT33), (2, LONG_RUN),
                                         (36, "00001")],
                             ids=["period1-A1", "period1", "period2", "power", "period3",
                                  "period33", "long-run", "36-letters"])
    def test_orbit_counts_equal_the_listed_orbit(self, A, word):
        """An orbit_system's words, counts, fixed points and orbits are those
        of its word's orbit, listed phase by phase; its graph is one cycle."""
        orb = orbit_system(A, word)
        root = primitive_root(word)
        p = len(root)
        assert len(orb.states) == p and all(len(orb._succ[s]) == 1 for s in orb.states)
        for n in range(3 * p + 4):
            assert orb.words(n) == listed_orbit_words(root, n), n
            assert orb.count_words(n) == len(listed_orbit_words(root, n)), n
        assert orb.word_counts(2 * p) == [orb.count_words(n) for n in range(2 * p + 1)]
        assert [orb.fix_count(n) for n in range(1, 3 * p + 1)] == \
            [p if n % p == 0 else 0 for n in range(1, 3 * p + 1)]
        for nmax in (p - 1, p, 2 * p):
            assert periodic_orbits(orb, nmax) == ({necklace(root): p} if p <= nmax else {})

    def test_odometer_has_no_periodic_points(self):
        assert enumerate_periodic(dyadic_odometer(3), 4) == ([], 0)

    def test_periodic_orbits_golden(self):
        table = periodic_orbits(golden_mean(), 4)
        assert table == {"0": 1, "01": 2, "001": 3, "0001": 4}
        assert periodic_orbits(orbit_system(2, "001"), 5) == {"001": 3}

    @pytest.mark.parametrize("system,nmax", [
        (golden_mean(), 19),
        (Sft(2, forbidden=()), 14),
        (Sft(3, forbidden=("22", "201")), 10),
        (Sft(3, matrix=[[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 10),
        (orbit_system(2, "001"), 5),
    ], ids=["golden", "full", "sft3", "matrix3", "orbit001"])
    def test_generated_orbits_equal_filtered(self, system, nmax):
        table = periodic_orbits(system, nmax)
        assert table == filtered_orbits(system, nmax)
        for p in range(1, nmax + 1):
            count = sum(1 for n in table.values() if n == p)
            assert count * p == least_period_count(system, p), p

    @pytest.mark.parametrize("system", [
        golden_mean(),
        Sft(3, forbidden=("11", "22", "012")),
        Sft(2, forbidden=("111", "0101")),
        Sft(2, forbidden=("000", "0011", "111", "110")),
        Sft(2, forbidden=("100", "0110")),
        Sft(3, forbidden=("10", "20", "111")),
    ], ids=["golden", "sft3", "memory3", "pruned-state", "wrap-refuses", "wrap-refuses3"])
    def test_wrap_closure_equals_least_period_words(self, system):
        """Lyndon nodes closed at the wrap, and below its width by
        is_cyclic_word, give exactly the necklaces of the least-period
        words, for every nmax up to 12.  A Lyndon word starts with its
        least letter, so in the first four systems no linearly clean node
        fails at the wrap; in the last two, forbidden words that fall to a
        smaller letter make the wrap refuse some."""
        necklaces = {necklace(w): n for n in range(1, 13)
                     for w in filtered_least_period_words(system, n)}
        wrap = max(system._forbidden_lengths + [system.memory]) - 1
        assert 1 <= wrap < 12
        for nmax in range(1, 13):
            assert list(lyndon_words(system, nmax)) == \
                sorted(v for v, n in necklaces.items() if n <= nmax), nmax
            assert _lyndon_orbits(system, nmax) == \
                {v: n for v, n in necklaces.items() if n <= nmax}, nmax

    @pytest.mark.parametrize("A", [1, 2, 3])
    def test_full_shift_lyndon_words_are_the_definitions(self, A):
        """On a full shift the walk lists the words smaller than each of
        their proper rotations, every length up to nmax in one
        lexicographic order."""
        for nmax in range(1, 10):
            assert list(lyndon_words(full_shift(A), nmax)) == sorted(
                w for n in range(1, nmax + 1) for w in lyndon_by_rotations(ALPHABET_CHARS[:A], n))

    def test_lyndon_words_are_handed_out_lazily(self):
        """The first words of a walk to length 60 come without the 2^60
        leaves below them."""
        with within_seconds(1):
            assert list(itertools.islice(lyndon_words(full_shift(2), 60), 4)) == \
                ["0", "0" * 59 + "1", "0" * 58 + "1", "0" * 58 + "11"]

    def test_block_graph_grows_only_clean_blocks(self, monkeypatch):
        """The block graph grows clean blocks from clean prefixes instead of
        listing all A^M: an orbit's few blocks pass with A^M past the
        budget, and a length with more candidate blocks is refused."""
        monkeypatch.setattr(systems, "WORD_ENUM_BUDGET", 1000)
        assert len(orbit_system(2, "0" * 15 + "1").states) == 16
        with pytest.raises(EnumerationBudgetError,
                           match="^block graph too large: 1024 candidate 10-blocks$"):
            Sft(2, forbidden=["0" * 16])

    def test_periodic_orbits_refused_before_enumerating(self):
        fs = Sft(2, forbidden=())
        with pytest.raises(EnumerationBudgetError, match="WORD_ENUM_BUDGET = 4000000"):
            periodic_orbits(fs, 22)
        assert fs._word_cache == {}


class TestReplacedRules:
    """Sft's word tests and validate_point's orbit test against the rules
    they replaced, kept in tests/check_reference.py."""

    @pytest.mark.parametrize("name", sorted(count_oracle_systems()))
    def test_word_tests_equal_the_string_scan(self, name):
        """Every word over the alphabet and one letter outside it, from the
        empty word up, so words shorter than the memory are among them."""
        system = count_oracle_systems()[name]
        letters = system.letters + ALPHABET_CHARS[system.alphabet_size]
        nmax = 7 if system.alphabet_size == 3 else 8
        seen = set()
        for n in range(nmax + 1):
            for w in map("".join, itertools.product(letters, repeat=n)):
                got = system.is_admissible(w)
                assert got == scanned_admissible(system, w), w
                seen.add(("admissible", n < system.memory, got))
                if w:
                    got = system.is_cyclic_word(w)
                    assert got == scanned_cyclic(system, w), w
                    seen.add(("cyclic", got))
        assert {("admissible", False, True), ("admissible", False, False),
                ("cyclic", True), ("cyclic", False)} <= seen

    @pytest.mark.parametrize("name", sorted(count_oracle_systems()))
    def test_is_cyclic_word_equals_doubled_window(self, name):
        system = count_oracle_systems()[name]
        nmax = 8 if system.alphabet_size == 3 else 10
        cyclic = 0
        for n in range(1, nmax + 1):
            for w in map("".join, itertools.product(system.letters, repeat=n)):
                got = system.is_cyclic_word(w)
                assert got == doubled_window_cyclic(system, w), w
                cyclic += got
        assert 0 < cyclic

    @pytest.mark.parametrize("word", ["0", "01", "001", ORBIT33, LONG_RUN],
                             ids=["period1", "period2", "period3", "period33", "long-run"])
    def test_orbit_membership_equals_lcm_window(self, word):
        orb = orbit_system(2, word)
        accepted = 0
        for point in orbit_probe_points(orb, 300, seed=5):
            try:
                validate_point(orb, point)
                got = True
            except InvalidPointError as exc:
                assert re.fullmatch(r"(left|right) period '[01]+' is not cyclically admissible"
                                    r"|point window '[01]+' hits a forbidden word", str(exc))
                got = False
            assert got == lcm_window_on_orbit(orb, point), point
            accepted += got
        assert 100 < accepted < 300


class TestProductCoding:
    def test_period_two(self):
        sys = golden_mean()
        p = Point("01", "01", "01", 0)
        rows = product_coding(sys, p, (0, 1), (0, 1))
        assert rows[0] == ("0", "101")
        assert rows[1] == ("1", "010")

    def test_constant(self):
        sys = golden_mean()
        p = Point("0", "0", "0", 0)
        rows = product_coding(sys, p, (0,), (-3, 3))
        assert all(r == ("0",) for r in rows)

    def test_separates_period_two_points(self):
        sys = golden_mean()
        a = Point("01", "01", "01", 0)
        b = a.shifted(1)
        assert product_coding(sys, a, (0,), (0, 0)) != product_coding(sys, b, (0,), (0, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=0, max_value=2))
def test_itinerary_shift_equivariance_property(t, m):
    sys = golden_mean()
    p = Point("10", "00100", "001", -2)
    validate_point(sys, p)
    a, b = t, t + 5
    assert itinerary(sys, p, m, (a + 1, b + 1)) == itinerary(sys, p.shifted(1), m, (a, b))


_DYADIC4 = Odometer([2] * 4)

# What each system kind answers on the calls that branch on it: a value, or
# the error that refuses the call (any message when it has none).
KIND_ANSWERS = {
    "odometer-point-on-golden": (
        lambda: validate_point(golden_mean(), OdometerPoint(_DYADIC4, (1, 0, 1, 0))),
        InvalidPointError("odometer point bound to a different system")),
    "odometer-point-on-another-odometer": (
        lambda: validate_point(Odometer([2] * 4), OdometerPoint(_DYADIC4, (1, 0, 1, 0))),
        InvalidPointError("odometer point bound to a different system")),
    "word-point-on-odometer": (
        lambda: validate_point(_DYADIC4, Point("0", "", "0", 0)),
        InvalidPointError("word point supplied for a non-word system")),
    "core-letter-outside-alphabet": (
        lambda: validate_point(golden_mean(), Point("0", "2", "0", 0)),
        InvalidPointError("core uses letters outside the alphabet")),
    "coordinate-of-odometer-point": (
        lambda: coordinate(OdometerPoint(_DYADIC4, (1, 0, 1, 0)), 3),
        InvalidPointError("odometer points have digits, not letters; use itinerary")),
    "odometer-entropy": (
        lambda: (lambda est: (est, est.per_n))(htop_estimate(_DYADIC4, 6)),
        (EntropyEstimate(0.0, 0.0, {}), {})),
    "odometer-least-period-count": (
        lambda: [least_period_count(_DYADIC4, n) for n in range(1, 9)], [0] * 8),
    "odometer-periodic-points": (
        lambda: [enumerate_periodic(_DYADIC4, n) for n in (1, 2, 5)], [([], 0)] * 3),
    "odometer-fullness-check": (
        lambda: appendix_fullness_check(_DYADIC4, 2, 4), ValueError()),
}


@pytest.mark.parametrize("case", sorted(KIND_ANSWERS))
def test_each_kind_answers_as_pinned(case):
    """The answers of the calls that differ by system kind: the odometer
    has no words, no periodic points and entropy 0, and a point of one
    system is refused by another."""
    call, want = KIND_ANSWERS[case]
    if not isinstance(want, Exception):
        assert call() == want
        return
    with pytest.raises(type(want)) as info:
        call()
    assert not want.args or str(info.value) == str(want)
