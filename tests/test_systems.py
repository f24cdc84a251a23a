import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftembed.errors import (EmptySubshiftError, EnumerationBudgetError,
                               InvalidPointError, SpecParseError)
from shiftembed.systems import (Odometer, OdometerPoint, OrbitSystem, Point,
                                Sft, coordinate, dyadic_odometer,
                                enumerate_periodic, enumerate_words,
                                full_shift, golden_mean, itinerary,
                                parse_point, parse_system, periodic_orbits,
                                product_coding, serialize_point,
                                serialize_system, validate_point)


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

    def test_roundtrip_bit_exact(self):
        docs = [
            "kind: sft\nalphabet: 2\nforbidden: [11]\n",
            "kind: sft\nalphabet: 2\nmatrix: [[1,1],[1,0]]\n",
            "kind: odometer\nbase: [2, 2, 2]\n",
            "kind: orbit\nalphabet: 2\nword: 01\n",
        ]
        for doc in docs:
            assert serialize_system(parse_system(doc)) == doc

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

    def test_orbit_system(self):
        orb = OrbitSystem(2, "01")
        assert orb.fix_count(2) == 2
        assert orb.fix_count(3) == 0
        assert orb.least_period_words(2) == ["01", "10"]
        assert orb.count_words(5) == 2

    def test_odometer_has_no_periodic_points(self):
        assert enumerate_periodic(dyadic_odometer(3), 4) == ([], 0)

    def test_periodic_orbits_golden(self):
        table = periodic_orbits(golden_mean(), 4)
        assert table == {"0": 1, "01": 2, "001": 3, "0001": 4}
        assert periodic_orbits(OrbitSystem(2, "001"), 5) == {"001": 3}

    def test_periodic_orbits_refused_before_enumerating(self):
        fs = Sft(2, forbidden=())
        with pytest.raises(EnumerationBudgetError, match="WORD_ENUM_BUDGET = 4000000"):
            periodic_orbits(fs, 22)
        assert fs._word_cache == {}


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
