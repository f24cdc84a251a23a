import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from check_reference import (count_disagreements, fraction_measure_distance, l1,
                             marginal_left, marginal_right)
from shiftembed.codec import SYM_DB
from shiftembed.metrics import (_cylinder_counts, _stream_alphabet, _stream_measure,
                                besicovitch_estimate, cantor_distance,
                                cylinder_enumeration, dN_distance,
                                empirical_measure, hausdorff_distance,
                                measure_distance, periodic_orbit_measure,
                                stream_dN)
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import Point, golden_mean

ZERO = Point("0", "0", "0", 0)
ALT = Point("01", "01", "01", 0)


def brute_dN(x, y, N, H):
    """Oracle: enumerate the disagreement densities directly."""
    best = Fraction(0)
    for n in range(N, H + 1):
        c = sum(1 for i in range(-n, n + 1) if x.letter(i) != y.letter(i))
        best = max(best, Fraction(c, 2 * n + 1))
    return best


class TestCantor:
    def test_equal_points(self):
        assert cantor_distance(ZERO, Point("00", "000", "00", 5)) == 0

    def test_disagree_at_zero(self):
        assert cantor_distance(ZERO, Point("0", "1", "0", 0)) == 1

    def test_single_one_at_three(self):
        y = Point("0", "0001", "0", 0)
        assert cantor_distance(ZERO, y) == Fraction(1, 8)


class TestDN:
    def test_single_disagreement(self):
        y = Point("0", "1", "0", 0)
        assert dN_distance(ZERO, y, 2) == Fraction(1, 5)

    def test_alternating_values(self):
        # sup_{n>=N} of the window density: attained at the smallest odd n,
        # decreasing to the tail density 1/2
        assert dN_distance(ZERO, ALT, 0) == Fraction(2, 3)
        assert dN_distance(ZERO, ALT, 1) == Fraction(2, 3)
        assert dN_distance(ZERO, ALT, 2) == Fraction(4, 7)
        assert dN_distance(ZERO, ALT, 7) == Fraction(8, 15)
        assert besicovitch_estimate(ZERO, ALT) == (Fraction(1, 2), True)

    def test_identical(self):
        assert dN_distance(ZERO, ZERO, 3) == 0

    def test_matches_bruteforce(self):
        x = Point("10", "0010010", "001", -2)
        y = Point("10", "0100100", "010", -3)
        for N in (0, 1, 3, 8):
            assert dN_distance(x, y, N) >= brute_dN(x, y, N, 40)
            assert dN_distance(x, y, N) == max(brute_dN(x, y, N, 300),
                                               besicovitch_estimate(x, y)[0])

    def test_nonincreasing_in_N(self):
        x = Point("100", "00100", "01", -1)
        y = Point("10", "01001", "001", -2)
        vals = [dN_distance(x, y, N) for N in (1, 2, 4, 8, 16, 32, 64)]
        assert vals == sorted(vals, reverse=True)

    def test_count_disagreements_exact(self):
        y = Point("0", "0001", "0", 0)
        assert count_disagreements(ZERO, y, 2) == 0
        assert count_disagreements(ZERO, y, 3) == 1
        assert count_disagreements(ZERO, y, 50) == 1


class TestBesicovitch:
    def test_finite_disagreements_zero(self):
        y = Point("0", "0110101", "0", -3)
        val, exact = besicovitch_estimate(ZERO, y)
        assert exact and val == 0

    def test_alternating_half(self):
        val, exact = besicovitch_estimate(ZERO, ALT)
        assert exact and val == Fraction(1, 2)

    def test_pseudometric_axioms_exact(self):
        pts = [ZERO, ALT, Point("001", "001", "001", 0), Point("0", "0100", "01", -2)]
        for x in pts:
            assert besicovitch_estimate(x, x)[0] == 0
        for x in pts:
            for y in pts:
                assert besicovitch_estimate(x, y)[0] == besicovitch_estimate(y, x)[0]
        for x in pts:
            for y in pts:
                for z in pts:
                    dxy = besicovitch_estimate(x, y)[0]
                    dyz = besicovitch_estimate(y, z)[0]
                    dxz = besicovitch_estimate(x, z)[0]
                    assert dxz <= dxy + dyz

    def test_shift_invariance(self):
        x, y = ALT, Point("001", "001", "001", 0)
        assert besicovitch_estimate(x, y)[0] == \
            besicovitch_estimate(x.shifted(3), y.shifted(3))[0]

    def test_zero_distance_implies_equal_tables(self):
        x = Point("01", "01", "01", 0)
        y = Point("01", "0101", "01", 0)   # same point, longer core
        val, exact = besicovitch_estimate(x, y)
        assert exact and val == 0
        for L in (1, 2, 3):
            mx = empirical_measure(x, L, 12)
            my = empirical_measure(y, L, 12)
            assert l1(mx, my) == 0


class TestEmpirical:
    def test_alternating_letters(self):
        mu = empirical_measure(ALT, 1, 10)
        assert mu("0") == Fraction(1, 2) and mu("1") == Fraction(1, 2)

    def test_constant_three_words(self):
        mu = empirical_measure(ZERO, 3, 7)
        assert mu("000") == 1

    def test_tail_convergence(self):
        x = Point("0", "11", "01", 0)  # eventually (01)-periodic
        big = empirical_measure(x, 1, 4000)
        assert abs(big("1") - Fraction(1, 2)) < Fraction(1, 500)

    def test_shift_l1_bound(self):
        x = Point("10", "01001", "001", -2)
        for L in (1, 2):
            for n in (10, 25):
                mu = empirical_measure(x, L, n)
                nu = empirical_measure(x.shifted(1), L, n)
                assert l1(mu, nu) <= Fraction(2 * L, n)

    def test_marginal_consistency(self):
        mu = empirical_measure(Point("10", "01001", "001", -2), 3, 30)
        left = marginal_left(mu)
        right = marginal_right(mu)
        assert sum(left.values()) == 1
        assert sum(right.values()) == 1


class TestMeasureDistance:
    def test_identity(self):
        mu = periodic_orbit_measure("01", 3)
        assert measure_distance(mu, mu, "01") == 0

    def test_point_masses_first_terms(self):
        mu = periodic_orbit_measure("0", 2)
        nu = periodic_orbit_measure("01", 2)
        # enumeration: "0" at index 1, "1" at index 2, then length-2 words
        val = measure_distance(mu, nu, "01", depth=1)
        assert val == abs(1 - Fraction(1, 2)) / 2 + abs(0 - Fraction(1, 2)) / 4

    def test_hausdorff_singletons(self):
        mu = periodic_orbit_measure("001", 2)
        nu = periodic_orbit_measure("01", 2)
        assert hausdorff_distance([mu], [nu], "01", 2) == measure_distance(mu, nu, "01", 2)

    def test_enumeration_fixed(self):
        assert cylinder_enumeration("01", 2) == ["0", "1", "00", "01", "10", "11"]
        assert cylinder_enumeration(("1", "]", "]["), 1) == [("1",), ("]",), ("][",)]

    def test_point_measures_match_fraction_sum(self):
        rng = random.Random(5)
        for _ in range(40):
            letters = "012"[:rng.randint(2, 3)]
            word = lambda n: "".join(rng.choice(letters) for _ in range(n))
            L = rng.randint(1, 3)
            mu = periodic_orbit_measure(word(rng.randint(1, 7)), L)
            nu = empirical_measure(Point(word(2), word(5), word(3), -2), L, rng.randint(1, 30))
            for depth in range(1, L + 1):
                assert measure_distance(mu, nu, letters, depth) == \
                    fraction_measure_distance(mu, nu, letters, depth)


@pytest.fixture(scope="module")
def report_streams():
    """The scale-1 and scale-2 streams of the eight points `report` draws
    by default on golden K=2, kmax=2, m=(0,0), on its window."""
    pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    N = pipe.schedule.n[0] ** 2
    return [list(pipe.encode_scales(p, (-4 * N, 4 * N)))
            for p in sample_points(golden_mean(), 8, seed=17)]


class TestStreamMeasures:
    def test_stream_measures_match_fraction_sum(self, report_streams):
        alphabet = _stream_alphabet(2)
        measures = [_stream_measure(s, 2, 160) for streams in report_streams for s in streams]
        for mu, nu in itertools.combinations(measures, 2):
            for depth in (1, 2):
                assert measure_distance(mu, nu, alphabet, depth) == \
                    fraction_measure_distance(mu, nu, alphabet, depth)

    def test_double_bracket_windows_keep_their_mass(self, report_streams):
        """A window holding the two-character symbol "][" is L symbols long,
        and every depth's cylinder masses over the stream alphabet sum to 1."""
        enumeration = cylinder_enumeration(_stream_alphabet(2), 2)
        held = 0
        for streams in report_streams:
            mu = _stream_measure(streams[-1], 2, 160)
            assert all(len(w) == 2 for w in mu.freqs)
            counts, den = _cylinder_counts(mu, 2)
            for depth in (1, 2):
                assert sum(counts[w] for w in enumeration if len(w) == depth) == den
            held += counts[(SYM_DB,)] > 0
        assert held == 4


class TestStreamDN:
    def test_equal_streams(self):
        from shiftembed.codec import SymbolStream
        s = SymbolStream(-5, 5, list("12121212121"))
        assert stream_dN(s, s, 2) == 0

    def test_single_diff(self):
        from shiftembed.codec import SymbolStream
        a = SymbolStream(-5, 5, list("12121212121"))
        b = SymbolStream(-5, 5, list("12121112121"))
        assert stream_dN(a, b, 2) == Fraction(1, 5)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["0", "01", "001", "010", "00100"]),
       st.sampled_from(["0", "01", "0010"]),
       st.integers(min_value=0, max_value=5))
def test_dN_sequence_nonincreasing_property(core, right, shift):
    x = Point("01", core, right, -shift)
    y = Point("0", "0", "0", 0)
    vals = [dN_distance(x, y, N) for N in (1, 2, 4, 8, 16, 32)]
    assert vals == sorted(vals, reverse=True)
