import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clopen_reference import (Clopen, OdoClopen, WidthCapError, clopen_complement,
                              clopen_difference, clopen_intersection, clopen_member,
                              clopen_shift, clopen_union)
from shiftembed.systems import (OdometerPoint, Point, dyadic_odometer,
                                full_shift, golden_mean)


def cyl(system, offset, pattern):
    return Clopen.from_cylinder(system, offset, pattern)


class TestWordBackend:
    def test_union_is_whole_space(self):
        sys = full_shift()
        a = cyl(sys, 0, "0")
        b = cyl(sys, 0, "1")
        assert clopen_union(a, b).equals(Clopen.whole_space(sys, 0))

    def test_shift_reanchors(self):
        sys = full_shift()
        a = cyl(sys, 0, "0")
        shifted = clopen_shift(a, 2)
        assert shifted.radius == 2
        # membership of (01)^inf at t=0 checks x_{-2} = 0
        p = Point("01", "01", "01", 0)
        assert clopen_member(p, shifted, 0) is True
        q = p.shifted(1)
        assert clopen_member(q, shifted, 0) is False

    def test_complement_golden_center_one(self):
        sys = golden_mean()
        a = cyl(sys, 0, "1").refine(1)
        comp = clopen_complement(a)
        # all admissible width-3 words with center 0
        expected = {w for w in sys.words(3) if w[1] == "0"}
        assert comp.patterns == frozenset(expected)

    def test_spec_names_wrap_the_methods(self):
        sys = golden_mean()
        a = cyl(sys, 0, "0").refine(1)
        b = cyl(sys, 1, "0")
        assert clopen_intersection(a, b).equals(a.intersection(b))
        assert clopen_difference(a, b).equals(a.difference(b))
        assert not clopen_difference(a, b).is_empty()

    def test_membership_at_time(self):
        sys = golden_mean()
        a = cyl(sys, 0, "1")
        p = Point("01", "01", "01", 0)  # x_0 = 0, x_1 = 1
        assert not a.member(p, 0)
        assert a.member(p, 1)

    def test_width_cap(self):
        sys = golden_mean()
        a = cyl(sys, 0, "0")
        with pytest.raises(WidthCapError):
            a.shift(40)

    def test_boolean_laws(self):
        sys = golden_mean()
        a = cyl(sys, 0, "0")
        b = cyl(sys, -1, "01")
        c = cyl(sys, 1, "0")
        assert a.union(a).equals(a)
        assert a.intersection(a).equals(a)
        # De Morgan at matched width
        r = max(a.radius, b.radius)
        lhs = a.union(b).complement()
        rhs = a.refine(r).complement().intersection(b.complement())
        assert lhs.equals(rhs)
        # shift distributes over union and intersection
        assert a.union(c).shift(2).equals(a.shift(2).union(c.shift(2)))
        assert a.intersection(c).shift(2).equals(a.shift(2).intersection(c.shift(2)))

    def test_cylinder_vs_direct_member(self):
        sys = golden_mean()
        a = cyl(sys, -1, "010")
        p = Point("0", "0100100", "0", -1)
        for t in range(-4, 8):
            assert a.member(p, t) == (p.word(t - 1, t + 1) == "010")


class TestOdometerBackend:
    def test_digit_cylinder_and_shift(self):
        odo = dyadic_odometer(4)
        u = OdoClopen.digit_cylinder(odo, (0,))
        p = OdometerPoint(odo, (0, 0, 0, 0))
        assert u.member(p, 0)
        assert not u.member(p, 1)
        assert u.shift(1).member(p, 1)

    def test_boolean_algebra(self):
        odo = dyadic_odometer(4)
        u = OdoClopen.digit_cylinder(odo, (0, 0))
        v = OdoClopen.digit_cylinder(odo, (0,))
        assert u.is_subset(v)
        assert u.union(u.complement()).equals(OdoClopen.whole_space(odo))
        assert v.difference(u).intersection(u).is_empty()
        assert clopen_intersection(u, v).equals(u.intersection(v))
        assert clopen_difference(v, u).equals(v.difference(u))

    def test_refinement_consistency(self):
        odo = dyadic_odometer(4)
        v = OdoClopen.digit_cylinder(odo, (1,))
        fine = v.refine(3)
        assert len(fine) == 4  # 8 residues mod 8, half of them
        p = OdometerPoint(odo, (1, 1, 0, 1))
        assert v.member(p, 0) and fine.member(p, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_shift_composes(i, j):
    sys = golden_mean()
    a = cyl(sys, 0, "00")
    if 2 * (a.radius + abs(i) + abs(j)) + 1 > a.width_cap:
        return
    lhs = a.shift(i).shift(j)
    rhs = a.shift(i + j)
    assert lhs.equals(rhs)
