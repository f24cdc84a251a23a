"""Cross-configuration sweeps: non-binary alphabets, pure orbit systems,
and the honest desk-scale walls."""

import pytest

from shiftembed.errors import EnumerationBudgetError
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import (OrbitSystem, Point, full_shift, golden_mean,
                                itinerary, validate_point)


def test_golden_mean_ternary_codes():
    gm = golden_mean()
    pipe = build_pipeline(gm, K=3, kmax=2, C=0.0, m=(0, 0))
    assert pipe.schedule.K == 3
    margin = pipe.decode_margin()
    saw_third_letter = False
    for p in sample_points(gm, 10, seed=3):
        s = pipe.encode(p, 2, (-50 - margin, 50 + margin))
        res = pipe.decode(s, 2)
        for l in (1, 2):
            want = itinerary(gm, p, pipe.schedule.m[l - 1], (-50, 50))
            assert res.itinerary_list(l, (-50, 50)) == want
        saw_third_letter = saw_third_letter or any(ch == "3" for ch in s.symbols)
    assert saw_third_letter


def test_pure_orbit_system_pipeline():
    orb = OrbitSystem(2, "001")
    pipe = build_pipeline(orb, K=2, kmax=1, C=0.0, m=(0,))
    p = Point("001", "001", "001", 0)
    validate_point(orb, p)
    s = pipe.encode(p, 1, (-20, 20))
    body = "".join(s.symbols)
    assert "|" not in body and "o" not in body  # one unbounded singular block
    margin = pipe.decode_margin()
    res = pipe.decode(pipe.encode(p, 1, (-margin, margin)), 1)
    assert res.orbits == ["001"]
    assert all(res.itineraries[1][t] == p.letter(t) for t in range(-10, 11))


def test_full_shift_periodic_machinery_hits_honest_wall():
    """The full 2-shift's periodic code at the scheduled n_1 = 36 needs
    every orbit of period <= 36, ~2^36 words; the enumeration budget refuses
    from the word count, before any word is listed, rather than truncating."""
    with pytest.raises(EnumerationBudgetError):
        build_pipeline(full_shift(), K=4, kmax=1, C=0.0, m=(0,))
