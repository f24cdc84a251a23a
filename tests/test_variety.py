"""Cross-configuration sweeps: non-binary alphabets, pure orbit systems,
and the honest desk-scale walls."""

import pytest

from check_reference import roundtrip_or_named
from shiftembed import codec
from shiftembed.codec import RefinementCodebook
from shiftembed.errors import EnumerationBudgetError, MalformedStreamError
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import (Point, Sft, full_shift, golden_mean, itinerary,
                                orbit_system, validate_point)


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
    orb = orbit_system(2, "001")
    pipe = build_pipeline(orb, K=2, kmax=1, C=0.0, m=(0,))
    p = Point("001", "001", "001", 0)
    validate_point(orb, p)
    s = pipe.encode(p, 1, (-20, 20))
    body = "".join(s.symbols)
    assert "|" not in body and "o" not in body  # one unbounded singular block
    margin = pipe.decode_margin()
    res = pipe.decode(pipe.encode(p, 1, (-margin, margin)), 1)
    assert res.orbits == ["001"]
    assert res.itinerary_list(1, (-10, 10)) == [p.letter(t) for t in range(-10, 11)]


def test_long_orbit_round_trips_through_conditional_codes(monkeypatch):
    """An orbit of period 33 > n_1 has no singular stretch: its points lay
    out regular blocks at both scales, and every scale-2 block is coded by
    the orbit's conditional codebook, which counts the orbit's words that
    refine the block's coarse itinerary on its graph, a single cycle."""
    orb = orbit_system(2, "0" + "".join(format(i, "04b") for i in range(1, 9)))
    pipe = build_pipeline(orb, K=2, kmax=2, C=0.0)
    assert (len(orb.orbit_word), pipe.schedule.n) == (33, (21, 22))
    built = []
    build = codec.build_conditional_codebook

    def spy(system, schedule, k, n, coarse):
        built.append(build(system, schedule, k, n, coarse))
        return built[-1]

    monkeypatch.setattr(codec, "build_conditional_codebook", spy)
    margin = pipe.decode_margin()
    points = sample_points(orb, 4, seed=3)
    for p in points:
        s = pipe.encode(p, 2, (-60 - margin, 60 + margin))
        assert s.symbols.count("|") > 0
        res = pipe.decode(s, 2)
        for l in (1, 2):
            want = itinerary(orb, p, pipe.schedule.m[l - 1], (-60, 60))
            assert res.itinerary_list(l, (-60, 60)) == want
    assert len(points) == 4 and built
    assert all(type(cb) is RefinementCodebook and cb.context is not None for cb in built)


def test_full_shift_periodic_machinery_hits_honest_wall():
    """The full 2-shift's periodic code at the scheduled n_1 = 36 needs
    every orbit of period <= 36, ~2^36 words; the enumeration budget refuses
    from the word count, before any word is listed, rather than truncating."""
    with pytest.raises(EnumerationBudgetError):
        build_pipeline(full_shift(), K=4, kmax=1, C=0.0, m=(0,))


def small_sft_texts():
    """Three decoder texts that two-letter SFTs with K=3 and n_2 = n_1 + 1
    reach and no other test does (ROADMAP item 16), each at its point."""
    cases = [
        (("00", "111"), Point("101", "1010", "11010", -3), "freed slot 10 of a stretch holds '1'"),
        (("00", "111"), Point("01011", "011010110101", "10101", 0),
         "free slot inside a stretch at -170"),
        (("001", "010"), Point("111101", "", "1110", 0), "codeword '11o12' not in codebook image"),
    ]
    return [pytest.param(forbidden, point, text, id="-".join(forbidden) + ":" + text.split()[0],
                         marks=pytest.mark.xfail(strict=True, raises=MalformedStreamError,
                                                 reason=text))
            for forbidden, point, text in cases]


@pytest.mark.parametrize("forbidden, point, text", small_sft_texts())
def test_small_sft_roundtrip_at_scale_two(forbidden, point, text):
    pipe = build_pipeline(Sft(2, forbidden), K=3, kmax=2, C=0.0, m=(0, 0))
    roundtrip_or_named(pipe, point, 2, (-60, 60), text)
