"""Golden K=2 on periodic points with long runs of `1000010`.

A point `Point(v, "", v, 0)` with v = "1000010" * R + u (u = "0" or "00")
round-trips for R <= 2, but wide windows refuse it: at the bench window
±(200 + decode margin) its decode stops with one of four texts from R = 3,
and on (-400, 400 + 2|v|) its encode stops with one of three more.  One
point per text is pinned here as a strict xfail that raises that error
class and text, so a mend turns its test red and the same change removes
the marker.  At R = 12 and R = 13 the nesting check of
`markers._check_special_nesting` asks the scale-1 partition for the middle
of a scale-2 special block, (767, 830) and (-650, -579), which lies past the
range that partition computed.
"""

import pytest

from check_reference import roundtrip_or_named
from shiftembed.errors import CapacityError, MalformedStreamError, WindowError
from shiftembed.pipeline import build_pipeline
from shiftembed.systems import Point, golden_mean

MARGIN = 246    # the decode margin: roundtrip_or_named encodes on the window ± MARGIN


@pytest.fixture(scope="module")
def pipe():
    pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    assert pipe.decode_margin() == MARGIN
    return pipe


def run_point(R, u):
    v = "1000010" * R + u
    return Point(v, "", v, 0)


BENCH = (-200, 200)     # encoded on the bench window ±446


def wide_window(R, u):
    """Encoded on (-400, 400 + 2|v|)."""
    return (MARGIN - 400, 400 + 2 * (7 * R + len(u)) - MARGIN)


def pinned(R, u, window, error, text):
    return pytest.param(R, u, window, text, id="R%d-%s" % (R, u),
                        marks=pytest.mark.xfail(strict=True, raises=error, reason=text))


@pytest.mark.parametrize("R, u, window, text", [
    # refused at decode
    pinned(3, "00", BENCH, MalformedStreamError, "free slot -426 holds '1'"),
    pinned(4, "00", BENCH, MalformedStreamError,
           "singular stretch (-449, -431) has no readable prefix"),
    pinned(5, "0", BENCH, MalformedStreamError, "free slot inside a stretch at 445"),
    pinned(5, "00", BENCH, MalformedStreamError,
           "stretch content clashes with orbit '0000101' at -433"),
    # refused at encode
    pinned(6, "00", wide_window(6, "00"), CapacityError,
           "scale-2 block (-548, -548) has length 0 outside [9, 66)"),
    pinned(12, "0", wide_window(12, "0"), WindowError,
           "time 798 outside computed range (-594, 756)"),
    pinned(13, "00", wide_window(13, "00"), WindowError,
           "time -615 outside computed range (-570, 827)"),
])
def test_long_run_is_refused(pipe, R, u, window, text):
    roundtrip_or_named(pipe, run_point(R, u), 2, window, text)


@pytest.mark.parametrize("R, u", [(2, "0"), (2, "00"), (3, "0")])
def test_short_run_round_trips(pipe, R, u):
    for window in (BENCH, wide_window(R, u)):
        roundtrip_or_named(pipe, run_point(R, u), 2, window, None)
