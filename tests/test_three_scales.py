"""Three scales: golden mean K=3, kmax=3, C=4, N_cert=128, n = (13, 26, 52).

No point of this configuration round-trips at scale 3 (ROADMAP items 1 and
13).  Over `sample_points(golden_mean(), 100, seed=3)` on ±(200 + margin),
encode or decode stops with one of nine error texts.  The first point of
each text is pinned here as a strict xfail that raises that text, so a
mend turns its test red and the same change removes the marker.  One point
shows what already works: it round-trips exactly at scale 2.
"""

import re

import pytest

from check_reference import roundtrip_or_named
from shiftembed.codec import SymbolStream
from shiftembed.errors import CapacityError, MalformedStreamError, ShiftEmbedError
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import Point, golden_mean

WINDOW = (-200, 200)


@pytest.fixture(scope="module")
def pipe():
    pipe = build_pipeline(golden_mean(), K=3, kmax=3, C=4.0, N_cert=128)
    assert pipe.schedule.n == (13, 26, 52)
    return pipe


def pinned(index, point, error, text):
    """Sample `index` of the seed-3 draw, the first to raise `text`."""
    return pytest.param(point, text, id="sample%d" % index,
                        marks=pytest.mark.xfail(strict=True, raises=error, reason=text))


FIRST_OF_EACH_TEXT = [
    # refused at encode
    pinned(2, Point("010000", "", "0100", 0), CapacityError,
           "codeword of length 2 cannot fit 0 slots"),
    pinned(8, Point("01000", "10100000", "010", -1), CapacityError,
           "scale-3 block (-24, 45) has no slot for its marker"),
    pinned(88, Point("010100", "10001010000001001001", "00100", -2), CapacityError,
           "conditional code needs 2 letters, budget 1"),
    # encoded, then refused at decode
    pinned(0, Point("010", "0010001010001000010101010010001010101010", "001", -21),
           MalformedStreamError, "scale-3 block (-39, -9) has no slot for its marker"),
    pinned(1, Point("000001", "010010001001010010100010100100000", "01000", -26),
           MalformedStreamError, "codeword '' not in codebook image"),
    pinned(4, Point("000010", "10101010101000101010", "000001", -13),
           MalformedStreamError, "scale-3 block (-7, 6): 1 filling slots needed, 0 available"),
    pinned(16, Point("0001", "010101010010101010100100010000101010", "001010", -19),
           MalformedStreamError, "spans overlap or run backwards: [38, None), [52, None)"),
    pinned(22, Point("001", "0010001010001000101010100101001", "00010", -2),
           MalformedStreamError, "codeword '[2' not in codebook image"),
    pinned(75, Point("000010", "0101010101000101001010101010010", "000101", -19),
           MalformedStreamError, "codeword '[' not in codebook image"),
]


@pytest.mark.parametrize("point, text", FIRST_OF_EACH_TEXT)
def test_roundtrip_at_scale_three(pipe, point, text):
    roundtrip_or_named(pipe, point, 3, WINDOW, text)


def test_roundtrip_at_scale_two(pipe):
    # sample 6: exact at scale 2, refused at scale 3 ("no slot for its marker")
    roundtrip_or_named(pipe, Point("0001", "000", "010000", -3), 2, WINDOW, None)


# (stage, text with each number as N) -> (first sample, samples)
SEED3_CENSUS = {
    ("encode", "codeword of length N cannot fit N slots"): (2, 49),
    ("encode", "scale-N block (N, N) has no slot for its marker"): (8, 10),
    ("encode", "conditional code needs N letters, budget N"): (88, 1),
    ("decode", "scale-N block (N, N) has no slot for its marker"): (0, 14),
    ("decode", "codeword '' not in codebook image"): (1, 8),
    ("decode", "scale-N block (N, N): N filling slots needed, N available"): (4, 3),
    ("decode", "spans overlap or run backwards: [N, None), [N, None)"): (16, 12),
    ("decode", "codeword '[N' not in codebook image"): (22, 2),
    ("decode", "codeword '[' not in codebook image"): (75, 1),
}


def test_a_block_over_undecoded_labels_is_skipped(pipe):
    """A '][' in place of the terminator at 15 leaves the scale-1 block
    from the '|' at -13 without an end: the window edge cuts it, so no
    scale-1 or scale-2 label from -13 on is decoded.  The brackets at -2,
    15 and 19 still open scale-3 blocks over those positions.
    _read_codewords skips them instead of reading a None label, and the
    decode certifies left of -13."""
    stream = pipe.encode(Point("00010", "1", "001000", 0), 3, (-60, 80))
    symbols = list(stream.symbols)
    assert symbols[15 + 60] == "="
    symbols[15 + 60] = "]["
    res = pipe.decode(SymbolStream(-60, 80, symbols), 3)
    assert res.certified == {1: (-60, -14), 2: (-59, -15), 3: (-57, -17)}


def test_seed3_census(pipe):
    """Every one of the 100 points is refused by name with one of the nine
    texts above; none decodes, so none decodes wrongly."""
    a, b = WINDOW
    margin = pipe.decode_margin()
    census = {}
    for index, point in enumerate(sample_points(pipe.system, 100, seed=3)):
        stage = "encode"
        try:
            stream = pipe.encode(point, 3, (a - margin, b + margin))
            stage = "decode"
            pipe.decode(stream, 3)
            stage, text = "decoded", ""
        except ShiftEmbedError as exc:
            text = re.sub(r"(?<!scale)-?\d+", "N", str(exc))
        first, count = census.get((stage, text), (index, 0))
        census[(stage, text)] = (first, count + 1)
    assert census == SEED3_CENSUS
