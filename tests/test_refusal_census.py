"""Every stream refusal of the codec can be reached.

An AST scan lists every `MalformedStreamError(...)` that
src/shiftembed/codec.py builds, raised at once or kept for a later raise:
its enclosing function and the literal texts its message can take (both
arms of a conditional message; none for a message that is another error's
text).  WITNESSES maps each site to a stream, most of them one substitution
away from an encoded stream, whose decode raises a MalformedStreamError
built there: its text is one of the site's texts and of no other site's,
or, for a site without literal texts, the site's function is on its
traceback.  A decode refusal also names its scale, and the position where
the decode stopped, a block's or region's start or a slot.  A check that no
stream reaches could not tell a stream of the code's image from one outside
it.
"""

import ast
import functools
import pathlib
import re
import traceback

import pytest

from shiftembed.codec import SymbolStream, build_identification_codebook
from shiftembed.errors import MalformedStreamError
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import Point, dyadic_odometer, golden_mean

CODEC = pathlib.Path(__file__).resolve().parent.parent / "src" / "shiftembed" / "codec.py"


def _texts(node):
    """The literal format strings a message argument can take."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _texts(node.left)
    if isinstance(node, ast.IfExp):
        return _texts(node.body) + _texts(node.orelse)
    return []


def scan_refusals(path=CODEC):
    """[(function, texts)] of every MalformedStreamError(...) call, in order."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == \
                    "MalformedStreamError":
                sites.append((function, tuple(_texts(child.args[0]))))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return sites


def _pattern(text):
    """A regular expression for the texts a format string gives."""
    parts = re.split(r"(%[drs])", text)
    return "".join(".+" if part in ("%d", "%r", "%s") else re.escape(part) for part in parts)


# -- witnesses: each returns the MalformedStreamError its stream raises ----------


CONFIGS = {
    "golden-k2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
    "golden-k3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
    "growing-k3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 1))),
    "odometer": (lambda: dyadic_odometer(8), dict(K=2, kmax=3, N_cert=128)),
}


@functools.lru_cache(maxsize=None)
def pipeline(name):
    make_system, kwargs = CONFIGS[name]
    return build_pipeline(make_system(), **kwargs)


def substituted(name, point, window, changes):
    """The refusal of a point's top-scale stream on the window with
    symbols substituted, {position: symbol}; point is a Point or the index
    of a seed-3 sample."""
    pipe = pipeline(name)
    if isinstance(point, int):
        point = sample_points(pipe.system, point + 1, seed=3)[point]
    stream = pipe.encode(point, pipe.kmax, window)
    symbols = list(stream.symbols)
    for t, symbol in changes.items():
        symbols[t - stream.a] = symbol
    with pytest.raises(MalformedStreamError) as info:
        pipe.decode(SymbolStream(stream.a, stream.b, symbols), pipe.kmax)
    return info.value


def wide(name):
    margin = pipeline(name).decode_margin()
    return (-200 - margin, 200 + margin)


def domain():
    # an identification codebook of the wrong itinerary has an empty domain
    pipe = pipeline("golden-k2")
    cb = build_identification_codebook(pipe.system, pipe.schedule, 2, 2, (("0",), ("1",)))
    with pytest.raises(MalformedStreamError) as info:
        cb.encode("01")
    return info.value


GOLDEN_SWEEP = ("golden-k2", 0, (-90, 90))
ODOMETER_SWEEP = ("odometer", 0, (-150, 150))
WITNESSES = {
    ("encode", "itinerary word %r not in codebook domain"): domain,
    ("decode", "codeword %r not in codebook image"):
        lambda: substituted(*GOLDEN_SWEEP, {-39: "|"}),
    ("build_conditional_codebook", "unknown context %r"):
        lambda: substituted(*GOLDEN_SWEEP, {-22: "1"}),
    ("_decode_scale1", "block [%d, %d) has impossible length"):
        lambda: substituted(*GOLDEN_SWEEP, {-90: "|"}),
    ("_decode_scale1", "singular stretch [%d, %d) too short"):
        lambda: substituted(*GOLDEN_SWEEP, {-30: "="}),
    ("_decode_scale1", "singular stretch %r has no readable prefix"):
        lambda: substituted("growing-k3", 0, wide("growing-k3"), {-31: "="}),
    ("_decode_scale_k", "no scale-%d markers found"):
        lambda: substituted(*ODOMETER_SWEEP, {-22: "1"}),
    ("_read_codewords", "scale-%d block [%d, %d): %s"):
        lambda: substituted("growing-k3", Point("000010", "0100", "00001", 0),
                            wide("growing-k3"), {-4: "]["}),
    ("_extract_period", "shadowed region content is not periodic"):
        lambda: substituted("growing-k3", 0, wide("growing-k3"), {-3: "]"}),
    ("_append_decoded_layer",): lambda: substituted(*GOLDEN_SWEEP, {14: "]"}),
    ("_check_render", "marker slot %d lacks its symbol"):
        lambda: substituted("golden-k3", Point("00001001000101010000",
                                               "01010100101000001001010101000101001",
                                               "00101001010001010100", -22),
                            wide("golden-k3"), {-98: "]["}),
    ("_check_render", "padding slot %d of a scale-%d block holds %r"):
        lambda: substituted(*GOLDEN_SWEEP, {0: "2"}),
    ("_check_render", "freed slot %d of a stretch holds %r"):
        lambda: substituted("golden-k3", 0, (-90, 90), {-89: "1"}),
    ("_check_render", "stretch content clashes with orbit %r at %d"):
        lambda: substituted(*GOLDEN_SWEEP, {-90: "2"}),
    ("_check_render", "free slot %d holds %r"):
        lambda: substituted("golden-k2", 9, wide("golden-k2"), {27: "2"}),
    ("_check_block_ends", "scale-%d labels %r at %d and %r at %d describe no point"):
        lambda: substituted(*ODOMETER_SWEEP, {-118: "2"}),
}


def _key(site):
    function, texts = site
    return (function, texts[0]) if texts else (function,)


def test_every_refusal_has_a_witness():
    assert sorted(map(_key, scan_refusals())) == sorted(WITNESSES)


# the one decode refusal that names a scale but no position
UNPLACED = {("_decode_scale_k", "no scale-%d markers found")}


@pytest.mark.parametrize("key", sorted(WITNESSES), ids=" ".join)
def test_the_witness_raises_its_refusal(key):
    sites = dict((_key(site), site[1]) for site in scan_refusals())
    error = WITNESSES[key]()
    matched = [k for k, texts in sites.items()
               if any(re.fullmatch(_pattern(text), str(error), re.S) for text in texts)]
    if sites[key]:
        assert matched == [key], str(error)
    else:
        assert key[0] in [frame.name for frame in traceback.extract_tb(error.__traceback__)]
    if key[0] != "encode":      # a decode refusal names where it stopped
        assert error.scale is not None
        assert (error.position is None) == (key in UNPLACED)


class TestRefusalOrder:
    """A decode raises the first refusal it meets: a layer's codewords are
    read before the render is compared, and the render is compared in
    position order, whatever role each slot has."""

    def test_a_stretch_clash_before_a_padding_slot(self):
        # -90 lies in the scale-1 stretch of '001', 0 is a scale-2 padding slot
        error = substituted(*GOLDEN_SWEEP, {-90: "2", 0: "2"})
        assert (str(error), error.scale, error.position) == \
            ("stretch content clashes with orbit '001' at -90", 1, -90)

    def test_a_refused_codeword_after_a_padding_slot(self):
        # -117 is a padding slot of a scale-2 block, -21 a codeword letter
        # of the scale-3 block from -76
        error = substituted(*ODOMETER_SWEEP, {-117: "2", -21: "o"})
        assert (str(error), error.scale, error.position) == \
            ("codeword 'o' not in codebook image", 3, -76)


def test_the_scan_reads_every_message_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        'def f(x):\n'
        '    raise MalformedStreamError("a %d" % x if x else "b", scale=1)\n'
        'class C:\n'
        '    def g(self, exc):\n'
        '        kept = MalformedStreamError(str(exc))\n'
        '        raise MalformedStreamError("c")\n')
    assert scan_refusals(path) == [("f", ("a %d", "b")), ("g", ()), ("g", ("c",))]
