"""Every refusal the package raises can be reached.

An AST scan lists every `raise` statement of src/shiftembed: its module,
its enclosing function, its lines and the literal texts its message can
take (both arms of a conditional message; none for a message that is
another error's text).  A site is keyed by its function and first text; a
site without literal texts by its function and the errors its handler
converts; a bare re-raise by its function and "raise".

WITNESSES maps each site to a call that raises from it: the raised error's
traceback ends on the site's lines, and its text is one of the site's
texts.  Where that text names a scale (scale-k, n_k, k=), a block (a span
or a block length) or a position (at, time, slot, position, from), a
package error carries it, and PROVENANCE holds the values the witness's
error carries.  A decode refusal of the codec also names its scale, and the
position where the decode stopped, a block's or region's start or a slot.
The witness of a budget wall (RETURN_SCAN_CAP, CHASE_LIMIT,
WORD_ENUM_BUDGET, the odometer's digit depth) runs under within_seconds,
the first three with the budget lowered, so a wall that stops failing
fast fails its test.  A site with neither a
witness nor an EXEMPT reason fails the census: a check that no input
reaches could not tell an input it should refuse from one it should not.
"""

import ast
import argparse
import dataclasses
import functools
import math
import os
import pathlib
import re
import tempfile
import traceback
from fractions import Fraction

import pytest

from check_reference import within_seconds
from encode_reference import bounded_stretch_points
from shiftembed import cli, markers, systems
from shiftembed import pipeline as pipeline_module
from shiftembed.blocks import BlockLayout, LayoutBlock, append_layer, span_keys
from shiftembed.codec import (PeriodicCode, SymbolStream, build_conditional_codebook,
                              build_first_codebook, build_identification_codebook,
                              build_periodic_code)
from shiftembed.entropy import (ScaleSchedule, _alpha_fraction, appendix_fullness_check,
                                build_schedule, check_radii, complete_to_point,
                                conditional_count, htop_estimate)
from shiftembed.errors import MalformedStreamError, ShiftEmbedError
from shiftembed.markers import (Interval, PeriodicNeighborhood, ReturnPartition,
                                _check_special_nesting, _tag_singular, return_partition)
from shiftembed.metrics import (EmpiricalMeasure, dN_distance, empirical_measure,
                                hausdorff_distance, measure_distance, stream_dN)
from shiftembed.pipeline import (build_pipeline, load_pipeline, precheck_pipeline,
                                 sample_points, save_pipeline, verify_pipeline)
from shiftembed.systems import (Odometer, OdometerPoint, Point, Sft, coordinate,
                                dyadic_odometer, enumerate_periodic, enumerate_words,
                                full_shift, golden_mean, itinerary, orbit_system, parse_point,
                                parse_system, periodic_orbits, product_coding, validate_point)
from shiftembed.words import kary_alphabet, kary_word

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "shiftembed"


def _texts(node):
    """The literal format strings a message argument can take."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _texts(node.left)
    if isinstance(node, ast.IfExp):
        return _texts(node.body) + _texts(node.orelse)
    return []


def _names(node):
    """The exception names an except clause catches."""
    if node is None:
        return ()
    return tuple(ast.unparse(e) for e in (node.elts if isinstance(node, ast.Tuple) else [node]))


@dataclasses.dataclass(frozen=True)
class Site:
    module: str
    function: str
    texts: tuple
    lines: range
    key: tuple


def scan_raises(path):
    """[Site] of every raise statement of a module, in order."""
    sites = []

    def visit(node, function, handler):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name, ())
                continue
            if isinstance(child, ast.ExceptHandler):
                visit(child, function, _names(child.type))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                texts = tuple(_texts(exc.args[0])) if isinstance(exc, ast.Call) and exc.args \
                    else ()
                key = (function, "raise") if exc is None else \
                    (function, texts[0]) if texts else (function,) + handler
                sites.append(Site(path.stem, function, texts,
                                  range(child.lineno, child.end_lineno + 1), key))
            visit(child, function, handler)

    visit(ast.parse(path.read_text()), None, ())
    return sites


@functools.cache
def package_sites():
    return [site for path in sorted(PACKAGE.glob("*.py")) for site in scan_raises(path)]


def _pattern(text):
    """A regular expression for the texts a format string gives."""
    parts = re.split(r"(%[drs]|%\.\d+f)", text)
    return "".join(".+" if part.startswith("%") and len(part) > 1 else re.escape(part)
                   for part in parts)


# the provenance a literal text names
NAMES = {
    "scale": r"scale[- ]%d|n_%d|k=%d",
    "block": r"(block|stretch) (%r|\[%d, %d\))|block of length %d",
    "position": r"\b(at|time|slot|position|from) %d",
}


# -- witnesses: each returns the error its call raises ---------------------------


def raised(call, *args, **kwargs):
    """The error that call(*args, **kwargs) raises."""
    try:
        call(*args, **kwargs)
    except Exception as exc:        # noqa: BLE001 - the census reads any error
        return exc
    raise AssertionError("%r raised nothing" % (call,))


def wall(module, budget, value, call, *args):
    """The error a budget wall raises once the budget is lowered to value,
    within 10 s."""
    with pytest.MonkeyPatch.context() as patch, within_seconds(10):
        patch.setattr(module, budget, value)
        return raised(call, *args)


CONFIGS = {
    "golden-k2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
    "golden-k3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
    "growing-k3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 1))),
    "odometer": (lambda: dyadic_odometer(8), dict(K=2, kmax=3, N_cert=128)),
    "three-scales": (golden_mean, dict(K=3, kmax=3, C=4.0, N_cert=128)),
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


def cli_error(*argv):
    args = cli._parser().parse_args(argv)
    return raised(args.func, args)


BUILD = ("build", "--system", "system.txt", "--out", "out")


def two_cycles():
    """Two disjoint 2-cycles: 4 points of least period 2, the 2-shift 2."""
    return Sft(4, matrix=[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def periodic_points_build():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.txt")
        with open(path, "w") as fh:
            fh.write("kind: sft\nalphabet: 4\nmatrix: [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]\n")
        return cli_error("build", "--system", path, "--K", "2", "--kmax", "1", "--C", "0",
                         "--out", os.path.join(tmp, "out"))


def golden_code_text(old, new):
    """The golden K=2 periodic code file with one line replaced."""
    text = pipeline("golden-k2").periodic_code.serialize()
    assert text.count(old) == 1
    return text.replace(old, new)


def code_parse(text):
    return raised(PeriodicCode.parse, text, golden_mean(), 9, 2)


def schedule_text(old, new):
    text = pipeline("golden-k2").schedule.serialize()
    assert text.count(old) == 1
    return raised(ScaleSchedule.parse, text.replace(old, new))


def shifted_schedule(**changes):
    return dataclasses.replace(pipeline("golden-k2").schedule, **changes)


def short_context():
    # memory 2, a one-letter context: the refinement cannot read its states
    sched = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 1), n=(5, 11), nprime=(5, 16),
                          r=(5, 12), periodic=True)
    return raised(build_conditional_codebook, Sft(2, forbidden=("111",)), sched, 2, 1, ("0",))


def decoded(name="golden-k2"):
    pipe = pipeline(name)
    point = sample_points(pipe.system, 1, seed=3)[0]
    return pipe.decode(pipe.encode(point, 2, wide(name)), 2)


def uncertified_time_zero():
    # one code letter over the whole window invert asks for: no orbit's code
    # and no marker, so the decode certifies nothing
    pipe = pipeline("golden-k2")
    margin = pipe.schedule.decode_radius(1)
    return raised(pipe.invert, SymbolStream(-margin, margin, ["2"] * (2 * margin + 1)), 1)


def chase_wall():
    # a lone member decision chases past a swept range's edge at depth 1
    pipe = pipeline("golden-k2")
    point = Point("0100100010", "0010010100101", "00100010001", 0)
    return wall(markers, "CHASE_LIMIT", 0, pipe.encode, point, 2, (-446, 446))


def scan_wall():
    # tails of least period 31 keep returning: no quiet bound ends the scan
    pipe = pipeline("golden-k2")
    point = bounded_stretch_points()[0]
    return wall(markers, "RETURN_SCAN_CAP", 1, return_partition, point, pipe.stack, 1,
                (-60, 60))


def odometer_depth_wall():
    # a depth-2 dyadic odometer has period 4, below n_1 = 24: the tower
    # deepens to the system's depth and refuses there
    with within_seconds(10):
        return raised(build_pipeline, dyadic_odometer(2), K=2, kmax=1)


def scale1_partition(point):
    pipe = pipeline("golden-k2")
    runtime = pipe.stack.runtime(point)
    return return_partition(point, pipe.stack, 1, (-60, 60), runtime=runtime), runtime


def no_interior_points():
    # the longest regular gap, 2 n'_1 - 1, tagged as a stretch
    part, runtime = scale1_partition(bounded_stretch_points()[5])
    iv = max((iv for iv in part.intervals if iv.kind == "regular"),
             key=lambda iv: iv.end - iv.start)
    return raised(_tag_singular, Interval(iv.start, iv.end, "singular"),
                  pipeline("golden-k2").stack, 1, part.computed_range, runtime)


def covering_violated():
    # two regular intervals tagged as one stretch: its middle holds a return
    part, runtime = scale1_partition(sample_points(golden_mean(), 1, seed=3)[0])
    i = next(i for i, (a, b) in enumerate(zip(part.intervals, part.intervals[1:]))
             if a.kind == b.kind == "regular")
    return raised(_tag_singular, Interval(part.intervals[i].start,
                                          part.intervals[i + 1].end, "singular"),
                  pipeline("golden-k2").stack, 1, part.computed_range, runtime)


def not_nested():
    prev = ReturnPartition(scale=1, intervals=[Interval(None, 0, "regular"),
                                               Interval(0, 10, "singular"),
                                               Interval(10, None, "regular")],
                           computed_range=(-20, 30))
    part = ReturnPartition(scale=2, intervals=[Interval(12, 20, "singular", special=True)],
                           computed_range=(-20, 30))
    return raised(_check_special_nesting, part, prev)


def layout_refusal(n, part1, part2, lo_hi):
    """The refusal of a scale-2 layout over scale-1 regular blocks."""
    nprime = (n[0], n[0] + n[1])
    sched = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 0), n=n, nprime=nprime,
                          r=n, periodic=True)
    layout = BlockLayout(schedule=sched, lo=lo_hi[0], hi=lo_hi[1])
    append_layer(layout, [Interval(s, e, "regular") for s, e in part1])
    return raised(append_layer, layout, [Interval(s, e, "regular") for s, e in part2])


def precheck_over_capacity():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "conditional_count", lambda system, m, mp, n: 2 ** n)
        return raised(precheck_pipeline, pipeline("golden-k2"))


def precheck_dropped_orbit():
    pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    pipe.stack[1].pernbhd._is_orbit["01"] = False
    return raised(precheck_pipeline, pipe)


def unreadable_periodic_code():
    with tempfile.TemporaryDirectory() as tmp:
        save_pipeline(pipeline("golden-k2"), tmp)
        os.remove(os.path.join(tmp, "periodic_code.txt"))
        return raised(load_pipeline, tmp)


def fresh_golden():
    """A golden mean shift with empty caches."""
    return Sft(2, forbidden=("11",))


POINT = Point("0", "0100", "0", 0)
ODO = dyadic_odometer(3)
GOLDEN_SWEEP = ("golden-k2", 0, (-90, 90))
ODOMETER_SWEEP = ("odometer", 0, (-150, 150))
WITNESSES = {
    # blocks
    ("span_keys", "spans overlap or run backwards: %s"):
        lambda: raised(span_keys, [LayoutBlock(0, 5, "regular"),
                                   LayoutBlock(3, 8, "regular")]),
    ("_build_scale_k", "scale-%d block %r has length %d outside [%d, %d)"):
        lambda: layout_refusal((9, 20), [(i * 8, i * 8 + 8) for i in range(4)], [(8, 16)],
                               (0, 31)),
    ("_build_scale_k", "scale-%d block %r has no slot for its marker"):
        lambda: raised(pipeline("three-scales").encode, Point("01000", "10100000", "010", -1),
                       3, wide("three-scales")),
    ("_build_scale_k", "scale-%d block %r: %d filling slots needed, %d available"):
        lambda: layout_refusal((20, 100), [(i * 20, i * 20 + 20) for i in range(5)],
                               [(0, 100)], (0, 99)),
    # cli
    ("_scale", "--scale must be in 1..%d, not %d"):
        lambda: raised(cli._scale, argparse.Namespace(scale=0), pipeline("golden-k2")),
    ("_samples", "--samples must be at least 1, not %d"):
        lambda: raised(cli._samples, argparse.Namespace(samples=0)),
    ("cmd_build", "--K must be in 2..%d, not %d"):
        lambda: cli_error(*BUILD, "--K", "1", "--kmax", "2"),
    ("cmd_build", "--kmax must be at least 1, not %d"):
        lambda: cli_error(*BUILD, "--K", "2", "--kmax", "0"),
    ("cmd_build", "--N-cert must be at least 2, not %d"):
        lambda: cli_error(*BUILD, "--K", "2", "--kmax", "2", "--N-cert", "1"),
    ("cmd_build", "ScheduleError"):
        lambda: cli_error(*BUILD, "--K", "2", "--kmax", "2", "--m", "1,0"),
    ("cmd_build", "PeriodicPointsError"): periodic_points_build,
    # codec: streams and codebooks
    ("__post_init__", "symbol count does not match window"):
        lambda: raised(SymbolStream, 0, 2, ["1"]),
    ("get", "position %d outside stream window [%d, %d]"):
        lambda: raised(SymbolStream(0, 0, ["1"]).get, 5),
    ("from_text", "stream needs 'window' and 'symbols'"):
        lambda: raised(SymbolStream.from_text, "window: 0:1\n"),
    ("from_text", "stream token %r is not one of B1 B2 LB RB DB FR UN or a code letter"):
        lambda: raised(SymbolStream.from_text, "window: 0:0\nsymbols: XX\n"),
    ("from_text", "stream has %d symbols for window %d:%d"):
        lambda: raised(SymbolStream.from_text, "window: 0:1\nsymbols: 1\n"),
    ("from_text", "stream has %d resolution entries for %d symbols"):
        lambda: raised(SymbolStream.from_text, "window: 0:0\nsymbols: 1\nresolution: 1 1\n"),
    ("_setup", "codebook domain %d exceeds K^%d"):
        lambda: raised(build_first_codebook, golden_mean(), pipeline("golden-k2").schedule, 9, 1),
    ("encode", "itinerary word %r not in codebook domain"): domain,
    ("_codeword", "codeword of length %d cannot fit %d slots"):
        lambda: raised(build_first_codebook(golden_mean(), pipeline("golden-k2").schedule,
                                            9).encode_block, POINT, 0, 0),
    ("decode", "codeword %r not in codebook image"):
        lambda: substituted(*GOLDEN_SWEEP, {-39: "|"}),
    ("__init__", "context %r is shorter than the memory"): short_context,
    ("build_first_codebook", "block length %d below n_1 = %d"):
        lambda: raised(build_first_codebook, golden_mean(), pipeline("golden-k2").schedule, 1),
    ("build_conditional_codebook", "conditional codebooks start at scale 2"):
        lambda: raised(build_conditional_codebook, golden_mean(),
                       pipeline("golden-k2").schedule, 1, 9, None),
    ("build_conditional_codebook", "unknown context %r"):
        lambda: substituted(*GOLDEN_SWEEP, {-22: "1"}),
    ("build_conditional_codebook", "conditional code needs %d letters, budget %d"):
        lambda: raised(build_conditional_codebook, golden_mean(),
                       pipeline("growing-k3").schedule, 2, 2, ("0", "0")),
    ("__init__", "periodic code prefix collision: code word %r of orbit %r"):
        lambda: raised(PeriodicCode, 3, 2, {"0": "1", "01": "11"}),
    ("parse", "periodic code header must be 'n1: %d' and 'K: %d'"):
        lambda: code_parse("n1: 1\nK: 2\n"),
    ("parse", "periodic code line '%s: %s'"):
        lambda: code_parse("n1: 9\nK: 2\nbogus: x\n"),
    ("parse", "periodic code names %d orbits, the system has %d of period <= %d"):
        lambda: code_parse("n1: 9\nK: 2\n"),
    ("parse", "code word %r of orbit %r %s"):
        lambda: code_parse(golden_code_text("orbit: 0 -> 1\n", "orbit: 0 -> 12\n")),
    ("parse", "ShiftEmbedError"):
        lambda: code_parse(golden_code_text(
            "orbit: 00101 -> %s\n" % pipeline("golden-k2").periodic_code.orbit_code["00101"],
            "orbit: 00101 -> %s\n" % pipeline("golden-k2").periodic_code.orbit_code["00001"])),
    ("build_periodic_code", "periodic-code precondition #Per_{n1} < K^{n1-1} fails"):
        lambda: raised(build_periodic_code, golden_mean(), 2, 2),
    ("build_periodic_code", "periodic code exhausted at period %d"):
        lambda: raised(build_periodic_code, two_cycles(), 2, 6),
    # codec: encode, decode and invert
    ("encode_k", "scale %d out of range"):
        lambda: raised(pipeline("golden-k2").encode, POINT, 0, (-5, 5)),
    ("itinerary_list", "window %r not certified at scale %d (have %r)"):
        lambda: raised(decoded().itinerary_list, 2, (-1000, 0)),
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
    ("_append_decoded_layer", "SpanOrderError", "CapacityError"):
        lambda: substituted(*GOLDEN_SWEEP, {14: "]"}),
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
    ("decode_k", "scale %d out of range"):
        lambda: raised(pipeline("golden-k2").decode, SymbolStream(0, 0, ["1"]), 3),
    ("invert", "invert at scale %d needs the stream to cover [%d, %d]"):
        lambda: raised(pipeline("golden-k2").invert, SymbolStream(0, 0, ["1"]), 1),
    ("invert", "time zero not certified at scale %d"): uncertified_time_zero,
    # entropy
    ("_alpha_fraction", "alpha must be positive (h_top >= log K)"):
        lambda: raised(_alpha_fraction, 2.0 ** -33),
    ("htop_estimate", "nmax must be >= 2"): lambda: raised(htop_estimate, golden_mean(), 1),
    ("conditional_count", "need mp >= m >= 0"):
        lambda: raised(conditional_count, golden_mean(), 1, 0, 5),
    ("conditional_count", "n must be >= 1"):
        lambda: raised(conditional_count, golden_mean(), 0, 1, 0),
    ("parse", "schedule needs '%s'"): lambda: raised(ScaleSchedule.parse, "K: 2\n"),
    ("parse", "schedule periodic flag must be 0 or 1, not %r"):
        lambda: schedule_text("periodic: 1", "periodic: 2"),
    ("parse", "schedule lists m, n, nprime and r must be nonempty and of one length"):
        lambda: schedule_text("n: [9, 19]", "n: [9]"),
    ("parse", "schedule nprime %s is not the running sums of n %s"):
        lambda: schedule_text("nprime: [9, 28]", "nprime: [9, 29]"),
    ("parse", "schedule r %s is not max(m_k + n_k, n_k) of m %s and n %s"):
        lambda: schedule_text("r: [9, 19]", "r: [9, 20]"),
    ("check_layout_capacity", "scale-%d block of length %d: %d slots needed, %s available"):
        lambda: raised(build_schedule, golden_mean(), K=3, kmax=3, C=0.0),
    ("check_radii", "m must be %d nondecreasing radii >= 0, not %s"):
        lambda: raised(check_radii, (1, 0), 2),
    ("build_schedule", "headroom C must be finite, not %r"):
        lambda: raised(build_schedule, golden_mean(), K=2, kmax=1, C=math.inf),
    ("build_schedule", "infeasible: h_top = %.6f >= log K = %.6f"):
        lambda: raised(build_schedule, full_shift(2), K=2, kmax=1),
    ("build_schedule", "%d points of least period %d, more than the full %d-shift's %d"):
        lambda: raised(build_schedule, two_cycles(), K=2, kmax=1, C=0.0),
    ("build_schedule", "no admissible n_%d within certified range %d"):
        lambda: raised(build_schedule, golden_mean(), K=2, kmax=3, C=0.0),
    ("build_schedule", "growth inequality n'_k < n_{k+1} fails at k=%d"):
        lambda: raised(build_schedule, golden_mean(), K=4, kmax=3, C=0.0),
    ("appendix_fullness_check", "fullness check requires a word system"):
        lambda: raised(appendix_fullness_check, ODO, 2, 3),
    ("appendix_fullness_check", "precondition A == K violated"):
        lambda: raised(appendix_fullness_check, golden_mean(), 3, 3),
    ("complete_to_point", "target word %r is not admissible"):
        lambda: raised(complete_to_point, golden_mean(), "11", 0),
    # markers
    ("separation_check", "radius %d below period bound %d"):
        lambda: raised(PeriodicNeighborhood, golden_mean(), 9, 5),
    ("_beaten_by", "rank chase deeper than %d frames at scale %d"): chase_wall,
    ("__init__", "odometer depth %d too shallow for n_%d = %d"): odometer_depth_wall,
    ("interval_at", "time %d outside computed range %r"):
        lambda: raised(scale1_partition(bounded_stretch_points()[0])[0].interval_at, 10 ** 6),
    ("_scan_for_return", "no return within %d steps from %d"): scan_wall,
    ("_tag_singular", "singular stretch %r has no interior points"): no_interior_points,
    ("_tag_singular", "covering violated: time %d of a singular stretch matches no orbit"):
        covering_violated,
    ("_check_special_nesting",
     "scale-%d special singular block %r not nested in previous scale at %d"): not_nested,
    # metrics
    ("dN_distance", "N must be >= 0"): lambda: raised(dN_distance, POINT, POINT, -1),
    ("stream_dN", "streams too short for d_N at N = %d"):
        lambda: raised(stream_dN, SymbolStream(-1, 1, ["1"] * 3),
                       SymbolStream(-1, 1, ["1"] * 3), 100),
    ("__init__", "frequencies sum to %r, not 1"):
        lambda: raised(EmpiricalMeasure, 1, {"0": Fraction(1, 2)}, 2),
    ("empirical_measure", "need n >= 1 and L >= 1"):
        lambda: raised(empirical_measure, POINT, 0, 1),
    ("measure_distance", "measures must resolve words up to the enumeration depth"):
        lambda: raised(measure_distance, empirical_measure(POINT, 1, 4),
                       empirical_measure(POINT, 1, 4), "01", 3),
    ("hausdorff_distance", "need nonempty sets of measures"):
        lambda: raised(hausdorff_distance, [], [empirical_measure(POINT, 1, 4)], "01"),
    # pipeline
    ("build_pipeline", "override schedule fails re-verification:\n%s"):
        lambda: raised(build_pipeline, golden_mean(), 2, 2, schedule=shifted_schedule(
            n=(5, 7), nprime=(5, 12), r=(5, 7))),
    ("_check_periodic_flag",
     "schedule has periodic: %d, but the %s system needs periodic: %d"):
        lambda: raised(build_pipeline, golden_mean(), 2, 2,
                       schedule=shifted_schedule(periodic=False)),
    ("precheck_pipeline", "conditional capacity fails at scale %d, length %d: %d > K^%d"):
        precheck_over_capacity,
    ("precheck_pipeline", "tower verification failed at scale %d:\n%s"): precheck_dropped_orbit,
    ("verify_pipeline", "verify_pipeline needs at least one sample point"):
        lambda: raised(verify_pipeline, pipeline("golden-k2"), points=[]),
    ("load_pipeline", "%s: %s"): unreadable_periodic_code,
    # systems
    ("__init__", "alphabet size out of range: %r"): lambda: raised(Sft, 0, forbidden=()),
    ("__init__", "exactly one of forbidden/matrix must be given"): lambda: raised(Sft, 2),
    ("__init__", "matrix must be %d x %d"): lambda: raised(Sft, 2, matrix=[[1]]),
    ("__init__", "matrix entries must be 0/1"):
        lambda: raised(Sft, 2, matrix=[[1, 2], [1, 1]]),
    ("__init__", "forbidden words must be nonempty"): lambda: raised(Sft, 2, forbidden=("",)),
    ("__init__", "forbidden word %r uses letters outside the alphabet"):
        lambda: raised(Sft, 2, forbidden=("2",)),
    ("_build_graph", "block graph too large: %d candidate %d-blocks"):
        lambda: wall(systems, "WORD_ENUM_BUDGET", 1000, Sft, 2, ("0" * 11,)),
    ("_build_graph", "forbidden words admit no bi-infinite sequence"):
        lambda: raised(Sft, 2, forbidden=("0", "1")),
    ("words", "%d admissible %d-words exceed budget"):
        lambda: wall(systems, "WORD_ENUM_BUDGET", 10, fresh_golden().words, 10),
    ("word_at", "word index out of range"): lambda: raised(golden_mean().word_at, 10 ** 6, 5),
    ("orbit_system", "alphabet size out of range"): lambda: raised(orbit_system, 0, "0"),
    ("orbit_system", "orbit word must be a nonempty word over the alphabet"):
        lambda: raised(orbit_system, 2, ""),
    ("__init__", "odometer base entries must be >= 2"): lambda: raised(Odometer, [1]),
    ("modulus", "odometer depth %d out of range"): lambda: raised(ODO.modulus, 4),
    ("residue_of_digits", "digit %r out of range for base %d"):
        lambda: raised(OdometerPoint, ODO, [2, 0, 0]),
    ("__init__", "left and right periods must be nonempty"): lambda: raised(Point, "", "", "0"),
    ("__init__", "expected %d digits, got %d"): lambda: raised(OdometerPoint, ODO, [0]),
    ("validate_point", "odometer point bound to a different system"):
        lambda: raised(validate_point, ODO, OdometerPoint(dyadic_odometer(4), [0] * 4)),
    ("validate_point", "word point supplied for a non-word system"):
        lambda: raised(validate_point, ODO, POINT),
    ("validate_point", "%s period uses letters outside the alphabet"):
        lambda: raised(validate_point, golden_mean(), Point("2", "", "0")),
    ("validate_point", "%s period %r is not cyclically admissible"):
        lambda: raised(validate_point, golden_mean(), Point("1", "", "0")),
    ("validate_point", "core uses letters outside the alphabet"):
        lambda: raised(validate_point, golden_mean(), Point("0", "2", "0")),
    ("validate_point", "point window %r hits a forbidden word"):
        lambda: raised(validate_point, golden_mean(), Point("0", "11", "0")),
    ("coordinate", "odometer points have digits, not letters; use itinerary"):
        lambda: raised(coordinate, OdometerPoint(ODO, [0, 0, 0]), 0),
    ("itinerary", "empty window"): lambda: raised(itinerary, golden_mean(), POINT, 0, (1, 0)),
    ("product_coding", "need at least one radius"):
        lambda: raised(product_coding, golden_mean(), POINT, (), (0, 1)),
    ("enumerate_words", "n must be >= 1"): lambda: raised(enumerate_words, golden_mean(), 0),
    ("enumerate_periodic", "n must be >= 1"):
        lambda: raised(enumerate_periodic, golden_mean(), 0),
    ("periodic_orbits",
     "orbits of period <= %d need the %d admissible %d-words, over WORD_ENUM_BUDGET = %d"):
        lambda: wall(systems, "WORD_ENUM_BUDGET", 10, periodic_orbits, fresh_golden(), 10),
    ("_parse_kv", "%s line %d: expected 'key: value'"):
        lambda: raised(parse_system, "kind sft\n"),
    ("_parse_int", "%s must be an integer, not %r"):
        lambda: raised(parse_system, "kind: sft\nalphabet: two\nforbidden: [11]\n"),
    ("_parse_finite", "%s must be a finite number, not %r"):
        lambda: cli_error(*BUILD, "--K", "2", "--kmax", "2", "--C", "abc"),
    ("_parse_list", "%s must be a [..] list, not %r"):
        lambda: raised(parse_system, "kind: sft\nalphabet: 2\nforbidden: 11\n"),
    ("_parse_window", "%s must be a:b with integers a <= b, not %r"):
        lambda: raised(SymbolStream.from_text, "window: 3:1\nsymbols: 1\n"),
    ("_parse_fraction", "%s must be p/q with integers p and q > 0, not %r"):
        lambda: schedule_text("alpha: ", "alpha: x/y #"),
    ("parse_system", "unknown kind %r"): lambda: raised(parse_system, "kind: tree\n"),
    ("parse_system", "%s spec needs '%s'"): lambda: raised(parse_system, "kind: sft\n"),
    ("parse_system", "sft spec needs 'forbidden' or 'matrix'"):
        lambda: raised(parse_system, "kind: sft\nalphabet: 2\n"),
    ("parse_point", "digits given for a word system"):
        lambda: raised(parse_point, "digits: [0]\n", golden_mean()),
    ("parse_point", "point spec needs '%s'"):
        lambda: raised(parse_point, "left: 0\n", golden_mean()),
    ("parse_point", "core must be '<word>@<anchor>'"):
        lambda: raised(parse_point, "left: 0\ncore: 0\nright: 0\n", golden_mean()),
    # words
    ("kary_alphabet", "K out of supported range 1..%d"): lambda: raised(kary_alphabet, 0),
    ("kary_word", "index out of range for K^length"): lambda: raised(kary_word, 8, 3, 2),
}

# sites no witness reaches by their own text, each with its reason
EXEMPT = {
    ("_read_codewords", "raise"): "a bare re-raise of a codebook's refusal, which it names "
                                  "by scale and block start; the codebook's raise is witnessed",
}

# the scale, block and position each witness's error carries
PROVENANCE = {
    ("span_keys", "spans overlap or run backwards: %s"): {"block": (3, 8)},
    ("_build_scale_k", "scale-%d block %r has length %d outside [%d, %d)"):
        {"scale": 2, "block": (8, 16)},
    ("_build_scale_k", "scale-%d block %r has no slot for its marker"):
        {"scale": 3, "block": (-24, 45)},
    ("_build_scale_k", "scale-%d block %r: %d filling slots needed, %d available"):
        {"scale": 2, "block": (0, 100)},
    ("get", "position %d outside stream window [%d, %d]"): {"position": 5},
    ("_setup", "codebook domain %d exceeds K^%d"): {"scale": 1, "block": 9},
    ("_codeword", "codeword of length %d cannot fit %d slots"): {"scale": 1, "block": 9},
    ("build_conditional_codebook", "conditional code needs %d letters, budget %d"):
        {"scale": 2, "block": 2},
    ("build_periodic_code", "periodic code exhausted at period %d"): {"scale": 1, "block": 2},
    ("itinerary_list", "window %r not certified at scale %d (have %r)"):
        {"scale": 2, "position": None},
    ("invert", "invert at scale %d needs the stream to cover [%d, %d]"): {"scale": 1},
    ("invert", "time zero not certified at scale %d"): {"scale": 1, "position": 0},
    ("check_layout_capacity", "scale-%d block of length %d: %d slots needed, %s available"):
        {"scale": 3, "block": 30},
    ("build_schedule", "no admissible n_%d within certified range %d"): {"scale": 3},
    ("build_schedule", "growth inequality n'_k < n_{k+1} fails at k=%d"): {"scale": 2},
    ("_beaten_by", "rank chase deeper than %d frames at scale %d"): {"scale": 1},
    ("__init__", "odometer depth %d too shallow for n_%d = %d"): {"scale": 1},
    ("interval_at", "time %d outside computed range %r"): {"scale": 1, "position": 10 ** 6},
    ("_scan_for_return", "no return within %d steps from %d"): {"scale": 1, "position": -78},
    ("_tag_singular", "singular stretch %r has no interior points"):
        {"scale": 1, "block": (56, 73)},
    ("_tag_singular", "covering violated: time %d of a singular stretch matches no orbit"):
        {"scale": 1, "position": -13},
    ("_check_special_nesting",
     "scale-%d special singular block %r not nested in previous scale at %d"):
        {"scale": 2, "block": (12, 20), "position": 15},
    ("precheck_pipeline", "conditional capacity fails at scale %d, length %d: %d > K^%d"):
        {"scale": 2, "block": 19},
    ("precheck_pipeline", "tower verification failed at scale %d:\n%s"): {"scale": 1},
    # decode refusals
    ("decode", "codeword %r not in codebook image"): {"scale": 1, "position": -39},
    ("build_conditional_codebook", "unknown context %r"): {"scale": 2, "position": -14},
    ("_decode_scale1", "block [%d, %d) has impossible length"):
        {"scale": 1, "block": (-90, -22), "position": -90},
    ("_decode_scale1", "singular stretch [%d, %d) too short"):
        {"scale": 1, "block": (-39, -22), "position": -39},
    ("_decode_scale1", "singular stretch %r has no readable prefix"):
        {"scale": 1, "block": (-40, -22), "position": -40},
    ("_decode_scale_k", "no scale-%d markers found"): {"scale": 3, "position": None},
    ("_read_codewords", "scale-%d block [%d, %d): %s"):
        {"scale": 2, "block": (-4, 7), "position": -4},
    ("_extract_period", "shadowed region content is not periodic"):
        {"scale": 2, "position": 11},
    ("_append_decoded_layer", "SpanOrderError", "CapacityError"): {"scale": 2, "position": 37},
    ("_check_render", "marker slot %d lacks its symbol"): {"scale": 2, "position": -100},
    ("_check_render", "padding slot %d of a scale-%d block holds %r"):
        {"scale": 2, "position": 0},
    ("_check_render", "freed slot %d of a stretch holds %r"): {"scale": 1, "position": -85},
    ("_check_render", "stretch content clashes with orbit %r at %d"):
        {"scale": 1, "position": -90},
    ("_check_render", "free slot %d holds %r"): {"scale": 2, "position": 27},
    ("_check_block_ends", "scale-%d labels %r at %d and %r at %d describe no point"):
        {"scale": 2, "position": -76},
}


def test_every_refusal_has_a_witness():
    keys = [site.key for site in package_sites()]
    assert len(keys) == len(set(keys)), "two raise sites share a key"
    assert not set(WITNESSES) & set(EXEMPT)
    assert sorted(keys) == sorted(set(WITNESSES) | set(EXEMPT))
    assert set(PROVENANCE) <= set(WITNESSES)


# the one decode refusal that names a scale but no position
UNPLACED = {("_decode_scale_k", "no scale-%d markers found")}


def witness_id(key):
    """A witness's test id: its key, but a function's one site keyed by the
    errors its handler converts is named by the function alone."""
    keyed_by_handler = [site.key for site in package_sites() if site.function == key[0]
                        and not site.texts and site.key[1:] != ("raise",)]
    return key[0] if keyed_by_handler == [key] else " ".join(key)


@pytest.mark.parametrize("key", sorted(WITNESSES), ids=witness_id)
def test_the_witness_raises_its_refusal(key):
    site = {site.key: site for site in package_sites()}[key]
    error = WITNESSES[key]()
    frame = traceback.extract_tb(error.__traceback__)[-1]
    assert (pathlib.Path(frame.filename).stem, frame.lineno in site.lines) == \
        (site.module, True), "%s raised from %s:%d" % (error, frame.filename, frame.lineno)
    matched = [text for text in site.texts
               if re.fullmatch(_pattern(text), str(error), re.S)]
    assert matched or not site.texts, str(error)
    named = {attr for attr, pattern in NAMES.items() for text in matched
             if isinstance(error, ShiftEmbedError) and re.search(pattern, text)}
    provenance = PROVENANCE.get(key, {})
    assert named <= set(provenance), "the text names %s" % sorted(named - set(provenance))
    assert {attr: getattr(error, attr) for attr in provenance} == provenance
    if isinstance(error, MalformedStreamError) and key[0] != "encode":
        # a decode refusal names where it stopped
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
        '        try:\n'
        '            pass\n'
        '        except (KeyError, ValueError) as exc:\n'
        '            raise MalformedStreamError(str(exc))\n'
        '        except OSError:\n'
        '            raise\n'
        '        raise MalformedStreamError(\n'
        '            "c")\n')
    assert [(site.module, site.function, site.texts, site.lines, site.key)
            for site in scan_raises(path)] == [
        ("m", "f", ("a %d", "b"), range(2, 3), ("f", "a %d")),
        ("m", "g", (), range(8, 9), ("g", "KeyError", "ValueError")),
        ("m", "g", (), range(10, 11), ("g", "raise")),
        ("m", "g", ("c",), range(11, 13), ("g", "c")),
    ]


def test_a_site_that_names_a_scale_and_carries_none_fails(monkeypatch):
    """The provenance check reads the text: a witness whose error drops the
    scale its text names fails it."""
    key = ("_beaten_by", "rank chase deeper than %d frames at scale %d")
    monkeypatch.setitem(PROVENANCE, key, {})
    with pytest.raises(AssertionError, match="the text names"):
        test_the_witness_raises_its_refusal(key)
