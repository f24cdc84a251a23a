"""Byte-identity guard: pinned digests of what the program emits.

Performance work on the tower, layout and codec paths must not change a
single output byte.  These tests pin SHA-256 digests (first 16 hex digits)
of encoded streams (window, symbols and resolution), of decode results
(certified windows, itineraries and orbits, or the exception type and
text) of those streams and of seeded single-symbol mutations of them, and
of the `verify_pipeline` lines, for sampled points on four
configurations: golden mean K=2 and K=3, the dyadic odometer and the orbit
system of "001"; the round trips and seeded mutations of golden K=3 with a
growing radius; the streams of long-tail golden points; and the block
layouts (the role of every position and each layer's free slots) that an
encode context and a decode lay out for the golden, long-tail and
odometer points and for golden K=3 with a growing radius.  They also
pin every file that `save_pipeline` writes for those configurations and
for a CLI `build`, and the greedy periodic code of five more (system, K,
n_1), with the candidates it draws.  A change that moves a digest changed the
output.
"""

import hashlib
import os
import random

import pytest

from check_reference import lexicographic_periodic_code
from encode_reference import long_tail_points
from layout_reference import dump_lines, record_layouts
from shiftembed import codec
from shiftembed.cli import main
from shiftembed.codec import SymbolStream, build_periodic_code
from shiftembed.errors import ShiftEmbedError
from shiftembed.pipeline import (build_pipeline, load_pipeline, precheck_pipeline,
                                 sample_points, save_pipeline, verify_pipeline)
from shiftembed.systems import Point, Sft, dyadic_odometer, golden_mean, orbit_system
from shiftembed.words import kary_alphabet

WINDOW = (-200, 200)
SAMPLES = 10
SEED = 29

CONFIGS = {
    "golden-k2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
    "golden-k3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
    "odometer": (lambda: dyadic_odometer(8), dict(K=2, kmax=3, N_cert=128)),
    "orbit001": (lambda: orbit_system(2, "001"), dict(K=2, kmax=1, C=0.0, m=(0,))),
}

# golden K=3 with a growing radius, m = (0, 1): the one pinned decode whose
# scale-2 singular regions refine the scale-1 labels to a wider radius
GROWING_K3 = (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 1)))

# The point of tests/test_codec.py::TestStreams::test_roundtrip_regular_block_inside_singular:
# the layout moves the start of its scale-2 block [-2, 7) n_1 + 1 into a
# singular stretch, so the block is shorter than n_2.  The decoder refused it
# while it checked the raw return-gap range; its decode digest pins the
# round-trip it has since it checks ScaleSchedule.layout_bounds.
DEFECT_POINT = Point("10010", "101010010101010010010000010001000100100000", "010", -7)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _decode_text(pipe, stream, k):
    try:
        res = pipe.decode(stream, k)
    except ShiftEmbedError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    lines = []
    for l in sorted(res.itineraries):
        cert = res.certified.get(l)
        if cert is None:
            lines.append("scale %d uncertified" % l)
            continue
        lo, hi = cert
        lines.append("scale %d window %d:%d %r" % (
            l, lo, hi, res.itinerary_list(l, cert)))
    lines.append("orbits %r" % (res.orbits,))
    return "\n".join(lines)


def _points(name, system):
    points = sample_points(system, SAMPLES, seed=SEED)
    if name == "golden-k2":
        points.append(DEFECT_POINT)
    return points


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def config(request):
    make_system, kwargs = CONFIGS[request.param]
    system = make_system()
    return request.param, system, build_pipeline(system, **kwargs)


def roundtrip_digests(name, system, pipe):
    """(stream digest, decode digest) per point, at the top scale."""
    a, b = WINDOW
    margin = pipe.decode_margin()
    out = []
    for point in _points(name, system):
        try:
            stream = pipe.encode(point, pipe.kmax, (a - margin, b + margin))
        except ShiftEmbedError as exc:
            out.append((_digest("%s: %s" % (type(exc).__name__, exc)), None))
            continue
        out.append((_digest(stream.to_text()),
                    _digest(_decode_text(pipe, stream, pipe.kmax))))
    return out


MUTATIONS = 10


def malformed_digest(name, system, pipe):
    """One digest over the decode texts, error texts included, of seeded
    single-symbol mutations of each point's top-scale stream."""
    a, b = WINDOW
    margin = pipe.decode_margin()
    rng = random.Random(SEED)
    tokens = list(kary_alphabet(pipe.schedule.K)) + ["|", "=", "[", "]", "][", "o", "?"]
    texts = []
    for point in _points(name, system):
        try:
            stream = pipe.encode(point, pipe.kmax, (a - margin, b + margin))
        except ShiftEmbedError:
            continue        # pinned by roundtrip_digests
        for _ in range(MUTATIONS):
            symbols = list(stream.symbols)
            symbols[rng.randrange(len(symbols))] = rng.choice(tokens)
            texts.append(_decode_text(pipe, SymbolStream(stream.a, stream.b, symbols),
                                      pipe.kmax))
    return _digest("\n".join(texts))


# the window of the one point (sample_points(..., 1, seed=3)) whose every
# single-symbol substitution the sweep decodes
SWEEP_WINDOWS = {
    "golden-k2": (-90, 90),
    "golden-k3": (-90, 90),
    "odometer": (-150, 150),
}


def mutation_sweep_digest(name):
    """One digest over the decode texts of every substitution of every
    position of one point's top-scale stream by every other token of the
    code letters and the stream symbols."""
    make_system, kwargs = CONFIGS[name]
    system = make_system()
    pipe = build_pipeline(system, **kwargs)
    stream = pipe.encode(sample_points(system, 1, seed=3)[0], pipe.kmax, SWEEP_WINDOWS[name])
    tokens = sorted(set(kary_alphabet(pipe.schedule.K))
                    | {getattr(codec, attr) for attr in dir(codec) if attr.startswith("SYM_")})
    texts = []
    for i, ch in enumerate(stream.symbols):
        for tok in tokens:
            if tok != ch:
                symbols = list(stream.symbols)
                symbols[i] = tok
                texts.append(_decode_text(pipe, SymbolStream(stream.a, stream.b, symbols),
                                          pipe.kmax))
    return _digest("\n".join(texts))


def verify_digest(pipe):
    return _digest("\n".join(verify_pipeline(pipe, sample_count=6).lines()))


PINNED_ROUNDTRIPS = {
    "golden-k2": [
        ("9b15d8670e5cb97d", "21c8dfea48cd2dd6"),
        ("1bd4384eaadbdd6d", "f7ffcb1c4b4229d5"),
        ("730e6b89c0318a32", "5e4eedfc0caec38c"),
        ("b128fd294d7c0e4a", "7aadff0663796d73"),
        ("a2a8b46b845390ca", "51a8afe22fd1ce57"),
        ("c17bff1233cbcb04", "1cc0fc343f9c5fb6"),
        ("17eb9c43bf3148e7", "2f8a868d2af39f10"),
        ("37b10ee12ed80a79", "77c0005ed9cb13e2"),
        ("bfc8bcf1f6ff0f5c", "14218199ce8ea467"),
        ("2cca6c05ab252132", "895cf1c408748651"),
        # DEFECT_POINT: a round-trip, no longer "MalformedStreamError:
        # scale-2 block [-2, 7) has impossible length"
        ("6926afe9b9d9076d", "dbe99556d1ba03b4"),
    ],
    "golden-k3": [
        ("32b917a323069876", "b276a21193ad2970"),
        ("cef47ef485d9a526", "a0aa744de0fbb8ec"),
        ("cf44d7ed54337d86", "cc79127d2b0882fc"),
        ("9c909ed128176d8c", "252405567dbe184e"),
        ("f8fe1202ee508dbe", "fc4e69564c582f7c"),
        ("e631324d58a3561e", "2c26e569a7432cab"),
        ("020f8faba96dbf52", "5a7738163ab1b56c"),
        ("99234512f960e48b", "836213f3d648c2cf"),
        ("bd502459ab4077d7", "80a2cbb891485424"),
        ("69c3df971ea7ed58", "93b01865f42de037"),
    ],
    "odometer": [
        ("9b54766e91175468", "9042169dfdf3651c"),
        ("40b4fd1cd9b0348c", "07c96688132a2d14"),
        ("5420e37c3852d633", "d35f5203ae5db4d9"),
        ("c61388459fce9a63", "4bea44147cf58230"),
        ("3e5e468ac17da118", "1b7fc03975c74313"),
        ("cec5fff4cefe6756", "f8b2fbe3975d16f2"),
        ("b97ef66c150695b0", "3618137858d2d237"),
        ("216d896db5aad120", "7673fb8659aa14ff"),
        ("31d820946375336d", "8cbf5db6b7c17463"),
        ("db0dec93ee998a17", "9c0baf8fd2a287f8"),
    ],
    # the sample cycles through the three phases of the orbit
    "orbit001": [
        ("155a9d285b57cd30", "ea902b8db79c2930"),
        ("8321288f80b15c66", "590d4a8f803074ee"),
        ("2ae81a66cbc7b1ee", "156a14f06e2ece55"),
    ] * 3 + [("155a9d285b57cd30", "ea902b8db79c2930")],
}

PINNED_MALFORMED = {
    # a regular block's padding slots must hold the pad letter: 1, 1 and 17
    # of the golden K=2, golden K=3 and odometer texts are the padding error
    # for a mutation that used to decode.  8 of the 10 golden K=2 mutations
    # of DEFECT_POINT decode, where each raised "impossible length".  A
    # top-scale free slot holds 'o' or '?': one golden K=3 and one odometer
    # text are "free slot N holds ..." for a mutation that used to decode.
    # Scale-2 lengths are the layout's rule: 10 golden K=2 and 11 golden K=3
    # texts are "scale-2 block (N, N) has length N outside [lo, hi)", not
    # "scale-2 block [N, N) has impossible length"
    "golden-k2": "5026c81962016028",
    "golden-k3": "19706997b6ece129",
    # 46 of its 100 texts are "codeword '...' not in codebook image" for a
    # non-letter in a scale-1 filling, the text every scale raises
    "odometer": "c3da6b1c09e45664",
    "orbit001": "a452344178f4de89",
}

PINNED_VERIFY = {
    # every record passes; the golden lines differ only in the growth
    # record's n_2, 19 at K=2 and 10 at K=3
    "golden-k2": "739f6aca2c59063a",
    "golden-k3": "37c96f7b4cfc61b5",
    "odometer": "689cb8db039f1a0c",
    # the orbit's tower is checked by its structural records: no flat
    # pattern set of a word tower is built
    "orbit001": "953c75c61bb7c032",
}


def test_roundtrip_digests_pinned(config):
    name, system, pipe = config
    assert roundtrip_digests(name, system, pipe) == PINNED_ROUNDTRIPS[name]


def test_malformed_decodes_pinned(config):
    name, system, pipe = config
    assert malformed_digest(name, system, pipe) == PINNED_MALFORMED[name]


PINNED_SWEEP = {
    # 9 texts of each golden config, "=" at position 0..8, certify scale 1
    # from -90 on: the stretch before the substituted terminator is labelled
    # inside the stream only, not from -99 + i on, extrapolated from its orbit
    # A top-scale free slot holds 'o' or '?': 5 of the 1,448 golden K=2
    # texts, 17 of the 1,629 golden K=3 texts and 48 of the 2,408 odometer
    # texts, decodes before, are "free slot N holds ..."
    # Scale-2 and scale-3 lengths are the layout's rule ("scale-k block
    # (N, N) has length N outside [lo, hi)"): 38 golden K=2 texts, 76 golden
    # K=3 texts and 6 odometer texts.  A decode raises the first refusal in
    # one order, every layer's parse before the render's comparison, which
    # goes by position: 21 odometer texts name a missing scale-3 marker, not
    # a scale-2 padding slot, and 4 golden K=3 texts an earlier slot
    "golden-k2": "79b28dd09f63bfa6",
    "golden-k3": "98089b3b2ff3ca4d",
    # 3 of the 2,408 odometer texts, decodes before, refuse labels at a
    # block end that are not one point's consecutive cells
    "odometer": "677e28295e8583d0",
}


def test_mutation_sweep_pinned():
    assert {name: mutation_sweep_digest(name) for name in SWEEP_WINDOWS} == PINNED_SWEEP


def _certified_inside(res, a, b):
    return all(cert is None or a <= cert[0] <= cert[1] <= b for cert in res.certified.values())


def test_no_decoded_label_is_empty(config):
    """codec._read_codewords scans a coarse itinerary for undecoded labels
    with all(), which is exact because no decoded label is empty: every
    label, at every scale, of the decodes of the pinned round trips."""
    name, system, pipe = config
    a, b = WINDOW
    margin = pipe.decode_margin()
    labels = []
    for point in _points(name, system):
        try:
            res = pipe.decode(pipe.encode(point, pipe.kmax, (a - margin, b + margin)), pipe.kmax)
        except ShiftEmbedError:
            continue        # pinned by roundtrip_digests
        labels.extend(lab for labs in res.itineraries.values() for lab in labs if lab is not None)
    assert labels and all(len(lab) > 0 for lab in labels)


def test_certified_windows_lie_in_the_stream():
    """A decode certifies only positions of its stream: the sampled round
    trips of every configuration, and the sweep's substitutions of a
    terminator at positions 0..8 of the golden streams, which cut the
    stretch before it at the stream's left edge."""
    for name, (make_system, kwargs) in CONFIGS.items():
        system = make_system()
        pipe = build_pipeline(system, **kwargs)
        a, b = WINDOW
        margin = pipe.decode_margin()
        for point in _points(name, system):
            stream = pipe.encode(point, pipe.kmax, (a - margin, b + margin))
            assert _certified_inside(pipe.decode(stream, pipe.kmax), stream.a, stream.b)
        if name not in ("golden-k2", "golden-k3"):
            continue
        stream = pipe.encode(sample_points(system, 1, seed=3)[0], pipe.kmax,
                             SWEEP_WINDOWS[name])
        for i in range(9):
            symbols = list(stream.symbols)
            symbols[i] = codec.SYM_TERM
            res = pipe.decode(SymbolStream(stream.a, stream.b, symbols), pipe.kmax)
            assert res.certified[1] == (stream.a, stream.b)
            assert _certified_inside(res, stream.a, stream.b)


LONG_TAIL_PERIODS = (10, 13, 19, 20, 31, 40)


def long_tail_digest(K):
    """One digest over the scale-1 and scale-2 streams, and the text of the
    error that ends an encode pass, of four long-tail golden points per
    tail period: their tails hold regular blocks between returns, which no
    sampled point's tail does."""
    pipe = build_pipeline(golden_mean(), K=K, kmax=2, C=0.0, m=(0, 0))
    a, b = WINDOW
    margin = pipe.decode_margin()
    texts = []
    for point in long_tail_points(LONG_TAIL_PERIODS, 4):
        try:
            for stream in pipe.encode_scales(point, (a - margin, b + margin)):
                texts.append(stream.to_text())
        except ShiftEmbedError as exc:
            texts.append("%s: %s" % (type(exc).__name__, exc))
    return _digest("\n".join(texts))


PINNED_LONG_TAILS = {2: "b27798b50fc75b17", 3: "7709ffd6d7fc1fac"}


@pytest.mark.parametrize("K", sorted(PINNED_LONG_TAILS))
def test_long_tail_streams_pinned(K):
    assert long_tail_digest(K) == PINNED_LONG_TAILS[K]


LAYOUT_CONFIGS = {
    "golden-k2": CONFIGS["golden-k2"],
    "golden-k3": CONFIGS["golden-k3"],
    "growing-k3": GROWING_K3,
    "long-tail-k2": CONFIGS["golden-k2"],
    "long-tail-k3": CONFIGS["golden-k3"],
    "odometer": CONFIGS["odometer"],
}


def _layout_text(layout):
    """The role of every position of a layout, then each layer's free list."""
    return "\n".join(dump_lines(layout) + [
        "free %d: %s" % (layer.scale, " ".join(map(str, layer.free)))
        for layer in layout.layers])


def _laid_out(fn, *args):
    """The texts of the layouts that fn(*args) lays out, then the text of
    the error it raises, if any."""
    seen, error = record_layouts(fn, *args)
    return [_layout_text(layout) for layout, _ in seen] + ([error] if error else [])


def layout_roles_digests(name):
    """(encode digest, decode digest): one over the layouts of every
    point's encode context, one over the layouts decode_k rebuilds from the
    point's top-scale stream."""
    make_system, kwargs = LAYOUT_CONFIGS[name]
    system = make_system()
    pipe = build_pipeline(system, **kwargs)
    a, b = WINDOW
    margin = pipe.decode_margin()
    window = (a - margin, b + margin)
    points = (long_tail_points(LONG_TAIL_PERIODS, 4) if name.startswith("long-tail")
              else sample_points(system, SAMPLES, seed=SEED))
    enc, dec = [], []
    for point in points:
        enc += _laid_out(codec.build_point_context, pipe, point, window)
        try:
            stream = pipe.encode(point, pipe.kmax, window)
        except ShiftEmbedError as exc:
            dec.append("%s: %s" % (type(exc).__name__, exc))
            continue
        dec += _laid_out(pipe.decode, stream, pipe.kmax)
    return _digest("\n".join(enc)), _digest("\n".join(dec))


PINNED_LAYOUT_ROLES = {
    "golden-k2": ("813fef37cb5b4376", "ba570e889ce744ad"),
    "golden-k3": ("c5306c9832c93480", "d99cf060128d6fb5"),
    "growing-k3": ("dbc08a48e316c0e8", "4b9f2c5f3ed1ee4a"),
    "long-tail-k2": ("4a513bda420e89c2", "e36e3bd2ddc729a6"),
    "long-tail-k3": ("52fa4322a3203b5b", "83f67c7125df6b1c"),
    "odometer": ("d936ea0dd275a22a", "0cc30c42f54363b3"),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_CONFIGS))
def test_layout_roles_pinned(name):
    assert layout_roles_digests(name) == PINNED_LAYOUT_ROLES[name]


def test_verify_lines_pinned(config):
    name, _, pipe = config
    assert verify_digest(pipe) == PINNED_VERIFY[name]


def artifact_digests(outdir):
    """file name -> digest, for every file of a saved pipeline."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return out


GOLDEN_K2_ARTIFACTS = {
    "periodic_code.txt": "0ddaf2eec2a119a1",
    "schedule.txt": "48149db841ef9d93",
    "system.txt": "a57b061aae642646",
}

PINNED_ARTIFACTS = {
    "golden-k2": GOLDEN_K2_ARTIFACTS,
    "golden-k3": {
        "periodic_code.txt": "76f50d6fdea3c3d9",
        "schedule.txt": "828ee8663f589b35",
        "system.txt": "a57b061aae642646",
    },
    # aperiodic: no periodic code is written
    "odometer": {
        "schedule.txt": "33ea0c61a810d632",
        "system.txt": "36d1ba06c37dc80f",
    },
    "orbit001": {
        "periodic_code.txt": "314e0c2831213c23",
        "schedule.txt": "d7569a4d0d78720f",
        "system.txt": "33c7a86ea6237274",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_saved_artifacts_pinned(name, tmp_path):
    make_system, kwargs = CONFIGS[name]
    pipe = build_pipeline(make_system(), **kwargs)
    precheck_pipeline(pipe)
    save_pipeline(pipe, str(tmp_path))
    assert artifact_digests(str(tmp_path)) == PINNED_ARTIFACTS[name]


def test_saved_files_are_the_loaded_files(config, tmp_path, monkeypatch):
    """save_pipeline writes exactly the files that load_pipeline opens,
    each once, as recorded through pipeline._read."""
    from shiftembed import pipeline as pipeline_module
    _, _, pipe = config
    save_pipeline(pipe, str(tmp_path))
    opened = []
    read = pipeline_module._read

    def recording(path, *args):
        opened.append(path)
        return read(path, *args)

    monkeypatch.setattr(pipeline_module, "_read", recording)
    load_pipeline(str(tmp_path))
    assert sorted(opened) == [os.path.join(str(tmp_path), name)
                              for name in sorted(os.listdir(tmp_path))]


def test_cli_build_artifacts_pinned(tmp_path, capsys):
    spec = tmp_path / "golden.txt"
    spec.write_text("kind: sft\nalphabet: 2\nforbidden: [11]\n")
    out = tmp_path / "pipe"
    assert main(["build", "--system", str(spec), "--K", "2", "--kmax", "2",
                 "--C", "0", "--m", "0,0", "--out", str(out)]) == 0
    assert artifact_digests(str(out)) == GOLDEN_K2_ARTIFACTS


# (system, K, n_1) -> digest of the greedy periodic code's serialize form,
# beyond the codes the saved pipelines above write
PINNED_PERIODIC_CODES = {
    "golden-K2-16": (golden_mean, 2, 16, "d05b5ffd6e2fd867"),
    "golden-K3-13": (golden_mean, 3, 13, "1dfe79acdaa051ee"),
    "golden-K4-16": (golden_mean, 4, 16, "3c6982dbdc813d31"),
    "golden-K3-19": (golden_mean, 3, 19, "7fa6cfa3ce9c222e"),
    "sft22-201-K4-9": (lambda: Sft(3, ("22", "201")), 4, 9, "35fb312ebbdb6c52"),
}


# the candidates each of those codes draws, one claim per Lyndon word: the
# greedy over every K-ary word made 4,145, 426, 1,394, 5,665 and 4,148
# code-word tests and 2,063, 284, 1,044, 3,792 and 3,123 claims
PINNED_PERIODIC_CLAIMS = {"golden-K2-16": 1968, "golden-K3-13": 282, "golden-K4-16": 1040,
                          "golden-K3-19": 3774, "sft22-201-K4-9": 3079}


@pytest.mark.parametrize("name", sorted(PINNED_PERIODIC_CODES))
def test_periodic_code_pinned(name):
    make_system, K, n1, digest = PINNED_PERIODIC_CODES[name]
    assert _digest(build_periodic_code(make_system(), K, n1).serialize()) == digest


@pytest.mark.parametrize("name", sorted(PINNED_PERIODIC_CODES))
def test_periodic_code_is_the_greedy_over_every_word(name, monkeypatch):
    """The Lyndon stream claims what the greedy over all K^n words claims,
    at the pinned count of candidates (ROADMAP item 25)."""
    make_system, K, n1, _ = PINNED_PERIODIC_CODES[name]
    want = lexicographic_periodic_code(make_system(), K, n1).serialize()
    drawn = []
    claim = codec.PeriodicCode.claim

    def counting(code, v, w):
        drawn.append(w)
        return claim(code, v, w)

    monkeypatch.setattr(codec.PeriodicCode, "claim", counting)
    assert build_periodic_code(make_system(), K, n1).serialize() == want
    assert len(drawn) == PINNED_PERIODIC_CLAIMS[name]


PINNED_GROWING_ROUNDTRIPS = [
    ("538c111cb6135ae6", "8f79029496597daf"),
    ("b46a4627dbacc927", "f944fbb07b18e283"),
    # "MalformedStreamError: shadowed region content is not periodic"
    ("45e212082883812e", "45cabd6f89376543"),
    ("38b05c61e0746de7", "8a8fad1938bee98c"),
    ("f2be3a8c2d421ff8", "fd28addc8c6eb8c4"),
    ("f1641f52df4e99b6", "8d002a240be6d8c1"),
    ("dd6d2b3fedf00fe9", "8566c73c5753c317"),
    # encode refuses: "CapacityError: conditional code needs 2 letters, budget 0"
    ("f6e3a7040a0454dd", None),
    ("2019a361b4c8bd6f", "76602ce3ac0104e6"),
    ("6a4d8c7bc11c5a7b", "d6e568cf5538dd49"),
]

# 9 of the 90 texts are the layout's "scale-2 block (N, N) has length N
# outside [lo, hi)", not "scale-2 block [N, N) has impossible length"
PINNED_GROWING_MALFORMED = "6bc8b96ca8b755f0"


def test_growing_radius_decodes_pinned():
    """The round trips and seeded mutations of GROWING_K3, encode and decode
    error texts included."""
    make_system, kwargs = GROWING_K3
    system = make_system()
    pipe = build_pipeline(system, **kwargs)
    assert roundtrip_digests("growing-k3", system, pipe) == PINNED_GROWING_ROUNDTRIPS
    assert malformed_digest("growing-k3", system, pipe) == PINNED_GROWING_MALFORMED
