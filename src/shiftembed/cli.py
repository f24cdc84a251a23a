"""Command-line front end: build, encode, decode, invert, verify, report.

Exit codes: 0 ok, 1 invariant failure, 2 usage or parse error.  All
randomness is seeded from the command line (fixed default), so identical
inputs produce byte-identical outputs.
"""

import argparse
import functools
import sys

from .codec import SymbolStream
from .errors import ShiftEmbedError, SpecParseError
from .metrics import convergence_report
from .pipeline import (DEFAULT_SEED, build_pipeline, load_pipeline,
                       sample_points, save_pipeline, verify_pipeline)
from .systems import parse_point, parse_system


def _window(text):
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise SpecParseError("window must look like a:b")


def _label_text(label):
    if isinstance(label, tuple):
        return ".".join(str(d) for d in label)
    return label


def cmd_build(args):
    with open(args.system) as fh:
        system = parse_system(fh.read())
    m = tuple(int(v) for v in args.m.split(",")) if args.m else None
    schedule = None
    if args.schedule:
        from .entropy import ScaleSchedule
        with open(args.schedule) as fh:
            schedule = ScaleSchedule.parse(fh.read())
    pipeline = build_pipeline(system, K=args.K, kmax=args.kmax, C=args.C, m=m,
                              N_cert=args.N_cert, schedule=schedule, precheck=True)
    save_pipeline(pipeline, args.out)
    print("pipeline written to %s (n = %s)" % (args.out, list(pipeline.schedule.n)))
    return 0


def _emit(text, out):
    """Write a command's output to the file named by --out, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    return load_pipeline(args.pipeline)


def cmd_encode(args):
    pipeline = _load(args)
    with open(args.point) as fh:
        point = parse_point(fh.read(), pipeline.system)
    a, b = _window(args.window)
    k = args.scale or pipeline.kmax
    stream = pipeline.encode_limit(point, (a, b)) if args.limit else \
        pipeline.encode(point, k, (a, b))
    _emit(stream.to_text(), args.out)
    return 0


def cmd_decode(args):
    pipeline = _load(args)
    with open(args.stream) as fh:
        stream = SymbolStream.from_text(fh.read())
    k = args.scale or pipeline.kmax
    result = pipeline.decode(stream, k)
    lines = []
    for l in sorted(result.itineraries):
        cert = result.certified.get(l)
        if cert is None:
            lines.append("scale %d uncertified" % l)
            continue
        lo, hi = cert
        labels = " ".join(_label_text(result.itineraries[l][t]) for t in range(lo, hi + 1))
        lines.append("scale %d window %d:%d" % (l, lo, hi))
        lines.append("labels %s" % labels)
    lines.append("orbits %s" % " ".join(result.orbits))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_invert(args):
    pipeline = _load(args)
    with open(args.stream) as fh:
        stream = SymbolStream.from_text(fh.read())
    k = args.scale or pipeline.kmax
    cell = pipeline.invert(stream, k)
    print(_label_text(cell))
    return 0


def cmd_verify(args):
    pipeline = _load(args)
    points = None
    if args.samples:
        points = sample_points(pipeline.system, args.samples, seed=args.seed)
    window = _window(args.window) if args.window else (-60, 60)
    report = verify_pipeline(pipeline, points=points, seed=args.seed, window=window)
    for line in report.lines():
        print(line)
    if not report.records:
        print("vacuous: no checks ran")
    return 0 if report.passed else 1


def cmd_report(args):
    pipeline = _load(args)
    points = sample_points(pipeline.system, args.samples or 8, seed=args.seed)
    rows = convergence_report(points, pipeline)
    print("point\tscale\tmetric\tvalue\ttag")
    for idx, k, metric, value, tag in rows:
        print("%d\t%d\t%s\t%s\t%s" % (idx, k, metric, value, tag))
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process; parse_args returns a
    fresh Namespace on every call."""
    parser = argparse.ArgumentParser(prog="shiftembed",
                                     description="marker towers and block codes at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and serialize a pipeline")
    p.add_argument("--system", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--C", type=float, default=8.0)
    p.add_argument("--m", help="comma-separated partition radii")
    p.add_argument("--N-cert", type=int, default=64)
    p.add_argument("--schedule", help="explicit schedule override file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("encode", help="encode a point over a window")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--scale", type=int)
    p.add_argument("--limit", action="store_true", help="emit the limit code")
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a stream to itineraries")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--scale", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("invert", help="recover the cell at time zero")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--scale", type=int)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int)
    p.add_argument("--window")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="convergence diagnostics as TSV")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit:
        return 2
    try:
        return args.func(args)
    except (SpecParseError, FileNotFoundError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ShiftEmbedError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
