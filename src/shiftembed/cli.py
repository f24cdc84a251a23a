"""Command-line front end: build, encode, decode, invert, verify, report.

Exit codes: 0 ok, 1 invariant failure, 2 usage or parse error.  All
randomness is seeded from the command line (fixed default), so identical
inputs produce byte-identical outputs.
"""

import argparse
import functools
import sys

from .codec import SymbolStream
from .entropy import ScaleSchedule, check_radii
from .errors import PeriodicPointsError, ScheduleError, ShiftEmbedError, SpecParseError
from .metrics import convergence_report
from .pipeline import (DEFAULT_SEED, _read, build_pipeline, load_pipeline,
                       sample_points, save_pipeline, verify_pipeline)
from .systems import _parse_finite, _parse_int, _parse_window, parse_point, parse_system
from .words import CODE_CHARS


def _scale(args, pipeline):
    """The --scale of a command on a pipeline, k_max when it is not given."""
    k = pipeline.kmax if args.scale is None else args.scale
    if not 1 <= k <= pipeline.kmax:
        raise SpecParseError("--scale must be in 1..%d, not %d" % (pipeline.kmax, k))
    return k


def _samples(args):
    """The --samples of a command, refused below 1."""
    if args.samples < 1:
        raise SpecParseError("--samples must be at least 1, not %d" % args.samples)
    return args.samples


def cmd_build(args):
    if not 2 <= args.K <= len(CODE_CHARS):
        raise SpecParseError("--K must be in 2..%d, not %d" % (len(CODE_CHARS), args.K))
    if args.kmax < 1:
        raise SpecParseError("--kmax must be at least 1, not %d" % args.kmax)
    if args.N_cert < 2:
        raise SpecParseError("--N-cert must be at least 2, not %d" % args.N_cert)
    C = _parse_finite(args.C, "--C")
    m = tuple(_parse_int(v, "--m entry") for v in args.m.split(",")) if args.m else None
    if m is not None:
        try:
            check_radii(m, args.kmax)
        except ScheduleError as exc:
            raise SpecParseError(str(exc)) from None
    system = _read(args.system, parse_system)
    schedule = _read(args.schedule, ScaleSchedule.parse) if args.schedule else None
    try:
        pipeline = build_pipeline(system, K=args.K, kmax=args.kmax, C=C, m=m,
                                  N_cert=args.N_cert, schedule=schedule, precheck=True)
    except PeriodicPointsError as exc:
        raise SpecParseError(str(exc)) from None
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


def cmd_encode(args):
    pipeline = load_pipeline(args.pipeline)
    point = _read(args.point, parse_point, pipeline.system)
    a, b = _parse_window(args.window, "--window")
    k = _scale(args, pipeline)
    stream = pipeline.encode_limit(point, (a, b)) if args.limit else \
        pipeline.encode(point, k, (a, b))
    _emit(stream.to_text(), args.out)
    return 0


def cmd_decode(args):
    pipeline = load_pipeline(args.pipeline)
    stream = _read(args.stream, SymbolStream.from_text)
    k = _scale(args, pipeline)
    result = pipeline.decode(stream, k)
    lines = []
    for l in sorted(result.itineraries):
        cert = result.certified.get(l)
        if cert is None:
            lines.append("scale %d uncertified" % l)
            continue
        lines.append("scale %d window %d:%d" % (l, *cert))
        lines.append("labels " + pipeline.system.labels_text(result.itinerary_list(l, cert)))
    lines.append("orbits %s" % " ".join(result.orbits))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_invert(args):
    pipeline = load_pipeline(args.pipeline)
    stream = _read(args.stream, SymbolStream.from_text)
    k = _scale(args, pipeline)
    cell = pipeline.invert(stream, k)
    print(pipeline.system.label_text(cell))
    return 0


def cmd_verify(args):
    pipeline = load_pipeline(args.pipeline)
    points = sample_points(pipeline.system, _samples(args), seed=args.seed)
    window = _parse_window(args.window, "--window") if args.window else (-60, 60)
    report = verify_pipeline(pipeline, points=points, window=window)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_report(args):
    pipeline = load_pipeline(args.pipeline)
    points = sample_points(pipeline.system, _samples(args), seed=args.seed)
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
    p.add_argument("--C", default="8.0")
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
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--window")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="convergence diagnostics as TSV")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=8)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit:
        return 2
    try:
        return args.func(args)
    except (SpecParseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ShiftEmbedError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
