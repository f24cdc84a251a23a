"""The benchmark's workloads: set-up, operation chains and exact oracles.

A workload is driven as a closed loop with one client in one thread: it
sets up once per timed set-up, then runs a fixed number of *chains* of
operations, each chain on fresh points drawn by ``pipeline.sample_points``
from a seed derived from the run seed.  Every operation is checked against an exact oracle; an
operation that raises, exits non-zero or returns a wrong answer counts as
failed.  Only the calls into the program are timed, never the oracle.  Times
are kept as wall intervals (start, end) of ``time.perf_counter``; the runner
turns them into reference time (see refclock.py).
"""

import contextlib
import io
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, field

from shiftembed import cli
from shiftembed import pipeline as pl
from shiftembed.codec import SymbolStream
from shiftembed.errors import ShiftEmbedError
from shiftembed.systems import Odometer, Sft, cell_label, itinerary, serialize_point

WINDOW = (-200, 200)            # the window every decode must reproduce exactly


def chain_seed(seed, i):
    """Seed of the i-th timed chain of a run."""
    return seed * 100003 + 1 + i


def warm_seed(seed):
    """Warm-up seed; never equal to a chain seed of the same run."""
    return seed * 100003


def timed(fn, *args):
    """(fn(*args), wall interval); an exception from fn propagates."""
    start = time.perf_counter()
    result = fn(*args)
    return result, (start, time.perf_counter())


@dataclass
class Tally:
    """Outcomes and wall intervals of the operations of one pass."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0              # returned an output the oracle rejects
    encode: list = field(default_factory=list)
    decode: list = field(default_factory=list)
    op: list = field(default_factory=list)
    chains: list = field(default_factory=list)     # one list of op intervals each
    symbols: int = 0            # stream symbols encoded and decoded in ...
    stream: list = field(default_factory=list)     # ... these intervals
    tracer: object = None

    def begin(self):
        """Start an operation; its spans carry its op id."""
        if self.tracer is not None:
            self.tracer.op = self.attempted

    def record(self, ok, wrong=False):
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong


def _failure(tally, what, exc):
    """Count a raised operation; a foreign exception also gets its traceback."""
    tally.record(False)
    if isinstance(exc, ShiftEmbedError):
        print("refused: %s: %s" % (what, exc), file=sys.stderr)
    else:
        print("crashed: %s" % what, file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def decode_matches(system, point, result, k, m):
    """(ok, wrong) for a decode result: every scale l <= k must be certified
    on WINDOW and equal systems.itinerary(system, point, m_l, WINDOW)."""
    for l in range(1, k + 1):
        try:
            got = result.itinerary_list(l, WINDOW)
        except ShiftEmbedError:
            return False, False
        if got != itinerary(system, point, m[l - 1], WINDOW):
            return False, True
    return True, False


# -- library round-trips -----------------------------------------------------------


class RoundTrip:
    """encode(x, k, WINDOW +- decode_margin) then decode(., k), in-process."""

    def __init__(self, name, make_system, build_kwargs, k, chain_points, trace_chains,
                 setups, chains_per_s):
        self.name = name
        self.make_system = make_system
        self.build_kwargs = build_kwargs
        self.k = k
        self.chain_points = chain_points
        self.trace_chains = trace_chains
        self.setups = setups
        self.chains_per_s = chains_per_s

    def setup(self):
        """Build on a freshly constructed system, so no word cache is warm."""
        system = self.make_system()
        pipe, interval = timed(lambda: pl.build_pipeline(system, **self.build_kwargs))
        return interval, (system, pipe)

    def warm(self, state, seed):
        """One untallied chain.  It fills the codebook caches; the id-keyed
        context cache stays cold for the timed points, which are other objects."""
        self.chain(state, seed, Tally())

    def chain(self, state, seed, tally):
        system, pipe = state
        ops = []
        for point in pl.sample_points(system, self.chain_points, seed=seed):
            ops.append(self.roundtrip(system, pipe, point, tally))
        tally.chains.append(ops)

    def roundtrip(self, system, pipe, point, tally):
        """One operation; returns its wall interval."""
        a, b = WINDOW
        margin = pipe.decode_margin()
        tally.begin()
        start = time.perf_counter()
        try:
            stream, enc = timed(pipe.encode, point, self.k, (a - margin, b + margin))
            result, dec = timed(pipe.decode, stream, self.k)
        except Exception as exc:      # every op is counted, none dropped
            end = time.perf_counter()
            _failure(tally, "round-trip of %r" % (point,), exc)
            return (start, end)
        op = (enc[0], dec[1])
        tally.encode.append(enc)
        tally.decode.append(dec)
        tally.op.append(op)
        tally.symbols += len(stream.symbols)
        tally.stream.append(op)
        ok, wrong = decode_matches(system, point, result, self.k, pipe.schedule.m)
        if not ok:
            print("%s: decode of %r" % ("wrong" if wrong else "uncertified", point),
                  file=sys.stderr)
        tally.record(ok, wrong)
        return op


# -- the command line, in-process ----------------------------------------------------


CLI_WINDOW = (-446, 446)        # WINDOW plus the golden K=2 decode margin
CLI_POINTS = 4                  # points per chain, each encoded, decoded, inverted
GOLDEN_SPEC = "kind: sft\nalphabet: 2\nforbidden: [11]\n"
GOLDEN_BUILD = ["--K", "2", "--kmax", "2", "--C", "0", "--m", "0,0"]
GOLDEN_M = (0, 0)
_RECORD = re.compile(r" scale=\S* (PASS|FAIL)")


def run_cli(argv):
    """(exit code, wall interval, stdout) of cli.main(argv) in this process;
    cli.main is looked up at call time, so traced runs see their wrapper."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc, interval = timed(lambda: cli.main(argv))
    return rc, interval, out.getvalue()


def parse_decode_output(text):
    """scale -> (lo, hi, labels), or None for an uncertified scale."""
    out = {}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        words = line.split()
        if words[:1] != ["scale"]:
            continue
        scale = int(words[1])
        if words[2] == "uncertified":
            out[scale] = None
            continue
        lo, hi = (int(v) for v in words[3].split(":"))
        labels = lines[i + 1].split()
        if labels[:1] != ["labels"]:
            raise ValueError("scale %d has no labels line" % scale)
        out[scale] = (lo, hi, labels[1:])
    return out


def cli_decode_matches(system, point, text, k, m):
    """(ok, wrong) for the text of a `decode` command, parsed back."""
    try:
        scales = parse_decode_output(text)
    except (ValueError, IndexError):
        return False, True
    for l in range(1, k + 1):
        got = scales.get(l)
        if got is None or got[0] > WINDOW[0] or got[1] < WINDOW[1]:
            return False, False
        lo, hi, labels = got
        if labels != itinerary(system, point, m[l - 1], (lo, hi)):
            return False, True
    return True, False


def verify_passes(text):
    records = _RECORD.findall(text)
    return bool(records) and all(r == "PASS" for r in records)


def report_passes(text, samples, kmax):
    """Header, 4 rows per point and scale, and every d_N bound row holds."""
    lines = text.splitlines()
    if not lines or lines[0].split("\t")[:3] != ["point", "scale", "metric"]:
        return False
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != 4 * samples * kmax or any(len(r) != 5 for r in rows):
        return False
    return all(r[3] == "1" for r in rows if r[2] == "dN-bound-ok")


class CliChain:
    """build once, then per point encode / decode / invert on files, then
    verify and report: every command a fresh cli.main call that reloads
    the pipeline, so towers are rebuilt and codebooks are cold each time."""

    name = "golden-cli"
    k = 2
    trace_chains = 1
    setups = 3
    chains_per_s = 1 / 15       # a chain of 14 commands takes about 15 s

    def __init__(self, workdir):
        self.workdir = workdir
        self.system = Sft(2, forbidden=("11",))     # oracle and sampling only
        self.spec = os.path.join(workdir, "golden.txt")
        with open(self.spec, "w") as fh:
            fh.write(GOLDEN_SPEC)
        self.pipe_dir = os.path.join(workdir, "pipe")
        self.files = 0

    def _path(self, stem):
        self.files += 1
        return os.path.join(self.workdir, "%s%d.txt" % (stem, self.files))

    def setup(self):
        argv = ["build", "--system", self.spec] + GOLDEN_BUILD + ["--out", self.pipe_dir]
        rc, interval, _ = run_cli(argv)
        if rc != 0:
            raise RuntimeError("build exited %d" % rc)
        return interval, self.pipe_dir

    def warm(self, state, seed):
        """One point's commands, untallied, so the first timed ones do not pay
        for the interpreter warming up; codebooks stay cold, as every command
        builds its own pipeline."""
        point = pl.sample_points(self.system, 1, seed=seed)[0]
        self.point_ops(state, point, Tally())

    def chain(self, state, seed, tally):
        ops = []
        for point in pl.sample_points(self.system, CLI_POINTS, seed=seed):
            ops.extend(self.point_ops(state, point, tally))
        for argv, ok_of in (
                (["verify", "--samples", "12"], verify_passes),
                (["report", "--samples", "8"],
                 lambda text: report_passes(text, 8, self.k))):
            tally.begin()
            argv = argv + ["--pipeline", state, "--seed", str(seed)]
            try:
                rc, interval, text = run_cli(argv)
            except Exception as exc:
                _failure(tally, " ".join(argv), exc)
                continue
            ops.append(interval)
            ok = rc == 0 and ok_of(text)
            if not ok:
                print("failed: %s (exit %d)" % (" ".join(argv), rc), file=sys.stderr)
            tally.record(ok)
        tally.chains.append(ops)

    def point_ops(self, pipe_dir, point, tally):
        """encode, decode and invert one point; returns the commands' intervals."""
        point_file, stream_file = self._path("point"), self._path("stream")
        with open(point_file, "w") as fh:
            fh.write(serialize_point(point))
        commands = (
            ("encode", ["encode", "--pipeline", pipe_dir, "--point", point_file,
                        "--window=%d:%d" % CLI_WINDOW, "--out", stream_file]),
            ("decode", ["decode", "--pipeline", pipe_dir, "--stream", stream_file]),
            ("invert", ["invert", "--pipeline", pipe_dir, "--stream", stream_file]),
        )
        ops = []
        done = {}
        for what, argv in commands:
            tally.begin()
            try:
                rc, interval, text = run_cli(argv)
            except Exception as exc:
                _failure(tally, "%s of %r" % (what, point), exc)
            else:
                ops.append(interval)
                ok, wrong = False, False
                if rc == 0:
                    done[what] = interval
                    tally.op.append(interval)
                    ok, wrong = self.check(what, point, stream_file, text)
                if not ok:
                    print("%s: %s of %r (exit %d)" % ("wrong" if wrong else "failed",
                                                      what, point, rc), file=sys.stderr)
                tally.record(ok, wrong)
            if what == "encode" and "encode" not in done:   # no stream to read
                for _ in commands[1:]:
                    tally.record(False)
                return ops
        tally.encode.append(done["encode"])
        if "decode" in done:
            tally.decode.append(done["decode"])
            tally.symbols += CLI_WINDOW[1] - CLI_WINDOW[0] + 1
            tally.stream.extend((done["encode"], done["decode"]))
        return ops

    def check(self, what, point, stream_file, text):
        """(ok, wrong) of one command's output."""
        if what == "encode":
            with open(stream_file) as fh:
                text = fh.read()
            try:
                stream = SymbolStream.from_text(text)
            except (ValueError, KeyError, ShiftEmbedError):
                return False, True
            ok = (stream.a, stream.b) == CLI_WINDOW
            return ok, not ok
        if what == "decode":
            return cli_decode_matches(self.system, point, text, self.k, GOLDEN_M)
        ok = text.strip() == cell_label(self.system, point, 0, GOLDEN_M[self.k - 1])
        return ok, not ok


def make(name, workdir):
    """A workload by name.  `setups` is how many timed set-ups an untraced run
    makes: two for the odometer, whose build alone takes about 14 s.
    `chains_per_s` is how many timed chains it runs per second of --seconds,
    measured at reference speed (see run.chain_count)."""
    if name == "golden-roundtrip":
        return RoundTrip(name, lambda: Sft(2, forbidden=("11",)),
                         dict(K=2, kmax=2, C=0.0, m=(0, 0)), k=2,
                         chain_points=20, trace_chains=10, setups=3, chains_per_s=2.0)
    if name == "odometer-roundtrip":
        return RoundTrip(name, lambda: Odometer([2] * 8),
                         dict(K=2, kmax=3, N_cert=128), k=3,
                         chain_points=20, trace_chains=3, setups=2, chains_per_s=0.7)
    if name == "golden-cli":
        return CliChain(workdir)
    raise ValueError("unknown workload %r" % name)


NAMES = ("golden-roundtrip", "odometer-roundtrip", "golden-cli")
