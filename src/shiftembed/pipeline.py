"""Pipeline assembly: schedule, towers, codebooks, periodic code.

A Pipeline owns everything the codec needs and keeps nothing per point:
a point context lives for one encode pass, and codebooks rank on the
system's counts and are built per lookup.  Building one runs the capacity
checks up front so that encoding cannot fail later on admissible inputs.
Pipelines serialize to a directory of flat text artifacts and rebuild
deterministically.
"""

import itertools
import os
from dataclasses import dataclass, field

from . import codec
from .entropy import (ScaleSchedule, build_schedule, check_layout_capacity,
                      conditional_count, verify_schedule)
from .errors import CapacityError, ScheduleError, ShiftEmbedError, SpecParseError
from .markers import build_towers, verify_tower
from .systems import Point, itinerary, parse_system, serialize_system, validate_point

DEFAULT_SEED = 17
CORE_MAX = 12   # the sampler's short-core length scale


class Pipeline:
    def __init__(self, system, schedule, stack, periodic_code):
        self.system = system
        self.schedule = schedule
        self.stack = stack
        self.periodic_code = periodic_code
        self.periodic = schedule.periodic

    @property
    def kmax(self):
        return self.schedule.kmax

    def decode_margin(self):
        """Stream inflation that certifies a requested window after decoding."""
        n_top = self.schedule.n[-1]
        base = (10 if self.periodic else 4) * n_top
        return base + 2 * self.schedule.nprime[-1]

    # -- codebooks, built per lookup from the system's counts -------------

    def first_codebook(self, n, length):
        return codec.build_first_codebook(self.system, self.schedule, n, length)

    def cond_codebook(self, k, n, coarse):
        return codec.build_conditional_codebook(self.system, self.schedule, k, n, coarse)

    def ident_codebook(self, k, m, fine):
        return codec.build_identification_codebook(self.system, self.schedule, k, m, fine)

    # -- point contexts -----------------------------------------------------

    def context(self, point, window):
        """Partitions and layout of a point around a window at every scale,
        built anew.  An encode pass does not call it: it resolves the same
        scales one at a time, each right before rendering it."""
        return codec.build_point_context(self, point, window)

    def encode(self, point, k, window):
        return codec.encode_k(point, self, k, window)

    def encode_scales(self, point, window):
        return codec.encode_scales(point, self, window)

    def encode_limit(self, point, window):
        return codec.encode_limit(point, self, window)

    def decode(self, stream, k):
        return codec.decode_k(stream, self, k)

    def invert(self, stream, k):
        return codec.invert(stream, self, k)


def build_pipeline(system, K, kmax, C=8.0, m=None, N_cert=64, schedule=None,
                   precheck=False):
    """Assemble a pipeline: schedule (built or override), towers, periodic code."""
    if schedule is None:
        schedule = build_schedule(system, K, kmax, C=C, m=m, N_cert=N_cert)
    else:
        records = verify_schedule(system, schedule)
        # a layout-capacity failure is left to check_layout_capacity,
        # whose CapacityError names the failing scale and block length
        bad = [r for r in records if not r[2] and r[0] != "layout-capacity"]
        if bad:
            raise ScheduleError("override schedule fails re-verification: %r" % bad)
        check_layout_capacity(schedule)
    stack = build_towers(system, schedule)
    periodic_code = None
    if schedule.periodic:
        periodic_code = codec.build_periodic_code(system, K, schedule.n[0])
    pipeline = Pipeline(system, schedule, stack, periodic_code)
    if precheck:
        precheck_pipeline(pipeline)
    return pipeline


def precheck_pipeline(pipeline):
    """Build-time guarantees: every scale-1 codebook over the realizable
    block lengths, the capacity of every higher-scale code, and the tower
    invariants.  Raises on any failure, so a built pipeline cannot fail
    later on admissible inputs."""
    sched = pipeline.schedule
    lo, hi = sched.block_bounds(1)
    for L in range(lo, hi):
        pipeline.first_codebook(L, sched.fill1(L))
    for k in range(2, sched.kmax + 1):
        lo, hi = sched.block_bounds(k)
        for L in range(lo, hi):
            cc = conditional_count(pipeline.system, sched.m[k - 2], sched.m[k - 1], L)
            budget = sched.budget(L, k)
            if cc > sched.K ** budget:
                raise CapacityError(
                    "conditional capacity fails at scale %d, length %d: %d > K^%d"
                    % (k, L, cc, budget), scale=k, block=L)
    for k in range(1, sched.kmax + 1):
        report = verify_tower(pipeline.stack, k)
        if not report.passed:
            raise ScheduleError("tower verification failed at scale %d:\n%s"
                                % (k, "\n".join(report.lines())))


# -- deterministic point sampling ------------------------------------------------


def sample_points(system, count, seed=DEFAULT_SEED):
    """Seeded eventually-periodic sample points, mixing plain graph walks
    with points carrying long periodic cores (to exercise singular blocks)."""
    import random
    rng = random.Random(seed)
    if system.kind == "odometer":
        out = []
        for _ in range(count):
            digits = [rng.randrange(p) for p in system.base]
            from .systems import OdometerPoint
            out.append(OdometerPoint(system, digits))
        return out
    if system.kind == "orbit":
        # a finite orbit has no graph to walk: its points are its phases
        phases = system.least_period_words(system.period)
        return [Point(w, w, w, 0) for w in itertools.islice(itertools.cycle(phases), count)]
    cycles = _cycle_words(system)
    out = []
    while len(out) < count:
        left = rng.choice(cycles)
        right = rng.choice(cycles)
        style = rng.random()
        if style < 0.35:
            middle_len = rng.randrange(0, CORE_MAX + 1)
        elif style < 0.7:
            cyc = rng.choice(cycles)
            reps = rng.randrange(3, 9)
            middle_len = len(cyc) * reps
        else:
            middle_len = rng.randrange(CORE_MAX, 3 * CORE_MAX)
        point = _stitch_point(system, rng, left, right, middle_len)
        if point is not None:
            out.append(point)
    return out


def _cycle_words(system):
    """Cyclically admissible primitive words of small period."""
    out = []
    for n in range(1, 7):
        out.extend(system.least_period_words(n))
    return sorted(set(out))


def _stitch_point(system, rng, left, right, middle_len):
    """left-periodic tail | random admissible middle | right-periodic tail."""
    M = system.memory
    tries = 0
    while tries < 40:
        tries += 1
        word = left * max(2, -(-(M + 1) // len(left)))
        for _ in range(middle_len):
            succ = system._succ.get(word[-M:])
            if not succ:
                break
            word += rng.choice(succ)[-1]
        glue = 0
        probe = word
        ok = False
        for _ in range(4 * len(right) + 8):
            if _joins(system, probe, right):
                ok = True
                break
            succ = system._succ.get(probe[-M:])
            if not succ:
                break
            probe += rng.choice(succ)[-1]
            glue += 1
        if not ok:
            continue
        core = probe[len(left) * max(2, -(-(M + 1) // len(left))):]
        point = Point(left, core, right, anchor=-rng.randrange(0, max(1, len(core) + 1)))
        try:
            validate_point(system, point)
            return point
        except ShiftEmbedError:
            continue
    return None


def _joins(system, word, right):
    tail = word + right * 2
    return system.is_admissible(tail[-(len(right) * 2 + system.memory + 2):])


# -- verify harness ----------------------------------------------------------------


@dataclass
class VerifyRecord:
    module: str
    name: str
    scale: object
    ok: bool
    detail: str = ""

    def line(self):
        return "%s %s scale=%s %s %s" % (self.module, self.name, self.scale,
                                         "PASS" if self.ok else "FAIL", self.detail)


@dataclass
class VerifyReport:
    records: list = field(default_factory=list)

    def add(self, module, name, scale, ok, detail=""):
        self.records.append(VerifyRecord(module, name, scale, ok, detail))

    @property
    def passed(self):
        return all(r.ok for r in self.records)

    def lines(self):
        return [r.line() for r in self.records]


def verify_pipeline(pipeline, points=None, seed=DEFAULT_SEED, sample_count=12,
                    window=(-60, 60)):
    """Run the cross-module invariant suites; report one record per check."""
    from . import metrics
    report = VerifyReport()
    system, sched = pipeline.system, pipeline.schedule

    for name, scale, ok in verify_schedule(system, sched):
        report.add("entropy", name, scale, ok)

    if points is None:
        points = sample_points(system, sample_count, seed=seed)
    if not points:
        report.add("pipeline", "samples", "-", True, "vacuous: empty sample set")
        return report

    probe = points[: max(2, min(4, len(points)))]
    for k in range(1, sched.kmax + 1):
        trep = verify_tower(pipeline.stack, k, probe_points=probe)
        for r in trep.records:
            report.add("markers", r.invariant + "(" + r.method + ")", r.scale, r.ok, r.detail)

    # one encode pass per (point, window) serves every scale; an encode,
    # decode or read-back that raises fails its check at that scale, with
    # the first error text as the record's detail, instead of ending the run
    kmax = sched.kmax
    a, b = window
    equivariance, roundtrip = {}, {}        # failed scale -> first error text
    for p in points:
        s0, err0 = _encode_pass(pipeline, p, (a, b))
        s1, err1 = _encode_pass(pipeline, p.shifted(1), (a - 1, b - 1))
        for k in range(1, kmax + 1):
            if k > len(s0) or k > len(s1):
                _fail(equivariance, k, err0 if k > len(s0) else err1)
            elif s0[k - 1].symbols != s1[k - 1].symbols:
                _fail(equivariance, k)
    margin = pipeline.decode_margin()
    for p in points[: max(4, len(points) // 3)]:
        streams, err = _encode_pass(pipeline, p, (a - margin, b + margin))
        want = [itinerary(system, p, m, (a, b)) for m in sched.m]
        for k in range(1, kmax + 1):
            if k > len(streams):
                _fail(roundtrip, k, err)
                continue
            try:
                res = pipeline.decode(streams[k - 1], k)
                got = [res.itinerary_list(l, (a, b)) for l in range(1, k + 1)]
            except ShiftEmbedError as exc:
                _fail(roundtrip, k, exc)
                continue
            if got != want[:k]:
                _fail(roundtrip, k)
    for k in range(1, kmax + 1):
        report.add("codec", "equivariance", k, k not in equivariance, equivariance.get(k, ""))
        report.add("codec", "roundtrip", k, k not in roundtrip, roundtrip.get(k, ""))

    dn = {}
    N = sched.n[0] ** 2
    for p in points[:6]:
        streams, err = _encode_pass(pipeline, p, (-4 * N, 4 * N))
        if err is not None:
            _fail(dn, 1, err)
        elif metrics.stream_dN(streams[0], streams[-1], N) > 3 * sched.alpha_float / 2 + 1e-9:
            _fail(dn, 1)
    report.add("codec", "dN-convergence", 1, 1 not in dn, dn.get(1, ""))
    return report


def _encode_pass(pipeline, point, window):
    """The streams psi_1, psi_2, ... of one encode pass, and the error that
    ended it before k_max, or None."""
    streams = []
    try:
        for stream in pipeline.encode_scales(point, window):
            streams.append(stream)
    except ShiftEmbedError as exc:
        return streams, exc
    return streams, None


def _fail(failed, k, exc=None):
    """Mark scale k failed; the first error text stays its detail."""
    if not failed.get(k):
        failed[k] = "" if exc is None else str(exc)


# -- serialization --------------------------------------------------------------


def save_pipeline(pipeline, outdir):
    os.makedirs(outdir, exist_ok=True)
    def put(name, text):
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    put("system.txt", serialize_system(pipeline.system))
    put("schedule.txt", pipeline.schedule.serialize())
    put("towers.txt", pipeline.stack.serialize())
    if pipeline.periodic_code is not None:
        put("periodic_code.txt", pipeline.periodic_code.serialize())
    # one line per scale-1 block length of the schedule
    sched = pipeline.schedule
    lines = []
    for L in range(*sched.block_bounds(1)):
        cb = pipeline.first_codebook(L, sched.fill1(L))
        lines.append("first n=%d len=%d size=%d\n" % (L, cb.length, len(cb)))
    put("codebooks.txt", "".join(lines))


def load_pipeline(outdir):
    """Rebuild a saved pipeline: the system and schedule are parsed, the
    towers rebuilt, and the periodic code read from periodic_code.txt and
    checked against both."""
    with open(os.path.join(outdir, "system.txt")) as fh:
        system = parse_system(fh.read())
    with open(os.path.join(outdir, "schedule.txt")) as fh:
        schedule = ScaleSchedule.parse(fh.read())
    periodic_code = None
    if schedule.periodic:
        path = os.path.join(outdir, "periodic_code.txt")
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecParseError("%s: %s" % (path, exc.strerror)) from None
        try:
            periodic_code = codec.PeriodicCode.parse(text, system, schedule.n[0],
                                                     schedule.K)
        except SpecParseError as exc:
            raise SpecParseError("%s: %s" % (path, exc)) from None
    return Pipeline(system, schedule, build_towers(system, schedule), periodic_code)
