"""Pipeline assembly: schedule, towers, codebooks, periodic code.

A Pipeline owns everything the codec needs and caches codebooks and point
contexts; building one runs the capacity checks up front so that encoding
cannot fail later on admissible inputs.  Pipelines serialize to a directory
of flat text artifacts and rebuild deterministically.
"""

import itertools
import os
from dataclasses import dataclass, field

from . import codec
from .entropy import ScaleSchedule, build_schedule, check_layout_capacity, verify_schedule
from .errors import ScheduleError, ShiftEmbedError
from .markers import build_towers, verify_tower
from .systems import (Point, parse_system, serialize_system, validate_point)

DEFAULT_SEED = 17


class Pipeline:
    def __init__(self, system, schedule, stack, periodic_code):
        self.system = system
        self.schedule = schedule
        self.stack = stack
        self.periodic_code = periodic_code
        self.periodic = schedule.periodic
        self._first = {}
        self._cond = {}
        self._ident = {}
        self._contexts = {}

    @property
    def kmax(self):
        return self.schedule.kmax

    def decode_margin(self):
        """Stream inflation that certifies a requested window after decoding."""
        n_top = self.schedule.n[-1]
        base = (10 if self.periodic else 4) * n_top
        return base + 2 * self.schedule.nprime[-1]

    # -- codebook caches ----------------------------------------------------

    def first_codebook(self, n, length):
        key = (n, length)
        if key not in self._first:
            self._first[key] = codec.build_first_codebook(self.system, self.schedule,
                                                          n, length)
        return self._first[key]

    def cond_codebook(self, k, n, coarse):
        key = (k, n, coarse)
        if key not in self._cond:
            self._cond[key] = codec.build_conditional_codebook(self.system, self.schedule,
                                                               k, n, coarse)
        return self._cond[key]

    def ident_codebook(self, k, m, fine):
        key = (k, m, fine)
        if key not in self._ident:
            self._ident[key] = codec.build_identification_codebook(self.system,
                                                                   self.schedule, k, m, fine)
        return self._ident[key]

    # -- point contexts -----------------------------------------------------

    def context(self, point, window):
        key = (id(point), window)
        if key not in self._contexts:
            self._contexts[key] = codec.build_point_context(self, point, window)
        return self._contexts[key]

    def encode(self, point, k, window):
        return codec.encode_k(point, self, k, window)

    def encode_limit(self, point, window):
        return codec.encode_limit(point, self, window)

    def decode(self, stream, k):
        return codec.decode_k(stream, self, k)

    def invert(self, stream, k):
        return codec.invert(stream, self, k)


def build_pipeline(system, K, kmax, C=8.0, m=None, N_cert=64, schedule=None,
                   reverify_override=True, precheck=False):
    """Assemble a pipeline: schedule (built or override), towers, periodic code."""
    if schedule is None:
        schedule = build_schedule(system, K, kmax, C=C, m=m, N_cert=N_cert)
    else:
        if reverify_override:
            records = verify_schedule(system, schedule, full=False)
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
    import math
    from .entropy import conditional_count
    from .errors import CapacityError
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


def sample_points(system, count, seed=DEFAULT_SEED, core_max=12, tail_max=6):
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
            middle_len = rng.randrange(0, core_max + 1)
        elif style < 0.7:
            cyc = rng.choice(cycles)
            reps = rng.randrange(3, 9)
            middle_len = len(cyc) * reps
        else:
            middle_len = rng.randrange(core_max, 3 * core_max)
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

    a, b = window
    for k in range(1, sched.kmax + 1):
        ok_eq = True
        ok_rt = True
        for p in points:
            s0 = pipeline.encode(p, k, (a, b))
            s1 = pipeline.encode(p.shifted(1), k, (a - 1, b - 1))
            if s0.symbols != s1.symbols:
                ok_eq = False
        report.add("codec", "equivariance", k, ok_eq)
        margin = pipeline.decode_margin()
        for p in points[: max(4, len(points) // 3)]:
            stream = pipeline.encode(p, k, (a - margin, b + margin))
            res = pipeline.decode(stream, k)
            for l in range(1, k + 1):
                from .systems import itinerary
                want = itinerary(system, p, sched.m[l - 1], (a, b))
                try:
                    got = res.itinerary_list(l, (a, b))
                except ShiftEmbedError:
                    ok_rt = False
                    break
                if got != want:
                    ok_rt = False
        report.add("codec", "roundtrip", k, ok_rt)

    dn_ok = True
    for p in points[:6]:
        N = sched.n[0] ** 2
        s1 = pipeline.encode(p, 1, (-4 * N, 4 * N))
        sK = pipeline.encode(p, sched.kmax, (-4 * N, 4 * N))
        val = metrics.stream_dN(s1, sK, N)
        if val > 3 * sched.alpha_float / 2 + 1e-9:
            dn_ok = False
    report.add("codec", "dN-convergence", 1, dn_ok)
    return report


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
    lines = []
    for (n, length), cb in sorted(pipeline._first.items()):
        lines.append("first n=%d len=%d size=%d" % (n, length, len(cb)))
    for (k, n, _), cb in sorted(pipeline._cond.items(), key=lambda kv: kv[0][:2]):
        lines.append("cond k=%d n=%d size=%d" % (k, n, len(cb)))
    put("codebooks.txt", "\n".join(lines) + ("\n" if lines else ""))


def load_pipeline(outdir):
    with open(os.path.join(outdir, "system.txt")) as fh:
        system = parse_system(fh.read())
    with open(os.path.join(outdir, "schedule.txt")) as fh:
        schedule = ScaleSchedule.parse(fh.read())
    return build_pipeline(system, schedule.K, schedule.kmax, schedule=schedule,
                          reverify_override=False)
