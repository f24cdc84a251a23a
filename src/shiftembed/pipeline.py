"""Pipeline assembly: schedule, towers, codebooks, periodic code.

A Pipeline owns everything the codec needs and keeps nothing per point:
a point context and its tower runtime live for one encode pass (a sampled
point's runtime for one verify run: its probes and its encode passes),
and codebooks rank on the system's counts and are built per lookup.  An
odometer pipeline keeps its codes over whole periods, which every odometer
encode slices (Pipeline.period_tiles); they are built on the first encode,
not by build_pipeline, and a decode reads its codewords as for any system.
build_pipeline checks the schedule and its layout capacity; the other
build-time guarantees, every codebook's capacity and the tower invariants,
are precheck_pipeline's, which `shiftembed build` runs before it saves.
A pipeline saves to a directory of the flat text files that load_pipeline
reads, system.txt, schedule.txt and (for a system with periodic points)
periodic_code.txt, and loads back deterministically, the towers rebuilt
from the system and schedule.
"""

import itertools
import os

from . import codec
from .entropy import (ScaleSchedule, build_schedule, check_layout_capacity,
                      conditional_count, verify_schedule)
from .errors import CapacityError, ScheduleError, ShiftEmbedError, SpecParseError
from .markers import build_towers, verify_tower
from .systems import (OdometerPoint, Point, itinerary, parse_system, periodic_orbits,
                      serialize_system)

DEFAULT_SEED = 17
CORE_MAX = 12   # the sampler's short-core length scale


class Pipeline:
    """A system's schedule, towers and periodic code.

    period_tiles is None until the first odometer encode, then one
    (symbols, resolution, P) per scale: the scale's code over P 2^j
    positions, P the odometer's period and j the least with
    P 2^j >= P - 1 + w, w the widest window encoded so far.  It
    is the one state an encode leaves behind, and holds fewer than
    2 (P - 1 + w) symbols and as many resolutions per scale.
    """

    def __init__(self, system, schedule, stack, periodic_code):
        self.system = system
        self.schedule = schedule
        self.stack = stack
        self.periodic_code = periodic_code
        self.period_tiles = None    # built by codec._period_streams

    @property
    def kmax(self):
        return self.schedule.kmax

    def decode_margin(self):
        """Stream inflation that certifies a requested window after decoding."""
        return self.schedule.decode_radius(self.kmax) + 2 * self.schedule.nprime[-1]

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


def build_pipeline(system, K, kmax, C=8.0, m=None, N_cert=64, schedule=None):
    """Assemble a pipeline: schedule (built or override), towers, periodic code."""
    if schedule is None:
        schedule = build_schedule(system, K, kmax, C=C, m=m, N_cert=N_cert)
    else:
        _check_periodic_flag(system, schedule)
        # a layout-capacity failure is left to check_layout_capacity,
        # whose CapacityError names the failing scale and block length
        bad = [r.line() for r in verify_schedule(system, schedule).records
               if not r.ok and r.name != "layout-capacity"]
        if bad:
            raise ScheduleError("override schedule fails re-verification:\n%s"
                                % "\n".join(bad))
        check_layout_capacity(schedule)
    stack = build_towers(system, schedule)
    periodic_code = None
    if schedule.periodic:
        periodic_code = codec.build_periodic_code(system, K, schedule.n[0])
    return Pipeline(system, schedule, stack, periodic_code)


def _check_periodic_flag(system, schedule):
    """Refuse a schedule whose periodic flag is not the system's: word
    systems have periodic points, odometers have none."""
    if schedule.periodic != system.periodic:
        raise SpecParseError("schedule has periodic: %d, but the %s system needs periodic: %d"
                             % (schedule.periodic, system.kind, system.periodic))


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
        bad = [r.line() for r in verify_tower(pipeline.stack, k).records if not r.ok]
        if bad:
            raise ScheduleError("tower verification failed at scale %d:\n%s"
                                % (k, "\n".join(bad)), scale=k)


# -- deterministic point sampling ------------------------------------------------


def sample_points(system, count, seed=DEFAULT_SEED):
    """Seeded eventually-periodic sample points, mixing plain graph walks
    with points carrying long periodic cores (to exercise singular blocks);
    a finite system's points in turn."""
    import random
    rng = random.Random(seed)
    if system.kind == "odometer":
        return [OdometerPoint(system, [rng.randrange(p) for p in system.base])
                for _ in range(count)]
    if system.finite:
        # its points are the rotations of its orbits: a walk has nothing to choose
        phases = _cycle_words(system, len(system.states))
        return [Point(w, w, w, 0) for w in itertools.islice(itertools.cycle(phases), count)]
    cycles = _cycle_words(system, 6)
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


def _cycle_words(system, nmax):
    """Cyclically admissible primitive words of period at most nmax: the
    rotations of one orbit walk, sorted."""
    return sorted(v[i:] + v[:i] for v, p in periodic_orbits(system, nmax).items()
                  for i in range(p))


def _stitch_point(system, rng, left, right, middle_len):
    """left-periodic tail | random admissible middle | right-periodic tail,
    or None when 40 walks fail to join the right tail.

    The walk steps through the essential graph, where every state has a
    successor, from the end of a repeated left tail, and it joins the right
    tail where the last M + 2 letters and two right periods are admissible.
    Every (M + 1)-window of the point lies in a tail, in the walk or in
    that junction, so the point is admissible by construction."""
    M = system.memory
    head = left * max(2, -(-(M + 1) // len(left)))
    for _ in range(40):
        word = head
        for _ in range(middle_len):
            word += rng.choice(system._succ[word[-M:]])[-1]
        for _ in range(4 * len(right) + 8):
            if _joins(system, word, right):
                core = word[len(head):]
                return Point(left, core, right, anchor=-rng.randrange(0, max(1, len(core) + 1)))
            word += rng.choice(system._succ[word[-M:]])[-1]
    return None


def _joins(system, word, right):
    tail = word + right * 2
    return system.is_admissible(tail[-(len(right) * 2 + system.memory + 2):])


# -- verify harness ----------------------------------------------------------------


def verify_pipeline(pipeline, points=None, seed=DEFAULT_SEED, sample_count=12,
                    window=(-60, 60)):
    """Run the cross-module invariant suites; report one record per check.
    An empty point list raises ValueError: no record may pass vacuously.

    Each sampled point has one tower runtime: the probes of verify_tower
    at every scale and then the point's encode passes (equivariance, round
    trip, d_N) read it, so its ranks, matches and members are decided once.
    The shifted point of the equivariance check is rendered through a fresh
    runtime of its own, so that record compares two independent passes.
    """
    from . import metrics
    system, sched = pipeline.system, pipeline.schedule
    if points is None:
        points = sample_points(system, sample_count, seed=seed)
    if not points:
        raise ValueError("verify_pipeline needs at least one sample point")
    report = verify_schedule(system, sched)

    probe = points[: max(2, min(4, len(points)))]
    runtimes = [pipeline.stack.runtime(p) for p in probe]
    for k in range(1, sched.kmax + 1):
        report.records += verify_tower(pipeline.stack, k, probe_points=probe,
                                       runtimes=runtimes).records

    # one encode pass per (point, window) serves every scale; an encode,
    # decode or read-back that raises fails its check at that scale, with
    # the first error text as the record's detail, instead of ending the run.
    # The points are taken in order, each through all of its passes, so a
    # runtime is dropped once its point is done.
    kmax = sched.kmax
    a, b = window
    margin = pipeline.decode_margin()
    N, horizon = metrics.dN_horizon(sched)
    equivariance, roundtrip, dn = {}, {}, {}     # failed scale -> first error text
    for i, p in enumerate(points):
        runtime = runtimes.pop(0) if runtimes else pipeline.stack.runtime(p)

        def encode(window):
            return _encode_pass(codec.encode_scales(p, pipeline, window, runtime))

        # the shifted point is rendered on its own window: an odometer
        # encode slices one period, so two encodes would agree by construction
        s0, err0 = encode((a, b))
        s1, err1 = _encode_pass(codec.render_scales(p.shifted(1), pipeline, (a - 1, b - 1)))
        for k in range(1, kmax + 1):
            if k > len(s0) or k > len(s1):
                _fail(equivariance, k, err0 if k > len(s0) else err1)
            elif s0[k - 1].symbols != s1[k - 1].symbols:
                _fail(equivariance, k)
        if i < max(4, len(points) // 3):
            _check_roundtrip(pipeline, p, (a, b), encode((a - margin, b + margin)), roundtrip)
        if i < 6:
            streams, err = encode(horizon)
            if err is not None:
                _fail(dn, 1, err)
            elif metrics.stream_dN(streams[0], streams[-1], N) > metrics.dN_bound(sched, 1):
                _fail(dn, 1)
    for k in range(1, kmax + 1):
        report.add("codec", "equivariance", k, k not in equivariance, equivariance.get(k, ""))
        report.add("codec", "roundtrip", k, k not in roundtrip, roundtrip.get(k, ""))
    report.add("codec", "dN-convergence", 1, 1 not in dn, dn.get(1, ""))
    return report


def _check_roundtrip(pipeline, point, window, encoded, failed):
    """Decode each stream of one encode pass at its scale and compare the
    itineraries read back on the window with the point's own."""
    streams, err = encoded
    want = [itinerary(pipeline.system, point, m, window) for m in pipeline.schedule.m]
    for k in range(1, pipeline.kmax + 1):
        if k > len(streams):
            _fail(failed, k, err)
            continue
        try:
            res = pipeline.decode(streams[k - 1], k)
            got = [res.itinerary_list(l, window) for l in range(1, k + 1)]
        except ShiftEmbedError as exc:
            _fail(failed, k, exc)
            continue
        if got != want[:k]:
            _fail(failed, k)


def _encode_pass(scales):
    """The streams psi_1, psi_2, ... of one encode pass, and the error that
    ended it before k_max, or None."""
    streams = []
    try:
        for stream in scales:
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
    """Write the files load_pipeline reads: system.txt, schedule.txt and,
    for a system with periodic points, periodic_code.txt."""
    os.makedirs(outdir, exist_ok=True)
    def put(name, text):
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    put("system.txt", serialize_system(pipeline.system))
    put("schedule.txt", pipeline.schedule.serialize())
    if pipeline.periodic_code is not None:
        put("periodic_code.txt", pipeline.periodic_code.serialize())


def _read(path, parse, *args):
    """The document at path, read by one of the package's parsers."""
    with open(path) as fh:
        return parse(fh.read(), *args)


def load_pipeline(outdir):
    """Rebuild a saved pipeline: the system and schedule are parsed, the
    towers rebuilt, and the periodic code read from periodic_code.txt and
    checked against both."""
    system = _read(os.path.join(outdir, "system.txt"), parse_system)
    schedule = _read(os.path.join(outdir, "schedule.txt"), ScaleSchedule.parse)
    _check_periodic_flag(system, schedule)
    periodic_code = None
    if schedule.periodic:
        path = os.path.join(outdir, "periodic_code.txt")
        try:
            periodic_code = _read(path, codec.PeriodicCode.parse, system, schedule.n[0],
                                  schedule.K)
        except (OSError, SpecParseError) as exc:
            # an unreadable file is named by its strerror, a refused one by its text
            raise SpecParseError("%s: %s" % (path, getattr(exc, "strerror", exc))) from None
    return Pipeline(system, schedule, build_towers(system, schedule), periodic_code)
