"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported maxima.
"""

import random
import time
from fractions import Fraction

import pytest

from check_reference import (filtered_least_period_words, forbidden_shape_count_bound, l1,
                             matpow_int, min_period, verify_injective)
from shiftembed.entropy import appendix_fullness_check, build_schedule, verify_schedule
from shiftembed.errors import ScheduleError
from shiftembed.markers import verify_tower
from shiftembed.metrics import (besicovitch_estimate, dN_distance,
                                empirical_measure, periodic_orbit_measure,
                                stream_dN)
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import (Point, dyadic_odometer, enumerate_periodic,
                                enumerate_words, full_shift, golden_mean,
                                itinerary, least_period_words, validate_point)
from shiftembed.words import periodic_window

WINDOW = (-200, 200)
SAMPLES = 200
SEED = 20260808


@pytest.fixture(scope="module")
def pipe():
    p = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    assert p.schedule.n[0] == 9
    return p


@pytest.fixture(scope="module")
def points(pipe):
    return sample_points(golden_mean(), SAMPLES, seed=SEED)


def test_criterion_01_roundtrip(pipe, points):
    """200 seeded points, windows [-200, 200]: V_1 and V_2 itineraries exact."""
    t0 = time.time()
    margin = pipe.decode_margin()
    a, b = WINDOW
    ok = 0
    for p in points:
        stream = pipe.encode(p, 2, (a - margin, b + margin))
        res = pipe.decode(stream, 2)
        exact = True
        for l in (1, 2):
            want = itinerary(golden_mean(), p, pipe.schedule.m[l - 1], (a, b))
            if res.itinerary_list(l, (a, b)) != want:
                exact = False
        ok += exact
    elapsed = time.time() - t0
    print("\n[1] round-trip: %d/%d exact in %.1fs (target < 60s): %s"
          % (ok, SAMPLES, elapsed, "PASS" if ok == SAMPLES else "FAIL"))
    assert ok == SAMPLES
    assert elapsed < 60.0


def test_criterion_02_equivariance(pipe, points):
    """encode_k(Tx)[a, b] == encode_k(x)[a+1, b+1], byte-exact, all scales."""
    a, b = -80, 80
    bad = 0
    for p in points:
        for s0, s1 in zip(pipe.encode_scales(p, (a + 1, b + 1)),
                          pipe.encode_scales(p.shifted(1), (a, b))):
            if s0.symbols != s1.symbols:
                bad += 1
    print("\n[2] equivariance: %d violations (zero tolerance): %s"
          % (bad, "PASS" if bad == 0 else "FAIL"))
    assert bad == 0


def test_criterion_03_towers(pipe):
    """Tower invariants exact: golden mean k <= 2, dyadic odometer k <= 3."""
    probes = sample_points(golden_mean(), 4, seed=SEED + 1)
    failures = []
    for k in (1, 2):
        rep = verify_tower(pipe.stack, k, probe_points=probes)
        failures += [r for r in rep.records if not r.ok]
    odo = dyadic_odometer(8)
    opipe = build_pipeline(odo, K=2, kmax=3, N_cert=128)
    oprobes = sample_points(odo, 4, seed=SEED + 2)
    for k in (1, 2, 3):
        rep = verify_tower(opipe.stack, k, probe_points=oprobes)
        failures += [r for r in rep.records if not r.ok]
        assert all(r.name.endswith("(flat-exact)") for r in rep.records
                   if not r.name.endswith("(probe)")), "odometer checks must be flat-exact"
    print("\n[3] marker towers: %d failing records (zero tolerance): %s"
          % (len(failures), "PASS" if not failures else "FAIL"))
    assert not failures


def test_criterion_04_epsilon_injectivity(pipe, points):
    """Exhaustive pairs: equal scale-1 windows of radius 4 n_1 imply equal V_1 cell.

    The family mixes periodic points, seeded samples, and tail-swapped
    variants of the samples (identical deep central words) so that
    window-equal pairs actually occur and the implication is exercised.
    """
    R = 4 * pipe.schedule.n[0]
    family = []
    for n in range(1, 9):
        family.extend(enumerate_periodic(golden_mean(), n)[0])
    family.extend(points)
    for p in points[:60]:
        q = Point("0", p.word(-95, 95), "0", -95)
        validate_point(golden_mean(), q)
        family.append(q)
    streams = [(p, tuple(pipe.encode(p, 1, (-R, R)).symbols)) for p in family]
    violations = 0
    pairs = 0
    by_window = {}
    for p, w in streams:
        by_window.setdefault(w, []).append(p)
    for w, group in by_window.items():
        for i, p in enumerate(group):
            for q in group[i + 1:]:
                pairs += 1
                if p.letter(0) != q.letter(0):
                    violations += 1
    print("\n[4] eps-injectivity: %d window-equal pairs among %d streams, "
          "%d violations: %s" % (pairs, len(streams), violations,
                                 "PASS" if pairs > 0 and violations == 0 else "FAIL"))
    assert pairs > 0, "the family must produce window-equal pairs"
    assert violations == 0


def test_criterion_05_periodic_code(pipe):
    """Prefix injectivity for n_1 in {9, 16} over all orbits, plus the
    counting bound sum_{l<n} K^l < K^n/(K-1) for n <= 16."""
    from shiftembed.codec import build_periodic_code
    t0 = time.time()
    ok = True
    for n1 in (9, 16):
        code = build_periodic_code(golden_mean(), 2, n1)
        orbits = 0
        for n in range(1, n1 + 1):
            orbits += len({min(w[i:] + w[:i] for i in range(n))
                           for w in filtered_least_period_words(golden_mean(), n)})
        assert len(code.orbit_code) == orbits
        if not verify_injective(code):
            ok = False
    for n in range(1, 17):
        total, bound = forbidden_shape_count_bound(n, 2)
        if not total < bound:
            ok = False
    elapsed = time.time() - t0
    print("\n[5] periodic code: injectivity for n1 in {9, 16} and count bound "
          "n <= 16 in %.1fs (target < 30s): %s" % (elapsed, "PASS" if ok else "FAIL"))
    assert ok and elapsed < 30.0


def test_criterion_06_dN_convergence(pipe, points):
    """sup d_N(psi_1 x, psi x) at N = n_1^2 <= 3 alpha / 2; scale 2 <= 3 alpha / 4."""
    alpha = pipe.schedule.alpha_float
    N = pipe.schedule.n[0] ** 2
    H = 2 * N
    worst1 = Fraction(0)
    worst2 = Fraction(0)
    for p in points:
        s1, s2 = pipe.encode_scales(p, (-H, H))
        limit = s2.unresolved()
        worst1 = max(worst1, stream_dN(s1, limit, N))
        worst2 = max(worst2, stream_dN(s2, limit, pipe.schedule.n[1] ** 2 if
                                       pipe.schedule.n[1] ** 2 <= H else N))
    ok1 = worst1 <= Fraction(3) * Fraction(pipe.schedule.alpha) / 2
    ok2 = worst2 <= Fraction(3) * Fraction(pipe.schedule.alpha) / 4
    print("\n[6] dN convergence: max d_N(psi_1, psi) = %.4f (bound %.4f), "
          "max d_N(psi_2, psi) = %.4f (bound %.4f): %s"
          % (float(worst1), 1.5 * alpha, float(worst2), 0.75 * alpha,
             "PASS" if ok1 and ok2 else "FAIL"))
    assert ok1 and ok2


def test_criterion_07_metric_laws(pipe):
    """d_N nonincreasing on 1000 pairs; pseudometric axioms exact on triples."""
    rng = random.Random(SEED + 3)
    pts = sample_points(golden_mean(), 60, seed=SEED + 4)
    grid = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    violations = 0
    for _ in range(1000):
        x, y = rng.choice(pts), rng.choice(pts)
        vals = [dN_distance(x, y, N) for N in grid]
        if vals != sorted(vals, reverse=True):
            violations += 1
    tails = [Point("0", "0", "0", 0), Point("01", "01", "01", 0),
             Point("001", "001", "001", 0), Point("10", "0100", "010", -2),
             Point("00100", "0", "00101", 0)]
    for x in tails:
        if besicovitch_estimate(x, x)[0] != 0:
            violations += 1
    for x in tails:
        for y in tails:
            if besicovitch_estimate(x, y)[0] != besicovitch_estimate(y, x)[0]:
                violations += 1
            for z in tails:
                dxz = besicovitch_estimate(x, z)[0]
                if dxz > besicovitch_estimate(x, y)[0] + besicovitch_estimate(y, z)[0]:
                    violations += 1
    print("\n[7] metric laws: %d violations (zero tolerance): %s"
          % (violations, "PASS" if violations == 0 else "FAIL"))
    assert violations == 0


def test_criterion_08_counting_oracles():
    """Word counts vs transfer matrix (n <= 20), Fix vs the matrix trace and
    vs the least-period points over the divisors (n <= 12), and one n-step
    cell per point of least period n on the full shift (n <= 10): the
    per-cell periodic growth is 0."""
    gm = golden_mean()
    ok = True
    for n in range(1, 21):
        if len(enumerate_words(gm, n)) != gm.count_words(n):
            ok = False
    expected = [2, 3, 5, 8]
    for n, c in enumerate(expected, start=1):
        if gm.count_words(n) != c:
            ok = False
    for n in range(1, 13):
        power = matpow_int(gm.adjacency, n)
        trace = sum(power[i][i] for i in range(len(power)))
        least = sum(len(enumerate_periodic(gm, d)[0]) for d in range(1, n + 1) if n % d == 0)
        if not gm.fix_count(n) == trace == least:
            ok = False
    fs = full_shift()
    for n in range(1, 11):
        cells = [periodic_window(w, 0, n - 1) for w in least_period_words(fs, n)]
        if len(set(cells)) != len(cells):
            ok = False
    print("\n[8] counting oracles: %s" % ("PASS" if ok else "FAIL"))
    assert ok


def test_criterion_09_schedule_soundness():
    """build_schedule(golden mean) re-verifies; the full shift is rejected."""
    sched = build_schedule(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    records = verify_schedule(golden_mean(), sched).records
    ok = all(r.ok for r in records)
    rejected = False
    try:
        build_schedule(full_shift(), K=2, kmax=1)
    except ScheduleError:
        rejected = True
    print("\n[9] schedule soundness: re-verification %s, full shift rejected %s: %s"
          % (ok, rejected, "PASS" if ok and rejected else "FAIL"))
    assert ok and rejected


def test_criterion_10_appendix_fullness():
    """Full 2-shift passes with a matching witness; golden mean fails at n=2."""
    fs = full_shift()
    ok, witness = appendix_fullness_check(fs, 2, 12, target="010101")
    good = ok and witness.word(-3, 2) == "010101"
    validate_point(fs, witness)
    ok2, n = appendix_fullness_check(golden_mean(), 2, 12)
    good = good and not ok2 and n == 2
    print("\n[10] appendix fullness: %s" % ("PASS" if good else "FAIL"))
    assert good


def test_criterion_11_measure_pushforward(pipe):
    """Every periodic orbit of period <= 6: the empirical measure of its
    encoded stream equals the pushforward table of its code word exactly."""
    code = pipe.periodic_code
    checked = 0
    ok = True
    for n in range(1, 7):
        for p in enumerate_periodic(golden_mean(), n)[0]:
            span = 6 * n
            s = pipe.encode_limit(p, (0, span - 1))
            word = "".join(s.symbols)
            if min_period(word) != n:
                ok = False
            stream_point = Point(word[:n], word[:n], word[:n], 0)
            for L in (1, 2, 3):
                mu = empirical_measure(stream_point, L, n)
                key = min(p.core[i:] + p.core[:i] for i in range(n))
                table = periodic_orbit_measure(code.orbit_code[key], L)
                shift_tables = [periodic_orbit_measure(
                    code.orbit_code[key][i:] + code.orbit_code[key][:i], L)
                    for i in range(n)]
                if all(l1(mu, t) != 0 for t in [table] + shift_tables):
                    ok = False
            checked += 1
    print("\n[11] measure pushforward: %d orbits checked: %s"
          % (checked, "PASS" if ok else "FAIL"))
    assert ok and checked == sum(len(enumerate_periodic(golden_mean(), n)[0])
                                 for n in range(1, 7))
