"""Nested marker towers and per-point return structure.

The tower at scale k is the greedy union, over ranked clopen pieces, from
the nested-marker construction: pieces are cylinders of one fixed width,
ranked lexicographically by their window, and a point is accepted exactly
when no strictly smaller-ranked piece is accepted within distance n_k - 1.
Membership is evaluated lazily per point (the rank chase terminates because
ranks strictly decrease), so no flat pattern set is ever built.

Odometer towers live on residues and are always exact and flat.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .blocks import span_at, span_keys
from .clopen import Clopen, OdoClopen
from .errors import (EnumerationBudgetError, SeparationError,
                     ShiftEmbedError, WindowError)
from .systems import periodic_orbits
from .words import (least_period_at_most, least_rotation, min_period, necklace,
                    periodic_window, primitive_root)

FLAT_PATTERN_BUDGET = 300_000
CHASE_LIMIT = 10_000
RETURN_SCAN_CAP = 200_000   # positions a return scan walks before it refuses


class PeriodicNeighborhood:
    """Tagged clopen neighborhood of the periodic points of period <= n.

    The neighborhood of radius r around an orbit point is its width-(2r+1)
    central cylinder.  Orbit identification of a window goes through its
    minimal period: r >= n makes every matching window fully determine the
    orbit and the phase.  Membership is a local test on the window (least
    period at most n, root cyclically admissible), so nothing is enumerated
    until the explicit orbit list is asked for.
    """

    def __init__(self, system, n, r):
        self.system = system
        self.n = n
        self.r = r
        self.separation_check()
        # necklace -> cyclically admissible.  Keys are primitive roots of
        # length <= n; once n covers the memory, an admissible window of
        # width 2r + 1 > 2n holds every cyclic factor of its root that a
        # forbidden word could be, so the memo is bounded by the number of
        # orbits of period <= n
        self._is_orbit = {}

    @cached_property
    def orbits(self):
        """necklace -> least period for every orbit of period <= n."""
        return periodic_orbits(self.system, self.n)

    def has_orbit(self, key):
        """Whether the necklace of a primitive word of length <= n names an orbit."""
        hit = self._is_orbit.get(key)
        if hit is None:
            hit = self._is_orbit[key] = self.system.is_cyclic_word(key)
        return hit

    def match_word(self, window):
        """(necklace, rotation) when the window is a periodic-point window.

        rotation d means window[j] == v[(j + d) % p] for the canonical word v.
        """
        p = least_period_at_most(window, self.n)
        if p is None:
            return None
        root = window[:p]  # primitive: a shorter period of it would be one of the window
        i = least_rotation(root)
        key = root[i:] + root[:i]
        if not self.has_orbit(key):
            return None
        return key, -i % p

    def member(self, point, t):
        """Match of T^t(point) against the neighborhood; None when outside.

        Returns (necklace, phase) with point.letter(i) == v[(i + phase) % p]
        for every i within the matched window.
        """
        window = point.word(t - self.r, t + self.r)
        hit = self.match_word(window)
        if hit is None:
            return None
        key, d = hit
        phase = (d - (t - self.r)) % len(key)
        return key, phase

    def clopen(self):
        """Explicit pattern form (small systems only)."""
        pats = set()
        for key, p in self.orbits.items():
            for j in range(p):
                pats.add(periodic_window(key, j - self.r, j + self.r))
        total = len(pats)
        if total > FLAT_PATTERN_BUDGET:
            raise EnumerationBudgetError("neighborhood too large to materialize")
        return Clopen(self.system, self.r, pats, check=False)

    def separation_check(self):
        """Distinct orbits have disjoint window sets, with enough slack that
        two overlapping matched windows can never disagree on the orbit.

        Both hold exactly when r >= n, by Fine and Wilf (1965): a word with
        periods p and q and length at least p + q - gcd(p, q) also has period
        gcd(p, q).  For p, q <= n that length is at most 2n - 1.  A window of
        width 2r + 1 >= 2n + 1 seen on orbits of least periods p and q thus
        has period gcd(p, q), which forces p = q and the same rotation class;
        and an agreement of length 2r >= 2n between two periodic words of
        periods p, q <= n forces the same orbit the same way.
        """
        if self.r < self.n:
            raise SeparationError("radius %d below period bound %d" % (self.r, self.n))


@dataclass
class TowerReportRecord:
    scale: int
    invariant: str
    method: str
    ok: bool
    detail: str = ""


@dataclass
class TowerReport:
    records: list = field(default_factory=list)

    def add(self, scale, invariant, method, ok, detail=""):
        self.records.append(TowerReportRecord(scale, invariant, method, ok, detail))

    @property
    def passed(self):
        return all(r.ok for r in self.records)

    def lines(self):
        return ["scale=%d %s [%s] %s %s" % (r.scale, r.invariant, r.method,
                                            "PASS" if r.ok else "FAIL", r.detail)
                for r in self.records]


class WordTower:
    """One scale of the greedy marker construction on a word system."""

    def __init__(self, system, schedule, k, pernbhd, parent):
        self.system = system
        self.schedule = schedule
        self.k = k
        self.n = schedule.n[k - 1]
        self.nprime = schedule.nprime[k - 1]
        self.r = schedule.r[k - 1]
        self.prev_nprime = schedule.nprime[k - 2] if k >= 2 else 0
        self.pernbhd = pernbhd
        self.parent = parent
        self.piece_halfwidth = self.r + self.prev_nprime
        # offsets of the rank chase, nearest first
        self.chase_order = [m for m in sorted(range(-(self.n - 1), self.n), key=abs) if m]

    # rank = (tier, window) or None; windows compare lexicographically

    def rank(self, point, pos, runtime):
        cache = runtime.rank_cache[self.k]
        if pos in cache:
            return cache[pos]
        R = self.piece_halfwidth
        window = point.word(pos - R, pos + R)
        out = None
        if self.k == 1:
            if self.pernbhd is None or self.pernbhd.match_word(
                    window[R - self.r: R + self.r + 1]) is None:
                out = (1, window)
        else:
            in_prev = self.parent.member(point, pos, runtime)
            if in_prev:
                merged = self.pernbhd.match_word(window) if self.pernbhd else None
                if merged is None:
                    out = (1, window)
            elif not runtime.near(self.parent, pos, self.prev_nprime):
                central = window[R - self.r: R + self.r + 1]
                if self.pernbhd is None or self.pernbhd.match_word(central) is None:
                    out = (2, window)
        cache[pos] = out
        return out

    def member(self, point, pos, runtime):
        """Greedy acceptance: in a piece, and no smaller-ranked accepted neighbor."""
        cache = runtime.member_cache[self.k]
        if pos in cache:
            return cache[pos]
        rk = self.rank(point, pos, runtime)
        if rk is None:
            cache[pos] = False
            return False
        result = True
        guard = 0
        for m in self.chase_order:
            rk2 = self.rank(point, pos + m, runtime)
            if rk2 is not None and rk2 < rk:
                guard += 1
                if guard > CHASE_LIMIT:
                    raise ShiftEmbedError("rank chase exceeded limit at scale %d" % self.k)
                if self.member(point, pos + m, runtime):
                    result = False
                    break
        cache[pos] = result
        return result

    def accepted_tier(self, point, pos, runtime):
        if not self.member(point, pos, runtime):
            return None
        return self.rank(point, pos, runtime)[0]


class OdometerTower:
    """Exact residue tower: the greedy on residue pieces collapses to the
    digit-prefix cylinder picked out by the nested construction."""

    def __init__(self, system, schedule, k, parent):
        self.system = system
        self.schedule = schedule
        self.k = k
        self.n = schedule.n[k - 1]
        self.nprime = schedule.nprime[k - 1]
        self.parent = parent
        depth = 1
        while system.modulus(depth) < self.n and depth < system.depth:
            depth += 1
        if system.modulus(depth) < self.n:
            raise EnumerationBudgetError(
                "odometer depth %d too shallow for n_%d = %d" % (system.depth, k, self.n))
        self.depth = depth
        mod = system.modulus(depth)
        base = parent.flat.refine(depth).residues if parent else set(range(mod))
        accepted = []
        for rho in sorted(base):
            if all(min((rho - a) % mod, (a - rho) % mod) >= self.n for a in accepted):
                accepted.append(rho)
        self.flat = OdoClopen(system, depth, accepted)
        self.pernbhd = None

    def member(self, point, pos, runtime=None):
        return self.flat.member(point, pos)

    def returns(self, point, lo, hi):
        """Sorted times t in [lo, hi] with T^t(point) in the tower: the
        residue at t is r0 + t, so each accepted residue a returns at
        t = a - r0 (mod M), stepped by M."""
        mod = self.system.modulus(self.depth)
        r0 = point.residue_at(0, self.depth)
        out = []
        for a in self.flat.residues:
            out.extend(range(lo + (a - r0 - lo) % mod, hi + 1, mod))
        out.sort()
        return out

    def rank(self, point, pos, runtime=None):
        return (1, point.residue_at(pos, self.depth)) if self.member(point, pos) else None

    def accepted_tier(self, point, pos, runtime=None):
        return 1 if self.member(point, pos) else None


class TowerRuntime:
    """Per-point memo tables shared by all scales."""

    def __init__(self, stack, point):
        self.stack = stack
        self.point = point
        kmax = stack.schedule.kmax
        self.rank_cache = {k: {} for k in range(1, kmax + 1)}
        self.member_cache = {k: {} for k in range(1, kmax + 1)}
        # scale -> [base, right, left]: right[j] counts the members in
        # [base, base + j), left[j] those in [base - j, base)
        self._counts = {}

    def near(self, tower, pos, w):
        """Whether the tower has a member within distance w - 1 of pos."""
        return self._count_below(tower, pos + w) > self._count_below(tower, pos - w + 1)

    def _count_below(self, tower, x):
        """Members in [base, x) of the tower's scale, negated for x < base;
        grows the count arrays to reach x."""
        counts = self._counts.get(tower.k)
        if counts is None:
            counts = self._counts[tower.k] = [x, [0], [0]]
        base, right, left = counts
        if x >= base:
            for t in range(base + len(right) - 1, x):
                right.append(right[-1] + tower.member(self.point, t, self))
            return right[x - base]
        for t in range(base - len(left), x - 1, -1):
            left.append(left[-1] + tower.member(self.point, t, self))
        return -left[base - x]


class TowerStack:
    def __init__(self, system, schedule, towers):
        self.system = system
        self.schedule = schedule
        self.towers = towers

    def __getitem__(self, k):
        return self.towers[k - 1]

    def __len__(self):
        return len(self.towers)

    def runtime(self, point):
        return TowerRuntime(self, point)

    def serialize(self):
        out = []
        for tower in self.towers:
            out.append("scale: %d" % tower.k)
            if isinstance(tower, OdometerTower):
                out.append("depth: %d" % tower.depth)
                out.append("residues: [%s]" % ", ".join(map(str, sorted(tower.flat.residues))))
            else:
                orbits = sorted(tower.pernbhd.orbits) if tower.pernbhd else []
                out.append("orbits: [%s]" % ", ".join(orbits))
        return "\n".join(out) + "\n"


def build_towers(system, schedule):
    """Build the tower stack for every scale of the schedule."""
    towers = []
    parent = None
    for k in range(1, schedule.kmax + 1):
        if system.kind == "odometer":
            tower = OdometerTower(system, schedule, k, parent)
        else:
            pernbhd = None
            if schedule.periodic:
                pernbhd = PeriodicNeighborhood(system, schedule.n[k - 1], schedule.r[k - 1])
            tower = WordTower(system, schedule, k, pernbhd, parent)
        towers.append(tower)
        parent = tower
    return TowerStack(system, schedule, towers)


# -- return structure ----------------------------------------------------------


@dataclass
class Interval:
    """Half-open stretch [start, end) of the return structure at one scale.

    Unbounded sides carry None.  Singular intervals are tagged with the
    periodic orbit their orbit segment shadows: point.letter(i) equals
    orbit[(i + phase) % m] throughout the stretch.
    """

    start: object
    end: object
    kind: str                  # "regular" | "singular"
    special: bool = False
    orbit: str = None
    phase: int = None
    m: int = None
    adj_start: object = None   # boundary after the inductive adjustment
    adj_end: object = None

    def length(self):
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def covers(self, t):
        return (self.start is None or t >= self.start) and (self.end is None or t < self.end)


@dataclass
class ReturnPartition:
    scale: int
    intervals: list
    returns: list
    computed_range: tuple
    keys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keys = span_keys(self.intervals)

    def interval_at(self, t):
        iv = span_at(self.intervals, self.keys, t)
        if iv is None:
            raise WindowError("time %d outside computed range %r" % (t, self.computed_range))
        return iv


def _side_has_returns_forever(tower, point, left):
    """Exact dichotomy: a tail keeps returning iff its least period exceeds n_k
    (otherwise the deep tail sits inside the periodic neighborhood and the
    rank of every deep position is None)."""
    if tower.pernbhd is None:
        return True  # aperiodic: the tower covers everything
    root = primitive_root(point.left if left else point.right)
    if len(root) > tower.n:
        return True
    return not tower.pernbhd.has_orbit(necklace(root))


def _scan_for_return(tower, point, runtime, from_pos, direction, quiet_bound):
    """Nearest return at or beyond from_pos in one direction.

    None when the side is certified quiet (deep periodic tail) and no return
    exists before the quiet zone.  Persistent sides always terminate because
    return gaps are bounded once the tail structure repeats.
    """
    t = from_pos
    for _ in range(RETURN_SCAN_CAP):
        if quiet_bound is not None and (t < quiet_bound if direction < 0 else t > quiet_bound):
            return None
        if tower.member(point, t, runtime):
            return t
        t += direction
    raise WindowError("no return within %d steps from %d" % (RETURN_SCAN_CAP, from_pos))


def return_partition(point, stack, k, window, prev_layout=None, prev_partition=None,
                     runtime=None):
    """Return-time interval structure of the point at scale k.

    The window is inflated internally by 2 n'_k; singular stretches crossing
    the inflated window are resolved exactly using the eventual periodicity
    of the point (deep periodic tails admit no returns once their windows
    are fully periodic, and non-periodic tails return within every 2 n'_k).
    """
    tower = stack[k]
    if runtime is None and isinstance(tower, WordTower):
        runtime = stack.runtime(point)
    a, b = window
    len_lo, len_hi = stack.schedule.block_bounds(k)
    pad = 2 * tower.nprime
    lo, hi = a - pad, b + pad

    if hasattr(point, "digits"):
        scan_lo, scan_hi = lo - 2 * tower.nprime, hi + 2 * tower.nprime
        returns = tower.returns(point, scan_lo, scan_hi)
        if not returns:
            raise WindowError("aperiodic tower produced no returns on %r" % ((scan_lo, scan_hi),))
        left_open = right_open = False
    else:
        core_lo, core_hi = point.core_span()
        H = tower.piece_halfwidth
        quiet_left = None if _side_has_returns_forever(tower, point, left=True) \
            else core_lo - H - 1
        quiet_right = None if _side_has_returns_forever(tower, point, left=False) \
            else core_hi + H
        first = _scan_for_return(tower, point, runtime, lo, -1, quiet_left)
        last = _scan_for_return(tower, point, runtime, hi, +1, quiet_right)
        left_open = first is None
        right_open = last is None
        scan_lo = (quiet_left - 2 * tower.nprime if left_open else first) - 1
        scan_hi = (quiet_right + 2 * tower.nprime if right_open else last) + 1
        returns = [t for t in range(scan_lo + 1, scan_hi)
                   if tower.member(point, t, runtime)]

    intervals = []
    if not returns:
        intervals.append(_tag_singular(Interval(None, None, "singular"), point, stack,
                                       k, (scan_lo, scan_hi), runtime))
    else:
        if left_open:
            intervals.append(_tag_singular(Interval(None, returns[0], "singular"),
                                           point, stack, k, (scan_lo, scan_hi), runtime))
        for t0, t1 in zip(returns, returns[1:]):
            gap = t1 - t0
            kind = "regular" if gap < len_hi else "singular"
            iv = Interval(t0, t1, kind)
            if kind == "singular":
                iv = _tag_singular(iv, point, stack, k, (scan_lo, scan_hi), runtime)
            else:
                if gap < len_lo:
                    raise ShiftEmbedError("return gap %d below n_%d" % (gap, k))
            intervals.append(iv)
        if right_open:
            intervals.append(_tag_singular(Interval(returns[-1], None, "singular"),
                                           point, stack, k, (scan_lo, scan_hi), runtime))

    for iv in intervals:
        iv.adj_start, iv.adj_end = iv.start, iv.end
    if prev_layout is not None:
        _adjust_boundaries(intervals, prev_layout, stack.schedule, k)
    part = ReturnPartition(scale=k, intervals=intervals,
                           returns=returns, computed_range=(scan_lo, scan_hi))
    if prev_partition is not None:
        _check_special_nesting(part, prev_partition)
    return part


def _tag_singular(iv, point, stack, k, comp_range, runtime):
    """Identify the single periodic orbit a singular stretch shadows."""
    tower = stack[k]
    if tower.pernbhd is None:
        raise ShiftEmbedError("singular stretch in an aperiodic system at scale %d" % k)
    lo = comp_range[0] if iv.start is None else iv.start
    hi = comp_range[1] if iv.end is None else iv.end
    hits = set()
    for t in range(lo, hi):
        if not runtime.near(tower, t, tower.nprime):
            hit = tower.pernbhd.member(point, t)
            if hit is None:
                raise ShiftEmbedError(
                    "covering violated: time %d of a singular stretch matches no orbit" % t)
            hits.add(hit)
    if not hits:
        raise ShiftEmbedError("singular stretch %r has no interior points" % ((iv.start, iv.end),))
    if len(hits) > 1:
        raise SeparationError("singular stretch matches several orbits: %r" % hits)
    key, phase = hits.pop()
    iv.orbit, iv.phase, iv.m = key, phase, len(key)
    iv.special = stack.schedule.is_special(k, iv.m)
    return iv


def _adjust_boundaries(intervals, prev_layout, schedule, k):
    """Move regular boundaries to block starts or marker positions of the
    previous layout (inductive rule of the periodic construction)."""
    for iv in intervals:
        for attr in ("start", "end"):
            b = getattr(iv, attr)
            if b is None:
                continue
            blk = prev_layout.block_at(k - 1, b)
            if blk is None:
                continue
            if blk.kind == "regular":
                setattr(iv, "adj_" + attr, blk.start)
            else:
                marks = prev_layout.marker_progression(blk, k - 1)
                nxt = [p for p in marks if p >= b]
                if nxt:
                    setattr(iv, "adj_" + attr, nxt[0])


def _check_special_nesting(part, prev_part):
    """The deep middle of a special singular block sits inside a singular
    block of the previous scale (the nesting property)."""
    plo, phi = prev_part.computed_range
    for iv in part.intervals:
        if iv.kind == "singular" and iv.special:
            a = plo + 1 if iv.start is None else iv.start
            b = phi - 1 if iv.end is None else iv.end - 1
            mid = max(plo + 1, min(phi - 1, (a + b) // 2))
            if prev_part.interval_at(mid).kind != "singular":
                raise ShiftEmbedError("special singular block not nested in previous scale")


# -- verification ---------------------------------------------------------------


def verify_tower(stack, k, probe_points=None):
    """Exact verification of the three tower invariants at scale k.

    Odometer towers are flat residue sets and are checked by plain set
    algebra.  Word towers are evaluated lazily and are checked by the
    structural atoms that imply the invariants (piece periodicity exclusion,
    orbit window separation, Fine-and-Wilf overlap margins) plus
    deterministic probe sweeps along supplied points.
    """
    tower = stack[k]
    report = TowerReport()

    if isinstance(tower, OdometerTower):
        mod = tower.system.modulus(tower.depth)
        res = tower.flat.residues
        ok = all(not (res & {(r + i) % mod for r in res}) for i in range(1, tower.n))
        report.add(k, "disjointness", "flat-exact", ok)
        covered = set()
        for i in range(-(tower.nprime - 1), tower.nprime):
            covered |= {(r + i) % mod for r in res}
        report.add(k, "covering", "flat-exact", covered == set(range(mod)),
                   "uncovered=%d" % (mod - len(covered)))
        if tower.parent is not None:
            ok = tower.flat.is_subset(tower.parent.flat)
            report.add(k, "nesting", "flat-exact", ok)
        else:
            report.add(k, "nesting", "flat-exact", True, "base scale")
        return report

    # word tower ---------------------------------------------------------------
    w1 = 2 * tower.piece_halfwidth + 1
    try:
        count = tower.system.count_words(w1)
    except Exception:
        count = None
    if count is not None and count <= FLAT_PATTERN_BUDGET and k == 1:
        bad = []
        for u in tower.system.words(w1):
            p = min_period(u)
            if p < tower.n and (tower.pernbhd is None or
                                tower.pernbhd.match_word(u) is None):
                bad.append(u)
        report.add(k, "disjointness", "structural-exact", not bad,
                   "short-period pieces escaping the neighborhood: %d" % len(bad))
    else:
        ok = (2 * tower.r + 1) >= 2 * tower.n - 1 and tower.n >= tower.system.memory
        report.add(k, "disjointness", "structural-exact", ok,
                   "width/periodicity exclusion margin")
    if tower.pernbhd is not None:
        try:
            tower.pernbhd.separation_check()
            report.add(k, "covering", "structural-exact", True,
                       "orbit windows separated; merge margin holds")
        except SeparationError as exc:
            report.add(k, "covering", "structural-exact", False, str(exc))
    else:
        report.add(k, "covering", "structural-exact", True, "aperiodic: greedy covers")
    report.add(k, "nesting", "structural-exact", True,
               "tier-1 pieces require parent membership by construction")

    for point in probe_points or []:
        runtime = stack.runtime(point)
        lo, hi = -4 * tower.nprime, 4 * tower.nprime
        members = [t for t in range(lo, hi + 1) if tower.member(point, t, runtime)]
        ok_dis = all(t1 - t0 >= tower.n for t0, t1 in zip(members, members[1:]))
        report.add(k, "disjointness", "probe", ok_dis, "point %r" % (point,))
        ok_cov = True
        for t in range(lo + tower.nprime, hi - tower.nprime):
            if not runtime.near(tower, t, tower.nprime):
                if tower.pernbhd is None or tower.pernbhd.member(point, t) is None:
                    ok_cov = False
                    break
        report.add(k, "covering", "probe", ok_cov, "point %r" % (point,))
        if k >= 2:
            ok_nest = True
            for t in members:
                tier = tower.accepted_tier(point, t, runtime)
                if tier == 1 and not tower.parent.member(point, t, runtime):
                    ok_nest = False
                if tier == 2 and runtime.near(tower.parent, t, tower.prev_nprime):
                    ok_nest = False
            report.add(k, "nesting", "probe", ok_nest, "point %r" % (point,))
    return report


def periodic_neighborhood(system, n, r):
    """Tagged neighborhood of the periodic points of period <= n.

    Aperiodic systems (odometers) have none: an empty neighborhood object
    whose clopen form is the empty set.
    """
    if system.kind == "odometer":
        return None
    return PeriodicNeighborhood(system, n, r)
