"""Nested marker towers and per-point return structure.

The tower at scale k is the greedy union, over ranked clopen pieces, from
the nested-marker construction: pieces are cylinders of one fixed width,
ranked lexicographically by their window, and a point is accepted exactly
when no strictly smaller-ranked piece is accepted within distance n_k - 1.
Membership is decided per point, never through a flat pattern set.  Over
the range a return partition scans, WordTower.members ranks every position
in one pass over the runtime's letter text (WordTower.rank_range) and then
decides them in increasing rank order, so each test reads only members
already decided.  Anywhere else, and for neighbours past that range's
edges, the recursive WordTower.member is the definition: its rank chase
terminates because ranks strictly decrease, and CHASE_LIMIT bounds its
depth.  A lone rank is the same pass on one position, so the rank rule has
one copy, and the central-window match rule one (TowerRuntime.match).  A tail
of least period at most n_k lies in the scale-k periodic neighborhood, so
no position past its quiet bound (TowerRuntime.quiet_bounds) is in a piece:
a rank there is None without matching its window, and members are sought
between the quiet bounds only.

Odometer towers live on residues and are always exact and flat.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import inf

from .blocks import span_at, span_keys
from .errors import (EnumerationBudgetError, NestingError, SeparationError,
                     ShiftEmbedError, VerifyReport, WindowError)
from .systems import periodic_orbits
from .words import necklace, periodic_name, primitive_root

FLAT_PATTERN_BUDGET = 300_000
CHASE_LIMIT = 200          # nested lazy rank-chase frames, as at a swept range's edges;
                           # far below the recursion limit
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
        hit = periodic_name(window, self.n)
        if hit is None or not self.has_orbit(hit[0]):
            return None
        return hit

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
        """The piece of T^pos(point): (tier, full window), the full window
        of width 2R + 1 with R = r + n'_(k-1), or None outside every piece.

        At k = 1 the tier is 1 when the central radius-r window matches no
        orbit of period <= n.  At k >= 2 it is 1 when pos is a member of the
        scale below and the full window matches no orbit of period <= n,
        and 2 when no member of the scale below lies within n'_(k-1) - 1 of
        pos and the central window matches no orbit; any other position is
        in no piece.  A lone position's rank is rank_range's pass on
        [pos, pos], so a chase and a sweep rank by one rule.

        The pass tests the full window without matching it.  It matches
        exactly when the central radius-r window
        matches, with least period p, and p is also a period of the full
        window.  If the full window has least period q <= n, the central
        window has period q and least period p <= q, so by Fine and Wilf
        (1965) it has period gcd(p, q): p divides q.  The central window
        holds a whole q-cycle of the full window, and that cycle has period
        p, so the full window has period p and q = p, with the same root up
        to rotation.  Conversely a full window of period p <= n over a
        central window of least period p has least period p and the same
        necklace.  So one slice comparison replaces a second match.
        """
        cache = runtime.rank_cache[self.k]
        if pos not in cache:
            self.rank_range(point, pos, pos, runtime)
        return cache.get(pos)

    def rank_range(self, point, lo, hi, runtime):
        """Rank each position of [lo, hi] between the quiet bounds that the
        rank cache lacks, in increasing order, into the cache.

        The quiet bounds are read once, and every piece window is sliced
        from one text of the runtime's letters.  The central windows are
        matched left to right, where a rank needs them, so each match
        slides from its left neighbour (TowerRuntime.match).  At k >= 2,
        parent membership and TowerRuntime.near read the parent's swept
        members with two pointers that move with the position; a position
        outside the parent's swept range, or one with no parent member in
        reach of a pointer, asks the parent's lazy rule, in the order the
        rank rule reads them.
        """
        cache = runtime.rank_cache[self.k]
        left, right = runtime.quiet_bounds(self)
        if left is not None and lo < left:
            lo = left
        if right is not None and hi > right:
            hi = right
        if lo > hi:
            return
        R = self.piece_halfwidth
        W = 2 * R + 1
        text = runtime.window(lo - R, hi + R)       # the piece window at t is text[t - lo:][:W]
        match = runtime.match
        if self.k == 1:
            for t in range(lo, hi + 1):
                if t not in cache:
                    cache[t] = None if match(self, t) is not None else \
                        (1, text[t - lo:t - lo + W])
            return
        parent, w = self.parent, self.prev_nprime
        # the parent's members are known on its swept range, and past a
        # quiet bound that the range reaches, where there are none
        plo, phi, members = runtime.swept.get(self.k - 1, (0, -1, ()))
        qlo, qhi = runtime.quiet_bounds(parent)
        known_lo = -inf if qlo is not None and plo <= qlo <= phi else plo
        known_hi = inf if qhi is not None and plo <= qhi <= phi else phi
        n_members = len(members)
        i = bisect_left(members, lo)                # the first member at or after t
        j = bisect_left(members, lo - w + 1)        # the first member at or after t - w + 1
        for t in range(lo, hi + 1):
            while i < n_members and members[i] < t:
                i += 1
            while j < n_members and members[j] <= t - w:
                j += 1
            if t in cache:
                continue
            if known_lo <= t <= known_hi:
                in_parent = i < n_members and members[i] == t
            else:
                in_parent = parent.member(point, t, runtime)
            rk = None
            if in_parent:
                hit = match(self, t)
                window = text[t - lo:t - lo + W]
                if hit is None or window[hit[2]:] != window[:-hit[2]]:
                    rk = (1, window)
            else:
                near = (j < n_members and members[j] < t + w
                        or not known_lo <= t - w + 1 <= t + w - 1 <= known_hi
                        and runtime.near(parent, t, w))
                if not near and match(self, t) is None:
                    rk = (2, text[t - lo:t - lo + W])
            cache[t] = rk

    def member(self, point, pos, runtime):
        """Greedy acceptance: in a piece, and no smaller-ranked accepted neighbor.

        Each nested call is one frame of the runtime's chase depth, across
        scales; a chase deeper than CHASE_LIMIT is refused by name.
        """
        cache = runtime.member_cache[self.k]
        if pos in cache:
            return cache[pos]
        rk = self.rank(point, pos, runtime)
        result = rk is not None and not any(
            self._beaten_by(point, pos + m, rk, runtime) for m in self.chase_order)
        cache[pos] = result
        return result

    def _beaten_by(self, point, u, rk, runtime):
        """Whether u ranks below rk and is a member, u's membership decided
        by the lazy chase as one more frame."""
        rk2 = self.rank(point, u, runtime)
        if rk2 is None or not rk2 < rk:
            return False
        depth = runtime.chase_depth = runtime.chase_depth + 1
        try:
            if depth > runtime.chase_depth_max:
                if depth > CHASE_LIMIT:
                    raise ShiftEmbedError("rank chase deeper than %d frames at scale %d"
                                          % (CHASE_LIMIT, self.k))
                runtime.chase_depth_max = depth
            return self.member(point, u, runtime)
        finally:
            runtime.chase_depth = depth - 1

    def members(self, point, lo, hi, runtime):
        """The sorted members in [lo, hi]: rank_range ranks the range in
        one pass, and the positions are decided in increasing rank order.

        When t comes up, every position of the range that ranks below it is
        decided, so the ones within the chase neighbourhood of t are read by
        one bisection of the accepted list.  Two positions closer than n_k
        never tie in rank: equal windows at shift d < n_k have period d, so
        they lie in the periodic neighbourhood and their rank is None.
        Neighbours outside [lo, hi] go through the lazy member.  Writes the
        member cache, and the result for TowerRuntime.near.
        """
        self.rank_range(point, lo, hi, runtime)
        ranks = runtime.rank_cache[self.k]
        cache = runtime.member_cache[self.k]
        ranked = []
        for t in range(lo, hi + 1):
            rk = ranks.get(t)
            if rk is None:
                cache[t] = False
            else:
                ranked.append((rk, t))
        ranked.sort()
        d_lo, d_hi = min(self.chase_order, default=0), max(self.chase_order, default=0)
        accepted = []
        for rk, t in ranked:
            i = bisect_left(accepted, t + d_lo)
            ok = i == len(accepted) or accepted[i] > t + d_hi
            if ok and (t + d_lo < lo or t + d_hi > hi):
                ok = not any(self._beaten_by(point, t + m, rk, runtime)
                             for m in self.chase_order if not lo <= t + m <= hi)
            cache[t] = ok
            if ok:
                insort(accepted, t)
        runtime.swept[self.k] = (lo, hi, accepted)
        return accepted


def lift_residues(system, residues, depth, new_depth):
    """The residues modulo the depth-`new_depth` modulus of the points whose
    residue modulo the depth-`depth` modulus is in `residues`; new_depth >=
    depth, and a deeper modulus is a multiple of a shallower one."""
    mod = system.modulus(depth)
    return {r + j * mod for r in residues
            for j in range(system.modulus(new_depth) // mod)}


class OdometerTower:
    """Exact residue tower: the greedy on residue pieces collapses to the
    digit-prefix cylinder picked out by the nested construction.  The tower
    is the set `residues` of residues modulo the depth-`depth` modulus."""

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
        base = lift_residues(system, parent.residues, parent.depth, depth) if parent \
            else range(mod)
        accepted = []
        for rho in sorted(base):
            if all(min((rho - a) % mod, (a - rho) % mod) >= self.n for a in accepted):
                accepted.append(rho)
        self.residues = frozenset(accepted)

    def member(self, point, pos, runtime=None):
        return point.residue_at(pos, self.depth) in self.residues

    def returns(self, point, lo, hi):
        """Sorted times t in [lo, hi] with T^t(point) in the tower: the
        residue at t is r0 + t, so each accepted residue a returns at
        t = a - r0 (mod M), stepped by M."""
        mod = self.system.modulus(self.depth)
        r0 = point.residue_at(0, self.depth)
        out = []
        for a in self.residues:
            out.extend(range(lo + (a - r0 - lo) % mod, hi + 1, mod))
        out.sort()
        return out


class TowerRuntime:
    """Per-point memo tables shared by all scales.

    Word towers read the point through one letter text, the letters of
    [_text_lo, _text_lo + len(_text)), which grows geometrically to
    whatever range the towers ask for, and through one match table per
    scale.  swept holds, per scale, the last range that WordTower.members
    swept, and its members.  chase_depth counts the nested rank-chase
    frames under way and chase_depth_max the deepest reached.

    Every table is a function of the point and the position, never of the
    window that asked, so one runtime serves any number of passes over its
    point: an encode pass, or a verify run's probes and encodes.
    """

    def __init__(self, stack, point):
        self.stack = stack
        self.point = point
        kmax = stack.schedule.kmax
        self.rank_cache = {k: {} for k in range(1, kmax + 1)}
        self.member_cache = {k: {} for k in range(1, kmax + 1)}
        # scale -> {t: match of the central window at t, None for no match}
        self._matches = {k: {} for k in range(1, kmax + 1)}
        # scale -> (lo, hi, sorted members in [lo, hi])
        self.swept = {}
        # scale -> (quiet_left, quiet_right)
        self._quiet = {}
        self.chase_depth = self.chase_depth_max = 0
        self._text = ""
        self._text_lo = 0

    def window(self, a, b):
        """Letters a..b inclusive of the point, sliced from the text."""
        lo = self._text_lo
        if a < lo or b >= lo + len(self._text):
            self._grow(a, b)
            lo = self._text_lo
        return self._text[a - lo: b - lo + 1]

    def _grow(self, a, b):
        """Extend the text to cover a..b, each grown side by at least the
        text's own length, so the letters a sweep copies add up to a few
        times the length it reaches."""
        point = self.point
        if not self._text:
            self._text, self._text_lo = point.word(a, b), a
            return
        step = len(self._text)
        lo = self._text_lo
        if a < lo:
            new_lo = min(a, lo - step)
            self._text = point.word(new_lo, lo - 1) + self._text
            self._text_lo = lo = new_lo
        hi = lo + len(self._text)
        if b >= hi:
            self._text += point.word(hi, max(b, hi + step - 1))

    def quiet_bounds(self, tower):
        """(quiet_left, quiet_right) of a word tower's scale: no position
        below quiet_left or above quiet_right has a piece, by the tail
        dichotomy of _side_has_returns_forever; None on a side that returns
        forever.  Each piece window past a bound lies inside its tail."""
        bounds = self._quiet.get(tower.k)
        if bounds is None:
            point = self.point
            core_lo, core_hi = point.core_span()
            H = tower.piece_halfwidth
            bounds = self._quiet[tower.k] = (
                None if _side_has_returns_forever(tower, point, left=True) else core_lo - H - 1,
                None if _side_has_returns_forever(tower, point, left=False) else core_hi + H)
        return bounds

    def match(self, tower, t):
        """Match of the central radius-r window of T^t(point) against the
        tower's periodic neighborhood: (necklace, phase, p) with
        point.letter(i) == necklace[(i + phase) % p] across the window, p
        the window's least period; None outside the neighborhood.

        A match slides from a matched neighbour at t -/+ 1 by one letter
        comparison.  The two windows share 2r >= 2n letters.  If the
        entering letter equals the letter p before it (inward), the new
        window has period p; a shorter period q would give the shared part
        periods p and q, hence period gcd(p, q) by Fine and Wilf (1965), and
        the neighbour's window period gcd(p, q) < p.  So its least period is
        p, with the neighbour's necklace and phase.  If the letters differ,
        a period q <= n of the new window would again force p to divide q,
        and then the entering letter would equal the letter q, hence p,
        before it; so its least period exceeds n and it matches nothing.
        `match_word` runs only where no neighbour has matched yet.
        """
        nb = tower.pernbhd
        table = self._matches[tower.k]
        if t in table:
            return table[t]
        r = nb.r
        window = self.window(t - r, t + r)
        for d in (1, -1):
            hit = table.get(t - d)
            if hit is not None:
                enter = r + d * r           # offset of the entering letter
                if window[enter] != window[enter - d * hit[2]]:
                    hit = None
                break
        else:
            hit = nb.match_word(window)
            if hit is not None:
                key, rot = hit
                hit = (key, (rot - t + r) % len(key), len(key))
        table[t] = hit
        return hit

    def near(self, tower, pos, w):
        """Whether the tower has a member within distance w - 1 of pos.

        Members of the swept range are read by bisection, and none lies
        past a quiet bound; only the positions outside both are decided
        one by one.  A scale with no swept range reads as an empty one.
        """
        a, b = pos - w + 1, pos + w - 1
        lo, hi, members = self.swept.get(tower.k, (0, -1, ()))
        i = bisect_left(members, a)
        if i < len(members) and members[i] <= b:
            return True
        left, right = self.quiet_bounds(tower)
        if left is not None:
            a = max(a, left)
        if right is not None:
            b = min(b, right)
        if lo <= a and b <= hi:
            return False
        rest = chain(range(a, min(b, lo - 1) + 1), range(max(a, hi + 1), b + 1))
        return any(tower.member(self.point, u, self) for u in rest)


class TowerStack:
    def __init__(self, system, schedule, towers):
        self.system = system
        self.schedule = schedule
        self.towers = towers

    def __getitem__(self, k):
        return self.towers[k - 1]

    def __iter__(self):
        return iter(self.towers)

    def __len__(self):
        return len(self.towers)

    def runtime(self, point):
        return TowerRuntime(self, point)


def build_towers(system, schedule):
    """Build the tower stack for every scale of the schedule."""
    towers = []
    parent = None
    for k in range(1, schedule.kmax + 1):
        if system.kind == "odometer":
            tower = OdometerTower(system, schedule, k, parent)
        else:
            pernbhd = PeriodicNeighborhood(system, schedule.n[k - 1], schedule.r[k - 1])
            tower = WordTower(system, schedule, k, pernbhd, parent)
        towers.append(tower)
        parent = tower
    return TowerStack(system, schedule, towers)


# -- return structure ----------------------------------------------------------


@dataclass(slots=True)
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
    adj_start: object = None   # boundary after the inductive adjustment,
    adj_end: object = None     # start and end unless given

    def __post_init__(self):
        if self.adj_start is None:
            self.adj_start = self.start
        if self.adj_end is None:
            self.adj_end = self.end

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
            raise WindowError("time %d outside computed range %r" % (t, self.computed_range),
                              scale=self.scale, position=t)
        return iv


def _side_has_returns_forever(tower, point, left):
    """Exact dichotomy: a tail keeps returning iff its least period exceeds
    n_k or its root names no orbit.

    Otherwise every position t whose piece window [t - R, t + R] lies inside
    the tail has rank None, at every scale.  Let p <= n_k be the tail's least
    period.  The central window has width 2r + 1 > 2n_k >= 2p, so its least
    period is p (a shorter one q would give it period gcd(p, q) by Fine and
    Wilf (1965), and the tail a root shorter than p), and match_word matches
    it.  At k = 1 that is the rank None.  At k >= 2 tier 1 needs the full
    window to break the match's period p, which the tail keeps; tier 2 needs
    a central window that matches nothing.
    """
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
    Members are sought between the quiet bounds only: a lazy scan out of
    the inflated window finds the first and the last return, or the quiet
    bound of a side with none left, and WordTower.members sweeps the range
    between them in rank order.  The computed range keeps a margin of
    2 n'_k past the quiet bound of an open side, where the singular stretch
    is tagged.
    """
    tower = stack[k]
    a, b = window
    len_lo, len_hi = stack.schedule.block_bounds(k)
    pad = 2 * tower.nprime
    lo, hi = a - pad, b + pad

    if isinstance(tower, OdometerTower):
        scan_lo, scan_hi = lo - 2 * tower.nprime, hi + 2 * tower.nprime
        returns = tower.returns(point, scan_lo, scan_hi)
        if not returns:
            raise WindowError("aperiodic tower produced no returns on %r" % ((scan_lo, scan_hi),))
        left_open = right_open = False
    else:
        runtime = stack.runtime(point) if runtime is None else runtime
        quiet_left, quiet_right = runtime.quiet_bounds(tower)
        first = _scan_for_return(tower, point, runtime, lo, -1, quiet_left)
        last = _scan_for_return(tower, point, runtime, hi, +1, quiet_right)
        left_open = first is None
        right_open = last is None
        first = quiet_left if left_open else first
        last = quiet_right if right_open else last
        scan_lo = (first - 2 * tower.nprime if left_open else first) - 1
        scan_hi = (last + 2 * tower.nprime if right_open else last) + 1
        returns = tower.members(point, first, last, runtime)

    # a side that returns nowhere is open, so no returns give (None, None)
    bounds = [None] * left_open + returns + [None] * right_open
    intervals = []
    for t0, t1 in zip(bounds, bounds[1:]):
        if t0 is not None and t1 is not None and t1 - t0 < len_hi:
            if t1 - t0 < len_lo:
                raise ShiftEmbedError("return gap %d below n_%d" % (t1 - t0, k))
            intervals.append(Interval(t0, t1, "regular"))
        else:
            intervals.append(_tag_singular(Interval(t0, t1, "singular"), stack, k,
                                           (scan_lo, scan_hi), runtime))

    if prev_layout is not None:
        _adjust_boundaries(intervals, prev_layout, k)
    part = ReturnPartition(scale=k, intervals=intervals,
                           returns=returns, computed_range=(scan_lo, scan_hi))
    if prev_partition is not None:
        _check_special_nesting(part, prev_partition)
    return part


def _tag_singular(iv, stack, k, comp_range, runtime):
    """Identify the single periodic orbit a singular stretch shadows.

    The covering invariant puts every position with no member within
    n'_k - 1 inside the periodic neighborhood.  The members are exactly the
    returns, and none lies beyond an open side (the quiet zone), so those
    positions form one run [u, v]: n'_k in from a bounded end, out to the
    computed range at an open one.  The run's windows all match one (orbit,
    phase) exactly when the letters over [u - r, v + r] keep the period p
    of the match at u (the sliding argument of TowerRuntime.match), so one
    slice comparison tags the stretch, and it cannot shadow several orbits.
    A run that breaks is walked to the first window that matches nothing.
    """
    tower = stack[k]
    u = comp_range[0] if iv.start is None else iv.start + tower.nprime
    v = comp_range[1] - 1 if iv.end is None else iv.end - tower.nprime
    if u > v:
        raise ShiftEmbedError("singular stretch %r has no interior points" % ((iv.start, iv.end),))
    hit = runtime.match(tower, u)
    if hit is not None:
        text = runtime.window(u - tower.r, v + tower.r)
        if text[hit[2]:] != text[:-hit[2]]:
            hit = None
    if hit is None:
        t = next(t for t in range(u, v + 1) if runtime.match(tower, t) is None)
        raise ShiftEmbedError(
            "covering violated: time %d of a singular stretch matches no orbit" % t)
    key, phase = hit[:2]
    iv.orbit, iv.phase, iv.m = key, phase, len(key)
    iv.special = stack.schedule.is_special(k, iv.m)
    return iv


def _adjust_boundaries(intervals, prev_layout, k):
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
                i = bisect_left(marks, b)
                if i < len(marks):
                    setattr(iv, "adj_" + attr, marks[i])


def _check_special_nesting(part, prev_part):
    """The deep middle of a special singular block sits inside a singular
    block of the previous scale (the nesting property)."""
    plo, phi = prev_part.computed_range
    for iv in part.intervals:
        if iv.kind == "singular" and iv.special:
            a = plo + 1 if iv.start is None else iv.start
            b = phi - 1 if iv.end is None else iv.end - 1
            mid = (a + b) // 2
            if prev_part.interval_at(mid).kind != "singular":
                block = (iv.start, iv.end)
                raise NestingError("scale-%d special singular block %r not nested in "
                                   "previous scale at %d" % (part.scale, block, mid),
                                   scale=part.scale, block=block, position=mid)


# -- verification ---------------------------------------------------------------


def verify_tower(stack, k, probe_points=None, runtimes=None):
    """Exact verification of the three tower invariants at scale k.

    Odometer towers are flat residue sets and are checked by plain set
    algebra.  Word towers are evaluated lazily and are checked by the
    structural atoms that imply the invariants (piece periodicity exclusion,
    orbit window separation, Fine-and-Wilf overlap margins) plus
    deterministic probe sweeps along supplied points.  Each check is one
    "markers" record named invariant(method), e.g. disjointness(probe).

    A probe reads its point through runtimes[i], the caller's runtime of
    probe_points[i], or through a fresh runtime when runtimes is None.  It
    takes the members of [-4 n'_k, 4 n'_k] from WordTower.members, the
    rank-order sweep that the encoder's return partitions use, which records
    them as the runtime's swept range; so the covering probe, whose every
    window lies inside that range, reads the probe's own members by
    bisection.  The nesting probe reads each member's tier from its rank.
    """
    tower = stack[k]
    report = VerifyReport()

    if isinstance(tower, OdometerTower):
        mod = tower.system.modulus(tower.depth)
        res = tower.residues
        ok = all(not (res & {(r + i) % mod for r in res}) for i in range(1, tower.n))
        report.add("markers", "disjointness(flat-exact)", k, ok)
        covered = {(r + i) % mod for r in res for i in range(-(tower.nprime - 1), tower.nprime)}
        report.add("markers", "covering(flat-exact)", k, covered == set(range(mod)),
                   "uncovered=%d" % (mod - len(covered)))
        if tower.parent is not None:
            parent = tower.parent
            depth = max(tower.depth, parent.depth)
            ok = lift_residues(tower.system, res, tower.depth, depth) <= \
                lift_residues(tower.system, parent.residues, parent.depth, depth)
            report.add("markers", "nesting(flat-exact)", k, ok)
        return report

    # word tower ---------------------------------------------------------------
    w1 = 2 * tower.piece_halfwidth + 1
    if k == 1 and tower.system.count_words(w1) <= FLAT_PATTERN_BUDGET:
        # a piece of least period p < n is the periodic extension of its
        # first p letters, so extending every p-word lists exactly the
        # pieces of least period below n
        system = tower.system
        pieces = {(v * (w1 // p + 1))[:w1]
                  for p in range(1, tower.n) for v in system.words(p)}
        bad = [u for u in pieces
               if system.is_admissible(u) and tower.pernbhd.match_word(u) is None]
        report.add("markers", "disjointness(structural-exact)", k, not bad,
                   "short-period pieces escaping the neighborhood: %d" % len(bad))
    else:
        ok = (2 * tower.r + 1) >= 2 * tower.n - 1 and tower.n >= tower.system.memory
        report.add("markers", "disjointness(structural-exact)", k, ok,
                   "width/periodicity exclusion margin")
    try:
        tower.pernbhd.separation_check()
        ok, detail = True, "orbit windows separated; merge margin holds"
    except SeparationError as exc:
        ok, detail = False, str(exc)
    report.add("markers", "covering(structural-exact)", k, ok, detail)

    probe_points = probe_points or []
    if runtimes is None:
        runtimes = [stack.runtime(point) for point in probe_points]
    for point, runtime in zip(probe_points, runtimes):
        lo, hi = -4 * tower.nprime, 4 * tower.nprime
        members = tower.members(point, lo, hi, runtime)
        ok_dis = all(t1 - t0 >= tower.n for t0, t1 in zip(members, members[1:]))
        report.add("markers", "disjointness(probe)", k, ok_dis, "point %r" % (point,))
        ok_cov = all(runtime.near(tower, t, tower.nprime) or runtime.match(tower, t) is not None
                     for t in range(lo + tower.nprime, hi - tower.nprime))
        report.add("markers", "covering(probe)", k, ok_cov, "point %r" % (point,))
        if k >= 2:
            ok_nest = True
            for t in members:
                tier = tower.rank(point, t, runtime)[0]
                if tier == 1 and not tower.parent.member(point, t, runtime) or \
                        tier == 2 and runtime.near(tower.parent, t, tower.prev_nprime):
                    ok_nest = False
            report.add("markers", "nesting(probe)", k, ok_nest, "point %r" % (point,))
    return report

