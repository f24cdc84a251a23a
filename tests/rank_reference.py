"""Reference ranks and members of a word tower stack, written from the rule
that WordTower.rank's docstring states and from nothing of its code.

At k = 1 a position is in a tier-1 piece when its central radius-r window
matches no orbit of period at most n_k.  At k >= 2 it is in a tier-1 piece
when it is a member of the scale below and its full window of width 2R + 1
matches no orbit of period at most n_k, and in a tier-2 piece when no
member of the scale below lies within n'_(k-1) - 1 of it and its central
window matches no orbit.  A rank is (tier, full window); a position is a
member when it has a rank and no position closer than n_k with a smaller
rank is a member.

Nothing slides, nothing is bounded by a quiet tail, and no rank is kept:
each rank names fresh slices of the point's letters with
words.periodic_name and the system's cyclic-word test, and each tier reads
membership of the scale below by the recursive rule.  Memberships are kept
per (scale, position), since the recursion asks for them again and again.
"""

from shiftembed.words import periodic_name


class ReferenceTowers:
    """The reference rule on one point of a word tower stack."""

    def __init__(self, stack, point):
        self.stack = stack
        self.point = point
        self._members = {}

    def _matches(self, tower, t, radius):
        """Whether the window of that radius around t has least period at
        most n_k and a root whose necklace names an orbit of the system."""
        hit = periodic_name(self.point.word(t - radius, t + radius), tower.n)
        return hit is not None and tower.system.is_cyclic_word(hit[0])

    def rank(self, k, t):
        tower = self.stack[k]
        w = tower.prev_nprime
        if k == 1:
            tier = None if self._matches(tower, t, tower.r) else 1
        elif self.member(k - 1, t):
            tier = None if self._matches(tower, t, tower.piece_halfwidth) else 1
        elif not any(self.member(k - 1, u) for u in range(t - w + 1, t + w)):
            tier = None if self._matches(tower, t, tower.r) else 2
        else:
            tier = None
        if tier is None:
            return None
        R = tower.piece_halfwidth
        return tier, self.point.word(t - R, t + R)

    def member(self, k, t):
        hit = self._members.get((k, t))
        if hit is None:
            rk = self.rank(k, t)
            n = self.stack[k].n
            hit = self._members[k, t] = rk is not None and not any(
                self._beats(k, u, rk) for u in range(t - n + 1, t + n) if u != t)
        return hit

    def _beats(self, k, u, rk):
        """Whether u ranks below rk and is a member."""
        ru = self.rank(k, u)
        return ru is not None and ru < rk and self.member(k, u)
