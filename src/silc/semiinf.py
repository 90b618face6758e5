"""Semi-infinite Bruhat order, semi-infinite length, covers and intervals.

w <=_si v means that w lies deeper than v.  The order is the transitive
closure of the semi-infinite Bruhat graph, whose edges below u*t_beta are
read off the quantum Bruhat graph (QBG) of the finite part u (Brenti-Fomin-
Postnikov; Ishii-Naito-Sagaki, arXiv:1402.3884, section 2).  For each
positive root alpha let y = u*s_alpha:

- if l(y) = l(u) + 1, then y*t_beta is a cover (a Bruhat edge);
- if l(y) = l(u) + 1 - 2<rho, alpha^vee>, then y*t_{beta + alpha^vee} is a
  cover (a quantum edge).

Either way the si-length grows by one.  WeylGroup.edges lists these edges
out of u.

A QBG path weighs the sum of the coroots of its quantum edges.  All
shortest paths from v to w weigh the same, wt(v => w), and every other
path weighs that plus an element of Q^vee_+ (Postnikov).  Hence

    w*t_beta <=_si v*t_gamma  iff  beta - gamma - wt(v => w) lies in Q^vee_+.

Only if: a chain from v*t_gamma down to w*t_beta projects to a QBG path
from v to w of weight beta - gamma, and Postnikov bounds that weight below.
If: a shortest path reaches w*t_{gamma + wt(v => w)}; and at every y the
2-cycle y -> y*s_i -> y is one Bruhat and one quantum edge, since
1 - 2<rho, alpha_i^vee> = -1, so it adds alpha_i^vee, and any element of
Q^vee_+ can be appended this way.

Intervals and down-sets lie in a finite region, since translations only
gain positive coroots on the way down, and are walks through it.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import product
from operator import add, ge, sub
from typing import NamedTuple

from .rootdata import RootDatum, vec_add, vec_dot
from .weylgroup import AffineWeylElement, WeylGroup, weyl_group


class AffineRoot(NamedTuple):
    """Real affine root gamma + n*delta (gamma a finite root)."""
    root_coords: tuple  # finite part, simple-root basis
    coroot: tuple       # finite coroot of the finite part
    delta_coeff: int


class SemiInfiniteOrder:
    """The semi-infinite order of one root datum: si-length, covers, order,
    down-sets and intervals.

    The edges below u*t_beta, and so the shape of everything below it, do
    not depend on beta (right translation equivariance); WeylGroup.edges
    keeps them per finite part u.  Two memos keep what the searches reuse,
    each keyed by finite Weyl group elements:

    - ``_nearest``: (finite part u, weight lam) -> the element nearest to
      u*t_0 in each coset of the stabilizer of lam.  At most |W| keys for
      each weight asked; the library asks only fundamental weights, so at
      most rank*|W| in all.  An entry holds |W lam| elements.
    - ``_weights``: finite part v -> ({w: wt(v => w)}, queue) of the search
      down from v.  At most |W| keys, each with at most |W| weights.
    """

    def __init__(self, wg: WeylGroup):
        self.wg = wg
        self.datum: RootDatum = wg.datum
        self._nearest = {}
        self._weights = {}

    # -- length --------------------------------------------------------------

    def si_length(self, w: AffineWeylElement) -> int:
        """l(u) + 2<beta, rho> for w = u t_beta (possibly negative)."""
        return self.wg.length_finite(w.finite) + 2 * vec_dot(
            w.translation, self.datum.rho
        )

    # -- covers --------------------------------------------------------------

    def _covers(self, v: AffineWeylElement):
        """The elements one cover below v."""
        for _, y, shift in self.wg.edges(v.finite):
            yield AffineWeylElement(y, vec_add(v.translation, shift))

    def nearest_below(self, u: AffineWeylElement, lam):
        """{mu: m} for each weight mu of the orbit W lam, with m the element
        below u with m.finite(lam) = mu that the fewest covers reach from u.

        A breadth-first search on finite parts, memoized per (u.finite, lam),
        that goes on only from the first element it meets in each coset of
        the stabilizer of lam, so it makes one step from each of |W lam|
        elements, not from all of W.  That the nearest elements are reached
        through one another is an observation, not a cited theorem:
        tests/test_semiinf.py checks it against the search through all of W.
        The nearest element of each coset is unique (the tilted Bruhat
        theorem, arXiv:1402.2203), and all shortest paths of the quantum
        Bruhat graph between two elements carry the same translation
        (Postnikov), so the order of the search does not matter.
        """
        got = self._nearest.get((u.finite, lam))
        if got is None:
            start = (u.finite, (0,) * self.datum.rank)
            found = {u.finite.act_weight(lam): start}
            level = [start]
            while level:
                below = []
                for y, shift in level:
                    for _, z, step in self.wg.edges(y):
                        mu = z.act_weight(lam)
                        if mu not in found:
                            found[mu] = (z, vec_add(shift, step))
                            below.append(found[mu])
                level = below
            got = self._nearest[(u.finite, lam)] = tuple(found.items())
        return {mu: AffineWeylElement(y, tuple(map(add, u.translation, shift)))
                for mu, (y, shift) in got}

    def si_covers_below(self, v: AffineWeylElement, height_bound: int = 2):
        """All (alpha, s_alpha v) one step below v in the semi-infinite order,
        sorted by element.

        Every covering root has delta coefficient 0 or 1, so the list is
        complete for any height_bound >= 1; the bound is only validated.
        A Bruhat edge u -> u*s_alpha has u(alpha) > 0 and reports the root
        u(alpha); a quantum edge has u(alpha) < 0 and reports u(alpha) + delta.
        """
        if height_bound < 1:
            raise ValueError("height_bound must be >= 1")
        u = v.finite
        out = [(AffineRoot(u.act_root(alpha.coords), u.act_coweight(alpha.coroot),
                           int(any(shift))),
                AffineWeylElement(y, vec_add(v.translation, shift)))
               for alpha, y, shift in self.wg.edges(u)]
        return sorted(out, key=lambda pair: pair[1].key())

    def down_set(self, top: AffineWeylElement, cap, steps=None):
        """The elements below top whose translations are <= cap coordinatewise,
        as levels: level k holds those k si-length steps below top, for k up
        to steps, or as far as the set reaches when steps is None.  Empty
        levels are left out.

        Every chain from top down to such an element stays within the cap, so
        nothing is missed, and the walk ends because that region is finite.
        """
        levels = [{top}]
        while (steps is None or len(levels) <= steps) and levels[-1]:
            levels.append({x for v in levels[-1] for x in self._covers(v)
                           if all(a <= b for a, b in zip(x.translation, cap))})
        if not levels[-1]:
            levels.pop()
        return levels

    # -- order ---------------------------------------------------------------

    def _weight(self, v, w):
        """wt(v => w), by a breadth-first search down from v (its first path to
        w is a shortest one), kept per v and taken only as far as w."""
        search = self._weights.get(v)
        if search is None:
            search = self._weights[v] = ({v: (0,) * self.datum.rank}, deque([v]))
        got, queue = search
        while w not in got:
            y = queue.popleft()
            for _, x, shift in self.wg.edges(y):
                if x not in got:
                    got[x] = vec_add(got[y], shift)
                    queue.append(x)
        return got[w]

    def si_le(self, w: AffineWeylElement, v: AffineWeylElement) -> bool:
        """True iff w <=_si v (w deeper or equal), by the module's criterion."""
        least = self._weight(v.finite, w.finite)
        # beta_w - beta_v >= least coordinatewise; map keeps the loop in C
        return all(map(ge, map(sub, w.translation, v.translation), least))

    # -- boxes and intervals -----------------------------------------------------

    def box(self, center: AffineWeylElement, radius: int):
        """All u t_beta with |beta_i - center_beta_i| <= radius, any finite part.

        Every finite element lies below the identity, so the finite parts are
        the identity's down-set at translation 0, sorted by root matrix.
        """
        levels = self.down_set(self.wg.identity, (0,) * self.datum.rank)
        finite_parts = sorted((x.finite for level in levels for x in level),
                              key=lambda u: u.root_mat)
        ranges = [range(c - radius, c + radius + 1) for c in center.translation]
        return [AffineWeylElement(u, beta) for beta in product(*ranges)
                for u in finite_parts]

    def si_interval(self, v: AffineWeylElement, w: AffineWeylElement, radius=None):
        """All u with v <=_si u <=_si w, sorted by si-length, then key.

        Returns [] if v and w are incomparable.  The interval is complete;
        radius is accepted for compatibility and does not limit it.
        """
        if not self.si_le(v, w):
            return []
        levels = self.down_set(w, v.translation, self.si_length(v) - self.si_length(w))
        # sweep back up, keeping the elements with a cover above v
        above = {v}
        out = [v]
        for level in reversed(levels[:-1]):
            above = {u for u in level
                     if any(x in above for x in self._covers(u))}
            out.extend(above)
        out.sort(key=lambda u: (self.si_length(u), u.key()))
        return out


@lru_cache(maxsize=None)
def si_order(datum: RootDatum) -> SemiInfiniteOrder:
    return SemiInfiniteOrder(weyl_group(datum))
