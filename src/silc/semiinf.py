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

wt(v => w) is read off coset walks (SemiInfiniteOrder._walk), as if shortest
paths projected to the parabolic QBG of each W/W_k (Lenart-Naito-Sagaki-
Schilling-Shimozono, arXiv:1211.2042).  That is checked, not cited:
tests/test_semiinf.py compares it with the search through all of W.

Intervals and down-sets lie in a finite region, since translations only
gain positive coroots on the way down, and are walks through it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import lru_cache
from itertools import product
from operator import add, ge, sub
from typing import NamedTuple

from .rootdata import RootDatum, mat_identity, vec_add, vec_dot
from .weylgroup import AffineWeylElement, WeylGroup, weyl_group


class AffineRoot(NamedTuple):
    """Real affine root gamma + n*delta (gamma a finite root)."""
    root_coords: tuple  # finite part, simple-root basis
    delta_coeff: int


class SemiInfiniteOrder:
    """The semi-infinite order of one root datum: si-length, covers, order,
    down-sets and intervals.

    The edges below u*t_beta, and so the shape of everything below it, do
    not depend on beta (right translation equivariance); WeylGroup.edges
    keeps them per finite part u.  One memo keeps the coset walks, per
    (finite part u, weight lam), each with at most |W lam| elements; the
    library walks only fundamental weights, so at most rank*|W| walks.  si_le
    keeps the weights wt(v => w) it has read, per v and w.
    """

    def __init__(self, wg: WeylGroup):
        self.wg = wg
        self.datum: RootDatum = wg.datum
        self._units = mat_identity(self.datum.rank)  # the fundamental weights
        self._walks = {}
        self._least = defaultdict(dict)

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

    def _walk(self, u, lam, stop=None):
        """{mu: (m, shift)} for the weights mu of W lam (lam dominant, nonzero)
        met by the coset walk from the finite part u, m the first element met
        with m(lam) = mu and shift the sum of the quantum coroots on its way:
        a breadth-first search that steps on only from the first element met
        in each coset of lam's stabilizer (|W lam| steps, not |W|), run until
        it meets stop or ends.  An edge whose alpha^vee pairs to 0 with lam
        stays in the coset."""
        walk = self._walks.get((u, lam))
        if walk is None:
            start = (u, (0,) * self.datum.rank)
            walk = self._walks[(u, lam)] = ({u.act_weight(lam): start}, deque([start]))
        found, queue = walk
        while stop not in found and queue:
            y, shift = queue.popleft()
            for alpha, z, step in self.wg.edges(y):
                if vec_dot(alpha.coroot, lam):
                    mu = z.act_weight(lam)
                    if mu not in found:
                        found[mu] = (z, vec_add(shift, step))
                        queue.append(found[mu])
        return found

    def nearest_below(self, u: AffineWeylElement, lam):
        """{mu: m} for each weight mu of W lam, m the element below u with
        m.finite(lam) = mu that the fewest covers reach from u: the coset walk
        from u.finite, run to its end.  That it reaches them is checked, not
        cited (tests/test_semiinf.py); each is unique (tilted Bruhat theorem,
        arXiv:1402.2203), and all shortest paths to it carry one shift (Postnikov)."""
        return {mu: AffineWeylElement(y, tuple(map(add, u.translation, shift)))
                for mu, (y, shift) in self._walk(u.finite, lam).items()}

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
        out = [(AffineRoot(u.act_root(alpha.coords), int(any(shift))),
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
        """wt(v => w), coordinate k read off the walk for varpi_k from v at the
        coset of w, whose weight is w(varpi_k)."""
        return tuple([self._walk(v, unit, mu := w.act_weight(unit))[mu][1][k]
                      for k, unit in enumerate(self._units)])

    def si_le(self, w: AffineWeylElement, v: AffineWeylElement) -> bool:
        """True iff w <=_si v (w deeper or equal), by the module's criterion."""
        least = self._least[v.finite].get(w.finite)
        if least is None:
            least = self._least[v.finite][w.finite] = self._weight(v.finite, w.finite)
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
