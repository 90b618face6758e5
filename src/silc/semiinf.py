"""Semi-infinite Bruhat order, semi-infinite length, covers and intervals.

w <=_si v means that w lies deeper than v.  The order is the transitive
closure of the semi-infinite Bruhat graph, whose edges below u*t_beta are
read off the quantum Bruhat graph (QBG) of the finite part u (Brenti-Fomin-
Postnikov; Ishii-Naito-Sagaki, arXiv:1402.3884, section 2).  For each
positive root alpha let y = u*s_alpha:

- if l(y) = l(u) + 1, then y*t_beta is a cover (a Bruhat edge);
- if l(y) = l(u) + 1 - 2<rho, alpha^vee>, then y*t_{beta + alpha^vee} is a
  cover (a quantum edge).

Either way the si-length grows by one.  In type A_r no product needs to be
formed to find the edges: with sigma the permutation of u
(FiniteWeylElement.perm) and alpha = eps_i - eps_j, i < j, let b count the
places k, i < k < j, with sigma(k) between sigma(i) and sigma(j).  Then
u -> u*s_alpha is a Bruhat edge iff sigma(i) < sigma(j) and b = 0, and a
quantum edge iff sigma(i) > sigma(j) and b = j - i - 1 (Brenti-Fomin-
Postnikov; Postnikov, arXiv:math/0410147).  Only the y of the edges found
are formed.  Other types find the edges by the lengths of all u*s_alpha,
and the tests check the type A rule against those lengths, computed with
matrices.  Each way builds its table of positive roots (the reflections
s_alpha, or the places i, j of each alpha) on first use, and a type A
element builds its root matrix only when a sort by key() reads it.

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

    Three memos keep what the searches reuse, each keyed by finite Weyl group
    elements, because the covers below u*t_beta and the shape of everything
    below it do not depend on beta (right translation equivariance):

    - ``_finite_covers``: finite part u -> the edges below every u*t_beta,
      as (positive root alpha, u*s_alpha, translation shift).  At most |W|
      keys; an entry holds at most one edge per positive root.
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
        self._finite_covers = {}
        self._reflections = None
        self._roots_by_places = None
        self._nearest = {}
        self._weights = {}

    # -- length --------------------------------------------------------------

    def si_length(self, w: AffineWeylElement) -> int:
        """l(u) + 2<beta, rho> for w = u t_beta (possibly negative)."""
        return self.wg.length_finite(w.finite) + 2 * vec_dot(
            w.translation, self.datum.rho
        )

    # -- covers --------------------------------------------------------------

    def _covers_of_finite(self, u):
        """(positive root alpha, y = u*s_alpha, translation shift) for each
        edge below u*t_beta: the shift is 0 on a Bruhat edge and alpha^vee on
        a quantum edge.

        The edges do not depend on beta, so they are computed once per u, in
        the order of the positive roots.  In type A they are read off the
        permutation of u (module docstring), and only their y are formed.
        """
        got = self._finite_covers.get(u)
        if got is None:
            if u.perm is None:
                got = self._covers_by_length(u)
            else:
                got = self._covers_by_permutation(u)
            self._finite_covers[u] = got
        return got

    def _covers_by_length(self, u):
        """The edges of u, from the lengths of u*s_alpha for every alpha."""
        wg = self.wg
        if self._reflections is None:
            self._reflections = tuple(
                (alpha, wg.reflection_by_root(alpha))
                for alpha in self.datum.positive_roots())
        lu = wg.length_finite(u)
        zero = (0,) * self.datum.rank
        got = []
        for alpha, s_alpha in self._reflections:
            y = u * s_alpha
            step = wg.length_finite(y) - lu
            if step == 1:
                got.append((alpha, y, zero))
            elif step == 1 - 2 * sum(alpha.coroot):
                got.append((alpha, y, alpha.coroot))
        return got

    def _covers_by_permutation(self, u):
        """The edges of a type A element u, from its permutation sigma: for
        each i, scan j > i, keeping the least value above sigma(i) and, while
        every value so far is below sigma(i), the least value."""
        if self._roots_by_places is None:
            # eps_i - eps_j, i < j, has coordinates 1 on places i..j-1
            self._roots_by_places = {}
            for alpha in self.datum.positive_roots():
                ones = [k for k, c in enumerate(alpha.coords) if c]
                self._roots_by_places[(ones[0], ones[-1] + 1)] = alpha
        perm = u.perm
        n = len(perm)
        zero = (0,) * self.datum.rank
        intern = self.wg._intern_perm
        got = []
        for i, a in enumerate(perm):
            above = None    # least sigma(k) > a, i < k < j
            least = a       # least sigma(k), i < k < j, while all are below a
            for j in range(i + 1, n):
                b = perm[j]
                if b > a:
                    least = None
                    if above is not None and above < b:
                        continue
                    above, quantum = b, False
                elif least is not None and b < least:
                    least, quantum = b, True
                else:
                    continue
                # an edge: u times the transposition of places i and j
                alpha = self._roots_by_places[(i, j)]
                y = list(perm)
                y[i], y[j] = b, a
                got.append((alpha, intern(tuple(y)), alpha.coroot if quantum else zero))
        return got

    def _covers(self, v: AffineWeylElement):
        """The elements one cover below v."""
        for _, y, shift in self._covers_of_finite(v.finite):
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
                    for _, z, step in self._covers_of_finite(y):
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
               for alpha, y, shift in self._covers_of_finite(u)]
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
            for _, x, shift in self._covers_of_finite(y):
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
