"""Semi-infinite Bruhat order, semi-infinite length, covers and intervals.

w <=_si v means that w lies deeper than v.  The order is the transitive
closure of the semi-infinite Bruhat graph, whose edges below u*t_beta are
read off the quantum Bruhat graph of the finite part u (Brenti-Fomin-
Postnikov; Ishii-Naito-Sagaki, arXiv:1402.3884, section 2).  For each
positive root alpha let y = u*s_alpha:

- if l(y) = l(u) + 1, then y*t_beta is a cover (a Bruhat edge);
- if l(y) = l(u) + 1 - 2<rho, alpha^vee>, then y*t_{beta + alpha^vee} is a
  cover (a quantum edge).

Either way the si-length grows by one.  Translations only gain positive
coroots on the way down, so the elements between two given ones lie in a
finite region, and order, intervals and down-sets are walks through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .rootdata import RootDatum, vec_add, vec_dot, vec_neg
from .weylgroup import AffineWeylElement, WeylGroup, weyl_group


@dataclass(frozen=True)
class AffineRoot:
    """Real affine root gamma + n*delta (gamma a finite root)."""
    root_coords: tuple  # finite part, simple-root basis
    coroot: tuple       # finite coroot of the finite part
    delta_coeff: int


def _translation_le(a, b):
    return all(x <= y for x, y in zip(a, b))


class SemiInfiniteOrder:
    def __init__(self, wg: WeylGroup):
        self.wg = wg
        self.datum: RootDatum = wg.datum
        self._finite_covers = {}
        self._nearest = {}
        self._si_cache = {}

    # -- length --------------------------------------------------------------

    def si_length(self, w: AffineWeylElement) -> int:
        """l(u) + 2<beta, rho> for w = u t_beta (possibly negative)."""
        return self.wg.length_finite(w.finite) + 2 * vec_dot(
            w.translation, self.datum.rho
        )

    # -- covers --------------------------------------------------------------

    def _covers_of_finite(self, u):
        """(affine root, y, translation shift) for each edge below u*t_beta.

        The edges do not depend on beta, so they are computed once per u.
        """
        got = self._finite_covers.get(u)
        if got is None:
            wg = self.wg
            lu = wg.length_finite(u)
            zero = (0,) * self.datum.rank
            got = []
            for alpha in self.datum.positive_roots():
                y = u * wg.reflection_by_root(alpha)
                ly = wg.length_finite(y)
                root = u.act_root(alpha.coords)
                coroot = u.act_coweight(alpha.coroot)
                if ly == lu + 1:
                    if sum(root) < 0:
                        root, coroot = vec_neg(root), vec_neg(coroot)
                    got.append((AffineRoot(root, coroot, 0), y, zero))
                elif ly == lu + 1 - 2 * sum(alpha.coroot):
                    got.append((AffineRoot(root, coroot, 1), y, alpha.coroot))
            self._finite_covers[u] = got
        return got

    def _covers(self, v: AffineWeylElement):
        for alpha, y, shift in self._covers_of_finite(v.finite):
            yield alpha, AffineWeylElement(y, vec_add(v.translation, shift))

    def nearest_below(self, u: AffineWeylElement, lam):
        """For each weight mu of the orbit W lam, the element m below u with
        m.finite(lam) = mu that the fewest covers reach from u.

        A breadth-first search on finite parts, memoized per (u.finite, lam).
        All shortest paths of the quantum Bruhat graph between two elements
        carry the same translation (Postnikov), and the nearest element of
        each coset of the stabilizer of lam is unique (the tilted Bruhat
        theorem, arXiv:1402.2203), so the order of the search does not matter.
        """
        got = self._nearest.get((u.finite, lam))
        if got is None:
            found = {}
            seen = {u.finite}
            level = [(u.finite, (0,) * self.datum.rank)]
            while level:
                below = []
                for y, shift in level:
                    found.setdefault(y.act_weight(lam), (y, shift))
                    for _, z, step in self._covers_of_finite(y):
                        if z not in seen:
                            seen.add(z)
                            below.append((z, vec_add(shift, step)))
                level = below
            got = self._nearest[(u.finite, lam)] = tuple(found.values())
        return [AffineWeylElement(y, vec_add(u.translation, shift))
                for y, shift in got]

    def si_covers_below(self, v: AffineWeylElement, height_bound: int = 2):
        """All (alpha, s_alpha v) one step below v in the semi-infinite order,
        sorted by element.

        Every covering root has delta coefficient 0 or 1, so the list is
        complete for any height_bound >= 1; the bound is only validated.
        """
        if height_bound < 1:
            raise ValueError("height_bound must be >= 1")
        return sorted(self._covers(v), key=lambda pair: pair[1].key())

    def down_set(self, top: AffineWeylElement, cap, steps=None):
        """The elements below top whose translations are <= cap coordinatewise,
        as levels: level k holds those k si-length steps below top, for k up
        to steps, or as far as the set reaches when steps is None.  Empty
        levels are left out.

        Every chain from top down to such an element stays within the cap, so
        nothing is missed, and the walk ends because that region is finite.
        """
        levels = [{top}]
        while steps is None or len(levels) <= steps:
            level = {x for v in levels[-1] for _, x in self._covers(v)
                     if _translation_le(x.translation, cap)}
            if not level:
                break
            levels.append(level)
        return levels

    # -- order ---------------------------------------------------------------

    def si_le(self, w: AffineWeylElement, v: AffineWeylElement) -> bool:
        """True iff w <=_si v (w deeper than or equal to v)."""
        if w == v:
            return True
        steps = self.si_length(w) - self.si_length(v)
        if steps <= 0 or not _translation_le(v.translation, w.translation):
            return False
        # right translation equivariance: compare w t_{-beta_v} against the
        # purely finite part of v, which keeps the cache small
        diff = tuple(a - b for a, b in zip(w.translation, v.translation))
        w = AffineWeylElement(w.finite, diff)
        v = AffineWeylElement(v.finite, (0,) * self.datum.rank)
        got = self._si_cache.get((w, v))
        if got is None:
            got = self._si_cache[(w, v)] = w in self.down_set(v, diff, steps)[-1]
        return got

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
        steps = self.si_length(v) - self.si_length(w)
        if steps < 0 or not _translation_le(w.translation, v.translation):
            return []
        levels = self.down_set(w, v.translation, steps)
        if v not in levels[-1]:
            return []
        # sweep back up, keeping the elements with a cover above v
        above = {v}
        out = [v]
        for level in reversed(levels[:-1]):
            above = {u for u in level
                     if any(x in above for _, x in self._covers(u))}
            out.extend(above)
        out.sort(key=lambda u: (self.si_length(u), u.key()))
        return out


@lru_cache(maxsize=None)
def si_order(datum: RootDatum) -> SemiInfiniteOrder:
    return SemiInfiniteOrder(weyl_group(datum))
