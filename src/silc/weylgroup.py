"""Finite and affine Weyl group arithmetic.

A finite element stores one form, its permutation in type A and its root
matrix in other types, and acts on roots and on weights.  An affine element
is stored in the normal form (u, beta) for u * t_beta with u in the finite
Weyl group and beta in the coroot lattice.  Multiplication follows
t_beta * u = u * t_{u^{-1} beta}.  No inverse is formed: u^{-1} beta pairs
with varpi_k as beta pairs with u(varpi_k), a weight action.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul, sub
from reprlib import repr as brief  # a word may be long option text
from typing import NamedTuple

from .rootdata import (
    Root,
    RootDataError,
    RootDatum,
    is_type_a,
    mat_identity,
    mat_mul,
    mat_vec,
    vec_dot,
)


class FiniteWeylElement:
    """Element of the finite Weyl group, interned by its WeylGroup.

    A group keeps one object per element, so equality and hashing are by
    identity.  An element stores one form and acts on two bases: on roots in
    simple-root coordinates (act_root) and on weights in fundamental-weight
    coordinates (act_weight).

    In type A_r an element u is its permutation ``perm`` of 0..r, with
    u(eps_k) = eps_perm[k] and alpha_i = eps_{i-1} - eps_i.  Products
    compose permutations, the length counts inversions, and weights move by
    permuting eps-coordinates.  The quantum Bruhat graph is read off perm too (Brenti-
    Fomin-Postnikov; Postnikov, arXiv:math/0410147): u -> u*t_ij, i < j,
    is a Bruhat edge iff perm[i] < perm[j] with no perm[k], i < k < j,
    between them, and a quantum edge iff perm[i] > perm[j] with every one
    between them (WeylGroup.edges).  Lazy: root_mat is built from perm only
    when read: by key(), and so by every sort order, and by act_root.

    In other types perm is None and the element stores its root matrix,
    root_mat, its action on the simple-root basis (columns = images of
    alpha_j); a product with a reflection on either side is a rank-one
    update of it.  The weight action is derived when first read, then kept:
    the r coroots u^{-1}(alpha_i^vee), each a signed positive coroot read
    off the root heights.

    The length, the number of positive roots sent to negative ones, and the
    edges of the quantum Bruhat graph out of u (WeylGroup.edges) are found
    when first asked for: outside type A from the heights ht(u(beta)).
    """

    __slots__ = ("_group", "perm", "_root_mat", "_length",
                 "_weight_rows", "_products", "_reflection", "_edges")

    def __init__(self, group: "WeylGroup", key):
        self._group = group
        self.perm, self._root_mat = (key, None) if group._by_perm else (None, key)
        self._length = None
        self._weight_rows = None
        self._products = {}
        self._edges = None
        # (beta, <beta^vee, alpha_j>_j) when this is the reflection s_beta
        # of a matrix element, set by reflection_by_root
        self._reflection = None

    @property
    def root_mat(self):
        if self._root_mat is None:
            self._root_mat = _perm_matrix(self.perm)
        return self._root_mat

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        got = self._products.get(other)
        if got is None:
            got = self._products[other] = self._group._intern(
                self._matrix_product(other) if self.perm is None
                else tuple(map(self.perm.__getitem__, other.perm)))
        return got

    def _matrix_product(self, other):
        """The root matrix of self * other."""
        # s_beta = 1 - beta <., beta^vee>, so x s_beta = x - x(beta) <., beta^vee>
        # and s_beta x = x - beta <x(.), beta^vee>
        x, y = self._root_mat, other._root_mat
        if other._reflection is not None:
            b, c = other._reflection
            return _minus_outer(x, mat_vec(x, b), c)
        if self._reflection is not None:
            b, c = self._reflection
            return _minus_outer(y, b, mat_vec(tuple(zip(*y)), c))
        return mat_mul(x, y)

    def length(self) -> int:
        if self._length is None:
            p = self.perm
            if p is not None:
                self._length = sum(x > y for i, x in enumerate(p) for y in p[i + 1:])
            else:
                # u(beta) is negative iff its height is
                self._length = sum(h < 0 for h in self._group._root_heights(self))
        return self._length

    def act_root(self, coords):
        return mat_vec(self.root_mat, coords)

    def act_weight(self, lam):
        """u(lam), lam and the result in fundamental-weight coordinates."""
        if self.perm is None:
            # <alpha_i^vee, u lam> = <u^{-1} alpha_i^vee, lam>, and u^{-1}
            # alpha_i^vee = h beta^vee for the one positive root beta with
            # u(beta) = h alpha_i, h = ht(u(beta)) = +-1
            rows = self._weight_rows
            if rows is None:
                wg, rows = self._group, [None] * len(self._root_mat)
                for beta, h in zip(wg.datum.positive_roots(), wg._root_heights(self)):
                    if h * h == 1:
                        rows[self.act_root(beta.coords).index(h)] = tuple(
                            h * c for c in beta.coroot)
                rows = self._weight_rows = tuple(rows)
            return tuple([sum(map(mul, row, lam)) for row in rows])
        # varpi_i = eps_0 + ... + eps_{i-1}, so lam has eps-coordinate
        # lam_k + ... + lam_{r-1} at k, which u moves to perm[k]; adjacent
        # differences return to weight coordinates
        suffix = (0, *accumulate(reversed(lam)))
        eps = [0] * len(suffix)
        for k, x in enumerate(self.perm):
            eps[x] = suffix[-1 - k]
        return tuple(map(sub, eps, eps[1:]))

    def __repr__(self):
        return f"FiniteWeylElement(root_mat={self.root_mat})"


def _perm_matrix(perm):
    """The root matrix of the type A element with this permutation: column j
    is eps_a - eps_b for a, b = perm[j], perm[j + 1], which is the sum of
    the simple roots from place min(a, b) up to max(a, b) - 1, signed."""
    r = len(perm) - 1
    cols = []
    for a, b in zip(perm, perm[1:]):
        lo, hi, sign = (a, b, 1) if a < b else (b, a, -1)
        cols.append((0,) * lo + (sign,) * (hi - lo) + (0,) * (r - hi))
    return tuple(zip(*cols))


def _minus_outer(m, col, row):
    """m - col row^T."""
    return tuple(tuple(x - a * y for x, y in zip(m_row, row))
                 for m_row, a in zip(m, col))


class AffineWeylElement(NamedTuple):
    finite: FiniteWeylElement
    translation: tuple  # coweight in coroot coordinates

    def key(self):
        """Canonical sort key, independent of interning."""
        return (self.finite.root_mat, self.translation)


class WeylGroup:
    """Weyl-group operations bound to one root datum.

    The group interns finite elements lazily, mapping each key it meets, a
    permutation in type A and a root matrix in other types, to its one
    FiniteWeylElement: small groups fill up completely, and E8
    (|W| ~ 7*10^8) is never listed.  A new group holds the identity and the
    simple reflections; w0 is built when first read.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        r = datum.rank
        # positive roots in root coordinates, and their sum 2 rho
        self._pos_roots = tuple(rt.coords for rt in datum.positive_roots())
        self._two_rho = tuple(map(sum, zip(*self._pos_roots)))
        self._elements = {}
        self._units = mat_identity(r)  # simple roots, and fundamental weights
        self._by_perm = is_type_a(datum)  # whether a key is a permutation
        self.id_finite = self._intern(tuple(range(r + 1)) if self._by_perm else self._units)
        self.identity = AffineWeylElement(self.id_finite, tuple(0 for _ in range(r)))
        self._simple_finite = tuple(self.reflection_by_root(Root(e, e)) for e in self._units)

    # -- constructors --------------------------------------------------------

    def _intern(self, key) -> FiniteWeylElement:
        """The element with this key: its permutation in type A, its root
        matrix in other types."""
        got = self._elements.get(key)
        if got is None:
            got = self._elements[key] = FiniteWeylElement(self, key)
        return got

    def finite_from_word(self, word) -> FiniteWeylElement:
        out = self.id_finite
        for i in word:
            if not 1 <= i <= self.datum.rank:
                raise RootDataError(f"finite reflection index {brief(i)} out of range")
            out = out * self._simple_finite[i - 1]
        return out

    def element(self, word, beta) -> AffineWeylElement:
        return AffineWeylElement(self.finite_from_word(word), tuple(int(b) for b in beta))

    def translation(self, beta) -> AffineWeylElement:
        return AffineWeylElement(self.id_finite, tuple(int(b) for b in beta))

    def reflection_by_root(self, root) -> FiniteWeylElement:
        """s_gamma for a (positive or negative) finite root."""
        d = self.datum
        r = d.rank
        if self._by_perm:
            # gamma = +-(eps_i - eps_j): the transposition of i and j
            support = [k for k, c in enumerate(root.coords) if c]
            perm = list(range(r + 1))
            i, j = support[0], support[-1] + 1
            perm[i], perm[j] = j, i
            return self._intern(tuple(perm))
        # s_gamma = 1 - gamma <., gamma^vee>, with <gamma^vee, alpha_j> =
        # sum_k gamma^vee_k a[k][j]
        b = tuple(root.coords)
        c = tuple(vec_dot(root.coroot, col) for col in zip(*d.cartan.entries))
        got = self._intern(_minus_outer(mat_identity(r), b, c))
        got._reflection = (b, c)
        return got

    @cached_property
    def w0(self) -> FiniteWeylElement:
        """The longest finite element, built on first read: multiply by the
        smallest left ascent until none is left.  Outside type A each step is
        a reflection on the left, so one rank-one update."""
        w = self.id_finite
        descents = self._left_descents(w)
        while not all(descents):
            w = self._simple_finite[descents.index(False)] * w
            descents = self._left_descents(w)
        return w

    # -- group law -----------------------------------------------------------

    def compose(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        """(u1 t_b1)(u2 t_b2) = u1 u2 t_{u2^{-1} b1 + b2}, coordinate k of
        u2^{-1} b1 being <u2^{-1} b1, varpi_k> = <b1, u2(varpi_k)>."""
        u2 = y.finite
        beta = tuple(vec_dot(x.translation, u2.act_weight(unit)) + b
                     for unit, b in zip(self._units, y.translation))
        return AffineWeylElement(x.finite * u2, beta)

    def affine_from_finite(self, u: FiniteWeylElement) -> AffineWeylElement:
        return AffineWeylElement(u, self.identity.translation)

    # -- lengths -------------------------------------------------------------

    def length_finite(self, u: FiniteWeylElement) -> int:
        return u.length()

    def _root_heights(self, u: FiniteWeylElement):
        """ht(u(beta)) for each positive root beta, outside type A: column sums
        of the root matrix are the heights of the u(alpha_j)."""
        return mat_vec(self._pos_roots, tuple(map(sum, zip(*u._root_mat))))

    # -- the quantum Bruhat graph ----------------------------------------------

    def edges(self, u: FiniteWeylElement):
        """(positive root alpha, y = u*s_alpha, shift) for each edge of the
        quantum Bruhat graph out of u: shift 0 on a Bruhat edge, l(y) = l(u)
        + 1, and alpha^vee on a quantum edge, l(y) = l(u) + 1 - 2<rho,
        alpha^vee>.  Found once per u, forming only the y of the edges: in
        type A in the order a scan of the permutation meets them, elsewhere
        in the order of the positive roots."""
        got = u._edges
        if got is None:
            got = u._edges = (self._edges_by_heights(u) if u.perm is None
                              else self._edges_by_permutation(u))
        return got

    @cached_property
    def _reflection_table(self):
        """Outside type A, for each positive root alpha: alpha, its place
        among the positive roots, s_alpha, the (place k, <beta_k, alpha^vee>)
        of each positive root beta_k pairing nonzero, and 1 - 2<rho, alpha^vee>."""
        table = []
        for a, alpha in enumerate(self.datum.positive_roots()):
            s_alpha = self.reflection_by_root(alpha)
            pairs = [(k, c) for k, c in enumerate(
                mat_vec(self._pos_roots, s_alpha._reflection[1])) if c]
            table.append((alpha, a, s_alpha, pairs, 1 - 2 * sum(alpha.coroot)))
        return table

    def _edges_by_heights(self, u):
        """With h_beta = ht(u(beta)), u*s_alpha sends beta to a root of height
        h_beta - <beta, alpha^vee> h_alpha, so l(u*s_alpha) - l(u) counts the
        signs that flip among the beta pairing nonzero with alpha^vee (the
        length counts inversions: Bjorner-Brenti, Combinatorics of Coxeter
        Groups, ch. 4)."""
        h = self._root_heights(u)
        zero = (0,) * self.datum.rank
        got = []
        for alpha, a, s_alpha, pairs, quantum in self._reflection_table:
            ha = h[a]
            step = sum((h[k] < c * ha) - (h[k] < 0) for k, c in pairs)
            if step == 1:
                got.append((alpha, u * s_alpha, zero))
            elif step == quantum:
                got.append((alpha, u * s_alpha, alpha.coroot))
        return got

    @cached_property
    def _roots_by_places(self):
        """In type A, {(i, j): eps_i - eps_j} for i < j, the positive root
        with coordinates 1 on places i..j-1."""
        return {(a.coords.index(1), a.coords.index(1) + sum(a.coords)): a
                for a in self.datum.positive_roots()}

    def _edges_by_permutation(self, u):
        """The edges out of a type A element u, from its permutation sigma:
        for each i, scan j > i, keeping the least value above sigma(i) and,
        while every value so far is below sigma(i), the least value."""
        perm = u.perm
        n = len(perm)
        zero = (0,) * self.datum.rank
        places, intern = self._roots_by_places, self._intern
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
                alpha = places[(i, j)]
                y = list(perm)
                y[i], y[j] = b, a
                got.append((alpha, intern(tuple(y)), alpha.coroot if quantum else zero))
        return got

    # -- reduced words -------------------------------------------------------

    def _left_descents(self, u: FiniteWeylElement):
        """For i = 1..r, whether l(s_i u) < l(u), i.e. u^{-1} alpha_i < 0,
        i.e. <alpha_i^vee, u(rho)> = <u^{-1} alpha_i^vee, rho> < 0: in type
        A by act_weight, otherwise from the root matrix as u(2 rho)."""
        if u.perm is not None:
            return [p < 0 for p in u.act_weight(self.datum.rho)]
        return [p < 0 for p in mat_vec(self.datum.cartan.entries,
                                       mat_vec(u._root_mat, self._two_rho))]

    def reduced_word_finite(self, u: FiniteWeylElement):
        """Lexicographically smallest reduced word: peel the smallest left
        descent first."""
        word = []
        while u is not self.id_finite:
            i = self._left_descents(u).index(True)
            word.append(i + 1)
            u = self._simple_finite[i] * u
        return word

    # -- serialization ---------------------------------------------------------

    def to_json(self, w: AffineWeylElement) -> dict:
        return {"u_word": self.reduced_word_finite(w.finite), "beta": list(w.translation)}

    def from_json(self, obj) -> AffineWeylElement:
        return self.element(obj["u_word"], obj["beta"])

    def parse(self, text: str) -> AffineWeylElement:
        """Parse the command-line grammar "u_word@beta", e.g. "1,2@0,1" or "e@1".

        Text without "@" has translation 0; an "@" needs a translation.
        """
        upart, at, bpart = text.strip().partition("@")
        upart = upart.strip()
        if upart in ("e", ""):
            word = []
        else:
            word = [int(t) for t in upart.split(",")]
        if not at:
            beta = [0] * self.datum.rank
        elif bpart.strip() == "":
            raise RootDataError(f"no translation after '@' in {brief(text)}")
        else:
            beta = [int(t) for t in bpart.split(",")]
        if len(beta) != self.datum.rank:
            raise RootDataError(
                f"translation needs {self.datum.rank} coordinates, got {len(beta)}"
            )
        return self.element(word, beta)

    def format(self, w: AffineWeylElement) -> str:
        word = self.reduced_word_finite(w.finite)
        upart = ",".join(str(i) for i in word) if word else "e"
        bpart = ",".join(str(b) for b in w.translation)
        return f"{upart}@{bpart}"


@lru_cache(maxsize=None)
def weyl_group(datum: RootDatum) -> WeylGroup:
    return WeylGroup(datum)
