"""Finite and affine Weyl group arithmetic.

An affine element is stored in the normal form (u, beta) for u * t_beta with
u in the finite Weyl group and beta in the coroot lattice.  Multiplication
follows t_beta * u = u * t_{u^{-1} beta}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootdata import (
    Root,
    RootDataError,
    RootDatum,
    mat_identity,
    mat_mul,
    mat_vec,
    vec_add,
    vec_dot,
)


class FiniteWeylElement:
    """Element of the finite Weyl group, interned by its WeylGroup.

    A group keeps one object per root matrix, so equality and hashing are by
    identity.  Elements are made in inverse pairs, since (xy)^{-1} =
    y^{-1} x^{-1} and reflections are involutions: no matrix is inverted.

    root_mat: action on the simple-root basis (columns = images of alpha_j).
    coweight_mat: action on the simple-coroot basis.
    inversions: 0/1 for each of the group's positive roots, 1 where the
    element sends it to a negative root; the length is their sum.
    """

    __slots__ = ("_group", "root_mat", "coweight_mat", "inversions",
                 "_inverse", "_products")

    def __init__(self, group: "WeylGroup", root_mat, coweight_mat):
        self._group = group
        self.root_mat = root_mat
        self.coweight_mat = coweight_mat
        # u(alpha) is negative iff its height is; column sums of root_mat
        # are the heights of the u(alpha_j)
        heights = tuple(map(sum, zip(*root_mat)))
        self.inversions = tuple(int(vec_dot(heights, rc) < 0)
                                for rc in group._pos_roots)
        self._inverse = self
        self._products = {}

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        got = self._products.get(other)
        if got is None:
            xi, yi = self._inverse, other._inverse
            got = self._products[other] = self._group._intern(
                mat_mul(self.root_mat, other.root_mat),
                mat_mul(self.coweight_mat, other.coweight_mat),
                (mat_mul(yi.root_mat, xi.root_mat),
                 mat_mul(yi.coweight_mat, xi.coweight_mat)),
            )
        return got

    def inverse(self) -> "FiniteWeylElement":
        return self._inverse

    def act_root(self, coords):
        return mat_vec(self.root_mat, coords)

    def act_coweight(self, beta):
        return mat_vec(self.coweight_mat, beta)

    def act_weight(self, lam):
        # <alpha_i^vee, u lam> = <u^{-1} alpha_i^vee, lam>
        return tuple(vec_dot(col, lam) for col in zip(*self._inverse.coweight_mat))

    def __repr__(self):
        return f"FiniteWeylElement(root_mat={self.root_mat})"


@dataclass(frozen=True)
class AffineWeylElement:
    finite: FiniteWeylElement
    translation: tuple  # coweight in coroot coordinates

    def key(self):
        """Canonical sort key, independent of interning."""
        return (self.finite.root_mat, self.translation)


class WeylGroup:
    """Weyl-group operations bound to one root datum.

    The group interns finite elements lazily, mapping each root matrix it
    meets to its one FiniteWeylElement: small groups fill up completely,
    and E8 (|W| ~ 7*10^8) is never listed.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        r = datum.rank
        # positive roots in root coordinates
        self._pos_roots = tuple(rt.coords for rt in datum.positive_roots())
        self._elements = {}
        ident = mat_identity(r)
        self.id_finite = self._intern(ident, ident)
        self.identity = AffineWeylElement(self.id_finite, tuple(0 for _ in range(r)))
        self._simple_finite = tuple(self.reflection_by_root(Root(e, e)) for e in ident)
        self._w0, self.w0_word = self._build_w0()

    # -- constructors --------------------------------------------------------

    def _intern(self, root_mat, coweight_mat, inverse_mats=None) -> FiniteWeylElement:
        """The element with this root matrix.  A new one is paired with its
        inverse, given as (root_mat, coweight_mat), or None for an involution."""
        got = self._elements.get(root_mat)
        if got is None:
            got = self._elements[root_mat] = FiniteWeylElement(self, root_mat, coweight_mat)
            if inverse_mats is not None and inverse_mats[0] != root_mat:
                inv = self._elements[inverse_mats[0]] = FiniteWeylElement(self, *inverse_mats)
                got._inverse, inv._inverse = inv, got
        return got

    def finite_from_word(self, word) -> FiniteWeylElement:
        out = self.id_finite
        for i in word:
            if not 1 <= i <= self.datum.rank:
                raise RootDataError(f"finite reflection index {i} out of range")
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
        wt = d.root_to_weight(root.coords)
        root_cols = []
        coweight_cols = []
        for j in range(r):
            rc = [int(j == k) for k in range(r)]
            p = root.coroot  # <gamma^vee, alpha_j>
            pj = sum(p[k] * d.cartan.entries[k][j] for k in range(r))
            rc = tuple(rc[k] - pj * root.coords[k] for k in range(r))
            root_cols.append(rc)
            cc = [int(j == k) for k in range(r)]
            cc = tuple(cc[k] - wt[j] * root.coroot[k] for k in range(r))
            coweight_cols.append(cc)
        return self._intern(tuple(zip(*root_cols)), tuple(zip(*coweight_cols)))

    def _build_w0(self):
        """Longest finite element and a reduced word for it: multiply by the
        smallest left ascent until none is left.  The indices, in the order
        taken, are the word; it equals reduced_word_finite(w0)."""
        w = self.id_finite
        word = []
        while True:
            descents = self._left_descents(w)
            if all(descents):
                return w, tuple(word)
            i = descents.index(False)
            word.append(i + 1)
            w = self._simple_finite[i] * w

    @property
    def w0(self) -> FiniteWeylElement:
        return self._w0

    # -- group law -----------------------------------------------------------

    def compose(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        # (u1 t_b1)(u2 t_b2) = u1 u2 t_{u2^{-1} b1 + b2}
        u = x.finite * y.finite
        beta = vec_add(y.finite.inverse().act_coweight(x.translation), y.translation)
        return AffineWeylElement(u, beta)

    def affine_from_finite(self, u: FiniteWeylElement) -> AffineWeylElement:
        return AffineWeylElement(u, self.identity.translation)

    # -- lengths -------------------------------------------------------------

    def length_finite(self, u: FiniteWeylElement) -> int:
        return sum(u.inversions)

    # -- reduced words -------------------------------------------------------

    def _left_descents(self, u: FiniteWeylElement):
        """For i = 1..r, whether l(s_i u) < l(u), i.e. u^{-1} alpha_i < 0:
        column i of the root matrix of u^{-1} is <= 0."""
        return [all(c <= 0 for c in col) for col in zip(*u.inverse().root_mat)]

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
            raise RootDataError(f"no translation after '@' in {text!r}")
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
