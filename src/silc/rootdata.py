"""Finite root-system arithmetic from a Cartan matrix, in integers only.

Coordinate conventions used throughout the package:

* weights are integer vectors in the fundamental-weight basis,
* roots are integer vectors in the simple-root basis,
* coweights are integer vectors in the simple-coroot basis.

With these bases the coweight/weight pairing is a plain dot product, and the
fundamental-weight coordinates of the simple root ``alpha_j`` are the j-th
column of the Cartan matrix.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from reprlib import repr as brief  # a rank or type may be long option text
from typing import NamedTuple

from .errors import RootDataError


# ---------------------------------------------------------------------------
# small exact vector/matrix helpers (tuples of ints)
# ---------------------------------------------------------------------------

def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_dot(a, b):
    if len(a) != len(b):
        raise RootDataError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def brief_vector(vec):
    """str(tuple(vec)), a coordinate past 12 characters cut as reprlib.repr cuts."""
    cut = [s if len(s) <= 12 else f"{s[:4]}...{s[-5:]}" for s in map(str, vec)]
    return f"({', '.join(cut)}{',' * (len(vec) == 1)})"


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in cols) for row in a)


def mat_identity(r):
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


# ---------------------------------------------------------------------------
# Cartan matrices
# ---------------------------------------------------------------------------

def _builtin_cartan(kind: str, rank: int):
    """Standard Cartan matrix of the given finite series (Bourbaki numbering)."""
    kind = kind.upper()
    r = rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def chain():
        for i in range(r - 1):
            a[i][i + 1] = -1
            a[i + 1][i] = -1

    if kind == "A":
        chain()
    elif kind == "B":
        if r < 2:
            raise RootDataError("type B needs rank >= 2")
        chain()
        a[r - 2][r - 1] = -2  # alpha_{r-1} long, alpha_r short
    elif kind == "C":
        if r < 2:
            raise RootDataError("type C needs rank >= 2")
        chain()
        a[r - 1][r - 2] = -2
    elif kind == "D":
        if r < 3:
            raise RootDataError("type D needs rank >= 3")
        for i in range(r - 2):
            a[i][i + 1] = -1
            a[i + 1][i] = -1
        a[r - 3][r - 1] = -1
        a[r - 1][r - 3] = -1
    elif kind == "G":
        if r != 2:
            raise RootDataError("type G needs rank 2")
        a[0][1] = -1
        a[1][0] = -3
    elif kind == "F":
        if r != 4:
            raise RootDataError("type F needs rank 4")
        chain()
        a[1][2] = -2
        a[2][1] = -1
    elif kind == "E":
        if r not in (6, 7, 8):
            raise RootDataError("type E needs rank 6, 7 or 8")
        # node 2 hangs off node 4 (Bourbaki), chain 1-3-4-5-...-r
        edges = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, r)]
        for i, j in edges:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
    else:
        raise RootDataError(f"unknown Cartan type {brief(kind)}")
    return tuple(tuple(row) for row in a)


class CartanMatrix:
    """The Cartan matrix of a built-in finite type.  Nothing is checked
    here: tests/test_rootdata.py checks every matrix root_datum can build."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries  # r x r tuple of tuples of ints

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @property
    def rank(self):
        return len(self.entries)

    def symmetrizer(self):
        """Positive integers d_i with d_i a_ij symmetric (they exist for
        finite type): with (alpha_i, alpha_j) = d_i a_ij, a weight mu pairs
        with alpha_j as (mu, alpha_j) = d_j mu_j.

        d propagates along the Dynkin graph, which is connected, from
        d_0 = 1 as d_j = d_i a_ij / a_ji; where that does not divide, every
        d found so far is scaled up just enough that it does.  So d is the
        least integer multiple of the rational solution."""
        r = self.rank
        a = self.entries
        d = [1] + [0] * (r - 1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(r):
                if j != i and a[i][j] and not d[j]:
                    f = -a[j][i] // gcd(d[i] * a[i][j], a[j][i])
                    if f > 1:
                        d = [x * f for x in d]
                    d[j] = d[i] * a[i][j] // a[j][i]
                    stack.append(j)
        return d


# ---------------------------------------------------------------------------
# Root datum
# ---------------------------------------------------------------------------

class Root(NamedTuple):
    """A root together with its coroot.

    coords: simple-root basis; coroot: simple-coroot basis.
    """
    coords: tuple
    coroot: tuple

    @property
    def height(self):
        return sum(self.coords)

    def is_positive(self):
        return all(c >= 0 for c in self.coords) and any(self.coords)


class RootDatum:
    """All derived root-system data for one Cartan matrix. Immutable."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        a = cartan.entries
        # fundamental-weight coordinates of alpha_j: j-th column of A
        self.simple_root_weights = tuple(
            tuple(a[i][j] for i in range(self.rank)) for j in range(self.rank)
        )
        self.rho = tuple(1 for _ in range(self.rank))
        self._positive_roots = self._generate_positive_roots()
        self.theta = max(self._positive_roots, key=lambda rt: (rt.height, rt.coords))

    # -- basic conversions -------------------------------------------------

    def root_to_weight(self, coords):
        """Fundamental-weight coordinates of a root given in simple-root coords."""
        a = self.cartan.entries
        return tuple(vec_dot(a[i], coords) for i in range(self.rank))

    # -- roots --------------------------------------------------------------

    def _generate_positive_roots(self):
        r = self.rank
        a = self.cartan.entries
        simples = [
            Root(tuple(int(i == j) for j in range(r)), tuple(int(i == j) for j in range(r)))
            for i in range(r)
        ]
        seen = {rt.coords: rt for rt in simples}
        frontier = list(simples)
        while frontier:
            nxt = []
            for rt in frontier:
                wt = self.root_to_weight(rt.coords)
                for i in range(r):
                    # s_i(root) = root - <alpha_i^vee, root> alpha_i
                    p = wt[i]
                    new_coords = list(rt.coords)
                    new_coords[i] -= p
                    new_coords = tuple(new_coords)
                    if new_coords in seen:
                        continue
                    # s_i(coroot) = coroot - <coroot, alpha_i> alpha_i^vee
                    q = sum(rt.coroot[k] * a[k][i] for k in range(r))
                    new_coroot = list(rt.coroot)
                    new_coroot[i] -= q
                    new_root = Root(new_coords, tuple(new_coroot))
                    seen[new_coords] = new_root
                    nxt.append(new_root)
            frontier = nxt
        pos = [rt for rt in seen.values() if rt.is_positive()]
        pos.sort(key=lambda rt: (rt.height, rt.coords))
        return tuple(pos)

    def positive_roots(self):
        """Deterministically ordered tuple of positive roots with coroots."""
        return self._positive_roots

    def is_dominant(self, lam):
        return all(c >= 0 for c in lam)


MAX_RANK = 16


@lru_cache(maxsize=None)
def root_datum(kind: str, rank: int) -> RootDatum:
    """Root datum for a named series, cached.  A rank outside 1..MAX_RANK
    is rejected before any matrix is built."""
    if rank < 1:
        raise RootDataError(f"rank {brief(rank)} is below the minimum 1")
    if rank > MAX_RANK:
        raise RootDataError(f"rank {brief(rank)} is above the maximum {MAX_RANK}")
    return RootDatum(CartanMatrix(_builtin_cartan(kind, rank)))


def is_type_a(datum: RootDatum) -> bool:
    """Whether the datum is A_r in the standard numbering, where the Weyl
    group acts on eps-coordinates by permutations."""
    return datum.cartan == root_datum("A", datum.rank).cartan


def require_type_a(datum: RootDatum):
    """Twist coefficients need every fundamental weight minuscule, which is
    what type A gives."""
    if not is_type_a(datum):
        raise RootDataError(
            "section characters and twist coefficients use minuscule "
            "fundamental weights and are implemented for type A root data only"
        )
