"""Finite root-system arithmetic from a Cartan matrix.

Coordinate conventions used throughout the package:

* weights are integer vectors in the fundamental-weight basis,
* roots are integer vectors in the simple-root basis,
* coweights are integer vectors in the simple-coroot basis.

With these bases the coweight/weight pairing is a plain dot product, and the
fundamental-weight coordinates of the simple root ``alpha_j`` are the j-th
column of the Cartan matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

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


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_dot(a, b):
    if len(a) != len(b):
        raise RootDataError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


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
        raise RootDataError(f"unknown Cartan type {kind!r}")
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple  # r x r tuple of tuples of ints

    def __post_init__(self):
        a = self.entries
        r = len(a)
        if r == 0 or any(len(row) != r for row in a):
            raise RootDataError("Cartan matrix must be square and nonempty")
        for i in range(r):
            if a[i][i] != 2:
                raise RootDataError("diagonal entries must equal 2")
            for j in range(r):
                if i != j:
                    if a[i][j] > 0:
                        raise RootDataError("off-diagonal entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise RootDataError("zero pattern must be symmetric")
        if not self._is_finite_type():
            raise RootDataError("Cartan matrix is not of finite type")

    @property
    def rank(self):
        return len(self.entries)

    def _symmetrized(self):
        """d_i a_ij symmetric with positive integers d_i (exists for finite type)."""
        r = self.rank
        a = self.entries
        d = [Fraction(0)] * r
        # propagate along the Dynkin graph; components scaled independently
        for start in range(r):
            if d[start] != 0:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(r):
                    if j != i and a[i][j] != 0 and d[j] == 0:
                        d[j] = d[i] * a[i][j] / a[j][i]
                        stack.append(j)
        return [[d[i] * a[i][j] for j in range(r)] for i in range(r)]

    def _is_finite_type(self):
        s = self._symmetrized()
        r = self.rank
        if any(s[i][j] != s[j][i] for i in range(r) for j in range(r)):
            return False
        # positive definite iff every leading principal minor is positive
        pivots, _ = solve_unpivoted(s, (0,) * r)
        return all(p > 0 for p in pivots)


def solve_unpivoted(m, b):
    """Solve m x = b over the rationals by Gauss-Jordan elimination without
    row exchanges.

    Returns (pivots, x).  The k-th pivot is the ratio of the k-th to the
    (k-1)-th leading principal minor of m, so the minors are all positive
    iff the pivots are.  Elimination stops at the first zero pivot, and x
    is then None.  Cartan matrices of finite type never have one.
    """
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(c)] for row, c in zip(m, b)]
    pivots = []
    for k in range(n):
        p = rows[k][k]
        pivots.append(p)
        if p == 0:
            return pivots, None
        rows[k] = [x / p for x in rows[k]]
        for i in range(n):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return pivots, tuple(row[n] for row in rows)


# ---------------------------------------------------------------------------
# Root datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
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

    def pairing(self, beta, lam) -> int:
        """<beta, lambda> for a coweight (coroot coords) and weight (fw coords)."""
        return vec_dot(beta, lam)

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

    # -- parabolic data ------------------------------------------------------

    def _check_index(self, i):
        if not 1 <= i <= self.rank:
            raise RootDataError(f"simple reflection index {i} out of range 1..{self.rank}")

    def parabolic_data(self, J):
        """(P_J basis indices, 2*rho_J as a weight, W_J generator indices).

        2*rho_J is the sum of the positive roots outside the span of
        {alpha_j : j in J}, in fundamental-weight coordinates.
        """
        J = frozenset(J)
        for j in J:
            self._check_index(j)
        lattice_basis = tuple(i for i in range(1, self.rank + 1) if i not in J)
        two_rho_j = tuple(0 for _ in range(self.rank))
        for rt in self._positive_roots:
            support = {k + 1 for k, c in enumerate(rt.coords) if c != 0}
            if not support <= J:
                two_rho_j = vec_add(two_rho_j, self.root_to_weight(rt.coords))
        return lattice_basis, two_rho_j, tuple(sorted(J))

    def positive_roots_in(self, J):
        """Positive roots supported on {alpha_j : j in J}."""
        J = frozenset(J)
        out = []
        for rt in self._positive_roots:
            support = {k + 1 for k, c in enumerate(rt.coords) if c != 0}
            if support <= J:
                out.append(rt)
        return tuple(out)

    def is_dominant(self, lam):
        return all(c >= 0 for c in lam)

    def is_strictly_dominant(self, lam):
        return all(c > 0 for c in lam)


MAX_RANK = 16


@lru_cache(maxsize=None)
def root_datum(kind: str, rank: int) -> RootDatum:
    """Root datum for a named series, cached.  A rank above MAX_RANK is
    rejected before any matrix is built."""
    if rank > MAX_RANK:
        raise RootDataError(f"rank {rank} is above the maximum {MAX_RANK}")
    return RootDatum(CartanMatrix(_builtin_cartan(kind, rank)))


def require_type_a(datum: RootDatum):
    """Twist coefficients need every fundamental weight minuscule, which is
    what type A gives."""
    if datum.cartan != root_datum("A", datum.rank).cartan:
        raise RootDataError(
            "section characters and twist coefficients use minuscule "
            "fundamental weights and are implemented for type A root data only"
        )
