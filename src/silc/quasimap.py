"""Drinfeld-Pluecker data for SL2 and SL3: validation, defect divisors,
saturated evaluation, Schubert membership, and dimension calculators.

Polynomial components are stored with exact rational coefficients in fixed
weight bases: SL2 {e1, e2}; SL3 V(w1) = {e1, e2, e3} and V(w2) = {e1^e2,
e1^e3, e2^e3} with the contraction e1^e2 <-> e3*, e1^e3 <-> -e2*,
e2^e3 <-> e1*.  Defect points are reported as monic irreducible factor
strings over the rationals, never as floating-point roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .rootdata import RootDatum, solve_unpivoted, vec_dot, vec_sub
from .semiinf import si_order
from .weylgroup import AffineWeylElement, FiniteWeylElement, weyl_group

if TYPE_CHECKING:
    from sympy import Poly


def _sympy():
    """sympy and the variable z, imported on first use: only the quasi-map
    polynomial operations need sympy, and importing it takes most of the
    CLI's start-up time."""
    import sympy

    return sympy, sympy.Symbol("z")


class QuasimapError(ValueError):
    pass


class InvalidDPError(QuasimapError):
    """The contraction identity fails; carries the offending coefficient."""

    def __init__(self, message, coefficient=None):
        super().__init__(message)
        self.coefficient = coefficient


class DegreeError(QuasimapError):
    """A component polynomial exceeds its target degree."""


class EmptyRichardsonError(QuasimapError):
    """The pair is incomparable, so the variety is empty (not 0-dimensional)."""


# weights of the fixed basis vectors, fundamental-weight coordinates
_BASIS_WEIGHTS = {
    1: (((1,), (-1,)),),
    2: (
        ((1, 0), (-1, 1), (0, -1)),          # V(w1): e1, e2, e3
        ((0, 1), (1, -1), (-1, 0)),          # V(w2): e1^e2, e1^e3, e2^e3
    ),
}


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise QuasimapError(f"coefficient {x!r} is not an exact rational")


def _trim(coeffs):
    coeffs = tuple(_to_fraction(c) for c in coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _poly(coeffs) -> Poly:
    """Low-degree-first rational coefficient list -> sympy Poly over QQ."""
    sympy, z = _sympy()
    expr = sum(
        (sympy.Rational(c.numerator, c.denominator) * z ** k
         for k, c in enumerate(coeffs)),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, z, domain=sympy.QQ)


def _poly_degree(coeffs) -> int:
    return len(coeffs) - 1 if coeffs else -1


@dataclass(frozen=True)
class DPData:
    """One polynomial vector per fundamental weight, plus target degrees."""

    rank: int
    components: tuple  # per fundamental weight: tuple of coefficient tuples
    degrees: tuple     # target degree d_i per component

    @staticmethod
    def make(rank, components, degrees) -> "DPData":
        if rank not in (1, 2):
            raise QuasimapError(f"rank {rank} not supported (1 or 2 only)")
        dims = (2,) if rank == 1 else (3, 3)
        if len(components) != rank or len(degrees) != rank:
            raise QuasimapError("need one component and one degree per "
                                "fundamental weight")
        comps = []
        for i, vec in enumerate(components):
            if len(vec) != dims[i]:
                raise QuasimapError(
                    f"component {i + 1} must have {dims[i]} coordinates"
                )
            vec = tuple(_trim(c) for c in vec)
            if all(not c for c in vec):
                raise QuasimapError(f"component {i + 1} is the zero vector")
            comps.append(vec)
        if any(type(d) is not int for d in degrees):
            raise QuasimapError(f"degrees {list(degrees)!r} must be integers")
        return DPData(rank, tuple(comps), tuple(degrees))

    def component_degree(self, i) -> int:
        return max(_poly_degree(c) for c in self.components[i])

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "components": [
                {
                    "weight": i + 1,
                    "polys": [[str(c) for c in coeffs] or ["0"]
                              for coeffs in vec],
                }
                for i, vec in enumerate(self.components)
            ],
            "degrees": list(self.degrees),
        }

    @staticmethod
    def from_json(obj) -> "DPData":
        if not isinstance(obj, dict):
            raise QuasimapError("data must be a JSON object")
        rank = obj["rank"]
        if type(rank) is not int or rank not in (1, 2):
            raise QuasimapError(f"rank {rank!r} not supported (1 or 2 only)")
        comps = [None] * rank
        for entry in obj["components"]:
            i = entry["weight"]
            if type(i) is not int or i not in range(1, rank + 1):
                raise QuasimapError(f"component weight {i!r} is outside 1..{rank}")
            if comps[i - 1] is not None:
                raise QuasimapError(f"component weight {i} is given twice")
            comps[i - 1] = tuple(tuple(poly) for poly in entry["polys"])
        for i, comp in enumerate(comps, start=1):
            if comp is None:
                raise QuasimapError(f"component weight {i} is missing")
        return DPData.make(rank, tuple(comps), tuple(obj["degrees"]))


@dataclass(frozen=True)
class DefectDivisor:
    # sorted tuple of (irreducible factor string, its degree, coweight)
    finite_points: tuple
    at_infinity: tuple    # coweight

    def total(self) -> tuple:
        """|D| as a coweight; finite factors weighted by their degree."""
        out = list(self.at_infinity)
        for _, deg, mult in self.finite_points:
            for i, m in enumerate(mult):
                out[i] += deg * m
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "finite_points": [
                {"factor": f, "multiplicity": list(m)}
                for f, _, m in self.finite_points
            ],
            "at_infinity": list(self.at_infinity),
        }


def _coeff_tuple(p: Poly):
    if p.is_zero:
        return ()
    return tuple(Fraction(str(c)) for c in reversed(p.all_coeffs()))


def wedge(v1, v2):
    """Pluecker coordinates (c12, c13, c23) of two polynomial 3-vectors.

    Pairing the wedge against either argument vanishes identically, so this
    is the standard way to manufacture valid rank-2 data.
    """
    a = [_poly(_trim(c)) for c in v1]
    b = [_poly(_trim(c)) for c in v2]
    return (
        _coeff_tuple(a[0] * b[1] - a[1] * b[0]),
        _coeff_tuple(a[0] * b[2] - a[2] * b[0]),
        _coeff_tuple(a[1] * b[2] - a[2] * b[1]),
    )


def scale_component(vec, factor):
    """Multiply every coordinate polynomial by the given polynomial."""
    f = _poly(_trim(factor))
    return tuple(_coeff_tuple(_poly(_trim(c)) * f) for c in vec)


def _contraction_polynomial(data: DPData) -> Poly:
    """<u_{w2}(z), u_{w1}(z)> under the fixed contraction signs."""
    c12, c13, c23 = (_poly(c) for c in data.components[1])
    u1, u2, u3 = (_poly(c) for c in data.components[0])
    return c12 * u3 - c13 * u2 + c23 * u1


def _beta_from_degrees(rank, degrees) -> tuple:
    """beta with d_i = -<w0 beta, w_i>; w0 flips the type-A diagram."""
    if rank == 1:
        return (degrees[0],)
    return (degrees[1], degrees[0])


def validate_dp(data: DPData) -> tuple:
    """Exact degree-bound and contraction checks; returns the degree vector
    beta in simple-coroot coordinates, all entries >= 0."""
    for i in range(data.rank):
        deg = data.component_degree(i)
        if deg > data.degrees[i]:
            raise DegreeError(
                f"component {i + 1} has degree {deg} exceeding the "
                f"target {data.degrees[i]}"
            )
    if data.rank == 2:
        residual = _contraction_polynomial(data)
        if not residual.is_zero:
            coeffs = residual.all_coeffs()
            raise InvalidDPError(
                f"contraction identity fails: residual {residual.as_expr()}",
                coefficient=Fraction(str(coeffs[0])),
            )
    beta = _beta_from_degrees(data.rank, data.degrees)
    if any(b < 0 for b in beta):
        raise DegreeError(f"degree vector {beta} has a negative entry")
    return beta


def _component_gcd(vec) -> Poly:
    sympy, z = _sympy()
    g = sympy.Poly(0, z, domain=sympy.QQ)
    for coeffs in vec:
        g = g.gcd(_poly(coeffs))
    return g.monic()


def defect_divisor(data: DPData) -> DefectDivisor:
    """Finite defects from gcd factorizations, infinity from degree deficit."""
    validate_dp(data)
    rank = data.rank
    factor_orders = {}
    for i in range(rank):
        g = _component_gcd(data.components[i])
        if g.degree() > 0:
            for factor, mult in g.factor_list()[1]:
                key = (str(factor.as_expr()), factor.degree())
                factor_orders.setdefault(key, [0] * rank)[i] += mult
    finite = tuple(sorted(
        (*key, tuple(orders)) for key, orders in factor_orders.items()
    ))
    at_inf = tuple(
        data.degrees[i] - data.component_degree(i) for i in range(rank)
    )
    return DefectDivisor(finite, at_inf)


def saturate(data: DPData) -> DPData:
    """Divide each component by the gcd of its coordinates."""
    validate_dp(data)
    comps = []
    for i in range(data.rank):
        g = _component_gcd(data.components[i])
        comps.append(tuple(_coeff_tuple(_poly(coeffs).div(g)[0])
                           for coeffs in data.components[i]))
    return DPData(data.rank, tuple(comps), data.degrees)


def evaluate(data: DPData, at_infinity: bool = False):
    """Projective coordinates of the saturated data at 0 or at infinity."""
    sat = saturate(data)
    out = []
    for i in range(sat.rank):
        vec = sat.components[i]
        if at_infinity:
            top = sat.component_degree(i)
            coords = tuple(
                coeffs[top] if _poly_degree(coeffs) == top else Fraction(0)
                for coeffs in vec
            )
        else:
            coords = tuple(
                coeffs[0] if coeffs else Fraction(0) for coeffs in vec
            )
        out.append(coords)
    return tuple(out)


def _weight_ge(a, b, datum: RootDatum) -> bool:
    """a >= b in the dominance order (difference in the positive root cone)."""
    # the columns of the Cartan matrix are the simple roots in
    # fundamental-weight coordinates
    _, coords = solve_unpivoted(datum.cartan.entries, vec_sub(a, b))
    return all(c.denominator == 1 and c >= 0 for c in coords)


def schubert_member(coords, w: FiniteWeylElement, datum: RootDatum,
                    opposite: bool = False) -> bool:
    """Membership of a flag point in the (opposite) Schubert variety of w.

    A point lies in the closure of the Borel orbit through the fixed point
    of w iff each component is supported on basis weights >= w w0 w_i in the
    dominance order (<= for the opposite Borel).
    """
    rank = datum.rank
    if rank not in (1, 2):
        raise QuasimapError("flag membership implemented for ranks 1 and 2")
    basis = _BASIS_WEIGHTS[rank]
    if len(coords) != rank or any(
        len(c) != len(basis[i]) for i, c in enumerate(coords)
    ):
        raise QuasimapError("malformed flag coordinates")
    if all(all(x == 0 for x in c) for c in coords):
        raise QuasimapError("flag coordinates must be nonzero")
    wg = weyl_group(datum)
    for i in range(rank):
        fw = tuple(1 if k == i else 0 for k in range(rank))
        target = (w * wg.w0).act_weight(fw)
        for wt, c in zip(basis[i], coords[i]):
            if c == 0:
                continue
            ok = _weight_ge(target, wt, datum) if opposite else \
                _weight_ge(wt, target, datum)
            if not ok:
                return False
    return True


def fixed_point_coords(w: FiniteWeylElement, datum: RootDatum):
    """Coordinates of the flag fixed point attached to w.

    The twist by O(lam) restricts to the character -w w0 lam at this point,
    so the i-th component is the basis vector of weight w w0 w_i.
    """
    rank = datum.rank
    basis = _BASIS_WEIGHTS[rank]
    wg = weyl_group(datum)
    out = []
    for i in range(rank):
        fw = tuple(1 if k == i else 0 for k in range(rank))
        target = (w * wg.w0).act_weight(fw)
        coords = tuple(
            Fraction(1) if wt == target else Fraction(0) for wt in basis[i]
        )
        if not any(coords):
            raise QuasimapError(f"no basis vector of weight {target}")
        out.append(coords)
    return tuple(out)


# ---------------------------------------------------------------------------
# dimension calculators
# ---------------------------------------------------------------------------

def dim_richardson(datum: RootDatum, v: AffineWeylElement,
                   w: AffineWeylElement) -> int:
    """Dimension of the Richardson variety between v (bottom) and w (top)."""
    so = si_order(datum)
    if not so.si_le(v, w):
        raise EmptyRichardsonError(
            "the pair is incomparable in the semi-infinite order; "
            "the variety is empty"
        )
    return so.si_length(v) - so.si_length(w)


def dim_parabolic(datum: RootDatum, J, beta, w: FiniteWeylElement) -> int:
    """dim of the degree-beta parabolic quasi-map boundary stratum of w."""
    wg = weyl_group(datum)
    J = tuple(sorted(set(J)))
    if any(b < 0 for b in beta):
        raise QuasimapError(f"beta {beta} is not a nonnegative coroot sum")
    for j in J:
        sj = wg.finite_from_word([j])
        if wg.length_finite(w * sj) < wg.length_finite(w):
            raise QuasimapError(
                f"w = {','.join(map(str, wg.reduced_word_finite(w))) or 'e'} "
                f"is not the minimal representative of its coset "
                f"(right descent at {j})"
            )
    _, two_rho_j, _ = datum.parabolic_data(J)
    dim_gp = len(datum.positive_roots()) - len(datum.positive_roots_in(J))
    w0_beta = wg.w0.act_coweight(beta)
    return dim_gp - vec_dot(w0_beta, two_rho_j) - wg.length_finite(w)
