"""Drinfeld-Pluecker data for SL2 and SL3: validation, defect divisors,
saturated evaluation, and dimension calculators.

Polynomial components are stored with exact rational coefficients in fixed
weight bases: SL2 {e1, e2}; SL3 V(w1) = {e1, e2, e3} and V(w2) = {e1^e2,
e1^e3, e2^e3} with the contraction e1^e2 <-> e3*, e1^e3 <-> -e2*,
e2^e3 <-> e1*.

Over an algebraically closed field the finite part of a defect is a
multiplicity vector at each point of the line.  It is reported without
roots, as a coprime refinement of the component gcds (Bach-Driscoll-
Shallit, *Factor refinement*, J. Algorithms 15, 1993): one square-free
polynomial per multiplicity vector, pairwise coprime, whose roots are the
points that carry that vector.  Each is printed as its primitive integer
multiple with a positive leading coefficient, as sympy's ``str`` prints it
(``"2*z - 1"``, ``"z**2 - z"``).

A polynomial in z is the tuple of its coefficients, lowest degree first,
with no trailing zero; ``()`` is zero.  The coefficients are Fractions.
Square-free parts follow Yun, and gcds are primitive remainder sequences.
Nothing depends on randomness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from reprlib import repr as brief  # data may hold long strings and lists
from typing import NamedTuple

from .errors import QuasimapError
from .rootdata import RootDatum, vec_dot
from .semiinf import si_order
from .weylgroup import AffineWeylElement, FiniteWeylElement, weyl_group


class InvalidDPError(QuasimapError):
    """The contraction identity fails; carries the offending coefficient."""

    def __init__(self, message, coefficient=None):
        super().__init__(message)
        self.coefficient = coefficient


class DegreeError(QuasimapError):
    """A component polynomial exceeds its target degree."""


class EmptyRichardsonError(QuasimapError):
    """The pair is incomparable, so the variety is empty (not 0-dimensional)."""


# Size limits on the data: with at most N digits in each numerator and
# denominator and D coefficients in each polynomial, every number printed
# stays under Python's 4,300-digit limit on int-to-str conversion.  A rank-2
# residual coefficient sums 3 D products of input coefficients, so it has at
# most 6 D N + 3 = 4,203 digits; a defect factor or an eval coordinate has at
# most N (D + 1) + 0.31 D + 1 = 732 (Mignotte's bound on factors over Z).
MAX_COEFFICIENT_DIGITS = 20
MAX_COEFFICIENTS = 35


def _to_fraction(x) -> Fraction:
    if isinstance(x, str) and "e" in x.lower():
        # refused before Fraction parses it: "1e1000000000" is a
        # billion-digit integer
        raise QuasimapError(f"coefficient {brief(x)} is in exponent notation")
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if max(abs(q.numerator), q.denominator) < 10 ** MAX_COEFFICIENT_DIGITS:
                return q
            # the value is not echoed: str() of it may pass the digit limit
            raise QuasimapError(
                f"a coefficient has more than {MAX_COEFFICIENT_DIGITS} digits "
                "in its numerator or denominator")
    raise QuasimapError(f"coefficient {brief(x)} is not an exact rational")


def _trim(coeffs):
    return _strip(tuple(_to_fraction(c) for c in coeffs))


def _poly_degree(coeffs) -> int:
    return len(coeffs) - 1 if coeffs else -1


# ---------------------------------------------------------------------------
# polynomial arithmetic over Q (Fractions)
# ---------------------------------------------------------------------------

def _strip(a):
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return tuple(a[:end])


def _add(a, b):
    return _strip(tuple(x + y for x, y in zip_longest(a, b, fillvalue=0)))


def _sub(a, b):
    return _strip(tuple(x - y for x, y in zip_longest(a, b, fillvalue=0)))


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _deriv(a):
    return tuple(k * c for k, c in enumerate(a) if k)


def _divmod(a, b):
    """Quotient and remainder of a by b != 0 over Q."""
    inv = 1 / Fraction(b[-1])
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + len(b) - 1] * inv
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return _strip(q), _strip(r)


def _gcd(a, b):
    """The monic gcd over Q, by a primitive remainder sequence (Collins,
    J. ACM 14, 1967; Knuth, TAOCP 2, 4.6.1): each divisor is replaced by
    its primitive integer multiple and divides the previous one by integer
    pseudo-division, so the coefficients grow as subresultants do, not
    exponentially as in Euclid's algorithm over Q."""
    while b:
        b, r = _primitive(b), list(a)
        while len(r) >= len(b):
            # r <- lc(b) r - c z^k b cancels the top coefficient c of r
            c, k = r.pop(), len(r) - len(b) + 1
            r = [x * b[-1] - (c * b[i - k] if i >= k else 0)
                 for i, x in enumerate(r)]
        a, b = b, _strip(r)
    return tuple(Fraction(c, a[-1]) for c in a)


def _squarefree(f):
    """Yun: the pairs (a, i) with f = lc(f) * prod a**i, each a monic,
    square-free, of positive degree and coprime to the others."""
    df = _deriv(f)
    a = _gcd(f, df)
    b, c = _divmod(f, a)[0], _divmod(df, a)[0]
    out = []
    i = 1
    while len(b) > 1:
        d = _sub(c, _deriv(b))
        a = _gcd(b, d)
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _primitive(f):
    """The primitive integer multiple of f with a positive leading
    coefficient."""
    den = lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // g for c in ints)


def _expr_str(coeffs) -> str:
    """The polynomial as sympy's str prints it: terms from the top degree
    down, except that a positive constant goes first when the one other term
    is negative (``1 - z**2``, ``1/3 - z/2``)."""
    terms = [(k, c) for k, c in enumerate(coeffs) if c][::-1]
    if len(terms) == 2 and terms[1][0] == 0 and terms[1][1] > 0 > terms[0][1]:
        terms.reverse()
    out = ""
    for k, c in terms:
        mag = Fraction(abs(c))
        if k == 0:
            body = str(mag)
        else:
            body = "z" if k == 1 else f"z**{k}"
            if mag.numerator != 1:
                body = f"{mag.numerator}*{body}"
            if mag.denominator != 1:
                body = f"{body}/{mag.denominator}"
        sign = "-" if c < 0 else "+"
        out = f"{out} {sign} {body}" if out else sign.strip("+") + body
    return out


def _field(obj, key, where, kind=object):
    """obj[key] of a JSON object, or an error that names the key."""
    if not isinstance(obj, dict):
        raise QuasimapError(f"{where} must be a JSON object")
    if key not in obj:
        raise QuasimapError(f"{where} has no {key!r}")
    if not isinstance(obj[key], kind):
        raise QuasimapError(f"{key!r} in {where} must be a {kind.__name__}")
    return obj[key]


class DPData(NamedTuple):
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
            if any(len(c) > MAX_COEFFICIENTS for c in vec):
                raise QuasimapError(
                    f"component {i + 1} has a polynomial of more than "
                    f"{MAX_COEFFICIENTS} coefficients")
            vec = tuple(_trim(c) for c in vec)
            if all(not c for c in vec):
                raise QuasimapError(f"component {i + 1} is the zero vector")
            comps.append(vec)
        if any(type(d) is not int for d in degrees):
            raise QuasimapError(f"degrees {brief(list(degrees))} must be integers")
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
        rank = _field(obj, "rank", "data")
        if type(rank) is not int or rank not in (1, 2):
            raise QuasimapError(f"rank {brief(rank)} not supported (1 or 2 only)")
        comps = [None] * rank
        for entry in _field(obj, "components", "data", list):
            i = _field(entry, "weight", "a component")
            if type(i) is not int or i not in range(1, rank + 1):
                raise QuasimapError(
                    f"component weight {brief(i)} is outside 1..{rank}")
            if comps[i - 1] is not None:
                raise QuasimapError(f"component weight {i} is given twice")
            polys = _field(entry, "polys", f"component weight {i}", list)
            if not all(isinstance(poly, list) for poly in polys):
                raise QuasimapError(
                    f"polys of component weight {i} must be lists of "
                    f"coefficients, not {brief(polys)}")
            comps[i - 1] = tuple(tuple(poly) for poly in polys)
        for i, comp in enumerate(comps, start=1):
            if comp is None:
                raise QuasimapError(f"component weight {i} is missing")
        degrees = _field(obj, "degrees", "data", list)
        return DPData.make(rank, tuple(comps), tuple(degrees))


class DefectDivisor(NamedTuple):
    # sorted tuple of (factor string, its degree, coweight): the factors are
    # square-free and pairwise coprime, one per coweight, and each root of a
    # factor is a defect point of that coweight
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


def wedge(v1, v2):
    """Pluecker coordinates (c12, c13, c23) of two polynomial 3-vectors.

    Pairing the wedge against either argument vanishes identically, so this
    is the standard way to manufacture valid rank-2 data.
    """
    a = [_trim(c) for c in v1]
    b = [_trim(c) for c in v2]
    return (
        _sub(_mul(a[0], b[1]), _mul(a[1], b[0])),
        _sub(_mul(a[0], b[2]), _mul(a[2], b[0])),
        _sub(_mul(a[1], b[2]), _mul(a[2], b[1])),
    )


def scale_component(vec, factor):
    """Multiply every coordinate polynomial by the given polynomial."""
    f = _trim(factor)
    return tuple(_mul(_trim(c), f) for c in vec)


def _contraction_polynomial(data: DPData):
    """<u_{w2}(z), u_{w1}(z)> under the fixed contraction signs."""
    c12, c13, c23 = data.components[1]
    u1, u2, u3 = data.components[0]
    return _add(_sub(_mul(c12, u3), _mul(c13, u2)), _mul(c23, u1))


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
        if residual:
            raise InvalidDPError(
                f"contraction identity fails: residual {_expr_str(residual)}",
                coefficient=residual[-1],
            )
    beta = _beta_from_degrees(data.rank, data.degrees)
    if any(b < 0 for b in beta):
        raise DegreeError(f"degree vector {beta} has a negative entry")
    return beta


def _component_gcd(vec):
    g = ()
    for coeffs in vec:
        g = _gcd(g, coeffs)
    return g


def defect_divisor(data: DPData) -> DefectDivisor:
    """Finite defects from a coprime refinement of the component gcds,
    infinity from the degree deficit."""
    validate_dp(data)
    rank = data.rank
    # pairwise coprime square-free monic polynomials, each with the
    # multiplicity vector of its roots; each new part is split from the
    # old ones by gcds
    parts = []
    for i in range(rank):
        for a, m in _squarefree(_component_gcd(data.components[i])):
            mult = tuple(m if k == i else 0 for k in range(rank))
            refined = []
            for b, vec in parts:
                g = _gcd(a, b)
                a, b = _divmod(a, g)[0], _divmod(b, g)[0]
                refined += [(g, tuple(x + y for x, y in zip(vec, mult))), (b, vec)]
            parts = [(p, vec) for p, vec in refined + [(a, mult)] if len(p) > 1]
    merged = {}
    for p, vec in parts:
        merged[vec] = _mul(merged.get(vec, (1,)), p)
    finite = tuple(sorted((_expr_str(_primitive(p)), _poly_degree(p), vec)
                          for vec, p in merged.items()))
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
        comps.append(tuple(_divmod(coeffs, g)[0]
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
    # the positive roots outside the span of {alpha_j : j in J}: there are
    # dim G/P_J of them, and their weights sum to 2 rho_J
    outside = [datum.root_to_weight(rt.coords) for rt in datum.positive_roots()
               if any(rt.coords[k] for k in range(datum.rank) if k + 1 not in J)]
    two_rho_j = tuple(map(sum, zip(*outside))) or (0,) * datum.rank
    w0_beta = wg.w0.act_coweight(beta)
    return len(outside) - vec_dot(w0_beta, two_rho_j) - wg.length_finite(w)
