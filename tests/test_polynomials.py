"""The exact polynomial arithmetic of silc.quasimap against sympy.

sympy is a test-only oracle: the gcds, quotients and printed strings of
random small polynomials over Q, products of repeated factors among them,
must equal what sympy computes over QQ, and a defect divisor must be the
coprime refinement of sympy's factor lists of the component gcds.
"""

import itertools
import json
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st

from qm_random import random_dp
from silc.quasimap import (MAX_COEFFICIENT_DIGITS, MAX_COEFFICIENTS, DPData,
                           InvalidDPError, _divmod, _expr_str, _gcd, _mul,
                           _strip, defect_divisor, validate_dp)

Z = sympy.Symbol("z")


def oracle(coeffs):
    """The sympy Poly over QQ of a low-degree-first coefficient tuple."""
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
        or [0], Z, domain=sympy.QQ)


coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=3),
).map(Fraction)
polys = st.lists(coefficients, min_size=1, max_size=4).map(
    lambda c: _strip(tuple(c)))
nonzero = polys.filter(bool)


@st.composite
def products(draw):
    """A product of up to three random factors, each to a power up to 3."""
    f = (Fraction(1),)
    for factor, power in draw(st.lists(st.tuples(nonzero, st.integers(1, 3)),
                                       min_size=1, max_size=3)):
        for _ in range(power):
            f = _mul(f, factor)
    return f


def check_refinement(data):
    """The defect of data is the coprime refinement of sympy's factor lists
    of the component gcds: pairwise coprime square-free factors, printed as
    sympy prints them, with each irreducible factor of a gcd dividing
    exactly one of them, whose multiplicity vector is that factor's."""
    div = defect_divisor(data)
    gcds = [reduce(sympy.Poly.gcd, [oracle(c) for c in vec])
            for vec in data.components]
    factors = []
    for text, degree, mult in div.finite_points:
        f = sympy.Poly(sympy.sympify(text), Z, domain=sympy.QQ)
        assert str(f.as_expr()) == text and f.degree() == degree
        coeffs = f.all_coeffs()
        assert all(c.is_integer for c in coeffs) and coeffs[0] > 0
        assert sympy.gcd_list(coeffs) == 1
        assert f.gcd(f.diff(Z)).degree() == 0
        factors.append((f, mult))
    for (f, m), (g, n) in itertools.combinations(factors, 2):
        assert f.gcd(g).degree() == 0 and m != n
    orders = {}
    for i, g in enumerate(gcds):
        for p, m in g.factor_list()[1]:
            orders.setdefault(p.monic(), [0] * data.rank)[i] = m
    for p, vec in orders.items():
        hits = [mult for f, mult in factors if f.rem(p).is_zero]
        assert hits == [tuple(vec)]
    for i, g in enumerate(gcds):
        product = oracle((Fraction(1),))
        for f, mult in factors:
            product *= f ** mult[i]
        assert product.monic() == g.monic()
    for i in range(data.rank):
        deficit = data.degrees[i] - data.component_degree(i)
        assert div.at_infinity[i] == deficit
        assert div.total()[i] == deficit + sum(
            deg * mult[i] for _, deg, mult in div.finite_points)
    return div


def rank2(f, g):
    """Rank-2 data whose component gcds are f and g: (f, 0, 0) pairs to 0
    with (g, 0, 0)."""
    return DPData.make(2, ((f, (), ()), (g, (), ())),
                       (len(f) - 1, len(g) - 1))


@seed(13)
@settings(max_examples=120, deadline=None)
@given(products(), products())
def test_defect_refines_the_factor_lists_of_drawn_products(f, g):
    check_refinement(rank2(f, g))


def test_defect_refines_the_factor_lists_of_random_data():
    rng = random.Random(31)
    for _ in range(60):
        check_refinement(random_dp(rng, rng.choice((1, 2))))


@seed(13)
@settings(max_examples=120, deadline=None)
@given(products(), nonzero)
def test_gcd_and_division_match_sympy(a, b):
    g = _gcd(a, b)
    assert oracle(g) == oracle(a).gcd(oracle(b))
    with mock.patch("silc.quasimap._heuristic_gcd", return_value=()):
        assert _gcd(a, b) == g   # Euclid's algorithm, the fallback
    q, r = _divmod(a, b)
    assert (oracle(q), oracle(r)) == oracle(a).div(oracle(b))
    assert _divmod(_mul(a, b), b) == (a, ())


@seed(13)
@settings(max_examples=120, deadline=None)
@given(st.one_of(nonzero, products()))
def test_printer_matches_sympy(f):
    assert _expr_str(f) == str(oracle(f).as_expr())


@pytest.mark.parametrize("coeffs, text", [
    ((1, 0, -1), "1 - z**2"),
    ((Fraction(1, 3), Fraction(-1, 2)), "1/3 - z/2"),
    ((Fraction(-3, 2), Fraction(1, 3), Fraction(-1, 2)),
     "-z**2/2 + z/3 - 3/2"),
    ((0, 0, -2), "-2*z**2"),
    ((0, 1, -1), "-z**2 + z"),
])
def test_printer_pins_sympy_term_order(coeffs, text):
    coeffs = tuple(Fraction(c) for c in coeffs)
    assert _expr_str(coeffs) == text == str(oracle(coeffs).as_expr())


def poly(expr):
    return tuple(Fraction(str(c)) for c in reversed(
        sympy.Poly(expr, Z, domain=sympy.QQ).all_coeffs()))


MANY_MODULAR_FACTORS = {
    # irreducible over Q but split into linear and quadratic factors mod
    # every prime
    "sd8": Z**8 - 40 * Z**6 + 352 * Z**4 - 960 * Z**2 + 576,
    "z12": Z**12 - 1,
    "powers": (Z**4 + 1) * (Z**4 - 2) * (2 * Z - 1)**3 * (Z**2 + Z + 1)**2,
    "linear": sympy.prod([k * Z - k - 1 for k in range(1, 7)]),
}


@pytest.mark.parametrize("first, second", itertools.product(
    MANY_MODULAR_FACTORS, repeat=2), ids=str)
def test_defect_refines_the_factor_lists_of_many_modular_factors(first, second):
    check_refinement(rank2(poly(MANY_MODULAR_FACTORS[first]),
                           poly(MANY_MODULAR_FACTORS[second])))


def test_defect_of_a_swinnerton_dyer_gcd_is_one_factor():
    """The minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 + sqrt11 has
    degree 32 and splits mod every prime into at least 16 factors, whose
    subsets a factoring over Q would have to recombine."""
    path = Path(__file__).parent / "data" / "qmap_swinnerton_dyer.json"
    div = check_refinement(DPData.from_json(json.loads(path.read_text())))
    minimal = sympy.minimal_polynomial(
        sum(sympy.sqrt(p) for p in (2, 3, 5, 7, 11)), Z)
    assert div.finite_points == ((str(minimal), 32, (1,)),)


def test_a_residual_at_the_size_limits_prints():
    """A rank-2 residual coefficient sums products of input coefficients.
    With a distinct prime of the largest size allowed as the denominator of
    every coefficient, its denominator is the product of them all, and it
    must still print under Python's int-to-str digit limit."""
    primes, p = [], 10 ** MAX_COEFFICIENT_DIGITS
    for _ in range(6 * MAX_COEFFICIENTS):
        p = sympy.prevprime(p)
        primes.append(p)
    coords = [[f"1/{primes.pop()}" for _ in range(MAX_COEFFICIENTS)]
              for _ in range(6)]
    data = DPData.from_json({
        "rank": 2, "degrees": [MAX_COEFFICIENTS - 1] * 2,
        "components": [{"weight": 1, "polys": coords[:3]},
                       {"weight": 2, "polys": coords[3:]}]})
    with pytest.raises(InvalidDPError) as err:
        validate_dp(data)
    longest = max(map(len, re.findall(r"\d+", str(err.value))))
    assert 4000 < longest <= sys.get_int_max_str_digits()


def test_gcd_of_high_degree():
    """A degree-6 common factor of two degree-200 polynomials; Euclid over Q
    alone takes minutes here."""
    rng = random.Random(5)
    common = tuple(Fraction(rng.randint(-5, 5)) for _ in range(6)) + (1,)
    a, b = (_mul(common, tuple(Fraction(rng.randint(-9, 9))
                               for _ in range(200)) + (1,)) for _ in range(2))
    assert oracle(_gcd(a, b)) == oracle(a).gcd(oracle(b))
