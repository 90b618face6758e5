"""The exact polynomial arithmetic of silc.quasimap against sympy.

sympy is a test-only oracle: the factor lists, gcds, quotients and printed
strings of random small polynomials over Q, products of repeated factors
among them, must equal what sympy computes over QQ.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st

from silc.quasimap import (_divmod, _expr_str, _factor_list, _gcd, _monic,
                           _mul, _poly_degree, _strip)

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


@seed(13)
@settings(max_examples=120, deadline=None)
@given(products())
def test_factor_list_matches_sympy(f):
    mine = [(_expr_str(g), _poly_degree(g), m) for g, m in _factor_list(f)]
    theirs = [(str(g.as_expr()), g.degree(), m)
              for g, m in oracle(f).factor_list()[1]]
    assert sorted(mine) == sorted(theirs)
    product = (Fraction(1),)
    for g, m in _factor_list(f):
        assert all(type(c) is int for c in g) and g[-1] > 0
        for _ in range(m):
            product = _mul(product, g)
    assert _monic(product) == _monic(f)


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


@pytest.mark.parametrize("expr", [
    # irreducible over Q but split into linear and quadratic factors mod
    # every prime, so every subset of the lifted factors is tried
    Z**8 - 40 * Z**6 + 352 * Z**4 - 960 * Z**2 + 576,
    Z**12 - 1,
    (Z**4 + 1) * (Z**4 - 2) * (2 * Z - 1)**3 * (Z**2 + Z + 1)**2,
    sympy.prod([k * Z - k - 1 for k in range(1, 7)]),
])
def test_factor_list_of_many_modular_factors(expr):
    f = tuple(Fraction(str(c)) for c in reversed(
        sympy.Poly(expr, Z, domain=sympy.QQ).all_coeffs()))
    assert sorted((_expr_str(g), m) for g, m in _factor_list(f)) == sorted(
        (str(g.as_expr()), m) for g, m in oracle(f).factor_list()[1])


def test_gcd_of_high_degree():
    """A degree-6 common factor of two degree-200 polynomials; Euclid over Q
    alone takes minutes here."""
    rng = random.Random(5)
    common = tuple(Fraction(rng.randint(-5, 5)) for _ in range(6)) + (1,)
    a, b = (_mul(common, tuple(Fraction(rng.randint(-9, 9))
                               for _ in range(200)) + (1,)) for _ in range(2))
    assert oracle(_gcd(a, b)) == oracle(a).gcd(oracle(b))
