"""Section characters of semi-infinite Richardson varieties and the
Pieri-type twist coefficients.

Grading convention (documented in docs/format.md): section-type characters
are polynomials in qbar := q^{-1}.  Exponents are anchored so that the
extremal section term e^{-w w0 lambda} of the base element w sits at
qbar-degree 0; weights are the (negated) weights of the underlying module.
With this convention the coefficient table entry at u = w is the single
monomial of weight -w w0 lambda at degree 0.  The sections of w are dual to
the module of the extremal element w w0, which _extremal, the one place
that composes with w0, returns.

The twist coefficients a^x_w(lambda) are read off the Pieri-Chevalley
formula of Kato-Naito-Sagaki (arXiv:1702.02408) in type A, where every
fundamental weight is minuscule.  Let i* = r+1-i, so varpi_{i*} =
-w0 varpi_i; varpi_{i*} in weight coordinates and alpha_{i*}^vee in coroot
coordinates are the same unit tuple.  Then

    a^x_u(varpi_i) = qbar^{<beta_x - beta_u, varpi_{i*}>} e^{y varpi_{i*}}

with y the finite part of x, if x = m t_{k alpha_{i*}^vee} with k >= 0 and
m in SemiInfiniteOrder.nearest_below(u, varpi_{i*}), and 0 otherwise.  Each
such m is the element below u nearest to it in its coset of the stabilizer
of varpi_{i*}, unique by the tilted Bruhat theorem (Lenart-Naito-Sagaki-
Schilling-Shimozono, arXiv:1402.2203).  Twisting by one fundamental weight at a time
gives every dominant lambda:

    a^x_w(lambda + varpi_i) = sum over u of
        a^u_w(lambda) a^x_u(varpi_i) qbar^{<beta_u - beta_w, varpi_{i*}>}.

Every factor is a monomial of nonnegative qbar-degree, so no sum cancels
and a window [0, hi) cuts every step exactly.

Every section character is a sum of twist coefficients.  Higher cohomology
vanishes for nef twists, so the sections of the untwisted structure sheaf
of every Richardson variety are the constants, and the product identity

    R(v, w; lambda + mu) = sum over v <= u <= w of
        a^u_w(lambda) R(v, u; mu)

at mu = 0 reads

    R(v, w; lambda) = sum over v <= u <= w of a^u_w(lambda)

for the Richardson sections, and the same sum over all u <= w for the
sections on the full orbit closure of w, finite at each qbar-degree because
each step of the formula raises it.  The package computes no section
character any other way; the tests check the identity for strictly
dominant mu against an independent loop model of the modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charring import GradedCharacter, FULL_WINDOW
from .errors import CharacterError, InconsistencyError
from .rootdata import RootDatum, require_type_a, vec_add, vec_neg
from .semiinf import si_order
from .weylgroup import AffineWeylElement, weyl_group


def _extremal(datum, w, lam):
    """(w * w0, qbar-degree, weight) of the extremal section e^{-w w0 lam}
    of w, the degree absolute; the one place that composes with w0."""
    wg = weyl_group(datum)
    x = wg.compose(w, wg.affine_from_finite(wg.w0))
    return (x, -sum(b * l for b, l in zip(x.translation, lam)),
            vec_neg(x.finite.act_weight(lam)))


def smt_character(datum: RootDatum, v: AffineWeylElement, w: AffineWeylElement,
                  lam, window=FULL_WINDOW) -> GradedCharacter:
    """Graded character of the sections of the lambda-twist on the Richardson
    variety cut out by v (bottom) and w (top): the twist coefficients
    a^u_w(lambda) summed over v <= u <= w.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    if not si_order(datum).si_le(v, w):
        return GradedCharacter.zero(window)
    coeffs = _twist_coefficients(datum, w, lam, FULL_WINDOW, v)
    return sum(coeffs.values(), GradedCharacter.zero(FULL_WINDOW)).truncate(window)


def h0_dimension(datum: RootDatum, v, w, lam) -> int:
    """Dimension of the section space (all coefficients summed).

    Exact: the interval [v, w] is finite, and so is each coefficient.
    """
    return smt_character(datum, v, w, lam).total()


def gch_global_weyl(datum: RootDatum, w: AffineWeylElement, lam, window) -> GradedCharacter:
    """Truncated graded character of the Demazure-type submodule attached to w.

    Normalization: the cyclic extremal vector sits at q-degree 0.  The module
    is dual to the sections on the full orbit closure of u = w w0 (and
    u w0 = w), so it is the sum of the coefficients a^x_u(lambda) over all x,
    weights negated.  The translation part of w drops out: translating u
    translates every x with it and leaves each coefficient as it is.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    require_type_a(datum)
    # built from degree 0, where the coefficients start, then cut to the window
    built = (0, max(window[1], 1))
    coeffs = _twist_coefficients(datum, _extremal(datum, w, lam)[0], lam, built)
    sections = sum(coeffs.values(), GradedCharacter.zero(built))
    return GradedCharacter.make(
        {(q, vec_neg(wt)): c for (q, wt), c in sections.terms}, window)


@dataclass(frozen=True)
class PieriTable:
    base: AffineWeylElement
    weight: tuple
    window: tuple
    coeffs: tuple  # tuple of (AffineWeylElement u, nonzero GradedCharacter a^u)
    anchor_degree: int  # absolute qbar-degree subtracted from all exponents

    def coefficient(self, u: AffineWeylElement) -> GradedCharacter:
        for x, a in self.coeffs:
            if x == u:
                return a
        return GradedCharacter.zero(self.window)

    def support(self):
        return tuple(x for x, _ in self.coeffs)

    def to_json(self, wg) -> dict:
        return {
            "base": wg.to_json(self.base),
            "weight": list(self.weight),
            "window": list(self.window),
            "anchor_degree": self.anchor_degree,
            "coeffs": [{"u": wg.to_json(u), "a": a.to_json()}
                       for u, a in self.coeffs],
        }


def _twist_coefficients(datum, w, lam, window, bottom=None):
    """{x: a^x_w(lam)} for every x, above bottom if one is given, whose
    coefficient is nonzero on the window, by the formula of the module
    docstring.

    Translating x by alpha_{i*}^vee moves it down and raises its degree, so
    the walk along k stops at the first x that is not above bottom or whose
    term leaves the window.  The zero twist takes no step, so it is answered
    in every type.
    """
    if any(lam):
        require_type_a(datum)
    so = si_order(datum)
    rank = datum.rank
    coeffs = {w: GradedCharacter.one(rank, window)}
    for i, m in enumerate(lam, start=1):
        star = rank - i  # 0-based index of i*
        # varpi_{i*}, and alpha_{i*}^vee in coroot coordinates
        unit = tuple(int(j == star) for j in range(rank))
        for _ in range(m):
            step = {}
            for u, a in coeffs.items():
                for x in so.nearest_below(u, unit):
                    while bottom is None or so.si_le(bottom, x):
                        term = a * GradedCharacter.monomial(
                            x.translation[star] - w.translation[star],
                            x.finite.act_weight(unit))
                        if term.is_zero():
                            break
                        step[x] = step[x] + term if x in step else term
                        x = AffineWeylElement(x.finite, vec_add(x.translation, unit))
            coeffs = step
    return coeffs


def compute_pieri(datum: RootDatum, w: AffineWeylElement, lam, window,
                  depth=None) -> PieriTable:
    """Twist coefficients a^u_w(lambda) for all u within the window.

    The formula of the module docstring walks every coset until its term
    leaves qbar-degrees [0, max(hi, 1)), so the table built there is
    complete.  Its base coefficient must be the extremal monomial; then it
    is cut to the window [lo, hi).  depth is accepted and changes nothing.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    window = tuple(window)
    built = (0, max(window[1], 1))
    full = _twist_coefficients(datum, w, lam, built)
    _, anchor, extremal_weight = _extremal(datum, w, lam)
    base = full.get(w, GradedCharacter.zero(built))
    if base != GradedCharacter.monomial(0, extremal_weight, 1, built):
        raise InconsistencyError(
            f"base coefficient {dict(base.terms)} is not the extremal monomial")
    so = si_order(datum)
    coeffs = sorted(full.items(), key=lambda ua: (so.si_length(ua[0]), ua[0].key()))
    cut = ((u, a.truncate(window)) for u, a in coeffs)
    return PieriTable(w, lam, window,
                      tuple((u, a) for u, a in cut if not a.is_zero()), anchor)
