"""Section characters of semi-infinite Richardson varieties and the
Pieri-type twist coefficients.

Grading convention (documented in docs/format.md): section-type characters
are polynomials in qbar := q^{-1}.  Exponents are anchored so that the
extremal section term e^{-w w0 lambda} of the base element w sits at
qbar-degree 0; weights are the (negated) weights of the underlying module.
With this convention the coefficient table entry at u = w is the single
monomial of weight -w w0 lambda at degree 0.  The sections of w are read
off the loop-model modules of the extremal element w w0, which _extremal,
the one place that composes with w0, returns; anchoring and negating the
weights happen here, not in the loop model.

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
and a window [0, hi) cuts every step exactly.  The Richardson section
character of strictly dominant (or zero) lambda is the one computation of
sections that does not use the formula: the loop model gives it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import loopmodel
from .charring import GradedCharacter, FULL_WINDOW
from .errors import CharacterError, InconsistencyError, WindowExhaustedError
from .rootdata import RootDatum, vec_add, vec_neg
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
    variety cut out by v (bottom) and w (top).

    For strictly dominant (or zero) lambda it is computed exactly as the
    graded dual of the intersection of the upward module of w*w0 with the
    downward module of v*w0.  Otherwise it is the sum of the twist
    coefficients a^u_w(lambda) over v <= u <= w.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    if not si_order(datum).si_le(v, w):
        return GradedCharacter.zero(window)
    if datum.is_strictly_dominant(lam) or sum(lam) == 0:
        xv = _extremal(datum, v, lam)[0]
        xw, d_w, _ = _extremal(datum, w, lam)
        blocks = loopmodel.richardson_blocks(datum, xv, xw, lam)
        return GradedCharacter.make(
            {(d - d_w, vec_neg(wt)): dim for (d, wt), dim in blocks.items()},
            window)
    # non-regular twists fall outside the Demazure-intersection description
    coeffs = _twist_coefficients(datum, w, lam, FULL_WINDOW, v)
    return sum(coeffs.values(), GradedCharacter.zero(FULL_WINDOW)).truncate(window)


def h0_dimension(datum: RootDatum, v, w, lam) -> int:
    """Dimension of the section space (all coefficients summed).

    Exact: the loop-model intersection of a strictly dominant twist is
    finite-dimensional, and the interval [v, w] is finite.
    """
    return smt_character(datum, v, w, lam).total()


def schubert_section_character(datum: RootDatum, u: AffineWeylElement, lam,
                               qbar_max: int) -> GradedCharacter:
    """Sections of the lambda-twist on the full orbit closure of u, truncated.

    Absolute qbar-exponents: term (d' + d_ext, -wt) for each normalized
    module term (d', wt) of the global Weyl character of u*w0.
    """
    lam = tuple(lam)
    x, d_ext, _ = _extremal(datum, u, lam)
    # the sections start at d_ext, so a window ending there holds none
    blocks = (loopmodel.schubert_blocks(datum, x, lam, qbar_max)
              if d_ext < qbar_max else {})
    return GradedCharacter.make(
        {(d, vec_neg(wt)): dim for (d, wt), dim in blocks.items()},
        (min(0, d_ext), qbar_max))


@dataclass(frozen=True)
class PieriTable:
    base: AffineWeylElement
    weight: tuple
    window: tuple
    coeffs: tuple  # tuple of (AffineWeylElement u, GradedCharacter a^u)
    anchor_degree: int  # absolute qbar-degree subtracted from all exponents

    def coefficient(self, u: AffineWeylElement) -> GradedCharacter:
        for x, a in self.coeffs:
            if x == u:
                return a
        return GradedCharacter.zero(self.window)

    def support(self):
        return tuple(x for x, a in self.coeffs if not a.is_zero())

    def to_json(self, wg) -> dict:
        return {
            "base": wg.to_json(self.base),
            "weight": list(self.weight),
            "window": list(self.window),
            "anchor_degree": self.anchor_degree,
            "coeffs": [
                {"u": wg.to_json(u), "a": a.to_json()}
                for u, a in self.coeffs
                if not a.is_zero()
            ],
        }


def _shell(u, w):
    return max(abs(bu - bw) for bu, bw in zip(u.translation, w.translation))


def _twist_coefficients(datum, w, lam, window, bottom=None):
    """{x: a^x_w(lam)} for every x, above bottom if one is given, whose
    coefficient is nonzero on the window, by the formula of the module
    docstring.

    Translating x by alpha_{i*}^vee moves it down and raises its degree, so
    the walk along k stops at the first x that is not above bottom or whose
    term leaves the window.
    """
    loopmodel.require_type_a(datum)
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
                  depth: int) -> PieriTable:
    """Twist coefficients a^u_w(lambda) for all u within the window.

    The coefficients on qbar-degrees [0, hi) follow from the formula of the
    module docstring.  They are re-verified against the product identity for
    the strictly dominant weights rho and 2*rho, the two outermost of depth
    translation shells around w must carry none of them, and only then is
    the table cut to the window [lo, hi).
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    window = tuple(window)
    q_hi = window[1]
    if q_hi <= 0:
        raise WindowExhaustedError("window excludes the base coefficient at degree 0")
    if sum(lam) == 0:
        one = GradedCharacter.one(datum.rank, window)
        return PieriTable(w, lam, window, ((w, one),), 0)
    if depth < 2:
        raise WindowExhaustedError("depth must be at least 2 to certify the window")
    full = _twist_coefficients(datum, w, lam, (0, q_hi))
    base = full.get(w, GradedCharacter.zero())
    expected = GradedCharacter.monomial(0, _extremal(datum, w, lam)[2])
    if dict(base.terms) != dict(expected.terms):
        raise InconsistencyError(
            f"base coefficient {dict(base.terms)} is not the extremal monomial"
        )
    so = si_order(datum)
    coeffs = sorted(full.items(), key=lambda ua: (so.si_length(ua[0]), ua[0].key()))
    for u, _ in coeffs:
        # the depth certificate: the two outermost of depth shells around w
        # carry no support
        if _shell(u, w) >= depth - 1:
            raise WindowExhaustedError(
                f"nonzero coefficient at translation distance {_shell(u, w)} "
                f"from the base with depth {depth}; increase depth"
            )
    for mu in (datum.rho, vec_add(datum.rho, datum.rho)):
        _verify_table(datum, w, lam, coeffs, mu, q_hi)
    cut = ((u, a.truncate(window)) for u, a in coeffs)
    return PieriTable(w, lam, window,
                      tuple((u, a) for u, a in cut if not a.is_zero()),
                      _extremal(datum, w, lam)[1])


def _verify_table(datum: RootDatum, w, lam, coeffs, mu, q_height: int):
    """Check the product identity for the twist by mu on qbar-degrees
    [0, q_height), given every nonzero coefficient a^u_w(lam) there.

    Coefficient terms at qbar >= q_height cannot reach the check window,
    because the sections of every u below w start no lower than those of w.
    """
    if not datum.is_strictly_dominant(mu):
        raise CharacterError(f"verification weight {mu} must be strictly dominant")
    lam_mu = vec_add(lam, mu)
    d_w_lam = _extremal(datum, w, lam)[1]
    abs_lo = _extremal(datum, w, lam_mu)[1]
    abs_hi = abs_lo + q_height
    check_window = (abs_lo, abs_hi)

    lhs = schubert_section_character(datum, w, lam_mu, abs_hi).truncate(check_window)
    rhs = GradedCharacter.zero(check_window)
    # the anchor shift can be negative, in which case products that land in
    # the check window draw on section degrees above abs_hi
    sec_hi = abs_hi - min(d_w_lam, 0)
    for u, a in coeffs:
        a_abs = a.truncate(FULL_WINDOW).shift_q(d_w_lam)
        sec_u = schubert_section_character(datum, u, mu, sec_hi).truncate(FULL_WINDOW)
        rhs = rhs + (a_abs * sec_u).truncate(check_window)
    diff = lhs - rhs
    if not diff.is_zero():
        raise InconsistencyError(
            f"twist identity failed for verification weight {mu}: "
            f"residual {diff.terms[:5]}..."
        )
