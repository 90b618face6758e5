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

The Richardson section character R(v, u; mu), anchored at u, is exact for
strictly dominant (or zero) mu.  The twist coefficients a^u_w(lambda) of
every dominant lambda solve one relation,

    R(v, w; lambda+mu) = sum over u in [v, w] of
                         a^u_w(lambda) * R(v, u; mu) * qbar^{c_u(mu)},

where c_u(mu) is the extremal mu-degree of u relative to w.  For strictly
dominant lambda, mu = 0 and the relation is plain inclusion-exclusion.
Otherwise mu = rho: expanding the (lambda+rho)-twist by the rho-twist gives
a^v'_w(lambda+rho) = sum over u in [v', w] of a^u_w(lambda) a^v'_u(rho)
qbar^{c_u(rho)}; sum it over v' in [v, w] and swap the sums.  The diagonal
term R(v, v; mu) is the monomial e^{-v w0 mu}, so a^v_w(lambda) follows by
back-substitution from w downward.

Verified coefficients are memoized per datum and normalized table request.
The work inside one table, its Richardson characters and the upward
closures of their tops, lives in a memo that is dropped with the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import loopmodel
from .charring import GradedCharacter, FULL_WINDOW, CharacterError
from .rootdata import RootDatum, vec_add, vec_neg, vec_sub
from .semiinf import si_order
from .weylgroup import AffineWeylElement, weyl_group


class WindowExhaustedError(RuntimeError):
    """The requested window needs candidates outside the explored depth."""


class InconsistencyError(RuntimeError):
    """The re-verification of the twist identity for a second weight failed."""


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
    coefficients a^u_w(lambda) over v <= u <= w, solved on that interval
    alone: each a^u depends only on the elements of [u, w].
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    so = si_order(datum)
    if not so.si_le(v, w):
        return GradedCharacter.zero(window)
    if datum.is_strictly_dominant(lam) or sum(lam) == 0:
        return _richardson(datum, v, w, lam, _TableMemo(0)).truncate(window)
    # non-regular twists fall outside the Demazure-intersection description
    coeffs = _solve(datum, w, lam, so.si_interval(v, w), _TableMemo(_shell(v, w)))
    return sum(coeffs.values(), GradedCharacter.zero(FULL_WINDOW)).truncate(window)


def h0_dimension(datum: RootDatum, v, w, lam) -> int:
    """Dimension of the section space (all coefficients summed).

    Exact: the underlying intersection is finite-dimensional and computed in
    full.
    """
    return smt_character(datum, v, w, lam).total()


class _TableMemo:
    """Work shared by the coefficients of one table or interval, dropped with it.

    characters maps (v, top, mu) to the anchored R(v, top; mu), with top
    moved to its finite part; spans holds the upward closures of Richardson
    tops (see loopmodel.richardson_blocks).  Every bottom lies within depth
    translation steps of its top, so a closure depth * sum(mu) degrees deep
    serves all of them.
    """

    def __init__(self, depth):
        self.depth = depth
        self.characters = {}
        self.spans = {}


def _richardson(datum, v, top, mu, memo):
    """R(v, top; mu), the section character of the Richardson variety of
    v <= top for strictly dominant (or zero) mu, anchored at top, unwindowed.

    Anchored characters are equivariant under right translation, so top is
    moved to its finite part and one memo entry serves every top of a coset.
    """
    v = AffineWeylElement(v.finite, vec_sub(v.translation, top.translation))
    top = AffineWeylElement(top.finite, (0,) * datum.rank)
    key = (v, top, mu)
    got = memo.characters.get(key)
    if got is None:
        xv = _extremal(datum, v, mu)[0]
        xw, d_top, _ = _extremal(datum, top, mu)
        blocks = loopmodel.richardson_blocks(datum, xv, xw, mu, memo.spans,
                                             memo.depth * sum(mu))
        got = memo.characters[key] = GradedCharacter.make(
            {(d - d_top, vec_neg(wt)): dim for (d, wt), dim in blocks.items()},
            FULL_WINDOW)
    return got


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


def _candidates_below(so, w, depth):
    """The elements below w at translation distance at most depth, sorted by
    si-length, then key."""
    cap = tuple(b + depth for b in w.translation)
    return [u for level in so.down_set(w, cap)
            for u in sorted(level, key=AffineWeylElement.key)]


def _solve(datum, w, lam, candidates, memo):
    """a^v_w(lam) for every v in candidates, which list each element after
    those above it, by back-substitution in the relation of the module
    docstring.  With mu = 0 the kernel R(v, u; 0) qbar^{c_u(0)} is 1, so
    neither its product nor the division by the diagonal term is made.
    """
    so = si_order(datum)
    mu = (0,) * datum.rank if datum.is_strictly_dominant(lam) else datum.rho
    d_w = _extremal(datum, w, mu)[1]
    out = {}
    for v in candidates:
        val = _richardson(datum, v, w, vec_add(lam, mu), memo)
        for u in so.si_interval(v, w):
            a_u = out.get(u)  # None at u == v, which is being solved
            if a_u is None or a_u.is_zero():
                continue
            if any(mu):
                a_u = (a_u * _richardson(datum, v, u, mu, memo)).shift_q(
                    _extremal(datum, u, mu)[1] - d_w)
            val = val - a_u
        if any(mu):
            # divide by the diagonal term R(v, v; mu) qbar^{c_v} = e^{-v w0 mu} qbar^{c_v}
            _, d_v, wt_v = _extremal(datum, v, mu)
            inv = GradedCharacter.monomial(d_w - d_v, vec_neg(wt_v))
            val = (val.truncate(FULL_WINDOW) * inv).truncate(FULL_WINDOW)
        if any(q < 0 for (q, _), _ in val.terms):
            raise InconsistencyError("negative qbar-degree in a twist "
                                     "coefficient; the explored depth is inconsistent")
        out[v] = val
    return out


def compute_pieri(datum: RootDatum, w: AffineWeylElement, lam, window,
                  depth: int) -> PieriTable:
    """Twist coefficients a^u_w(lambda) for all u within the window.

    The coefficients of every u within depth translation steps below w are
    solved from the relation of the module docstring, with mu = 0 for
    strictly dominant lambda and mu = rho otherwise.  The coefficients on
    qbar-degrees [0, hi) are then re-verified against the product identity
    for the strictly dominant weights rho and 2*rho, completeness across the
    explored box is certified by two outermost shells of vanishing
    coefficients, and only then is the table cut to the window [lo, hi).
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
    coeffs = _coefficients(datum, w, lam, q_hi, depth)
    cut = ((u, a.truncate(window)) for u, a in coeffs)
    return PieriTable(w, lam, window,
                      tuple((u, a) for u, a in cut if not a.is_zero()),
                      _extremal(datum, w, lam)[1])


@lru_cache(maxsize=None)
def _coefficients(datum, w, lam, q_hi, depth):
    """The nonzero verified coefficients of compute_pieri on [0, q_hi), as
    (u, a^u_w(lam)) pairs in candidate order."""
    window = (0, q_hi)
    if any(w.translation):
        # anchored coefficients are equivariant under right translation, so
        # compute at the purely finite base and translate the support back
        wg = weyl_group(datum)
        shift = wg.translation(w.translation)
        base0 = AffineWeylElement(w.finite, (0,) * datum.rank)
        inner = _coefficients(datum, base0, lam, q_hi, depth)
        coeffs = tuple((wg.compose(u, shift), a) for u, a in inner)
    else:
        if depth < 2:
            raise WindowExhaustedError("depth must be at least 2 to certify the window")
        candidates = _candidates_below(si_order(datum), w, depth)
        full = _solve(datum, w, lam, candidates, _TableMemo(depth))
        base = full[w]
        expected = GradedCharacter.monomial(0, _extremal(datum, w, lam)[2])
        if dict(base.terms) != dict(expected.terms):
            raise InconsistencyError(
                f"base coefficient {dict(base.terms)} is not the extremal monomial"
            )
        coeffs = []
        for u in candidates:
            a = full[u].truncate(window)
            if a.is_zero():
                continue
            # completeness certificate: the two outermost explored shells must
            # carry no support, otherwise coefficients may extend past the box
            if _shell(u, w) >= depth - 1:
                raise WindowExhaustedError(
                    f"nonzero coefficient at translation distance {_shell(u, w)} "
                    f"from the base with depth {depth}; increase depth"
                )
            coeffs.append((u, a))
        coeffs = tuple(coeffs)
    # the translated case verifies its own step, not only the finite table
    for mu in (datum.rho, vec_add(datum.rho, datum.rho)):
        _verify_table(datum, w, lam, coeffs, mu, q_hi)
    return coeffs


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
