"""Section characters of semi-infinite Richardson varieties and the
Pieri-type twist coefficients.

Grading convention (documented in docs/format.md): section-type characters
are polynomials in qbar := q^{-1}.  Exponents are anchored so that the
extremal section term e^{-w w0 lambda} of the base element w sits at
qbar-degree 0; weights are the (negated) weights of the underlying module.
With this convention the coefficient table entry at u = w is the single
monomial of weight -w w0 lambda at degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import loopmodel
from .charring import GradedCharacter, FULL_WINDOW, CharacterError
from .rootdata import RootDatum, vec_add, vec_neg, vec_sub
from .semiinf import si_order
from .weylgroup import AffineWeylElement, weyl_group


class WindowExhaustedError(RuntimeError):
    """The requested window needs candidates outside the explored depth."""


class InconsistencyError(RuntimeError):
    """The re-verification of the twist identity for a second weight failed."""


def _xw_data(datum, w, lam):
    """(finite part, translation, extremal degree) of w * w0 against lam."""
    wg = weyl_group(datum)
    x = wg.compose(w, wg.affine_from_finite(wg.w0))
    d_ext = -sum(b * l for b, l in zip(x.translation, lam))
    return x.finite, x.translation, d_ext


def smt_character(datum: RootDatum, v: AffineWeylElement, w: AffineWeylElement,
                  lam, window=FULL_WINDOW, depth=None) -> GradedCharacter:
    """Graded character of the sections of the lambda-twist on the Richardson
    variety cut out by v (bottom) and w (top).

    Computed exactly as the graded dual of the intersection of the upward
    module of w*w0 with the downward module of v*w0; the result equals the
    sum of the twist coefficients a^u_w(lambda) over v <= u <= w.  The depth
    parameter is accepted for interface compatibility but the computation is
    exact and does not clip.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    so = si_order(datum)
    if not so.si_le(v, w):
        return GradedCharacter.zero(window)
    if datum.is_strictly_dominant(lam) or sum(lam) == 0:
        _, _, d_w = _xw_data(datum, w, lam)
        blocks = loopmodel.richardson_blocks(datum, v, w, lam)
        terms = {}
        for (d, wt), dim in blocks.items():
            terms[(d - d_w, vec_neg(wt))] = dim
        return GradedCharacter.make(terms, window)
    # non-regular twists fall outside the Demazure-intersection description;
    # sum the twist coefficients over the interval instead
    _, _, d_v = _xw_data(datum, v, lam)
    _, _, d_w = _xw_data(datum, w, lam)
    q_hi = d_v - d_w + 1
    depth_eff = depth if depth is not None else _shell(v, w) + 2
    table = compute_pieri(datum, w, lam, (0, q_hi), max(depth_eff, 2))
    total = GradedCharacter.zero(FULL_WINDOW)
    for u, a in table.coeffs:
        if so.si_le(v, u):
            total = total + a.truncate(FULL_WINDOW)
    return total.truncate(window)


def h0_dimension(datum: RootDatum, v, w, lam, window=FULL_WINDOW, depth=None) -> int:
    """Dimension of the section space (all coefficients summed).

    Exact: the underlying intersection is finite-dimensional and computed in
    full, so the value does not depend on the window as long as the window
    contains the support.
    """
    return smt_character(datum, v, w, lam, FULL_WINDOW, depth).total()


_SECTION_CACHE = {}


def schubert_section_character(datum: RootDatum, u: AffineWeylElement, lam,
                               qbar_max: int) -> GradedCharacter:
    """Sections of the lambda-twist on the full orbit closure of u, truncated.

    Absolute qbar-exponents: term (d' + d_ext, -wt) for each normalized
    module term (d', wt) of the global Weyl character of u*w0.
    """
    lam = tuple(lam)
    ufin, beta, d_ext = _xw_data(datum, u, lam)
    key = (id(datum), ufin, beta, lam)
    cached = _SECTION_CACHE.get(key)
    if cached is not None and cached[0] >= qbar_max:
        return cached[1].truncate((min(0, d_ext), qbar_max))
    blocks = loopmodel.schubert_blocks(datum, ufin, beta, lam, qbar_max)
    terms = {}
    for (d, wt), dim in blocks.items():
        terms[(d, vec_neg(wt))] = dim
    out = GradedCharacter.make(terms, (min(0, d_ext), qbar_max))
    _SECTION_CACHE[key] = (qbar_max, out)
    return out


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


def _strict_coefficient(datum, x, top, mu, memo):
    """a^x_top(mu) for strictly dominant mu, by inclusion-exclusion over
    semi-infinite intervals.

    For strictly dominant mu the section character of the Richardson variety
    of [x, top] is the exact Demazure-module intersection and equals the sum
    of a^y_top(mu) over x <= y <= top.  Anchored coefficients are equivariant
    under right translation, so top is moved to its finite part and the memo
    entries serve every top of one coset.
    """
    x = AffineWeylElement(x.finite, vec_sub(x.translation, top.translation))
    top = AffineWeylElement(top.finite, (0,) * datum.rank)
    key = (x, top, mu)
    got = memo.get(key)
    if got is None:
        got = smt_character(datum, x, top, mu, FULL_WINDOW)
        for y in si_order(datum).si_interval(x, top):
            if y != x:
                got = got - _strict_coefficient(datum, y, top, mu, memo)
        memo[key] = got
    return got


def _degenerate_coefficients(datum, w, lam, candidates):
    """a^u for non-regular lam, by peeling one strictly dominant step.

    The Demazure-module intersection describes Richardson section spaces only
    for strictly dominant twists, so the inclusion-exclusion route is not
    available directly.  Expanding the section character of the (lam+rho+mu)-
    twist in two ways and matching the mu-expansion gives the exact anchored
    relation

        a^v_w(lam+rho) = sum over u in [v, w] of
                         a^u_w(lam) * a^v_u(rho) * qbar^{c_u(rho)},

    where c_u(rho) is the extremal rho-degree of u relative to w.  Both outer
    tables are strictly dominant, hence exact, and a^v_v(rho) is the single
    invertible monomial e^{-v w0 rho}, so the relation solves for a^v_w(lam)
    by back-substitution from w downward.  The result is still re-verified
    against the product identity for two strictly dominant weights.
    """
    so = si_order(datum)
    rho = datum.rho
    lam_rho = vec_add(lam, rho)
    memo = {}

    def c_rho(u):
        _, _, d_u = _xw_data(datum, u, rho)
        _, _, d_base = _xw_data(datum, w, rho)
        return d_u - d_base

    out = {}
    for v in candidates:
        val = _strict_coefficient(datum, v, w, lam_rho, memo)
        for u in so.si_interval(v, w):
            if u == v:
                continue
            a_u = out.get(u)
            if a_u is None or a_u.is_zero():
                continue
            pair = _strict_coefficient(datum, v, u, rho, memo)
            if pair.is_zero():
                continue
            val = val - (a_u * pair).shift_q(c_rho(u))
        # divide by the extremal monomial a^v_v(rho) = e^{-v w0 rho} at c_v
        inv = GradedCharacter.monomial(-c_rho(v), vec_neg(_base_weight(datum, v, rho)))
        val = (val.truncate(FULL_WINDOW) * inv).truncate(FULL_WINDOW)
        if any(q < 0 for (q, _), _ in val.terms):
            raise InconsistencyError(
                "negative qbar-degree while peeling the rho-step; "
                "the explored depth is inconsistent"
            )
        out[v] = val
    return out


_TABLE_CACHE = {}


def compute_pieri(datum: RootDatum, w: AffineWeylElement, lam, window,
                  depth: int, verify_weights=None) -> PieriTable:
    """Twist coefficients a^u_w(lambda) for all u within the window.

    For strictly dominant lambda the coefficients come from inclusion-
    exclusion over semi-infinite intervals of exact Richardson section
    characters; otherwise they are solved from the product identity with the
    probe weight rho.  Either way the table is re-verified against the
    product identity for the strictly dominant weights in verify_weights
    (default rho and 2*rho) and completeness across the explored box is
    certified by two outermost shells of vanishing coefficients.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    so = si_order(datum)
    q_lo, q_hi = window
    if q_hi <= 0:
        raise WindowExhaustedError("window excludes the base coefficient at degree 0")

    cache_key = (id(datum), w.key(), lam, tuple(window), depth,
                 None if verify_weights is None
                 else tuple(tuple(mu) for mu in verify_weights))
    cached = _TABLE_CACHE.get(cache_key)
    if cached is not None:
        return cached

    _, _, d_w = _xw_data(datum, w, lam)

    if sum(lam) == 0:
        one = GradedCharacter.one(datum.rank, window)
        return PieriTable(w, lam, tuple(window), ((w, one),), 0)

    if any(w.translation):
        # anchored coefficients are equivariant under right translation, so
        # compute at the purely finite base and translate the support back
        wg = weyl_group(datum)
        shift = wg.translation(w.translation)
        base0 = AffineWeylElement(w.finite, (0,) * datum.rank)
        inner = compute_pieri(datum, base0, lam, window, depth, verify_weights)
        coeffs = tuple((wg.compose(u, shift), a) for u, a in inner.coeffs)
        table = PieriTable(w, lam, tuple(window), coeffs, d_w)
        # certify the translation step itself against the product identity
        rho = datum.rho
        weights = verify_weights if verify_weights is not None else \
            (rho, vec_add(rho, rho))
        for mu in weights:
            _verify_table(datum, table, mu, q_hi)
        _TABLE_CACHE[cache_key] = table
        return table

    if depth < 2:
        raise WindowExhaustedError("depth must be at least 2 to certify the window")
    candidates = _candidates_below(so, w, depth)
    if datum.is_strictly_dominant(lam):
        memo = {}
        full = {u: _strict_coefficient(datum, u, w, lam, memo) for u in candidates}
    else:
        full = _degenerate_coefficients(datum, w, lam, candidates)

    base = full[w]
    expected = GradedCharacter.monomial(0, _base_weight(datum, w, lam))
    if dict(base.terms) != dict(expected.terms):
        raise InconsistencyError(
            f"base coefficient {dict(base.terms)} is not the extremal monomial"
        )

    coeffs = []
    full_coeffs = []
    for u in candidates:
        a_full = full[u]
        a = a_full.truncate(window)
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
        full_coeffs.append((u, a_full))

    table = PieriTable(w, lam, tuple(window), tuple(coeffs), d_w)
    # verify with untruncated coefficients so window edges cannot mask terms
    checker = PieriTable(w, lam, tuple(window), tuple(full_coeffs), d_w)

    if verify_weights is None:
        rho = datum.rho
        verify_weights = (rho, vec_add(rho, rho))
    for mu in verify_weights:
        _verify_table(datum, checker, mu, q_hi)
    _TABLE_CACHE[cache_key] = table
    return table


def _base_weight(datum, w, lam):
    """-w w0 lambda, the weight of the extremal section of the base element."""
    wg = weyl_group(datum)
    x = wg.compose(w, wg.affine_from_finite(wg.w0))
    return vec_neg(x.finite.act_weight(lam))


def _verify_table(datum: RootDatum, table: PieriTable, mu, q_height: int):
    """Check the product identity for the twist by mu on a qbar-window."""
    mu = tuple(mu)
    if not datum.is_strictly_dominant(mu):
        raise CharacterError(f"verification weight {mu} must be strictly dominant")
    w = table.base
    lam = table.weight
    lam_mu = vec_add(lam, mu)
    _, _, d_w_lam = _xw_data(datum, w, lam)
    _, _, d_w_lam_mu = _xw_data(datum, w, lam_mu)
    abs_lo = d_w_lam_mu
    abs_hi = d_w_lam_mu + q_height
    check_window = (abs_lo, abs_hi)

    lhs = schubert_section_character(datum, w, lam_mu, abs_hi).truncate(check_window)
    rhs = GradedCharacter.zero(check_window)
    # the anchor shift can be negative, in which case products that land in
    # the check window draw on section degrees above abs_hi
    sec_hi = abs_hi - min(d_w_lam, 0)
    for u, a in table.coeffs:
        a_abs = a.truncate(FULL_WINDOW).shift_q(d_w_lam)
        sec_u = schubert_section_character(datum, u, mu, sec_hi).truncate(FULL_WINDOW)
        rhs = rhs + (a_abs * sec_u).truncate(check_window)
    diff = lhs - rhs
    if not diff.is_zero():
        raise InconsistencyError(
            f"twist identity failed for verification weight {mu}: "
            f"residual {diff.terms[:5]}..."
        )
