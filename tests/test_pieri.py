"""Twist-coefficient tables and Richardson section characters."""

import gc

import pytest
from qlayer import q_layer

from silc import loopmodel, pieri
from silc.charring import (
    CharacterError,
    FULL_WINDOW,
    GradedCharacter,
    gch_global_weyl,
)
from silc.pieri import (
    WindowExhaustedError,
    compute_pieri,
    h0_dimension,
    schubert_section_character,
    smt_character,
)
from silc.rootdata import vec_add, vec_neg
from silc.weylgroup import weyl_group


def base_weight(wg, w, lam):
    """-w w0 lambda in fundamental-weight coordinates."""
    x = wg.compose(w, wg.affine_from_finite(wg.w0))
    return vec_neg(x.finite.act_weight(lam))


# ---------------------------------------------------------------------------
# compute_pieri
# ---------------------------------------------------------------------------

def test_zero_weight_table_is_trivial(a1, wg_a1):
    table = compute_pieri(a1, wg_a1.identity, (0,), (0, 3), 2)
    assert len(table.coeffs) == 1
    u, a = table.coeffs[0]
    assert u == wg_a1.identity
    assert a == GradedCharacter.one(1, (0, 3))


@pytest.mark.parametrize("word,beta,lam", [
    ([], (0,), (1,)),
    ([1], (0,), (2,)),
    ([], (1,), (1,)),
])
def test_base_entry_is_extremal_monomial_a1(a1, wg_a1, word, beta, lam):
    w = wg_a1.element(word, beta)
    table = compute_pieri(a1, w, lam, (0, 2), 3)
    a = table.coefficient(w)
    assert dict(a.terms) == {(0, base_weight(wg_a1, w, lam)): 1}


def test_base_entry_is_extremal_monomial_a2_degenerate(a2, wg_a2):
    w = wg_a2.identity
    table = compute_pieri(a2, w, (1, 0), (0, 1), 2)
    a = table.coefficient(w)
    assert dict(a.terms) == {(0, base_weight(wg_a2, w, (1, 0))): 1}


def test_support_lies_below_base(a1, wg_a1, so_a1):
    w = wg_a1.identity
    table = compute_pieri(a1, w, (1,), (0, 3), 4)
    assert table.support()
    for u in table.support():
        assert so_a1.si_le(u, w)


def test_a1_standard_twist_table(a1, wg_a1):
    """a^u_e(w) = qbar^k e^{+/-w} on u = e t_k, s1 t_k."""
    table = compute_pieri(a1, wg_a1.identity, (1,), (0, 3), 4)
    expect = {}
    for k in range(3):
        expect[wg_a1.element([], (k,)).key()] = {(k, (1,)): 1}
        expect[wg_a1.element([1], (k,)).key()] = {(k, (-1,)): 1}
    got = {u.key(): dict(a.terms) for u, a in table.coeffs}
    assert got == expect


def test_a1_ell4_section_count_below_translation(a1, wg_a1, so_a1):
    """Summing a^u_e(w) over u above w0 t_{alpha^} counts the 4 sections."""
    table = compute_pieri(a1, wg_a1.identity, (1,), (0, 4), 5)
    v = wg_a1.element([1], (1,))
    total = sum(
        a.total() for u, a in table.coeffs if so_a1.si_le(v, u)
    )
    assert total == 4


def test_a2_degenerate_twist_table(a2, wg_a2):
    """lam = first fundamental weight: support only on the parabolic cosets."""
    table = compute_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 2)
    got = {wg_a2.format(u): dict(a.terms) for u, a in table.coeffs}
    assert got == {
        "e@0,0": {(0, (0, 1)): 1},
        "2@0,0": {(0, (1, -1)): 1},
        "1,2@0,0": {(0, (-1, 0)): 1},
    }


@pytest.mark.parametrize("w_text", ["e@0", "1@2"])
@pytest.mark.parametrize("lam", [(1,), (2,)])
def test_window_above_zero_cuts_the_full_table(a1, wg_a1, w_text, lam):
    """The window only cuts the table: verification still sees degree 0."""
    w = wg_a1.parse(w_text)
    full = compute_pieri(a1, w, lam, (0, 3), 4)
    cut = compute_pieri(a1, w, lam, (1, 3), 4)
    expect = [(u, a.truncate((1, 3))) for u, a in full.coeffs
              if not a.truncate((1, 3)).is_zero()]
    assert expect and list(cut.coeffs) == expect


def test_table_closes_each_richardson_top_once(a2, wg_a2, monkeypatch):
    """Upward closures are shared within a table and dropped with it."""
    calls = []
    closure = loopmodel.span_closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(loopmodel, "span_closure", counted)
    pieri._coefficients.cache_clear()
    table = compute_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 2)
    assert len(table.support()) == 3
    # 396 when each of the 194 Richardson characters closes both its modules
    assert len(calls) < 250
    gc.collect()
    assert not any(isinstance(x, loopmodel.BlockSpan) for x in gc.get_objects())


def test_translation_equivariance_of_tables(a1, wg_a1):
    base = compute_pieri(a1, wg_a1.identity, (1,), (0, 2), 3)
    shifted = compute_pieri(a1, wg_a1.translation((2,)), (1,), (0, 2), 3)
    t = wg_a1.translation((2,))
    expect = {wg_a1.compose(u, t).key(): dict(a.terms) for u, a in base.coeffs}
    got = {u.key(): dict(a.terms) for u, a in shifted.coeffs}
    assert got == expect


def test_verification_accepts_extra_strictly_dominant_weight(a1, wg_a1):
    rho = a1.rho
    table = compute_pieri(
        a1, wg_a1.identity, (1,), (0, 2), 3,
        verify_weights=(rho, (2,), (3,)),
    )
    assert table.support()


def test_rejections(a1, wg_a1):
    with pytest.raises(CharacterError):
        compute_pieri(a1, wg_a1.identity, (-1,), (0, 2), 2)
    with pytest.raises(WindowExhaustedError):
        compute_pieri(a1, wg_a1.identity, (1,), (0, 0), 2)
    with pytest.raises(WindowExhaustedError):
        compute_pieri(a1, wg_a1.identity, (1,), (0, 2), 1)


def test_depth_too_small_for_wide_window(a1, wg_a1):
    # window reaches qbar^3 terms at translation distance 3; depth 3 leaves
    # no empty certificate shells, so the computation must refuse
    with pytest.raises(WindowExhaustedError):
        compute_pieri(a1, wg_a1.identity, (1,), (0, 4), 3)


# ---------------------------------------------------------------------------
# smt_character / h0_dimension
# ---------------------------------------------------------------------------

def test_point_sections(a1, a2, wg_a1, wg_a2):
    for datum, wg, lam in [(a1, wg_a1, (1,)), (a2, wg_a2, (1, 1)),
                           (a2, wg_a2, (1, 0))]:
        for w in [wg.identity, wg.affine_from_finite(wg.w0)]:
            got = smt_character(datum, w, w, lam)
            assert dict(got.terms) == {(0, base_weight(wg, w, lam)): 1}
            assert h0_dimension(datum, w, w, lam) == 1


def test_zero_twist_sections(a1, wg_a1):
    v = wg_a1.element([1], (1,))
    got = smt_character(a1, v, wg_a1.identity, (0,))
    assert dict(got.terms) == {(0, (0,)): 1}


def test_incomparable_pair_gives_zero(a1, wg_a1):
    got = smt_character(a1, wg_a1.identity, wg_a1.translation((1,)), (1,))
    assert got.is_zero()


def test_projective_space_section_counts(a1, wg_a1):
    e = wg_a1.identity
    v1 = wg_a1.element([1], (1,))
    v2 = wg_a1.element([1], (2,))
    assert h0_dimension(a1, v1, e, (1,)) == 4    # linear forms in 4 variables
    assert h0_dimension(a1, v2, e, (1,)) == 6    # linear forms in 6 variables
    assert h0_dimension(a1, v1, e, (2,)) == 10   # quadrics in 4 variables


def test_degenerate_twist_sections_a2(a2, wg_a2):
    e = wg_a2.identity
    s1 = wg_a2.affine_from_finite(wg_a2.finite_from_word([1]))
    s2 = wg_a2.affine_from_finite(wg_a2.finite_from_word([2]))
    # the curve toward s1 is contracted by the first-fundamental twist
    # (both fixed-point weights equal the second fundamental weight) ...
    got1 = smt_character(a2, s1, e, (1, 0))
    assert dict(got1.terms) == {(0, (0, 1)): 1}
    # ... while the curve toward s2 carries a degree-1 bundle
    got2 = smt_character(a2, s2, e, (1, 0))
    assert dict(got2.terms) == {(0, (0, 1)): 1, (0, (1, -1)): 1}
    assert h0_dimension(a2, s2, e, (1, 0)) == 2


def test_restriction_monotonicity(a1, wg_a1):
    e = wg_a1.identity
    chain = [wg_a1.element([1], (2,)), wg_a1.element([1], (1,)),
             wg_a1.affine_from_finite(wg_a1.finite_from_word([1])), e]
    prev = None
    for v in chain:
        cur = smt_character(a1, v, e, (2,))
        if prev is not None:
            assert (prev - cur).nonnegative()
        prev = cur


def test_exhaustion_matches_global_module(a1, wg_a1):
    """Deep enough v: sections on the Richardson fill the dual module."""
    e = wg_a1.identity
    lam = (1,)
    window = (0, 3)
    full = gch_global_weyl(a1, wg_a1.affine_from_finite(wg_a1.w0), lam, window)
    v = wg_a1.element([1], (4,))
    got = smt_character(a1, v, e, lam, window)
    # qbar-layer k of the sections matches the negated q-layer k of the module
    for k in range(*window):
        sections = q_layer(got, k)
        module = {vec_neg(wt): c for wt, c in q_layer(full, k).items()}
        assert sections == module


def test_smt_equals_interval_sum_of_coefficients(a1, wg_a1, so_a1):
    e = wg_a1.identity
    lam = (2,)
    table = compute_pieri(a1, e, lam, (0, 3), 4)
    for v in [wg_a1.element([1], (1,)), wg_a1.translation((1,))]:
        expect = GradedCharacter.zero(FULL_WINDOW)
        for u, a in table.coeffs:
            if so_a1.si_le(v, u):
                expect = expect + a.truncate(FULL_WINDOW)
        got = smt_character(a1, v, e, lam, (0, 3))
        assert dict(got.terms) == dict(expect.truncate((0, 3)).terms)


# ---------------------------------------------------------------------------
# section characters of full orbit closures
# ---------------------------------------------------------------------------

def test_schubert_sections_match_global_weyl_dual(a1, wg_a1):
    lam = (1,)
    sec = schubert_section_character(a1, wg_a1.identity, lam, 3)
    full = gch_global_weyl(a1, wg_a1.affine_from_finite(wg_a1.w0), lam, (0, 3))
    for k in range(3):
        assert q_layer(sec, k) == {vec_neg(wt): c
                                   for wt, c in q_layer(full, k).items()}
