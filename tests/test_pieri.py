"""Twist-coefficient tables and Richardson section characters."""

import gc
import time

import pytest
from qlayer import q_layer

from silc import loopmodel, pieri
from silc.charring import (
    CharacterError,
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
from silc.rootdata import root_datum, vec_neg
from silc.semiinf import si_order
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


def test_a3_first_fundamental_table(a3):
    """The orbit of varpi_3 walked down from e, each weight once at qbar 0."""
    wg = weyl_group(a3)
    table = compute_pieri(a3, wg.identity, (1, 0, 0), (0, 1), 2)
    got = {wg.format(u): dict(a.terms) for u, a in table.coeffs}
    assert got == {
        "e@0,0,0": {(0, (0, 0, 1)): 1},
        "3@0,0,0": {(0, (0, 1, -1)): 1},
        "2,3@0,0,0": {(0, (1, -1, 0)): 1},
        "1,2,3@0,0,0": {(0, (-1, 0, 0)): 1},
    }


def test_depth_beyond_the_support_changes_nothing(a2, wg_a2):
    """A deep certificate costs no more than a shallow one: the depth only
    bounds the support, it is not explored."""
    start = time.perf_counter()
    deep = compute_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 40)
    assert time.perf_counter() - start < 10
    assert deep == compute_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 2)


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


def _flip(text):
    """The A2 diagram flip on a formatted element: letters 1 <-> 2 in the
    word and the two translation coordinates swapped."""
    word, beta = text.split("@")
    word = ",".join({"1": "2", "2": "1"}.get(x, x) for x in word.split(","))
    return word + "@" + ",".join(reversed(beta.split(",")))


@pytest.mark.parametrize("lam", [(1, 0), (2, 1)], ids=["(1,0)", "(2,1)"])
def test_a2_tables_commute_with_the_diagram_flip(a2, wg_a2, lam):
    """The closed form composes fundamental twists in index order, so a
    weight and its flip are built in mirrored orders; each table must be the
    flip of the table of the flipped weight."""
    def table(weight):
        t = compute_pieri(a2, wg_a2.identity, weight, (0, 1), 2)
        return {wg_a2.format(u): dict(a.terms) for u, a in t.coeffs}

    flipped = {wg_a2.parse(_flip(u)): {(q, wt[::-1]): c
                                       for (q, wt), c in terms.items()}
               for u, terms in table(lam).items()}
    got = table(lam[::-1])
    assert {wg_a2.parse(u): terms for u, terms in got.items()} == flipped


def test_table_closes_each_richardson_top_once(a2, wg_a2, monkeypatch):
    """A table closes only the modules of its verification, and no
    BlockSpan outlives it."""
    calls = []
    closure = loopmodel.span_closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(loopmodel, "span_closure", counted)
    table = compute_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 2)
    assert len(table.support()) == 3
    # for each of rho and 2 rho, the sections of the base and of the three
    # supported elements
    assert len(calls) <= 8
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
    table = compute_pieri(a1, wg_a1.identity, (1,), (0, 2), 3)
    assert table.support()
    pieri._verify_table(a1, wg_a1.identity, (1,), table.coeffs, (3,), 2)


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


@pytest.mark.parametrize("rank,lam,window,depth,extra", [
    (1, (2,), (0, 3), 4, ["1@1", "e@1"]),
    (2, (1, 0), (0, 1), 2, ["1,2,1@1,1", "2,1@1,0", "1,2,1@0,0"]),
    (2, (1, 1), (0, 3), 4, ["1,2,1@1,1", "2,1@1,0", "1@2,1"]),
    (2, (2, 1), (0, 3), 4, ["1,2,1@1,1", "2,1@1,0", "1@2,1"]),
    (3, (1, 1, 1), (0, 1), 2, ["2@1,1,1", "1,2,3,1,2,1@0,0,0"]),
], ids=["A1-(2)", "A2-(1,0)", "A2-(1,1)", "A2-(2,1)", "A3-(1,1,1)"])
def test_smt_equals_interval_sum_of_coefficients(rank, lam, window, depth, extra):
    """Sections are the interval sum of the coefficients of the verified,
    depth-certified table.  For strictly dominant lambda the sections come
    from the loop model and the coefficients from the closed form, so the
    two sides are computed independently; (1,0) sums the closed form on the
    interval itself."""
    datum = root_datum("A", rank)
    wg, so = weyl_group(datum), si_order(datum)
    e = wg.identity
    table = compute_pieri(datum, e, lam, window, depth)
    for v in list(table.support()) + [wg.parse(x) for x in extra]:
        expect = GradedCharacter.zero(window)
        for u, a in table.coeffs:
            if so.si_le(v, u):
                expect = expect + a
        got = smt_character(datum, v, e, lam, window)
        assert dict(got.terms) == dict(expect.terms), wg.format(v)


@pytest.mark.parametrize("lam,dim", [((1, 0), 6), ((2, 0), 21)],
                         ids=["(1,0)", "(2,0)"])
def test_nonregular_sections_commute_with_the_diagram_flip(a2, wg_a2, lam, dim):
    """On w0 t_(1,1) below e the flipped weight gives the flipped sections."""
    e = wg_a2.identity
    v = wg_a2.parse("1,2,1@1,1")
    got = smt_character(a2, wg_a2.parse(_flip(wg_a2.format(v))), e, lam[::-1])
    expect = smt_character(a2, v, e, lam)
    assert dict(got.terms) == {(q, wt[::-1]): c for (q, wt), c in expect.terms}
    assert got.total() == dim


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
