"""Drinfeld-Pluecker validation, defects, evaluation, and dimensions."""

import itertools
import random
from fractions import Fraction

import pytest

import matrixref
from qm_random import random_dp

from silc.quasimap import (
    DegreeError,
    DPData,
    EmptyRichardsonError,
    InvalidDPError,
    QuasimapError,
    defect_divisor,
    dim_parabolic,
    dim_richardson,
    evaluate,
    saturate,
    validate_dp,
    wedge,
)
from silc.rootdata import RootDataError, mat_vec, root_datum, vec_dot
from silc.semiinf import si_order
from silc.weylgroup import weyl_group


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_standard_flag_is_valid():
    data = DPData.make(2, (((1,), (0,), (0,)), ((1,), (0,), (0,))), (0, 0))
    assert validate_dp(data) == (0, 0)


def test_transversality_failure_rejected():
    data = DPData.make(2, (((1,), (0,), (0,)), ((0,), (0,), (1,))), (0, 0))
    with pytest.raises(InvalidDPError) as err:
        validate_dp(data)
    assert err.value.coefficient == 1


def test_symbolic_wedge_line_is_valid():
    # (e1 + z e2) paired against its wedge with (e2 + z e3)
    data = DPData.make(
        2, (((1,), (0, 1), (0,)), ((1,), (0, 1), (0, 0, 1))), (1, 2)
    )
    assert validate_dp(data) == (2, 1)


def test_degree_overflow_rejected():
    data = DPData.make(1, (((1,), (0, 0, 1)),), (1,))
    with pytest.raises(DegreeError):
        validate_dp(data)


def test_zero_component_rejected():
    with pytest.raises(QuasimapError):
        DPData.make(1, (((0,), (0,)),), (1,))


def test_json_rank_checked_before_components():
    data = {"rank": 3, "components": None, "degrees": [1, 1, 1]}
    with pytest.raises(QuasimapError, match="rank 3 not supported"):
        DPData.from_json(data)


def test_json_names_a_missing_component():
    data = {"rank": 2, "degrees": [0, 0],
            "components": [{"weight": 1, "polys": [["1"], ["0"], ["0"]]}]}
    with pytest.raises(QuasimapError, match="component weight 2 is missing"):
        DPData.from_json(data)


def test_json_round_trip():
    data = DPData.make(
        1, ((tuple(Fraction(x) for x in ("1/2", "-2")), (0, 1)),), (1,)
    )
    assert DPData.from_json(data.to_json()) == data


# ---------------------------------------------------------------------------
# defects and evaluation
# ---------------------------------------------------------------------------

def test_defect_forced_at_zero():
    data = DPData.make(1, (((0, 1), (0, 0, 1)),), (2,))
    div = defect_divisor(data)
    assert div.finite_points == (("z", 1, (1,)),)
    assert div.at_infinity == (0,)
    assert div.total() == (1,)


def test_coprime_full_degree_has_no_defect():
    data = DPData.make(1, (((1,), (0, 1)),), (1,))
    div = defect_divisor(data)
    assert div.finite_points == () and div.at_infinity == (0,)


def test_degree_deficiency_is_defect_at_infinity():
    data = DPData.make(1, (((1,), (1,)),), (1,))
    assert defect_divisor(data).at_infinity == (1,)


def test_evaluation_examples():
    one_z = DPData.make(1, (((1,), (0, 1)),), (1,))
    assert evaluate(one_z) == ((Fraction(1), Fraction(0)),)
    assert evaluate(one_z, at_infinity=True) == ((Fraction(0), Fraction(1)),)
    z_z2 = DPData.make(1, (((0, 1), (0, 0, 1)),), (2,))
    assert evaluate(z_z2) == ((Fraction(1), Fraction(0)),)


def test_saturation_idempotence():
    rng = random.Random(7)
    for _ in range(20):
        data = random_dp(rng, rng.choice((1, 2)))
        sat = saturate(data)
        assert saturate(sat).components == sat.components
        assert evaluate(data) == evaluate(sat)
        assert evaluate(data, True) == evaluate(sat, True)


def test_degree_conservation_random():
    """Saturated degree plus total defect equals the target, per component."""
    rng = random.Random(2024)
    for _ in range(60):
        rank = rng.choice((1, 2))
        data = random_dp(rng, rank)
        validate_dp(data)
        div = defect_divisor(data)
        sat = saturate(data)
        total = div.total()
        for i in range(rank):
            assert sat.component_degree(i) + total[i] == data.degrees[i]


def test_genuine_maps_have_zero_defect():
    data = DPData.make(
        2, (((1,), (0, 1), (0,)), ((1,), (0, 1), (0, 0, 1))), (1, 2)
    )
    div = defect_divisor(data)
    assert div.finite_points == () and div.at_infinity == (0, 0)


def test_wedge_contraction_vanishes():
    rng = random.Random(5)
    for _ in range(20):
        v1 = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
        v2 = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
        u2 = wedge(v1, v2)
        if not any(u2) or not any(any(c for c in p) for p in v1):
            continue
        degs = [max((len(p) - 1 for p in vec if p), default=0)
                for vec in (v1, u2)]
        data = DPData.make(2, (v1, u2), tuple(degs))
        validate_dp(data)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_dim_richardson_point(a1, wg_a1):
    assert dim_richardson(a1, wg_a1.identity, wg_a1.identity) == 0


def test_dim_richardson_projective_spaces(a1, wg_a1):
    for d in (1, 2, 3):
        v = wg_a1.element([1], (d,))
        assert dim_richardson(a1, v, wg_a1.identity) == 2 * d + 1


def test_dim_richardson_a2_example(a2, wg_a2):
    v = wg_a2.element([1, 2, 1], (1, 1))
    assert dim_richardson(a2, v, wg_a2.identity) == 7


def test_dim_richardson_empty_signal(a1, wg_a1):
    with pytest.raises(EmptyRichardsonError):
        dim_richardson(a1, wg_a1.identity, wg_a1.translation((1,)))


def test_dim_richardson_nonnegative_on_box(a2, so_a2):
    box = so_a2.box(so_a2.wg.identity, 1)
    for v in box:
        for w in box:
            if so_a2.si_le(v, w):
                assert dim_richardson(a2, v, w) >= 0


def test_cross_formula_identity(a1, a2):
    """si-length difference vs the translation-plus-orbit formula."""
    for datum in (a1, a2):
        so = si_order(datum)
        wg = so.wg
        r = datum.rank
        w0_word = wg.reduced_word_finite(wg.w0)
        for beta in itertools.product(range(3), repeat=r):
            v = wg.element(w0_word, beta)
            for u_word in ([], [1], w0_word):
                for bp in itertools.product(range(2), repeat=r):
                    w = wg.element(u_word, bp)
                    if not so.si_le(v, w):
                        continue
                    u = wg.finite_from_word(u_word)
                    diff = tuple(a - b for a, b in zip(beta, bp))
                    expected = (2 * sum(diff)
                                + wg.length_finite(wg.w0)
                                - wg.length_finite(u))
                    assert dim_richardson(datum, v, w) == expected


def test_dim_parabolic_examples(a1, a2, a3):
    wg1, wg2 = weyl_group(a1), weyl_group(a2)
    for d in (0, 1, 2, 3):
        assert dim_parabolic(a1, (), (d,), wg1.finite_from_word([])) == 1 + 2 * d
    for beta in itertools.product(range(2), repeat=2):
        assert dim_parabolic(a2, (1, 2), beta, wg2.finite_from_word([])) == 0
    # proper parabolics: outside span{alpha_1} lie alpha_2 and alpha_1 +
    # alpha_2, so 2 rho_J = (0, 3); w0 beta = (0, -1) pairs with it to -3,
    # and the dimension is 2 + 3 - l(e)
    assert dim_parabolic(a2, (1,), (1, 0), wg2.finite_from_word([])) == 5
    assert dim_parabolic(a2, (1,), (0, 1), wg2.finite_from_word([])) == 2
    wg3 = weyl_group(a3)
    assert dim_parabolic(a3, (2,), (1, 0, 1), wg3.finite_from_word([])) == 11
    with pytest.raises(RootDataError):
        dim_parabolic(a2, (3,), (0, 0), wg2.finite_from_word([]))
    # full-flag parabolic formula agrees with the Richardson calculator
    so = si_order(a2)
    for beta in itertools.product(range(2), repeat=2):
        for word in ([], [1], [2, 1]):
            w = wg2.finite_from_word(word)
            v = wg2.element([1, 2, 1], beta)
            top = wg2.affine_from_finite(w)
            if not so.si_le(v, top):
                continue
            assert dim_parabolic(a2, (), beta, w) == dim_richardson(
                a2, v, top
            )


def test_dim_parabolic_rejects_non_minimal(a2):
    wg = weyl_group(a2)
    with pytest.raises(QuasimapError):
        dim_parabolic(a2, (1,), (1, 1), wg.finite_from_word([1]))


@pytest.mark.parametrize("kind,rank", [("A", 3), ("D", 5), ("E", 6), ("B", 3), ("G", 2)])
def test_dim_parabolic_outside_type_a(kind, rank):
    """dim_parabolic is |outside| - <w0 beta, 2 rho_J> - l(w), with w0 beta
    from matrixref's coweight matrix along w0's word and l(w) from w's root
    matrix, for seeded J, beta and minimal w; w0 != -1 in A3, D5 and E6."""
    datum = root_datum(kind, rank)
    wg = weyl_group(datum)
    ref = matrixref.Matrices(datum)
    w0_root_mat, w0_coweight_mat, _ = ref.of_word(wg.reduced_word_finite(wg.w0))
    assert ref.length(w0_root_mat) == len(datum.positive_roots())
    rng = random.Random(rank)
    for _ in range(6):
        J = sorted(rng.sample(range(1, rank + 1), rng.randint(0, rank - 1)))
        beta = tuple(rng.randint(0, 3) for _ in range(rank))
        # a random word, times each right descent in J until w is minimal in wW_J
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 12))]
        while descent := next((j for j in J if ref.length(ref.of_word(word + [j])[0])
                               < ref.length(ref.of_word(word)[0])), None):
            word.append(descent)
        outside = [datum.root_to_weight(rt.coords) for rt in datum.positive_roots()
                   if any(c for k, c in enumerate(rt.coords) if k + 1 not in J)]
        two_rho_j = [sum(col) for col in zip(*outside)] or [0] * rank
        expected = (len(outside) - vec_dot(mat_vec(w0_coweight_mat, beta), two_rho_j)
                    - ref.length(ref.of_word(word)[0]))
        assert dim_parabolic(datum, J, beta, wg.finite_from_word(word)) == expected, (
            J, beta, word)
