"""Root-datum arithmetic against enumeration oracles."""

import pytest
from hypothesis import given, strategies as st

from silc.rootdata import (
    CartanMatrix,
    RootDataError,
    root_datum,
    vec_add,
    vec_dot,
)
from silc.weylgroup import weyl_group

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


@pytest.fixture(params=ALL_TYPES, ids=lambda t: f"{t[0]}{t[1]}")
def datum(request):
    return root_datum(*request.param)


def test_pairing_examples(a1, a2):
    # <alpha^vee, varpi> = 1 in A1
    assert vec_dot((1,), (1,)) == 1
    # <alpha1^vee + alpha2^vee, rho> = 2 in A2
    assert vec_dot((1, 1), a2.rho) == 2
    # <alpha1^vee, alpha2> = -1 in A2
    assert vec_dot((1, 0), a2.root_to_weight((0, 1))) == -1


def test_pairing_dimension_mismatch(a2):
    with pytest.raises(RootDataError):
        vec_dot((1,), (1, 0))


def test_positive_root_counts(datum):
    counts = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("B", 2): 4, ("G", 2): 6}
    kind = next(k for k, v in counts.items()
                if root_datum(*k).cartan == datum.cartan)
    assert len(datum.positive_roots()) == counts[kind]


def test_a2_positive_roots(a2):
    coords = {rt.coords for rt in a2.positive_roots()}
    assert coords == {(1, 0), (0, 1), (1, 1)}


def test_a3_sum_of_positive_roots_is_two_rho(a3):
    total = (0, 0, 0)
    for rt in a3.positive_roots():
        total = vec_add(total, a3.root_to_weight(rt.coords))
    assert total == (2, 2, 2)
    # dim sl4 = rank + 2 * #positive roots
    assert 3 + 2 * len(a3.positive_roots()) == 15


def test_weyl_act_examples(a1, a2):
    assert weyl_group(a1).finite_from_word([1]).act_weight((1,)) == (-1,)
    # w0 = s1 s2 s1 in A2 sends varpi1 to -varpi2
    assert weyl_group(a2).finite_from_word([1, 2, 1]).act_weight((1, 0)) == (0, -1)
    assert weyl_group(a2).id_finite.act_weight((5, -3)) == (5, -3)


def test_weyl_act_bad_index(a2):
    with pytest.raises(RootDataError):
        weyl_group(a2).finite_from_word([3])


def test_simple_reflection_permutes_other_positive_roots(datum):
    pos = datum.positive_roots()
    pos_set = {rt.coords for rt in pos}
    for i in range(datum.rank):
        for rt in pos:
            if rt.coords == tuple(int(k == i) for k in range(datum.rank)):
                continue
            p = datum.root_to_weight(rt.coords)[i]
            img = list(rt.coords)
            img[i] -= p
            assert tuple(img) in pos_set


def test_rho_pairings(datum):
    for i in range(datum.rank):
        coroot = tuple(int(k == i) for k in range(datum.rank))
        assert vec_dot(coroot, datum.rho) == 1


@given(st.data())
def test_weyl_invariance_of_pairing(data):
    datum = root_datum(*data.draw(st.sampled_from(ALL_TYPES)))
    r = datum.rank
    u = weyl_group(datum).finite_from_word(
        data.draw(st.lists(st.integers(1, r), max_size=6)))
    lam = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
    beta = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
    assert (vec_dot(u.act_coweight(beta), u.act_weight(lam))
            == vec_dot(beta, lam))


def test_theta_is_highest(datum):
    theta = datum.theta
    for rt in datum.positive_roots():
        assert all(c <= t for c, t in zip(rt.coords, theta.coords))


def test_invalid_cartan_rejected():
    with pytest.raises(RootDataError):
        CartanMatrix(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(RootDataError):
        CartanMatrix(((2, -2), (-2, 2)))  # affine, not finite type
    with pytest.raises(RootDataError):
        CartanMatrix(((1,),))


@pytest.mark.parametrize("entries", [
    ((2, -2), (-2, 2)),                          # affine A1~
    ((2, -1), (-4, 2)),                          # twisted affine A2^(2)
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),     # affine A2~, a 3-cycle
    ((2, -3), (-3, 2)),                          # hyperbolic
    ((2, -1, -1), (-2, 2, -1), (-1, -1, 2)),     # not symmetrizable
])
def test_cartan_matrices_not_of_finite_type_are_rejected(entries):
    with pytest.raises(RootDataError, match="not of finite type"):
        CartanMatrix(entries)


# symmetrizers as computed over the rationals before the integer propagation
SYMMETRIZERS = {
    **{("A", r): [1] * r for r in range(1, 6)},
    ("B", 2): [1, 2], ("B", 3): [1, 1, 2], ("B", 4): [1, 1, 1, 2],
    ("C", 2): [2, 1], ("C", 3): [2, 2, 1], ("C", 4): [2, 2, 2, 1],
    ("D", 4): [1] * 4, ("D", 5): [1] * 5,
    **{("E", r): [1] * r for r in (6, 7, 8)},
    ("F", 4): [1, 1, 2, 2], ("G", 2): [3, 1],
}


@pytest.mark.parametrize("kind,rank", sorted(SYMMETRIZERS))
def test_symmetrizer_of_every_builtin_type(kind, rank):
    assert root_datum(kind, rank).cartan.symmetrizer() == SYMMETRIZERS[(kind, rank)]


def test_symmetrizer_of_disconnected_matrices_scales_every_component():
    """One scale for the whole matrix: the least that makes every d_i an
    integer, with d = 1 at the first node of each component."""
    a1_c2 = ((2, 0, 0), (0, 2, -1), (0, -2, 2))
    g2_b2 = ((2, -1, 0, 0), (-3, 2, 0, 0), (0, 0, 2, -1), (0, 0, -2, 2))
    assert CartanMatrix(a1_c2).symmetrizer() == [2, 2, 1]
    assert CartanMatrix(g2_b2).symmetrizer() == [6, 2, 6, 3]
