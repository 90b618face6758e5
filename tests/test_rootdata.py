"""Root-datum arithmetic against enumeration oracles."""

import pytest
from hypothesis import given, strategies as st

from silc.rootdata import (
    MAX_RANK,
    CartanMatrix,
    RootDataError,
    _builtin_cartan,
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
    alpha = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
    # (alpha, lam) = sum_j alpha_j d_j lam_j, alpha in the simple-root basis
    d = datum.cartan.symmetrizer()

    def form(a, m):
        return sum(x * dj * y for x, dj, y in zip(a, d, m))

    assert form(u.act_root(alpha), u.act_weight(lam)) == form(alpha, lam)


def test_theta_is_highest(datum):
    theta = datum.theta
    for rt in datum.positive_roots():
        assert all(c <= t for c, t in zip(rt.coords, theta.coords))


def test_every_builtin_cartan_matrix_is_of_finite_type():
    """The 65 matrices a command line can name, A1-A16, B2-B16, C2-C16,
    D3-D16, E6-E8, F4 and G2, have 2 on the diagonal, off-diagonal entries
    <= 0 with a symmetric zero pattern, and d_i a_ij symmetric and positive
    definite for the symmetrizer d: every leading principal minor, each a
    pivot of fraction-free (Bareiss) elimination, is positive.  Each is
    checked before its root datum is built, since the roots of a matrix not
    of finite type never run out."""
    checked = 0
    for kind in "ABCDEFG":
        for rank in range(1, MAX_RANK + 1):
            try:
                a = _builtin_cartan(kind, rank)
            except RootDataError:
                continue
            assert len(a) == rank and all(len(row) == rank for row in a)
            for i in range(rank):
                assert a[i][i] == 2, (kind, rank)
                for j in range(rank):
                    if i != j:
                        assert a[i][j] <= 0, (kind, rank)
                        assert (a[i][j] == 0) == (a[j][i] == 0), (kind, rank)
            d = CartanMatrix(a).symmetrizer()
            assert all(type(di) is int and di > 0 for di in d), (kind, rank)
            s = [[di * aij for aij in row] for di, row in zip(d, a)]
            assert all(s[i][j] == s[j][i] for i in range(rank) for j in range(rank))
            prev = 1
            for k in range(rank):
                p = s[k][k]
                assert p > 0, (kind, rank, k)
                for i in range(k + 1, rank):
                    for j in range(k + 1, rank):
                        s[i][j], r = divmod(s[i][j] * p - s[i][k] * s[k][j], prev)
                        assert r == 0
                prev = p
            assert root_datum(kind, rank).cartan.entries == a
            checked += 1
    assert checked == 65


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
