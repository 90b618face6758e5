"""Semi-infinite order against the fixed-deep-translation subword oracle."""

import itertools

import pytest

from subword import Subword

from silc.rootdata import Root, root_datum, vec_scale
from silc.semiinf import si_order
from silc.weylgroup import AffineWeylElement


def finite_elements(wg, sub):
    """The finite Weyl group, listed by the oracle's reduced words."""
    return [wg.finite_from_word(word) for word in sub.finite_words.values()]


def test_si_length_examples(so_a1):
    so = so_a1
    wg = so.wg
    assert so.si_length(wg.identity) == 0
    assert so.si_length(wg.translation((1,))) == 2
    assert so.si_length(wg.element([1], (-1,))) == -1  # s0


def test_si_le_examples(so_a1):
    so = so_a1
    wg = so.wg
    s1 = wg.affine_from_finite(wg.finite_from_word([1]))
    assert so.si_le(s1, wg.identity)
    assert not so.si_le(wg.identity, s1)
    assert so.si_le(s1, s1)
    assert so.si_le(wg.translation((1,)), wg.identity)


def test_restriction_to_finite_weyl_group(so_a2):
    so = so_a2
    wg = so.wg
    sub = Subword("A", 2)
    finite = [wg.affine_from_finite(u) for u in finite_elements(wg, sub)]
    for x in finite:
        for y in finite:
            assert so.si_le(x, y) == sub.bruhat_le(sub.of(y), sub.of(x))


@pytest.mark.parametrize("kind,rank,radius", [("A", 1, 2), ("A", 2, 1)])
def test_si_le_matches_oracle_on_box(kind, rank, radius):
    so = si_order(root_datum(kind, rank))
    sub = Subword(kind, rank)
    box = so.box(so.wg.identity, radius)
    for x in box:
        for y in box:
            assert so.si_le(x, y) == sub.si_le(x, y), (x, y)


def test_translation_equivariance(so_a1):
    so = so_a1
    wg = so.wg
    box = so.box(wg.identity, 1)
    gammas = [(-1,), (2,)]
    for x, y in itertools.product(box, repeat=2):
        base = so.si_le(x, y)
        for g in gammas:
            t = wg.translation(g)
            assert so.si_le(wg.compose(x, t), wg.compose(y, t)) == base


def test_strict_comparability_increases_si_length(so_a2):
    so = so_a2
    box = so.box(so.wg.identity, 1)
    for x in box:
        for y in box:
            if x != y and so.si_le(x, y):
                assert so.si_length(x) > so.si_length(y)


def test_partial_order_on_box(so_a1):
    so = so_a1
    box = so.box(so.wg.identity, 2)
    le = {(x.key(), y.key()): so.si_le(x, y) for x in box for y in box}
    for x in box:
        for y in box:
            if x != y:
                assert not (le[(x.key(), y.key())] and le[(y.key(), x.key())])
    keys = {b.key(): b for b in box}
    for xk in keys:
        for yk in keys:
            if not le[(xk, yk)]:
                continue
            for zk in keys:
                if le[(yk, zk)]:
                    assert le[(xk, zk)]


def test_covers_below_a1_identity(so_a1):
    so = so_a1
    wg = so.wg
    covers = so.si_covers_below(wg.identity, height_bound=2)
    elements = {x.key() for _, x in covers}
    s1 = wg.affine_from_finite(wg.finite_from_word([1]))
    assert elements == {s1.key()}


def test_covers_translation_equivariance_a1(so_a1):
    so = so_a1
    wg = so.wg
    t = wg.translation((-1,))
    base = {x for _, x in so.si_covers_below(wg.identity, 2)}
    shifted = {x for _, x in so.si_covers_below(t, 2)}
    assert shifted == {wg.compose(x, t) for x in base}


def test_covers_are_below(so_a2):
    so = so_a2
    wg = so.wg
    v = wg.element([1], (0, 0))
    for alpha, x in so.si_covers_below(v, 2):
        assert so.si_le(x, v)
        assert so.si_length(x) == so.si_length(v) + 1
        # x = s_alpha v for the affine reflection s_alpha = s_gamma t_{n gamma^vee}
        gamma = Root(alpha.root_coords, alpha.coroot)
        refl = AffineWeylElement(wg.reflection_by_root(gamma),
                                 vec_scale(alpha.delta_coeff, alpha.coroot))
        assert wg.compose(refl, v) == x


def test_cover_existence_on_box(so_a1):
    so = so_a1
    box = so.box(so.wg.identity, 1)
    for v in box:
        for w in box:
            if w != v and so.si_le(w, v):
                covers = so.si_covers_below(v, 3)
                assert any(so.si_le(w, x) for _, x in covers), (w, v)


def test_si_interval_examples(so_a1):
    so = so_a1
    wg = so.wg
    s1 = wg.affine_from_finite(wg.finite_from_word([1]))
    e = wg.identity
    assert so.si_interval(e, e, 2) == [e]
    assert [x.key() for x in so.si_interval(s1, e, 2)] == [e.key(), s1.key()]
    chain = so.si_interval(wg.element([1], (1,)), e, 2)
    expected = {e.key(), s1.key(), wg.translation((1,)).key(),
                wg.element([1], (1,)).key()}
    assert {x.key() for x in chain} == expected
    assert [so.si_length(x) for x in chain] == [0, 1, 2, 3]


def test_si_interval_incomparable_empty(so_a1):
    so = so_a1
    wg = so.wg
    assert so.si_interval(wg.identity, wg.translation((1,)), 2) == []


def test_s0_below_identity_is_false_a1(so_a1):
    # s0 has si-length -1, hence lies above the identity, not below
    so = so_a1
    s0 = so.wg.element([1], (-1,))  # s_theta t_{-theta^vee}
    assert not so.si_le(s0, so.wg.identity)
    assert so.si_le(so.wg.identity, s0)


def test_si_interval_is_complete_a1(so_a1):
    """The interval from e@0 down to 1@6 is the whole chain, including the
    elements far from both ends."""
    so = so_a1
    wg = so.wg
    chain = so.si_interval(wg.element([1], (6,)), wg.identity, 1)
    assert [so.si_length(x) for x in chain] == list(range(14))


@pytest.mark.parametrize("kind", ["A", "B", "G"])
def test_covers_are_complete_on_box(kind):
    """The listed covers of v are exactly the elements one si-length step
    below v that the deep-translation oracle puts below v, searched over
    every translation within the largest coroot coefficient of v's."""
    so = si_order(root_datum(kind, 2))
    wg = so.wg
    sub = Subword(kind, 2)
    finite = finite_elements(wg, sub)
    reach = max(max(rt.coroot) for rt in so.datum.positive_roots())
    for v in so.box(wg.translation((1, -1)), 0):
        target = so.si_length(v) + 1
        below = set()
        for gamma in itertools.product(range(-reach, reach + 1), repeat=2):
            beta = tuple(b + g for b, g in zip(v.translation, gamma))
            for u in finite:
                x = AffineWeylElement(u, beta)
                if so.si_length(x) == target and sub.si_le(x, v):
                    below.add(x)
        assert {x for _, x in so.si_covers_below(v, 1)} == below, wg.format(v)


def _search_through_all_of_w(so, u):
    """Every finite part reached from u, in breadth-first order, each with
    the first element met that carries it."""
    order = [u]
    seen = {u.finite}
    for y in order:
        for _, z in so.si_covers_below(y):
            if z.finite not in seen:
                seen.add(z.finite)
                order.append(z)
    return order


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                       ("B", 2), ("G", 2), ("C", 3)])
def test_nearest_below_matches_the_search_through_all_of_w(kind, rank):
    """nearest_below goes on only from the nearest element of each coset it
    has met; it returns what the search through all of W returns, for every
    finite base, each fundamental weight, rho and the sum of the outer
    fundamental weights."""
    so = si_order(root_datum(kind, rank))
    wg = so.wg
    lams = {tuple(int(i == k) for i in range(rank)) for k in range(rank)}
    lams |= {(1,) * rank, tuple(int(i in (0, rank - 1)) for i in range(rank))}
    for level in so.down_set(wg.identity, (0,) * rank):
        for x in level:
            u = AffineWeylElement(x.finite, (1,) * rank)
            order = _search_through_all_of_w(so, u)
            for lam in sorted(lams):
                want = {}
                for y in order:
                    want.setdefault(y.finite.act_weight(lam), y)
                got = so.nearest_below(u, lam)
                assert len(got) == len(want)
                assert {m.finite.act_weight(lam): m for m in got} == want
