"""Semi-infinite order against the fixed-deep-translation subword oracle."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, seed, settings, strategies as st

import matrixref
from subword import Subword

from silc.rootdata import Root, root_datum, vec_neg
from silc.semiinf import SemiInfiniteOrder, si_order
from silc.weylgroup import AffineWeylElement, weyl_group


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


@pytest.mark.parametrize("kind", ["A", "B", "G"])
def test_si_le_matches_oracle_in_every_query_order(kind):
    """si_le against the subword oracle on 300 seeded pairs (w, v) of a
    radius-1 box, v at its corner or its centre and beta_v <= beta_w: the
    pairs whose answer the translations alone do not settle, their
    translation differences covering [0, 2]^2.  (Each v costs the oracle one deep reduced
    word, so v takes two translations, not nine.)  Each order of the
    queries starts from an empty memo, so no answer depends on the searches
    run before it: ascending translation differences, descending ones, and
    shuffled ones."""
    d = root_datum(kind, 2)
    sub = Subword(kind, 2)
    box = si_order(d).box(weyl_group(d).identity, 1)
    pairs = [(w, v) for w in box for v in box
             if v.translation in ((-1, -1), (0, 0))
             and all(a <= b for a, b in zip(v.translation, w.translation))]
    rng = random.Random(17)
    pairs = rng.sample(pairs, 300)
    want = {pair: sub.si_le(*pair) for pair in pairs}

    def diff(pair):
        w, v = pair
        return tuple(a - b for a, b in zip(w.translation, v.translation))

    shuffled = list(pairs)
    rng.shuffle(shuffled)
    for order in (sorted(pairs, key=diff), sorted(pairs, key=diff, reverse=True),
                  shuffled):
        so = SemiInfiniteOrder(weyl_group(d))
        assert [so.si_le(w, v) for w, v in order] == [want[p] for p in order]


@pytest.mark.parametrize("kind", ["A", "C"])
def test_si_le_matches_oracle_at_rank_3(kind):
    """si_le against the subword oracle on 200 seeded rank-3 pairs (w, v)
    with beta_v <= beta_w, v one of four elements with translations in
    [0, 1]^3 and beta_w - beta_v in [0, 1]^3.  (Each v costs the oracle one
    deep reduced word, so there are only four.)"""
    so = si_order(root_datum(kind, 3))
    sub = Subword(kind, 3)
    finite = [x.finite for x in so.box(so.wg.identity, 0)]
    rng = random.Random(3)
    tops = [AffineWeylElement(u, tuple(rng.randrange(2) for _ in range(3)))
            for u in rng.sample(finite, 4)]
    for _ in range(200):
        v = rng.choice(tops)
        w = AffineWeylElement(rng.choice(finite),
                              tuple(b + rng.randrange(2) for b in v.translation))
        assert so.si_le(w, v) == sub.si_le(w, v), (so.wg.format(w), so.wg.format(v))


@pytest.mark.parametrize("kind,rank,order", [("A", 1, 2), ("A", 2, 6), ("A", 3, 24),
                                             ("B", 2, 8), ("C", 3, 48), ("G", 2, 12)])
def test_path_weights_exceed_the_shortest_by_positive_coroots(kind, rank, order):
    """The lemma si_le rests on (Postnikov), for every pair of finite parts
    v, w: the paths of the quantum Bruhat graph from v to w, enumerated
    edge by edge, carry exactly the weight wt(v => w) of the breadth-first
    walks when shortest (of length d), and that weight plus an element of
    Q^vee_+ when of length d + 1 or d + 2.  Once every pair is asked, the
    order keeps one coset walk per v and fundamental weight varpi_k, and
    each has met every weight of the orbit W varpi_k."""
    so = SemiInfiniteOrder(weyl_group(root_datum(kind, rank)))
    zero = (0,) * rank
    finite = [x.finite for x in so.box(so.wg.identity, 0)]
    assert len(finite) == order
    edges = {u: [(x.finite, x.translation)
                 for _, x in so.si_covers_below(AffineWeylElement(u, zero))]
             for u in finite}
    for v in finite:
        # paths[k]: endpoint -> the weights of the paths of length k from v
        paths = [{v: {zero}}]
        dist = {v: 0}
        while len(dist) < order or len(paths) <= max(dist.values()) + 2:
            step = {}
            for y, weights in paths[-1].items():
                for z, shift in edges[y]:
                    step.setdefault(z, set()).update(
                        tuple(a + b for a, b in zip(wt, shift)) for wt in weights)
            for z in step:
                dist.setdefault(z, len(paths))
            paths.append(step)
        for w in finite:
            least = so._weight(v, w)
            d = dist[w]
            assert paths[d][w] == {least}, (v, w)
            for wt in paths[d + 1].get(w, set()) | paths[d + 2].get(w, set()):
                assert all(a >= b for a, b in zip(wt, least)), (v, w, wt)
    units = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    orbits = {lam: {u.act_weight(lam) for u in finite} for lam in units}
    assert set(so._walks) == {(v, lam) for v in finite for lam in units}
    assert all(set(found) == orbits[lam] for (_, lam), (found, *_) in so._walks.items())


@pytest.mark.parametrize("word_w,word_v,want", [([1, 3, 4], [], True),
                                                ([], [1, 3, 4], False)],
                         ids=["134-below-e", "e-not-below-134"])
def test_weight_search_near_e_stays_small_in_e8(word_w, word_v, want):
    """wt(v => w) is read off the eight coset walks from v, each stopped at
    the coset of w.  An element near e has few quantum Bruhat edges going
    out (and many coming in), so for these E8 pairs the walks meet 21
    cosets in all, where the search through all of W met 152 and 215
    elements."""
    wg = weyl_group(root_datum("E", 8))
    so = SemiInfiniteOrder(wg)
    zero = (0,) * 8
    assert so.si_le(wg.element(word_w, zero), wg.element(word_v, zero)) is want
    assert sum(len(found) for found, *_ in so._walks.values()) <= 50


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
    coroots = {rt.coords: rt.coroot for rt in so.datum.positive_roots()}
    for alpha, x in so.si_covers_below(v, 2):
        assert so.si_le(x, v)
        assert so.si_length(x) == so.si_length(v) + 1
        # x = s_alpha v for the affine reflection s_alpha = s_gamma t_{n gamma^vee},
        # gamma^vee the coroot of the positive root +-gamma, signed
        coords = alpha.root_coords
        coroot = coroots.get(coords) or vec_neg(coroots[vec_neg(coords)])
        refl = AffineWeylElement(wg.reflection_by_root(Root(coords, coroot)),
                                 tuple(alpha.delta_coeff * c for c in coroot))
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


@pytest.fixture(scope="module")
def oracles():
    """{(kind, rank): (order, subword oracle, finite elements)} for A1, A2,
    B2, C2 and G2, made once for the drawn examples below."""
    out = {}
    for kind, rank in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]:
        so, sub = si_order(root_datum(kind, rank)), Subword(kind, rank)
        out[(kind, rank)] = (so, sub, finite_elements(so.wg, sub))
    return out


@seed(29)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_si_le_matches_oracle_on_drawn_pairs(oracles, data):
    """si_le(w, v) equals the subword oracle on drawn A1, A2, B2, C2 and G2
    pairs, v with translation in [-1, 1]^r and beta_w - beta_v in [0, 2]^r:
    the pairs whose answer the translations alone do not settle."""
    so, sub, finite = oracles[data.draw(st.sampled_from(sorted(oracles)))]
    rank = so.datum.rank
    pick = st.sampled_from(range(len(finite)))
    beta_v = tuple(data.draw(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank)))
    gap = data.draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    v = AffineWeylElement(finite[data.draw(pick)], beta_v)
    w = AffineWeylElement(finite[data.draw(pick)], tuple(map(sum, zip(beta_v, gap))))
    assert so.si_le(w, v) == sub.si_le(w, v), (so.wg.format(w), so.wg.format(v))


@seed(28)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_si_interval_matches_oracle_on_drawn_pairs(oracles, data):
    """si_interval(v, w) on drawn A2, B2 and G2 pairs, w with translation in
    [-1, 1]^2 and beta_v - beta_w in [0, 2]^2, is exactly the list, by
    si-length and key, of the box elements u with v <=_si u <=_si w by the
    subword oracle.  Every such u has beta_w <= beta_u <= beta_v, since
    wt(x => y) >= 0, so the box of those translations holds them all; an
    incomparable pair has none."""
    so, sub, finite = oracles[(data.draw(st.sampled_from("ABG")), 2)]
    pick = st.sampled_from(range(len(finite)))
    beta_w = tuple(data.draw(st.lists(st.integers(-1, 1), min_size=2, max_size=2)))
    gap = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))
    w = AffineWeylElement(finite[data.draw(pick)], beta_w)
    v = AffineWeylElement(finite[data.draw(pick)], tuple(map(sum, zip(beta_w, gap))))
    ranges = [range(a, b + 1) for a, b in zip(w.translation, v.translation)]
    between = [x for beta in itertools.product(*ranges) for u in finite
               for x in [AffineWeylElement(u, beta)]
               if sub.si_le(v, x) and sub.si_le(x, w)]
    between.sort(key=lambda x: (so.si_length(x), x.key()))
    assert so.si_interval(v, w) == between, (so.wg.format(v), so.wg.format(w))


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


def _search_through_all_of_w(so, u, stop=None):
    """{x: the first element met that carries the finite part x}, for every x
    reached from u by a breadth-first search through W, in the order met.
    The first path to x is a shortest one, so the element's translation is
    u's plus wt(u.finite => x).  The search ends once it has met the finite
    part stop, if one is given.  The reference for the coset walks."""
    found = {u.finite: u}
    queue = deque([u])
    while queue and stop not in found:
        for z in so._covers(queue.popleft()):
            if z.finite not in found:
                found[z.finite] = z
                queue.append(z)
    return found


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
            order = _search_through_all_of_w(so, u).values()
            for lam in sorted(lams):
                want = {}
                for y in order:
                    want.setdefault(y.finite.act_weight(lam), y)
                got = so.nearest_below(u, lam)
                assert got == want


def _assert_least(so, v, w, least):
    """least is the weight si_le reads for (v, w): w t_least lies below v t_0,
    and w t_{least - alpha_k^vee} does not, for any k."""
    top = AffineWeylElement(v, (0,) * len(least))
    where = (so.wg.reduced_word_finite(v), so.wg.reduced_word_finite(w))
    assert so.si_le(AffineWeylElement(w, least), top), where
    for k in range(len(least)):
        lower = tuple(c - (i == k) for i, c in enumerate(least))
        assert not so.si_le(AffineWeylElement(w, lower), top), (where, k)


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                       ("B", 2), ("B", 3), ("C", 3), ("G", 2),
                                       ("D", 4)])
def test_weight_is_read_off_the_coset_walk(kind, rank):
    """For every pair v, w of finite parts, si_le reads the weight wt(v => w)
    of the search through all of W off the coset walks from v: coordinate k
    is the shift that the walk for varpi_k records at the coset of w.  That
    is what the walk gives if it is a breadth-first search in the parabolic
    quantum Bruhat graph of W / W_k (Lenart-Naito-Sagaki-Schilling-
    Shimozono, arXiv:1211.2042); the test checks the identity on all 56,696
    pairs of these types, it does not prove it.  (The seeded pairs below
    also check that no smaller translation passes.)"""
    so = SemiInfiniteOrder(weyl_group(root_datum(kind, rank)))
    finite = [x.finite for x in so.box(so.wg.identity, 0)]
    zero = (0,) * rank
    for v in finite:
        top = AffineWeylElement(v, zero)
        want = {x: y.translation for x, y in _search_through_all_of_w(so, top).items()}
        for w in finite:
            assert so.si_le(AffineWeylElement(w, want[w]), top)
        assert so._least[v] == want


# (pairs, longest word) of the seeded pairs: each end is a word of random
# letters and random length up to the longest, so that the reference
# search stays small
_SEEDED_PAIRS = {("F", 4): (600, 24), ("E", 6): (100, 5), ("E", 7): (40, 3),
                 ("E", 8): (25, 3)}


@pytest.mark.parametrize("kind,rank", list(_SEEDED_PAIRS))
def test_weight_is_read_off_the_coset_walk_on_seeded_pairs(kind, rank):
    """The same on seeded pairs of F4, E6, E7 and E8, with the reference
    search stopped at w."""
    count, longest = _SEEDED_PAIRS[kind, rank]
    wg = weyl_group(root_datum(kind, rank))
    so = SemiInfiniteOrder(wg)
    rng = random.Random(rank)
    for _ in range(count):
        v, w = (wg.finite_from_word([rng.randint(1, rank)
                                     for _ in range(rng.randint(0, longest))])
                for _ in range(2))
        top = AffineWeylElement(v, (0,) * rank)
        _assert_least(so, v, w, _search_through_all_of_w(so, top, w)[w].translation)


# seeded sample sizes; every element of the other groups is checked
_EDGE_SAMPLES = {("A", 7): 200, ("E", 6): 300, ("E", 7): 100, ("E", 8): 50}


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                       ("A", 5), ("A", 7), ("B", 2), ("G", 2),
                                       ("B", 3), ("C", 3), ("D", 4), ("F", 4),
                                       ("E", 6), ("E", 7), ("E", 8)])
def test_covers_of_finite_follow_the_lengths_of_matrix_products(kind, rank):
    """The edges of WeylGroup.edges are those that the lengths of the matrix
    products u*s_alpha give, with the same shifts: below every element of
    A1-A5, B2, G2, B3, C3, D4 and F4, 200 seeded elements of A7, and 300,
    100 and 50 seeded elements of E6, E7 and E8.  A permutation yields them
    in the order it finds them; the root heights of other types yield them
    in the order of the positive roots, as the reference does."""
    so = SemiInfiniteOrder(weyl_group(root_datum(kind, rank)))
    sample = _EDGE_SAMPLES.get((kind, rank))
    if sample is None:
        elements = matrixref.all_elements(so.wg)
    elif kind == "A":
        elements = matrixref.sampled_elements(so.wg, sample, 40, seed=7)
    else:
        elements = matrixref.distinct_elements(so.wg, sample, seed=rank)
    ref = matrixref.Matrices(so.datum)
    edges = 0
    for u, (root_mat, _, _) in elements.items():
        got = [(alpha, y.root_mat, shift) for alpha, y, shift in so.wg.edges(u)]
        want = ref.covers(root_mat)
        if kind == "A":
            got, want = sorted(got), sorted(want)
        assert got == want, so.wg.reduced_word_finite(u)
        edges += len(got)
    if (kind, rank) == ("A", 5):
        assert (len(elements), edges) == (720, 6264)
