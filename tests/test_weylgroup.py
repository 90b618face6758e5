"""Finite/affine Weyl group arithmetic against brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from affine_words import reduced_word
from silc.rootdata import root_datum, vec_neg
from silc.weylgroup import weyl_group

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


@pytest.fixture(params=ALL_TYPES, ids=lambda t: f"{t[0]}{t[1]}")
def wg(request):
    return weyl_group(root_datum(*request.param))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_min_length(wg, w, cap=8):
    """Smallest k such that some word of length k in I_af equals w."""
    if w == wg.identity:
        return 0
    gens = list(range(0, wg.datum.rank + 1))
    frontier = {wg.identity.key(): wg.identity}
    seen = set(frontier)
    for k in range(1, cap + 1):
        nxt = {}
        for x in frontier.values():
            for i in gens:
                y = wg.right_mul_simple(x, i)
                if y.key() not in seen:
                    seen.add(y.key())
                    nxt[y.key()] = y
                    if y == w:
                        return k
        frontier = nxt
    raise AssertionError("cap too small for brute-force length")


def subword_le(wg, x, y):
    """Bruhat comparison by exhaustive subword enumeration."""
    word = reduced_word(wg, y)
    lx = wg.length_affine(x)
    for positions in itertools.combinations(range(len(word)), lx):
        cand = wg.from_word([word[p] for p in positions])
        if cand == x:
            return True
    return x == y


# ---------------------------------------------------------------------------
# composition and normal form
# ---------------------------------------------------------------------------

def test_translation_composition(wg):
    r = wg.datum.rank
    b1 = tuple(range(1, r + 1))
    b2 = tuple([-2] * r)
    x = wg.compose(wg.translation(b1), wg.translation(b2))
    assert x == wg.translation(tuple(a + b for a, b in zip(b1, b2)))


def test_conjugated_translation_a1(wg_a1):
    wg = wg_a1
    s = wg.affine_from_finite(wg.finite_from_word([1]))
    x = wg.compose(wg.compose(s, wg.translation((1,))), s)
    assert x == wg.translation((-1,))


def test_s0_identity(wg):
    # s_theta * s_0 = t_{-theta^vee}
    theta = wg.datum.theta
    s_theta = wg.affine_from_finite(wg.reflection_by_root(theta))
    assert wg.compose(s_theta, wg.s0) == wg.translation(vec_neg(theta.coroot))


def test_associativity_random(wg_a2):
    wg = wg_a2
    xs = [wg.element([1], (1, 0)), wg.element([2, 1], (0, -1)), wg.s0]
    for a, b, c in itertools.product(xs, repeat=3):
        assert wg.compose(wg.compose(a, b), c) == wg.compose(a, wg.compose(b, c))


def test_inverse(wg):
    x = wg.compose(wg.s0, wg.element([1], tuple([1] * wg.datum.rank)))
    assert wg.compose(x, wg.inverse(x)) == wg.identity
    assert wg.compose(wg.inverse(x), x) == wg.identity


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def test_length_examples_a1(wg_a1):
    wg = wg_a1
    assert wg.length_affine(wg.identity) == 0
    assert wg.length_affine(wg.translation((1,))) == 2
    assert wg.length_affine(wg.s0) == 1
    assert wg.length_affine(wg.element([1], (-1,))) == 1  # this is s0


def test_length_dominant_translation_a2(wg_a2):
    # l(t_beta) = sum over positive roots of |<beta, alpha>|; alpha_1^vee is
    # not a dominant coweight in A2 (<alpha_1^vee, alpha_2> = -1), so the
    # length is 2 + 1 + 1 = 4 (confirmed by the brute-force word oracle).
    assert wg_a2.length_affine(wg_a2.translation((1, 0))) == 4
    # a genuinely dominant coweight: sum of all positive coroots = 2 rho^vee
    beta = wg_a2.datum.two_rho_coweight
    expected = sum(wg_a2.datum.pairing(beta, wg_a2.datum.root_to_weight(rt.coords))
                   for rt in wg_a2.datum.positive_roots())
    assert wg_a2.length_affine(wg_a2.translation(beta)) == expected


def test_length_matches_brute_force(wg):
    r = wg.datum.rank
    elements = [
        wg.identity,
        wg.s0,
        wg.translation(tuple([1] + [0] * (r - 1))),
        wg.element([1], tuple([0] * r)),
        wg.compose(wg.s0, wg.element([1], tuple([0] * r))),
        wg.element([1], tuple([-1] * r)),
    ]
    for w in elements:
        assert wg.length_affine(w) == brute_min_length(wg, w)


def test_simple_multiplication_changes_length_by_one(wg):
    r = wg.datum.rank
    words = [[], [0], [1], [1, 0], [0, 1, 0]]
    for word in words:
        w = wg.from_word(word)
        for i in range(0, r + 1):
            diff = wg.length_affine(wg.left_mul_simple(i, w)) - wg.length_affine(w)
            assert diff in (1, -1)


# ---------------------------------------------------------------------------
# reduced words
# ---------------------------------------------------------------------------

def test_reduced_word_examples_a1(wg_a1):
    wg = wg_a1
    assert reduced_word(wg, wg.identity) == []
    assert reduced_word(wg, wg.translation((1,))) == [0, 1]
    assert reduced_word(wg, wg.element([1], (1,))) == [1, 0, 1]


def test_reduced_word_roundtrip(wg):
    r = wg.datum.rank
    samples = [
        wg.s0,
        wg.translation(tuple([1] * r)),
        wg.element([1], tuple([0] * r)),
        wg.compose(wg.translation(tuple([1] * r)), wg.s0),
        wg.element([1], tuple([-2] + [0] * (r - 1))),
    ]
    for w in samples:
        word = reduced_word(wg, w)
        assert len(word) == wg.length_affine(w)
        assert wg.from_word(word) == w


def test_w0_longest(wg):
    n_pos = len(wg.datum.positive_roots())
    assert wg.length_finite(wg.w0) == n_pos
    # w0 sends all positive roots to negative ones
    for rt in wg.datum.positive_roots():
        img = wg.w0.act_root(rt.coords)
        assert all(c <= 0 for c in img)


# ---------------------------------------------------------------------------
# interned finite elements; rho has trivial stabilizer, so its image under
# RootDatum.weyl_act identifies an element without using weylgroup
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,rank,order", [("A", 2, 6), ("B", 2, 8), ("G", 2, 12)])
def test_reduced_word_finite_is_lexicographically_smallest(kind, rank, order):
    datum = root_datum(kind, rank)
    wg = weyl_group(datum)
    # all words by length, then lexicographically: the first word reaching
    # an image is the smallest reduced word of that element
    words = [()] + [w for k in range(1, len(datum.positive_roots()) + 1)
                    for w in itertools.product(range(1, rank + 1), repeat=k)]
    smallest = {}
    for word in words:
        smallest.setdefault(datum.weyl_act(word, datum.rho), list(word))
    assert len(smallest) == order
    for word in words:
        u = wg.finite_from_word(word)
        image = datum.weyl_act(word, datum.rho)
        assert u.act_weight(datum.rho) == image
        assert wg.reduced_word_finite(u) == smallest[image], word


def test_e8_w0_reduced_word():
    datum = root_datum("E", 8)
    wg = weyl_group(datum)
    word = wg.reduced_word_finite(wg.w0)
    assert len(word) == 120
    assert datum.weyl_act(word, datum.rho) == vec_neg(datum.rho)


def test_finite_elements_are_interned(wg_a2):
    assert wg_a2.finite_from_word([1, 2, 1]) is wg_a2.finite_from_word([2, 1, 2])
    wg = weyl_group(root_datum("B", 2))
    elements = _all_finite(wg)
    assert len(elements) == 8
    for u in elements:
        assert u.inverse() * u is wg.id_finite


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def box_elements(wg, max_len):
    gens = list(range(0, wg.datum.rank + 1))
    frontier = {wg.identity.key(): wg.identity}
    seen = dict(frontier)
    for _ in range(max_len):
        nxt = {}
        for x in frontier.values():
            for i in gens:
                y = wg.right_mul_simple(x, i)
                if y.key() not in seen:
                    seen[y.key()] = y
                    nxt[y.key()] = y
        frontier = nxt
    return list(seen.values())


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2)])
def test_bruhat_matches_subword_oracle(kind, rank):
    wg = weyl_group(root_datum(kind, rank))
    elems = box_elements(wg, 4 if rank == 2 else 6)
    for x in elems:
        for y in elems:
            assert wg.bruhat_le(x, y) == subword_le(wg, x, y), (x, y)


def test_bruhat_examples_a1(wg_a1):
    wg = wg_a1
    assert wg.bruhat_le(wg.identity, wg.translation((1,)))
    assert not wg.bruhat_le(wg.s0, wg.affine_from_finite(wg.finite_from_word([1])))
    x = wg.element([1], (2, ) * 0 + (2,))
    assert wg.bruhat_le(x, x)


def test_bruhat_partial_order_a2(wg_a2):
    wg = wg_a2
    elems = box_elements(wg, 3)
    le = {(x.key(), y.key()): wg.bruhat_le(x, y) for x in elems for y in elems}
    for x in elems:
        for y in elems:
            if le[(x.key(), y.key())] and le[(y.key(), x.key())]:
                assert x == y
    for x in elems:
        for y in elems:
            if not le[(x.key(), y.key())]:
                continue
            for z in elems:
                if le[(y.key(), z.key())]:
                    assert le[(x.key(), z.key())]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _all_finite(wg):
    frontier = [wg.id_finite]
    seen = {wg.id_finite}
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(1, wg.datum.rank + 1):
                c = u * wg.finite_from_word([i])
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def test_serialization_roundtrip(wg):
    r = wg.datum.rank
    samples = [wg.identity, wg.s0, wg.element([1], tuple([2] * r))]
    for w in samples:
        assert wg.from_json(wg.to_json(w)) == w
        assert wg.parse(wg.format(w)) == w


def test_parse_grammar(wg_a1):
    wg = wg_a1
    assert wg.parse("e@1") == wg.translation((1,))
    assert wg.parse("1@0") == wg.affine_from_finite(wg.finite_from_word([1]))
    assert wg.parse("1@-2") == wg.element([1], (-2,))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_length_subadditive(data):
    wg = weyl_group(root_datum(*data.draw(st.sampled_from([("A", 1), ("A", 2)]))))
    r = wg.datum.rank
    w1 = data.draw(st.lists(st.integers(0, r), max_size=5))
    w2 = data.draw(st.lists(st.integers(0, r), max_size=5))
    x, y = wg.from_word(w1), wg.from_word(w2)
    lxy = wg.length_affine(wg.compose(x, y))
    assert lxy <= wg.length_affine(x) + wg.length_affine(y)
    assert (lxy - wg.length_affine(x) - wg.length_affine(y)) % 2 == 0
