"""Finite/affine Weyl group arithmetic against brute-force oracles."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import matrixref
import oracle
from subword import Subword

from silc.rootdata import mat_identity, mat_mul, mat_vec, root_datum, vec_dot, vec_neg
from silc.weylgroup import AffineWeylElement, WeylGroup, weyl_group

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


@pytest.fixture(params=ALL_TYPES, ids=lambda t: f"{t[0]}{t[1]}")
def cartan_type(request):
    return request.param


@pytest.fixture
def wg(cartan_type):
    return weyl_group(root_datum(*cartan_type))


@pytest.fixture
def sub(cartan_type):
    return Subword(*cartan_type)


# ---------------------------------------------------------------------------
# affine words through compose, and brute-force oracles
# ---------------------------------------------------------------------------

def simple_affine(wg, i):
    """s_i for i in {0, 1, ..., r}, with s_0 = s_theta t_{-theta^vee}."""
    if i == 0:
        theta = wg.datum.theta
        return AffineWeylElement(wg.reflection_by_root(theta), vec_neg(theta.coroot))
    return wg.affine_from_finite(wg.finite_from_word([i]))


def from_word(wg, word):
    x = wg.identity
    for i in word:
        x = wg.compose(x, simple_affine(wg, i))
    return x


def length(sub, w):
    return sub.length(sub.of(w))


def brute_min_length(wg, w, cap=8):
    """Smallest k such that some word of length k in I_af equals w."""
    if w == wg.identity:
        return 0
    frontier = {wg.identity}
    seen = set(frontier)
    for k in range(1, cap + 1):
        nxt = set()
        for x in frontier:
            for i in range(wg.datum.rank + 1):
                y = wg.compose(x, simple_affine(wg, i))
                if y == w:
                    return k
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    raise AssertionError("cap too small for brute-force length")


def subword_le(sub, x, y):
    """Bruhat comparison of oracle elements by exhaustive subword enumeration."""
    word = sub.reduced_word(y)
    for positions in itertools.combinations(range(len(word)), sub.length(x)):
        if sub.from_word([word[p] for p in positions]) == x:
            return True
    return x == y


# ---------------------------------------------------------------------------
# composition and normal form
# ---------------------------------------------------------------------------

def test_translation_composition(wg):
    r = wg.datum.rank
    b1 = tuple(range(1, r + 1))
    b2 = tuple([-2] * r)
    x = wg.compose(wg.element((), b1), wg.element((), b2))
    assert x == wg.element((), tuple(a + b for a, b in zip(b1, b2)))


def test_conjugated_translation_a1(wg_a1):
    wg = wg_a1
    s = wg.affine_from_finite(wg.finite_from_word([1]))
    x = wg.compose(wg.compose(s, wg.element((), (1,))), s)
    assert x == wg.element((), (-1,))


def test_s0_identity(wg, sub):
    # s_0 is the oracle's affine simple reflection; s_theta * s_0 = t_{-theta^vee}
    theta = wg.datum.theta
    s0 = simple_affine(wg, 0)
    assert sub.of(s0) == sub.simple[0]
    s_theta = wg.affine_from_finite(wg.reflection_by_root(theta))
    assert wg.compose(s_theta, s0) == wg.element((), vec_neg(theta.coroot))


def test_compose_matches_oracle(wg, sub):
    """compose is the product of the affine maps x -> u(x + beta)."""
    rng = random.Random(6)
    words = list(sub.finite_words.values())

    def sample():
        return wg.element(rng.choice(words),
                          [rng.randint(-3, 3) for _ in range(wg.datum.rank)])

    for _ in range(100):
        x, y = sample(), sample()
        assert sub.of(wg.compose(x, y)) == sub.mul(sub.of(x), sub.of(y)), (x, y)


def test_associativity_random(wg_a2):
    wg = wg_a2
    xs = [wg.element([1], (1, 0)), wg.element([2, 1], (0, -1)), simple_affine(wg, 0)]
    for a, b, c in itertools.product(xs, repeat=3):
        assert wg.compose(wg.compose(a, b), c) == wg.compose(a, wg.compose(b, c))


def _inverse(wg, u):
    """u^{-1}, from a reduced word of u reversed."""
    return wg.finite_from_word(wg.reduced_word_finite(u)[::-1])


def _weight_mat(u):
    """The matrix of u's weight action: columns u(varpi_j)."""
    return tuple(zip(*(u.act_weight(e) for e in mat_identity(len(u.root_mat)))))


def test_inverse(wg):
    x = wg.compose(simple_affine(wg, 0), wg.element([1], tuple([1] * wg.datum.rank)))
    # (u t_beta)^{-1} = u^{-1} t_{-u beta}, u beta by matrixref's coweight matrix
    coweight_mat = matrixref.Matrices(wg.datum).of_word(wg.reduced_word_finite(x.finite))[1]
    inv = AffineWeylElement(_inverse(wg, x.finite),
                            vec_neg(mat_vec(coweight_mat, x.translation)))
    assert wg.compose(x, inv) == wg.identity
    assert wg.compose(inv, x) == wg.identity


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def test_length_examples_a1(wg_a1):
    wg, sub = wg_a1, Subword("A", 1)
    assert length(sub, wg.identity) == 0
    assert length(sub, wg.element((), (1,))) == 2
    assert length(sub, simple_affine(wg, 0)) == 1
    assert length(sub, wg.element([1], (-1,))) == 1  # this is s0


def test_length_dominant_translation_a2(wg_a2):
    sub = Subword("A", 2)
    # l(t_beta) = sum over positive roots of |<beta, alpha>|; alpha_1^vee is
    # not a dominant coweight in A2 (<alpha_1^vee, alpha_2> = -1), so the
    # length is 2 + 1 + 1 = 4 (confirmed by the brute-force word oracle).
    assert length(sub, wg_a2.element((), (1, 0))) == 4
    # a genuinely dominant coweight: sum of all positive coroots = 2 rho^vee
    beta = sub.rs.two_rho_coweight
    expected = sum(vec_dot(beta, wg_a2.datum.root_to_weight(rt.coords))
                   for rt in wg_a2.datum.positive_roots())
    assert length(sub, wg_a2.element((), beta)) == expected


def test_length_matches_brute_force(wg, sub):
    r = wg.datum.rank
    s0 = simple_affine(wg, 0)
    elements = [
        wg.identity,
        s0,
        wg.element((), tuple([1] + [0] * (r - 1))),
        wg.element([1], tuple([0] * r)),
        wg.compose(s0, wg.element([1], tuple([0] * r))),
        wg.element([1], tuple([-1] * r)),
    ]
    for w in elements:
        assert length(sub, w) == brute_min_length(wg, w)


def test_simple_multiplication_changes_length_by_one(wg, sub):
    r = wg.datum.rank
    words = [[], [0], [1], [1, 0], [0, 1, 0]]
    for word in words:
        w = from_word(wg, word)
        for i in range(0, r + 1):
            diff = length(sub, wg.compose(simple_affine(wg, i), w)) - length(sub, w)
            assert diff in (1, -1)


# ---------------------------------------------------------------------------
# reduced words
# ---------------------------------------------------------------------------

def test_reduced_word_examples_a1(wg_a1):
    wg, sub = wg_a1, Subword("A", 1)
    assert sub.reduced_word(sub.of(wg.identity)) == []
    assert sub.reduced_word(sub.of(wg.element((), (1,)))) == [0, 1]
    assert sub.reduced_word(sub.of(wg.element([1], (1,)))) == [1, 0, 1]


def test_reduced_word_roundtrip(wg, sub):
    r = wg.datum.rank
    s0 = simple_affine(wg, 0)
    samples = [
        s0,
        wg.element((), tuple([1] * r)),
        wg.element([1], tuple([0] * r)),
        wg.compose(wg.element((), tuple([1] * r)), s0),
        wg.element([1], tuple([-2] + [0] * (r - 1))),
    ]
    for w in samples:
        word = sub.reduced_word(sub.of(w))
        assert len(word) == length(sub, w)
        assert from_word(wg, word) == w


def test_w0_longest(wg):
    n_pos = len(wg.datum.positive_roots())
    assert wg.length_finite(wg.w0) == n_pos
    # w0 sends all positive roots to negative ones
    for rt in wg.datum.positive_roots():
        img = wg.w0.act_root(rt.coords)
        assert all(c <= 0 for c in img)


def test_w0_word_is_the_smallest_reduced_word(wg):
    """Multiplying by the smallest left ascent, found by lengths, until none
    is left reaches w0, and the ascents taken spell its lexicographically
    smallest reduced word."""
    simple = [wg.finite_from_word([i]) for i in range(1, wg.datum.rank + 1)]
    w, word = wg.id_finite, []
    while ascents := [i for i, s in enumerate(simple) if (s * w).length() > w.length()]:
        word.append(ascents[0] + 1)
        w = simple[ascents[0]] * w
    assert w is wg.w0
    assert word == wg.reduced_word_finite(wg.w0)


# ---------------------------------------------------------------------------
# interned finite elements; rho has trivial stabilizer, so its image under
# the oracle's Weyl action identifies an element without using silc
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,rank,order", [("A", 2, 6), ("B", 2, 8), ("G", 2, 12)])
def test_reduced_word_finite_is_lexicographically_smallest(kind, rank, order):
    datum = root_datum(kind, rank)
    wg = weyl_group(datum)
    rs = oracle.RootSystem(kind, rank)
    assert rs.A == datum.cartan.entries
    # all words by length, then lexicographically: the first word reaching
    # an image is the smallest reduced word of that element
    words = [()] + [w for k in range(1, len(datum.positive_roots()) + 1)
                    for w in itertools.product(range(1, rank + 1), repeat=k)]
    smallest = {}
    for word in words:
        smallest.setdefault(rs.act_word(word, datum.rho), list(word))
    assert len(smallest) == order
    for word in words:
        u = wg.finite_from_word(word)
        image = rs.act_word(word, datum.rho)
        assert u.act_weight(datum.rho) == image
        assert wg.reduced_word_finite(u) == smallest[image], word


def test_e8_w0_reduced_word():
    datum = root_datum("E", 8)
    wg = weyl_group(datum)
    word = wg.reduced_word_finite(wg.w0)
    assert len(word) == 120
    assert wg.finite_from_word(word) is wg.w0
    assert oracle.RootSystem("E", 8).act_word(word, datum.rho) == vec_neg(datum.rho)


BUILTIN_TYPES = ([("A", r) for r in range(1, 6)] + [("B", r) for r in (2, 3, 4)]
                 + [("C", r) for r in (2, 3, 4)]
                 + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

# w0 of every built-in type as computed when w0 was built with the group:
# its reduced word as digits, and pi with w0(alpha_j) = -alpha_pi(j)
W0 = {
    ("A", 1): ("1", (1,)),
    ("A", 2): ("121", (2, 1)),
    ("A", 3): ("121321", (3, 2, 1)),
    ("A", 4): ("1213214321", (4, 3, 2, 1)),
    ("A", 5): ("121321432154321", (5, 4, 3, 2, 1)),
    ("B", 2): ("1212", (1, 2)),
    ("B", 3): ("121321323", (1, 2, 3)),
    ("B", 4): ("1213214321432434", (1, 2, 3, 4)),
    ("C", 2): ("1212", (1, 2)),
    ("C", 3): ("121321323", (1, 2, 3)),
    ("C", 4): ("1213214321432434", (1, 2, 3, 4)),
    ("D", 4): ("121321421324", (1, 2, 3, 4)),
    ("D", 5): ("12132143215321432534", (1, 2, 3, 5, 4)),
    ("E", 6): ("123142314354231435426542314354265431", (6, 2, 5, 4, 3, 1)),
    ("E", 7): ("123142314354231435426542314354265431765423143542654317654234567",
               tuple(range(1, 8))),
    ("E", 8): ("123142314354231435426542314354265431765423143542654317654234567"
               "876542314354265431765423456787654231435426543176542345678",
               tuple(range(1, 9))),
    ("F", 4): ("121321323432132343213234", (1, 2, 3, 4)),
    ("G", 2): ("121212", (1, 2)),
}


def test_a_new_group_holds_only_the_identity_and_the_simple_reflections():
    wg = WeylGroup(root_datum("E", 8))
    assert set(wg._elements.values()) == {wg.id_finite, *wg._simple_finite}
    assert len(wg._elements) == 9
    assert wg.w0.length() == 120
    assert len(wg._elements) > 9


@pytest.mark.parametrize("kind,rank", BUILTIN_TYPES)
def test_w0_of_every_builtin_type(kind, rank):
    """w0, built on first read, is an involution of length |Phi+| whose
    root and weight matrices are minus one permutation matrix, and its
    smallest reduced word is as it was when w0 was built with the group."""
    datum = root_datum(kind, rank)
    wg = WeylGroup(datum)
    word, pi = W0[(kind, rank)]
    w0 = wg.w0
    assert w0 * w0 is wg.id_finite
    assert w0.length() == len(datum.positive_roots())
    minus_pi = tuple(tuple(-int(pi[j] == i + 1) for j in range(rank)) for i in range(rank))
    assert w0.root_mat == _weight_mat(w0) == minus_pi
    assert wg.reduced_word_finite(w0) == list(map(int, word))


def test_finite_elements_are_interned(wg_a2):
    assert wg_a2.finite_from_word([1, 2, 1]) is wg_a2.finite_from_word([2, 1, 2])
    wg = weyl_group(root_datum("B", 2))
    elements = _all_finite(wg)
    assert len(elements) == 8
    for u in elements:
        assert _inverse(wg, u) * u is wg.id_finite


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def box_elements(wg, max_len):
    """The elements of length <= max_len, by right multiplication."""
    seen = frontier = {wg.identity}
    for _ in range(max_len):
        frontier = {wg.compose(x, simple_affine(wg, i))
                    for x in frontier for i in range(wg.datum.rank + 1)} - seen
        seen = seen | frontier
    return list(seen)


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2)])
def test_bruhat_matches_subword_oracle(kind, rank):
    """The memoized subword search equals exhaustive subword enumeration."""
    wg = weyl_group(root_datum(kind, rank))
    sub = Subword(kind, rank)
    elems = [sub.of(x) for x in box_elements(wg, 4 if rank == 2 else 6)]
    for x in elems:
        for y in elems:
            assert sub.bruhat_le(x, y) == subword_le(sub, x, y), (x, y)


def test_bruhat_examples_a1(wg_a1):
    wg, sub = wg_a1, Subword("A", 1)
    assert sub.bruhat_le(sub.of(wg.identity), sub.of(wg.element((), (1,))))
    assert not sub.bruhat_le(sub.simple[0], sub.of(wg.element([1], (0,))))
    x = sub.of(wg.element([1], (2,)))
    assert sub.bruhat_le(x, x)


def test_subword_oracle_leaves_the_recursion_limit_alone():
    """A query 3,000 letters deep, three times CPython's default recursion
    limit, is answered without recursing and without raising that limit."""
    limit = sys.getrecursionlimit()
    sub = Subword("A", 1)
    y = sub.translation((-1500,))
    assert len(sub.reduced_word(y)) == 3000
    assert sub.bruhat_le(y, y)
    assert sub.bruhat_le(sub.translation((-1499,)), y)
    assert not sub.bruhat_le(sub.translation((1500,)), y)
    assert sys.getrecursionlimit() == limit


def test_bruhat_partial_order_a2(wg_a2):
    sub = Subword("A", 2)
    elems = [sub.of(x) for x in box_elements(wg_a2, 3)]
    le = {(x, y): sub.bruhat_le(x, y) for x in elems for y in elems}
    for x in elems:
        for y in elems:
            if le[(x, y)] and le[(y, x)]:
                assert x == y
    for x in elems:
        for y in elems:
            if not le[(x, y)]:
                continue
            for z in elems:
                if le[(y, z)]:
                    assert le[(x, z)]


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


@pytest.mark.parametrize("kind,rank", ALL_TYPES + [("C", 3)])
def test_products_by_reflections_match_matrix_products(kind, rank):
    """u * s_beta is a rank-one update of u's root matrix, and the weight
    action derived from it is that of the product.  On a fresh group built
    by every reflection, so that elements are first made that way, the root
    and weight matrices equal the matrix products, and the element of the
    reversed reduced word inverts both."""
    wg = WeylGroup(root_datum(kind, rank))
    reflections = [wg.reflection_by_root(beta) for beta in wg.datum.positive_roots()]
    ident = mat_identity(rank)
    frontier = [wg.id_finite]
    seen = set(frontier)
    while frontier:
        nxt = []
        for u in frontier:
            for s in reflections:
                x = u * s
                assert x.root_mat == mat_mul(u.root_mat, s.root_mat)
                assert _weight_mat(x) == mat_mul(_weight_mat(u), _weight_mat(s))
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    for x in seen:
        assert mat_mul(x.root_mat, _inverse(wg, x).root_mat) == ident
        assert mat_mul(_weight_mat(x), _weight_mat(_inverse(wg, x))) == ident


@pytest.mark.parametrize("kind,rank,sample", [
    ("B", 2, None), ("B", 3, None), ("C", 3, None), ("G", 2, None),
    ("F", 4, 200), ("E", 6, 200)])
def test_reflections_on_either_side_match_the_matrix_formulas(kind, rank, sample):
    """s_beta * x and x * s_beta, each a rank-one update of x's root
    matrix, equal the products of matrixref's matrices along words, for
    every reflection and every element (B2, B3, C3, G2) or 200 seeded ones
    (F4, E6) of a fresh group; and the weight action of s_beta * x, derived
    from its root heights, is that of x followed by s_beta's."""
    wg = WeylGroup(root_datum(kind, rank))
    lams = [wg.datum.rho, tuple(range(-1, rank - 1))]
    if sample is None:
        elements = matrixref.all_elements(wg)
    else:
        elements = matrixref.distinct_elements(wg, sample, seed=rank)
    ref = matrixref.Matrices(wg.datum)
    reflections = [(wg.reflection_by_root(beta), ref.of_word(ref.reflection_word(beta)))
                   for beta in wg.datum.positive_roots()]
    for x, x_mats in elements.items():
        for s, s_mats in reflections:
            for got, (left, right) in ((s * x, (s_mats, x_mats)), (x * s, (x_mats, s_mats))):
                assert got.root_mat == mat_mul(left[0], right[0])
                assert _weight_mat(got) == mat_mul(left[2], right[2])
            for lam in lams:
                assert (s * x).act_weight(lam) == s.act_weight(x.act_weight(lam))


def test_serialization_roundtrip(wg):
    r = wg.datum.rank
    samples = [wg.identity, simple_affine(wg, 0), wg.element([1], tuple([2] * r))]
    for w in samples:
        assert wg.from_json(wg.to_json(w)) == w
        assert wg.parse(wg.format(w)) == w


def test_parse_grammar(wg_a1):
    wg = wg_a1
    assert wg.parse("e@1") == wg.element((), (1,))
    assert wg.parse("1@0") == wg.affine_from_finite(wg.finite_from_word([1]))
    assert wg.parse("1@-2") == wg.element([1], (-2,))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_length_subadditive(data):
    kind, rank = data.draw(st.sampled_from([("A", 1), ("A", 2)]))
    wg, sub = weyl_group(root_datum(kind, rank)), Subword(kind, rank)
    w1 = data.draw(st.lists(st.integers(0, rank), max_size=5))
    w2 = data.draw(st.lists(st.integers(0, rank), max_size=5))
    x, y = from_word(wg, w1), from_word(wg, w2)
    lxy = length(sub, wg.compose(x, y))
    assert lxy <= length(sub, x) + length(sub, y)
    assert (lxy - length(sub, x) - length(sub, y)) % 2 == 0


# ---------------------------------------------------------------------------
# type A elements are permutations; the matrix formulas are the reference
# ---------------------------------------------------------------------------

def _smallest_reduced_word(ref, root_mat):
    """Peel the smallest i with l(s_i u) < l(u), lengths by matrices."""
    word = []
    while ref.length(root_mat):
        i = next(i for i, (s, _, _) in enumerate(ref.simple)
                 if ref.length(mat_mul(s, root_mat)) < ref.length(root_mat))
        word.append(i + 1)
        root_mat = mat_mul(ref.simple[i][0], root_mat)
    return word


# seeded sample sizes; every element of the other groups is checked
_SAMPLED = {("A", 7): 200, ("F", 4): 150, ("E", 6): 150}


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                       ("A", 7), ("B", 2), ("G", 2), ("C", 3),
                                       ("D", 4), ("F", 4), ("E", 6)])
def test_elements_follow_the_matrix_formulas(kind, rank):
    """Products, lengths, both actions, key() and reduced words equal those
    of the matrices made along a word, and a reduced word reversed gives
    the inverse matrix: every element of A1-A4, B2, G2, C3 and D4, and
    seeded elements of A7, F4 and E6.  In type A the element is its
    permutation; elsewhere it is its root matrix, and its weight action and
    left descents are derived from that one matrix."""
    wg = weyl_group(root_datum(kind, rank))
    sample = _SAMPLED.get((kind, rank))
    if sample is None:
        elements = matrixref.all_elements(wg)
    elif kind == "A":
        elements = matrixref.sampled_elements(wg, sample, 40, seed=7)
    else:
        elements = matrixref.distinct_elements(wg, sample, seed=rank)
    ref = matrixref.Matrices(wg.datum)
    assert (wg.id_finite.perm is not None) == (kind == "A")
    ident = mat_identity(rank)
    rng = random.Random(rank)
    items = list(elements.items())
    vectors = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(3)]
    for u, (root_mat, _, weight_mat) in items:
        assert u.root_mat == root_mat
        assert _weight_mat(u) == weight_mat
        assert AffineWeylElement(u, vectors[0]).key() == (root_mat, vectors[0])
        assert mat_mul(root_mat, _inverse(wg, u).root_mat) == ident
        assert _inverse(wg, _inverse(wg, u)) is u
        assert u.length() == ref.length(root_mat)
        for vec in vectors:
            assert u.act_weight(vec) == mat_vec(weight_mat, vec)
            assert u.act_root(vec) == mat_vec(root_mat, vec)
        v, (v_root, _, v_weight) = rng.choice(items)
        assert (u * v).root_mat == mat_mul(root_mat, v_root)
        assert _weight_mat(u * v) == mat_mul(weight_mat, v_weight)
        word = wg.reduced_word_finite(u)
        assert ref.of_word(word)[0] == root_mat
        if rank <= 4:
            assert word == _smallest_reduced_word(ref, root_mat)
        else:
            assert len(word) == u.length()
