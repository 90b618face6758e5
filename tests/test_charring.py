"""Graded characters, Demazure operators, and cyclic-module characters."""

import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

import matrixref
import oracle
from qlayer import q_layer
from subword import Subword

from silc.charring import (
    CharacterError,
    FULL_WINDOW,
    GradedCharacter,
    _Packing,
    demazure_word,
    weyl_character,
)
from silc.errors import InconsistencyError
from silc.pieri import gch_global_weyl
from silc.rootdata import CartanMatrix, root_datum, vec_add
from silc.weylgroup import AffineWeylElement, weyl_group

from loopref import shift_q


# ---------------------------------------------------------------------------
# ring structure and serialization
# ---------------------------------------------------------------------------

def mono(q, wt, c=1, window=FULL_WINDOW):
    return GradedCharacter.monomial(q, wt, c, window)


def test_records_are_tuples_but_a_character_keeps_its_ring_operations():
    """GradedCharacter is a NamedTuple: it equals and unpacks as the tuple of
    its fields, while + and * stay the ring operations and c * ch is no
    tuple repetition."""
    f = mono(0, (1,), 2)
    assert f == ((((0, (1,)), 2),), FULL_WINDOW)
    terms, window = f
    assert (terms, window) == (f.terms, f.window)
    assert f + f == f.scale(2) == mono(0, (1,), 4)
    assert f * f == mono(0, (2,), 4)
    with pytest.raises(TypeError):
        3 * f
    # the other records have no operations of their own: + concatenates
    alpha = root_datum("A", 1).positive_roots()[0]
    assert alpha == ((1,), (1,)) and alpha + alpha == ((1,), (1,), (1,), (1,))


def test_add_mul_window_intersection():
    f = mono(0, (1,), 1, (0, 4))
    g = mono(1, (0,), 1, (0, 2))
    assert (f + g).window == (0, 2)
    h = f * g
    assert h.window == (0, 2)
    assert h.coefficient(1, (1,)) == 1


def test_truncate_and_shift():
    f = mono(0, (1,)) + mono(3, (1,))
    assert f.truncate((0, 2)).terms == mono(0, (1,), 1, (0, 2)).terms
    g = shift_q(f, 2)
    assert g.coefficient(2, (1,)) == 1 and g.coefficient(5, (1,)) == 1


# ---------------------------------------------------------------------------
# Demazure operators
# ---------------------------------------------------------------------------

def test_demazure_step_sl2_strings(a1):
    f = mono(0, (1,))
    out = demazure_word(a1, (1,), f)
    assert out == mono(0, (1,)) + mono(0, (-1,))
    assert demazure_word(a1, (1,), mono(0, (-1,))).is_zero()
    assert demazure_word(a1, (1,), GradedCharacter.one(1)) == GradedCharacter.one(1)
    assert demazure_word(a1, (0,), GradedCharacter.one(1)) == GradedCharacter.one(1)


def test_demazure_step_interior_string_negative(a1):
    # <alpha^, -2w> = -2: minus the interior of the string
    out = demazure_word(a1, (1,), mono(0, (-2,)))
    assert out == mono(0, (0,), -1)


def test_demazure_affine_step_shifts_q(a1):
    # i = 0 string on e^{-w}: m = -<theta^, -w> = 1, adds q^{-1} e^{w}
    f = mono(0, (-1,), 1, (-2, 1))
    out = demazure_word(a1, (0,), f)
    assert out.coefficient(0, (-1,)) == 1
    assert out.coefficient(-1, (1,)) == 1


def test_demazure_word_empty_and_index_range(a2):
    f = mono(0, (1, 1))
    assert demazure_word(a2, [], f) == f
    with pytest.raises(CharacterError):
        demazure_word(a2, (3,), f)


def test_braid_invariance_a2_example(a2):
    f = mono(0, (1, 1))
    assert demazure_word(a2, [1, 2, 1], f) == demazure_word(a2, [2, 1, 2], f)


def _test_character(datum):
    """A fixed, asymmetric test character with terms in several q-layers.

    The window is wide enough that no Demazure string of the words tested
    below ever crosses it, so operator identities hold on the nose.
    """
    r = datum.rank
    f = GradedCharacter.zero((-40, 40))
    for j, wt in enumerate(itertools.product((-1, 0, 1), repeat=r)):
        f = f + mono(j % 3 - 1, wt, 1 + (j % 2), (-40, 40))
    return f


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2)])
def test_braid_invariance_exhaustive_short_words(kind, rank):
    """demazure_word agrees across all reduced words, lengths <= 5."""
    datum = root_datum(kind, rank)
    sub = Subword(kind, rank)
    f = _test_character(datum)
    gens = list(range(rank + 1))
    by_element = {}
    for length in range(6):
        for word in itertools.product(gens, repeat=length):
            x = sub.from_word(word)
            if sub.length(x) != length:
                continue
            got = demazure_word(datum, list(word), f)
            assert by_element.setdefault(x, got) == got, word


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-3, 3), st.integers(-2, 2)),
        min_size=1,
        max_size=6,
    ),
    i=st.integers(0, 1),
)
def test_demazure_idempotent_a1(data, i):
    # window wide enough that no string is clipped (identity is exact)
    datum = root_datum("A", 1)
    f = GradedCharacter.make({(q, (m,)): c for q, m, c in data}, (-30, 30))
    once = demazure_word(datum, (i,), f)
    assert demazure_word(datum, (i,), once) == once


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                  st.integers(-2, 2)),
        min_size=1,
        max_size=5,
    ),
    i=st.integers(0, 2),
)
def test_demazure_idempotent_a2(data, i):
    datum = root_datum("A", 2)
    f = GradedCharacter.make({(q, (m, n)): c for q, m, n, c in data}, (-30, 30))
    once = demazure_word(datum, (i,), f)
    assert demazure_word(datum, (i,), once) == once


def _reference_step(datum, i, terms, window):
    """One Demazure step by the demazure_word docstring, term by term on
    (q, weight) tuples."""
    q_min, q_max = window
    if i:
        alpha, dq = datum.simple_root_weights[i - 1], 0
    else:
        alpha, dq = tuple(-x for x in datum.root_to_weight(datum.theta.coords)), 1
    out = {}
    for (q, wt), c in terms.items():
        m = wt[i - 1] if i else -sum(x * y for x, y in zip(datum.theta.coroot, wt))
        if m >= 0:
            string, sign = range(m + 1), 1
        else:
            string, sign = range(-1, m, -1), -1
        for j in string:
            key = (q - j * dq, tuple(x - j * a for x, a in zip(wt, alpha)))
            if q_min <= key[0] < q_max:
                out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def test_affine_word_matches_tuple_reference_in_a_cutting_window(a2):
    word = [0, 1, 0, 2, 0]
    start = {(0, (1, 1)): 1, (0, (-2, 1)): 2, (1, (0, -2)): -1}

    def reference(window):
        terms = {k: c for k, c in start.items() if window[0] <= k[0] < window[1]}
        for i in word:
            terms = _reference_step(a2, i, terms, window)
        return terms

    window = (-2, 1)
    qs = {q for q, _ in reference(FULL_WINDOW)}
    assert min(qs) < window[0] and max(qs) >= window[1]
    got = demazure_word(a2, word, GradedCharacter.make(start, window))
    assert got == GradedCharacter.make(reference(window), window)
    assert got.terms


def test_weyl_character_of_a_large_a1_weight(a1):
    """Weights down to -m pack with an offset of at least m per digit; at m =
    4000 the memoized string sums walk one string of 4001 weights."""
    for m in (1000, 4000):
        ch = weyl_character(a1, (m,))
        assert ch.terms == tuple(((0, (k,)), 1) for k in range(-m, m + 1, 2))


# ---------------------------------------------------------------------------
# Weyl characters
# ---------------------------------------------------------------------------

def _demazure_weyl_character(datum, lam):
    """ch V(lam) by the Demazure character formula along the word for w0."""
    f = GradedCharacter.monomial(0, lam, 1, (0, 1))
    wg = weyl_group(datum)
    return demazure_word(datum, wg.reduced_word_finite(wg.w0), f)


def _fundamental_weights(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


@pytest.mark.parametrize("kind,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
    ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6),
    ("E", 7), ("F", 4), ("G", 2),
])
def test_weyl_character_matches_demazure_on_fundamental_weights(kind, rank):
    datum = root_datum(kind, rank)
    for lam in _fundamental_weights(rank):
        assert weyl_character(datum, lam) == _demazure_weyl_character(datum, lam), lam


@pytest.mark.parametrize("i", [1, 2, 7, 8])
def test_weyl_character_matches_demazure_on_e8_fundamental_weights(i):
    """E8 varpi_1, varpi_2, varpi_7 and varpi_8 have 2,401, 26,401, 9,121 and
    241 weights; varpi_3 to varpi_6 have 117,361 to 3,207,121, too many for
    the Demazure reference here."""
    datum = root_datum("E", 8)
    lam = _fundamental_weights(8)[i - 1]
    assert weyl_character(datum, lam) == _demazure_weyl_character(datum, lam)


@pytest.mark.parametrize("kind,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
])
def test_weyl_character_matches_demazure_on_rho_and_two_rho(kind, rank):
    datum = root_datum(kind, rank)
    for lam in [(1,) * rank, (2,) * rank]:
        assert weyl_character(datum, lam) == _demazure_weyl_character(datum, lam), lam


@pytest.mark.parametrize("kind,rank,lam", [
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)), ("B", 3, (4, 4, 4)), ("C", 3, (4, 4, 4)),
    ("D", 4, (2, 2, 2, 2)), ("F", 4, (1, 0, 1, 1)), ("G", 2, (10, 10)),
])
def test_weyl_character_matches_demazure_on_the_benchmark_weights(kind, rank, lam):
    datum = root_datum(kind, rank)
    assert weyl_character(datum, lam) == _demazure_weyl_character(datum, lam)


@seed(23)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_weyl_character_matches_demazure_on_drawn_weights(data):
    kind, rank = data.draw(st.sampled_from([
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
        ("D", 3), ("G", 2)]))
    lam = tuple(data.draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank)))
    datum = root_datum(kind, rank)
    assert weyl_character(datum, lam) == _demazure_weyl_character(datum, lam)


def test_weyl_character_raises_on_a_remainder(b2, monkeypatch):
    """With a symmetrizer that leaves d_i a_ij unsymmetric, Freudenthal's
    quotient at the zero weight is no integer: the division raises instead
    of rounding."""
    monkeypatch.setattr(CartanMatrix, "symmetrizer", lambda self: [1] * self.rank)
    with pytest.raises(InconsistencyError, match="remainder 1 at \\(0, 0\\)"):
        weyl_character(b2, (0, 1))


def test_unpack_matches_make():
    """Packed terms unpack to GradedCharacter.make of the same terms: zero
    coefficients drop, the window cuts at lo and hi, and terms sort by (q,
    weight)."""
    rng = random.Random(23)
    for rank, bound in [(1, 0), (1, 5), (2, 1), (3, 2), (4, 7), (8, 3)]:
        pk = _Packing(rank, bound)
        for window in [(-3, 2), (0, 1), (2, 5), FULL_WINDOW]:
            lo, hi = window
            plain = {}
            for _ in range(60):
                q = rng.choice([lo, hi - 1, hi, rng.randint(-5, 6)])
                wt = tuple(rng.randint(-bound, bound) for _ in range(rank))
                plain[q, wt] = rng.randint(-2, 2)
            packed = {pk.degree(q) + pk.weight(wt, bound): c
                      for (q, wt), c in plain.items()}
            assert pk.unpack(packed, window) == GradedCharacter.make(plain, window)


def test_weyl_character_a1_examples(a1):
    assert weyl_character(a1, (1,)) == mono(0, (1,), 1, (0, 1)) + mono(
        0, (-1,), 1, (0, 1)
    )
    adj = weyl_character(a1, (2,))
    assert q_layer(adj, 0) == {(2,): 1, (0,): 1, (-2,): 1}


def test_weyl_character_rejects_non_dominant(a2):
    with pytest.raises(CharacterError):
        weyl_character(a2, (1, -1))


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_weyl_character_dimensions_match_product_formula(kind, rank):
    datum = root_datum(kind, rank)
    rs = oracle.RootSystem(kind, rank)
    lams = [wt for wt in itertools.product(range(3), repeat=rank)][:10]
    for lam in lams:
        assert weyl_character(datum, lam).total() == rs.weyl_dimension(lam)


def test_weyl_character_a2_adjoint_dimension(a2):
    assert weyl_character(a2, (1, 1)).total() == 8


def test_weyl_character_highest_coeff_and_invariance(a2):
    wg = weyl_group(a2)
    lam = (2, 1)
    ch = weyl_character(a2, lam)
    assert ch.coefficient(0, lam) == 1
    layer = q_layer(ch, 0)
    for u in [wg.finite_from_word([1]), wg.finite_from_word([2, 1]), wg.w0]:
        acted = {u.act_weight(wt): c for wt, c in layer.items()}
        assert acted == layer


def test_cartan_component_positivity(a2):
    lam, mu = (1, 0), (1, 1)
    prod = weyl_character(a2, lam).truncate(FULL_WINDOW) * weyl_character(
        a2, mu
    ).truncate(FULL_WINDOW)
    diff = prod - weyl_character(a2, vec_add(lam, mu)).truncate(FULL_WINDOW)
    assert diff.nonnegative()


# ---------------------------------------------------------------------------
# cyclic-module graded characters
# ---------------------------------------------------------------------------

def test_gweyl_a1_standard_rep_times_polynomial_ring(a1):
    wg = weyl_group(a1)
    got = gch_global_weyl(a1, wg.affine_from_finite(wg.w0), (1,), (0, 4))
    expected = GradedCharacter.make(
        {(q, wt): 1 for q in range(4) for wt in [(1,), (-1,)]}, (0, 4)
    )
    assert got == expected


@pytest.mark.parametrize("lam,window", [
    ((1, 0), (0, 4)), ((0, 1), (0, 4)), ((1, 1), (0, 4)), ((2, 0), (0, 4)),
    ((1, 0, 0), (0, 3)), ((0, 1, 0), (0, 3)), ((1, 0, 1), (0, 3)),
    # repeated fundamental weights, where the formula twists by one
    # fundamental weight several times
    ((3,), (0, 6)), ((4,), (0, 6)),
    ((2, 1), (0, 4)), ((3, 0), (0, 4)), ((2, 2), (0, 4)),
    ((2, 0, 1), (0, 3)),
])
def test_gweyl_w0_matches_q_whittaker(lam, window):
    """gch W(lam) = P_lam(x; q, 0) / prod_i (q; q)_{lam_i} (Chari-Ion)."""
    datum = root_datum("A", len(lam))
    wg = weyl_group(datum)
    lo, hi = window
    got = gch_global_weyl(datum, wg.affine_from_finite(wg.w0), lam, window)
    full = oracle.global_weyl_character(lam, hi)
    assert dict(got.terms) == {k: c for k, c in full.items() if k[0] >= lo}


def test_gweyl_window_below_degree_zero_is_zero(a2):
    wg = weyl_group(a2)
    got = gch_global_weyl(a2, wg.identity, (1, 0), (-1, 0))
    assert got == GradedCharacter.zero((-1, 0))


def test_charring_still_exports_gch_global_weyl():
    """perfbench/worker.py imports gch_global_weyl from silc.charring."""
    import silc.charring
    import silc.pieri
    assert silc.charring.gch_global_weyl is silc.pieri.gch_global_weyl


def test_gweyl_trivial_weight(a2):
    wg = weyl_group(a2)
    got = gch_global_weyl(a2, wg.identity, (0, 0), (0, 3))
    assert got == GradedCharacter.one(2, (0, 3))


def test_gweyl_degree_zero_layer_is_weyl_character(a1, a2):
    for datum, lam in [(a1, (1,)), (a2, (1, 0)), (a2, (1, 1))]:
        wg = weyl_group(datum)
        got = gch_global_weyl(datum, wg.affine_from_finite(wg.w0), lam, (0, 2))
        assert q_layer(got, 0) == q_layer(weyl_character(datum, lam), 0)


def test_gweyl_demazure_one_step_recursion():
    """Kato's recursion: D_i gch(u t_beta) = gch(s_i u t_beta) when
    l(s_i u) > l(u), and D_i gch(u t_beta) = gch(u t_beta) otherwise, for
    every finite part u of A2 and A3, three dominant lam each, beta =
    (1, ..., 1) and (-1, 0, ..., 0), and every i."""
    window = (0, 5)
    for lams in ([(1, 0), (1, 1), (2, 1)], [(0, 1, 0), (1, 0, 1), (1, 1, 1)]):
        rank = len(lams[0])
        datum, betas = root_datum("A", rank), [(1,) * rank, (-1,) + (0,) * (rank - 1)]
        wg = weyl_group(datum)
        for u, lam, beta in itertools.product(matrixref.all_elements(wg), lams, betas):
            here = gch_global_weyl(datum, AffineWeylElement(u, beta), lam, window)
            for i in range(1, rank + 1):
                y = wg.finite_from_word([i]) * u
                up = (gch_global_weyl(datum, AffineWeylElement(y, beta), lam, window)
                      if y.length() > u.length() else here)
                assert demazure_word(datum, (i,), here) == up, (
                    wg.format(AffineWeylElement(u, beta)), lam, i)


def test_gweyl_product_surjectivity_bound(a1):
    wg = weyl_group(a1)
    w0 = wg.affine_from_finite(wg.w0)
    window = (0, 3)
    f = gch_global_weyl(a1, w0, (1,), window)
    g = gch_global_weyl(a1, w0, (2,), window)
    h = gch_global_weyl(a1, w0, (3,), window)
    assert (f * g - h).nonnegative()


def test_gweyl_monotone_in_word_length(a2):
    wg = weyl_group(a2)
    lam = (1, 0)
    window = (0, 2)
    chain = [[], [1], [2, 1], [1, 2, 1]]
    prev = None
    for word in chain:
        cur = gch_global_weyl(
            a2, wg.affine_from_finite(wg.finite_from_word(word)), lam, window
        )
        if prev is not None:
            assert (cur - prev).nonnegative()
        prev = cur


def test_gweyl_finite_part_dependence(a1):
    """The cyclic vector of w0 generates a larger normalized module than
    that of e."""
    wg = weyl_group(a1)
    window = (0, 3)
    full = gch_global_weyl(a1, wg.affine_from_finite(wg.w0), (1,), window)
    shallow = gch_global_weyl(a1, wg.identity, (1,), window)
    assert (full - shallow).nonnegative()
    assert full != shallow


@pytest.mark.parametrize("typ,rank,lams,words,betas", [
    ("A", 1, [(1,), (2,)], [[], [1]], [(1,), (-2,), (3,)]),
    ("A", 2, [(1, 0), (1, 1)], [[], [1], [2, 1], [1, 2, 1]],
     [(1, 0), (-1, 2), (2, 1)]),
])
def test_gweyl_translation_invariance(typ, rank, lams, words, betas):
    """Multiplying every varpi_i slot by z^{-beta_i} commutes with every
    current-algebra operator, so the normalized character of u * t_beta
    is that of u."""
    datum = root_datum(typ, rank)
    wg = weyl_group(datum)
    window = (0, 3)
    for lam in lams:
        for word in words:
            base = gch_global_weyl(datum, wg.element(word, (0,) * rank), lam,
                                   window)
            for beta in betas:
                x = wg.element(word, beta)
                assert gch_global_weyl(datum, x, lam, window) == base, (
                    lam, wg.format(x))


def test_gweyl_rejects_non_dominant_and_non_type_a(a1, b2):
    wg = weyl_group(a1)
    with pytest.raises(CharacterError):
        gch_global_weyl(a1, wg.identity, (-1,), (0, 2))
    from silc.rootdata import RootDataError

    wgb = weyl_group(b2)
    with pytest.raises(RootDataError):
        gch_global_weyl(b2, wgb.identity, (1, 0), (0, 2))
