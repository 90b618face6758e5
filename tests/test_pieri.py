"""Twist-coefficient tables and Richardson section characters."""

import gc
import random
import time

import loopmodel
import loopref
import oracle
import pytest
from jobspecs import JOBSPECS
from loopref import rho_height, verified_pieri, verify_table
from qlayer import q_layer

from silc.charring import CharacterError, GradedCharacter
from silc.errors import InconsistencyError
from silc.pieri import (
    compute_pieri,
    gch_global_weyl,
    h0_dimension,
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
    table = verified_pieri(a1, w, lam, (0, 2), 3)
    a = table.coefficient(w)
    assert dict(a.terms) == {(0, base_weight(wg_a1, w, lam)): 1}


def test_base_entry_is_extremal_monomial_a2_degenerate(a2, wg_a2):
    w = wg_a2.identity
    table = verified_pieri(a2, w, (1, 0), (0, 1), 2)
    a = table.coefficient(w)
    assert dict(a.terms) == {(0, base_weight(wg_a2, w, (1, 0))): 1}


def test_support_lies_below_base(a1, wg_a1, so_a1):
    w = wg_a1.identity
    table = verified_pieri(a1, w, (1,), (0, 3), 4)
    assert table.support()
    for u in table.support():
        assert so_a1.si_le(u, w)


def test_a1_standard_twist_table(a1, wg_a1):
    """a^u_e(w) = qbar^k e^{+/-w} on u = e t_k, s1 t_k."""
    table = verified_pieri(a1, wg_a1.identity, (1,), (0, 3), 4)
    expect = {}
    for k in range(3):
        expect[wg_a1.element([], (k,)).key()] = {(k, (1,)): 1}
        expect[wg_a1.element([1], (k,)).key()] = {(k, (-1,)): 1}
    got = {u.key(): dict(a.terms) for u, a in table.coeffs}
    assert got == expect


def test_a1_ell4_section_count_below_translation(a1, wg_a1, so_a1):
    """Summing a^u_e(w) over u above w0 t_{alpha^} counts the 4 sections."""
    table = verified_pieri(a1, wg_a1.identity, (1,), (0, 4), 5)
    v = wg_a1.element([1], (1,))
    total = sum(
        a.total() for u, a in table.coeffs if so_a1.si_le(v, u)
    )
    assert total == 4


def test_a3_first_fundamental_table(a3):
    """The orbit of varpi_3 walked down from e, each weight once at qbar 0."""
    wg = weyl_group(a3)
    table = verified_pieri(a3, wg.identity, (1, 0, 0), (0, 1), 2)
    got = {wg.format(u): dict(a.terms) for u, a in table.coeffs}
    assert got == {
        "e@0,0,0": {(0, (0, 0, 1)): 1},
        "3@0,0,0": {(0, (0, 1, -1)): 1},
        "2,3@0,0,0": {(0, (1, -1, 0)): 1},
        "1,2,3@0,0,0": {(0, (-1, 0, 0)): 1},
    }


def test_depth_beyond_the_support_changes_nothing(a2, wg_a2):
    """A depth of 40 costs no more than a depth of 2: depth is accepted and
    changes nothing."""
    start = time.perf_counter()
    deep = verified_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 40)
    assert time.perf_counter() - start < 10
    assert deep == verified_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 2)


def test_a2_degenerate_twist_table(a2, wg_a2):
    """lam = first fundamental weight: support only on the parabolic cosets."""
    table = verified_pieri(a2, wg_a2.identity, (1, 0), (0, 1), 2)
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
    full = verified_pieri(a1, w, lam, (0, 3), 4)
    cut = verified_pieri(a1, w, lam, (1, 3), 4)
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
        t = verified_pieri(a2, wg_a2.identity, weight, (0, 1), 2)
        return {wg_a2.format(u): dict(a.terms) for u, a in t.coeffs}

    flipped = {wg_a2.parse(_flip(u)): {(q, wt[::-1]): c
                                       for (q, wt), c in terms.items()}
               for u, terms in table(lam).items()}
    got = table(lam[::-1])
    assert {wg_a2.parse(u): terms for u, terms in got.items()} == flipped


def test_table_closes_each_richardson_top_once(a2, wg_a2, monkeypatch):
    """Verifying a table closes only the modules of the product identity,
    and no BlockSpan outlives the check."""
    calls = []
    closure = loopmodel.span_closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(loopmodel, "span_closure", counted)
    w, lam = wg_a2.identity, (1, 0)
    table = compute_pieri(a2, w, lam, (0, 1), 2)
    assert len(table.support()) == 3 and not calls
    for mu in (a2.rho, tuple(2 * m for m in a2.rho)):
        verify_table(a2, w, lam, table.coeffs, mu, 1)
    # for each of rho and 2 rho, the sections of the base and of the three
    # supported elements
    assert len(calls) <= 8
    gc.collect()
    assert not any(isinstance(x, loopmodel.BlockSpan) for x in gc.get_objects())


def test_translation_equivariance_of_tables(a1, wg_a1):
    base = verified_pieri(a1, wg_a1.identity, (1,), (0, 2), 3)
    shifted = verified_pieri(a1, wg_a1.translation((2,)), (1,), (0, 2), 3)
    t = wg_a1.translation((2,))
    expect = {wg_a1.compose(u, t).key(): dict(a.terms) for u, a in base.coeffs}
    got = {u.key(): dict(a.terms) for u, a in shifted.coeffs}
    assert got == expect


def test_verification_accepts_extra_strictly_dominant_weight(a1, wg_a1):
    table = compute_pieri(a1, wg_a1.identity, (1,), (0, 2), 3)
    assert table.support()
    verify_table(a1, wg_a1.identity, (1,), table.coeffs, (3,), 2)


@pytest.mark.parametrize("mu", [(0, 1), (1, 0), (0, 0)])
def test_verification_refuses_a_weight_that_is_not_strictly_dominant(a2, wg_a2, mu):
    table = compute_pieri(a2, wg_a2.identity, (1, 1), (0, 1), 2)
    with pytest.raises(CharacterError):
        verify_table(a2, wg_a2.identity, (1, 1), table.coeffs, mu, 1)


@pytest.mark.parametrize("change", ["drop", "bump"])
def test_verification_rejects_a_changed_table(a2, wg_a2, change):
    """Dropping one supported u, or adding 1 to one term of one
    coefficient, breaks the product identity for rho."""
    w, lam = wg_a2.identity, (1, 1)
    coeffs = list(compute_pieri(a2, w, lam, (0, 1), 2).coeffs)
    verify_table(a2, w, lam, coeffs, a2.rho, 1)
    # the last entry is w0, the bottom of the support, not the base
    u, a = coeffs.pop()
    assert u != w
    if change == "bump":
        (q, wt), _ = a.terms[0]
        coeffs.append((u, a + GradedCharacter.monomial(q, wt)))
    with pytest.raises(InconsistencyError):
        verify_table(a2, w, lam, coeffs, a2.rho, 1)


# (rank, bases, weights, windows) of the tables whose every entry the check
# for rho must see
DROPPED_TABLES = [
    (1, ["e@0", "1@0", "e@2", "1@1"], [(1,), (2,), (3,)], [(0, 2), (0, 3), (0, 4)]),
    (2, ["e@0,0", "1@0,0", "2,1@1,0"], [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)]),
]


@pytest.mark.parametrize("rank,bases,lams,windows", DROPPED_TABLES, ids=["A1", "A2"])
def test_rho_check_sees_every_entry(rank, bases, lams, windows):
    """Dropping any one reported entry breaks the product identity for rho
    on [0, rho_height): the check window reaches the sections of every u,
    also those on the outer translation shells, which start above hi."""
    datum = root_datum("A", rank)
    wg = weyl_group(datum)
    missed = []
    for w_text in bases:
        w = wg.parse(w_text)
        for lam in lams:
            for window in windows:
                table = compute_pieri(datum, w, lam, window)
                height = rho_height(datum, w, table)
                full = compute_pieri(datum, w, lam, (0, height)).coeffs
                for u in table.support():
                    kept = [(x, a) for x, a in full if x != u]
                    try:
                        verify_table(datum, w, lam, kept, datum.rho, height)
                    except InconsistencyError:
                        continue
                    missed.append((w_text, lam, window, wg.format(u)))
    assert not missed


def _job_table(args):
    """(rank, w, lam, window, depth) of a `silc pieri` job."""
    opts = dict(zip(args[1::2], args[2::2]))
    return (int(opts["--rank"]), opts["--w"],
            tuple(int(x) for x in opts["--lam"].split(",")),
            tuple(int(x) for x in opts["--window"].split(":")),
            int(opts["--depth"]))


# the tables of the pieri-tables benchmark workload (its A1 bases are
# e@k for a seeded k in 1..3) and of the pieri golden jobs
CHECKED_TABLES = [
    *(pytest.param(2, "e@0,0", lam, (0, 1), 2, id=f"bench-A2-{lam}")
      for lam in [(1, 0), (1, 1)]),
    *(pytest.param(1, f"e@{k}", (m,), (0, 2), 3, id=f"bench-A1-e@{k}-({m})")
      for k in (1, 2, 3) for m in (1, 2, 3)),
    *(pytest.param(*_job_table(args), id=name)
      for name, args in JOBSPECS if args[0] == "pieri"),
]


@pytest.mark.parametrize("rank,w_text,lam,window,depth", CHECKED_TABLES)
def test_benchmark_and_golden_tables_satisfy_the_product_identity(
        rank, w_text, lam, window, depth):
    datum = root_datum("A", rank)
    w = weyl_group(datum).parse(w_text)
    assert verified_pieri(datum, w, lam, window, depth).support()


def test_rejections(a1, wg_a1):
    with pytest.raises(CharacterError):
        compute_pieri(a1, wg_a1.identity, (-1,), (0, 2), 2)


@pytest.mark.parametrize("rank,lam,window", [(1, (1,), (0, 4)), (2, (1, 1), (0, 2))],
                         ids=["A1-(1)-0:4", "A2-(1,1)-0:2"])
def test_every_depth_gives_the_same_table(rank, lam, window):
    """The table is complete on its window, so depth changes nothing."""
    datum = root_datum("A", rank)
    w = weyl_group(datum).identity
    table = verified_pieri(datum, w, lam, window)
    assert table.support()
    for depth in range(9):
        assert compute_pieri(datum, w, lam, window, depth) == table


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
    """Sections are the interval sum of the coefficients of the verified
    table.  For strictly dominant lambda the sections come from the loop
    model of loopref, so the two sides are computed independently; (1,0)
    sums the closed form on the interval itself."""
    datum = root_datum("A", rank)
    wg, so = weyl_group(datum), si_order(datum)
    e = wg.identity
    table = verified_pieri(datum, e, lam, window, depth)
    for v in list(table.support()) + [wg.parse(x) for x in extra]:
        expect = GradedCharacter.zero(window)
        for u, a in table.coeffs:
            if so.si_le(v, u):
                expect = expect + a
        if datum.is_strictly_dominant(lam):
            got = loopref.richardson_character(datum, v, e, lam, window)
        else:
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
    """The loop-model sections that verification reads are dual to the
    global Weyl module of the formula."""
    lam = (1,)
    sec = loopref.loop_sections(a1, wg_a1.identity, lam, 3)
    full = gch_global_weyl(a1, wg_a1.affine_from_finite(wg_a1.w0), lam, (0, 3))
    for k in range(3):
        assert q_layer(sec, k) == {vec_neg(wt): c
                                   for wt, c in q_layer(full, k).items()}


# ---------------------------------------------------------------------------
# the formula against the loop model
# ---------------------------------------------------------------------------

def _finite_words(rank):
    """A reduced word for every element of the finite Weyl group of A_rank."""
    return list(oracle.AffineWeyl(oracle.RootSystem("A", rank)).finite_words.values())


@pytest.mark.parametrize("rank,lams,windows", [
    (1, [(1,), (2,), (3,)], [(0, 4), (-2, 3), (2, 4)]),
    (2, [(1, 0), (0, 1), (1, 1), (2, 1)], [(0, 3), (-1, 2), (1, 3)]),
    (3, [(1, 0, 0), (0, 1, 0), (1, 0, 1)], [(0, 2), (-1, 1), (1, 2)]),
], ids=["A1", "A2", "A3"])
def test_global_weyl_formula_matches_loop_model(rank, lams, windows):
    """Every finite part at three translations, on windows that start at,
    below and above degree 0."""
    datum = root_datum("A", rank)
    wg = weyl_group(datum)
    hi = max(w[1] for w in windows)
    betas = [(0,) * rank, tuple(range(1, rank + 1)), (-1,) + (0,) * (rank - 1)]
    for lam in lams:
        for word in _finite_words(rank):
            for beta in betas:
                w = wg.element(word, beta)
                loop = loopref.global_weyl_character(datum, w, lam, (0, hi))
                for window in windows:
                    got = gch_global_weyl(datum, w, lam, window)
                    assert got == loop.truncate(window), (lam, wg.format(w), window)


@pytest.mark.parametrize("rank,pairs,top", [(1, 12, 2), (2, 12, 2), (3, 8, 1)],
                         ids=["A1", "A2", "A3"])
def test_richardson_formula_matches_loop_model(rank, pairs, top):
    """Random comparable pairs v <= w and strictly dominant twists with
    every coefficient at most top; A3 keeps to rho, as its larger twists
    take the loop model up to seconds."""
    datum = root_datum("A", rank)
    wg, so = weyl_group(datum), si_order(datum)
    rng = random.Random(1702 + rank)
    words = _finite_words(rank)
    done = 0
    while done < pairs:
        beta = tuple(rng.randint(-1, 1) for _ in range(rank))
        gamma = tuple(rng.randint(0, 1) for _ in range(rank))
        w = wg.element(rng.choice(words), beta)
        v = wg.element(rng.choice(words), tuple(b + g for b, g in zip(beta, gamma)))
        if not so.si_le(v, w):
            continue
        lam = tuple(rng.randint(1, top) for _ in range(rank))
        got = smt_character(datum, v, w, lam)
        assert got == loopref.richardson_character(datum, v, w, lam), (
            wg.format(v), wg.format(w), lam)
        done += 1


@pytest.mark.parametrize("v_text,lam,dim", [
    ("2@1,1,1", (1, 1, 1), 128),
    ("2@1,1,1", (2, 1, 1), 323),
    ("2@1,1,1", (1, 2, 1), 426),
    ("1,2,1,3,2,1@0,0,0", (1, 1, 1), 64),
])
def test_a3_richardson_sections_match_loop_model(a3, v_text, lam, dim):
    wg = weyl_group(a3)
    v, e = wg.parse(v_text), wg.identity
    got = smt_character(a3, v, e, lam)
    assert got == loopref.richardson_character(a3, v, e, lam)
    assert got.total() == dim


def test_a3_sections_beyond_the_loop_model(a3):
    """2 rho on [2@1,1,1, e]: out of the loop model's reach, a sum of
    twist coefficients like every other."""
    wg = weyl_group(a3)
    assert h0_dimension(a3, wg.parse("2@1,1,1"), wg.identity, (2, 2, 2)) == 2274
