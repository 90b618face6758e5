"""Desk-scale acceptance suite.

Every computation the package exposes is checked here against an
independent construction: closed-form section counts, a symmetric-algebra
enumeration, global-module exhaustion, a brute-force subword order oracle,
the Weyl dimension product formula, degree conservation on random
quasi-map data, and byte-level CLI determinism against golden files.
"""

import itertools
import math
import os
import random
import time

import pytest
from click.testing import CliRunner

import oracle
from jobspecs import JOBSPECS
from loopref import verified_pieri
from qlayer import q_layer
from qm_random import random_dp
from subword import Subword

from silc.charring import GradedCharacter, demazure_word, weyl_character
from silc.cli import main
from silc.pieri import gch_global_weyl, h0_dimension, smt_character
from silc.quasimap import (
    DPData,
    InvalidDPError,
    defect_divisor,
    dim_parabolic,
    dim_richardson,
    saturate,
    validate_dp,
)
from silc.rootdata import root_datum, vec_neg
from silc.semiinf import si_order


# ---------------------------------------------------------------------------
# 1. closed-form section counts on SL2 quasi-map spaces
# ---------------------------------------------------------------------------

def test_projective_space_section_counts(a1, wg_a1):
    """dim H0 of the m-twist on the degree-d SL2 space is C(2d+1+m, m)."""
    start = time.monotonic()
    for d in (1, 2, 3):
        v = wg_a1.element([1], (d,))
        for m in (1, 2, 3):
            got = h0_dimension(a1, v, wg_a1.identity, (m,))
            assert got == math.comb(2 * d + 1 + m, m), (d, m, got)
    assert time.monotonic() - start < 60


@pytest.mark.parametrize("d,m", [(4, 3), (3, 4), (6, 4), (7, 3)])
def test_section_counts_with_many_equal_slots(a1, wg_a1, d, m):
    """The same closed form where the twist puts m equal slots in the seed."""
    v = wg_a1.element([1], (d,))
    assert (h0_dimension(a1, v, wg_a1.identity, (m,))
            == oracle.h0_closed_form(d, m))


# ---------------------------------------------------------------------------
# 2. graded refinement: symmetric algebra on weighted coordinates
# ---------------------------------------------------------------------------

def test_graded_sections_match_symmetric_algebra(a1, wg_a1):
    """Sections of the m-twist = Sym^m on {e^{+/-w} qbar^j : 0 <= j <= d}."""
    for d in (0, 1, 2):
        v = wg_a1.element([1], (d,))
        variables = [(s, j) for j in range(d + 1) for s in (1, -1)]
        for m in (0, 1, 2):
            expect = {}
            for combo in itertools.combinations_with_replacement(variables, m):
                q = sum(j for _, j in combo)
                wt = (sum(s for s, _ in combo),)
                expect[(q, wt)] = expect.get((q, wt), 0) + 1
            got = smt_character(a1, v, wg_a1.identity, (m,))
            assert dict(got.terms) == expect, (d, m)


# ---------------------------------------------------------------------------
# 3. twist-table normalization, support, and probe-weight independence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,rank,lams", [
    ("A", 1, [(1,)]),
    ("A", 2, [(1, 0), (0, 1), (1, 1)]),
])
def test_twist_table_normalization_and_support(kind, rank, lams):
    """a^w_w = e^{-w w0 lam} at qbar^0 and the support stays below w.

    Every table is additionally verified against the product identity for
    the two strictly dominant weights rho and 2 rho, with sections from the
    loop model of the tests.
    """
    datum = root_datum(kind, rank)
    so = si_order(datum)
    wg = so.wg
    w0_aff = wg.affine_from_finite(wg.w0)
    for w in so.box(wg.identity, 2):
        for lam in lams:
            table = verified_pieri(datum, w, lam, (0, 1), 2)
            base = vec_neg(wg.compose(w, w0_aff).finite.act_weight(lam))
            assert dict(table.coefficient(w).terms) == {(0, base): 1}
            for u in table.support():
                assert so.si_le(u, w), (wg.format(u), wg.format(w), lam)


# ---------------------------------------------------------------------------
# 4. restriction tower: monotonicity and global-module exhaustion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("wword", [[], [1]])
@pytest.mark.parametrize("lam", [(1,), (2,)])
def test_section_restriction_tower(a1, wg_a1, so_a1, wword, lam):
    """Sections grow monotonically as the bottom descends and fill the
    graded dual of the global module once the bottom is deep enough."""
    w = wg_a1.affine_from_finite(wg_a1.finite_from_word(wword))
    deepest = wg_a1.element([1], (3,))
    interval = so_a1.si_interval(deepest, w, 3)
    assert interval and interval[-1] == deepest
    window = (0, 3)
    chars = {v.key(): smt_character(a1, v, w, lam, window) for v in interval}
    for v1 in interval:
        for v2 in interval:
            if v1 != v2 and so_a1.si_le(v1, v2):
                diff = chars[v1.key()] - chars[v2.key()]
                assert diff.nonnegative()
    ww0 = wg_a1.affine_from_finite(wg_a1.finite_from_word(wword) * wg_a1.w0)
    full = gch_global_weyl(a1, ww0, lam, window)
    got = chars[deepest.key()]
    for k in range(*window):
        # the sections in degree k are the dual of the module's q^k layer
        assert q_layer(got, k) == {vec_neg(wt): c
                                   for wt, c in q_layer(full, k).items()}, k


# ---------------------------------------------------------------------------
# 5. order engine vs brute-force subword oracle
# ---------------------------------------------------------------------------

# (box radius, seeded sample size or None for every pair)
_ORACLE_BOXES = {("A", 1): (3, None), ("A", 2): (3, None),
                 ("B", 2): (1, 300), ("G", 2): (1, 300)}


@pytest.mark.parametrize("kind,rank", list(_ORACLE_BOXES))
def test_order_matches_subword_oracle(kind, rank):
    """si_le on the pairs of a box equals the deep-translation subword
    oracle; every strict relation strictly increases si-length and factors
    through a cover directly below the upper element."""
    so = si_order(root_datum(kind, rank))
    wg = so.wg
    sub = Subword(kind, rank)
    radius, sample = _ORACLE_BOXES[(kind, rank)]
    box = so.box(wg.identity, radius)
    pairs = [(x, y) for y in box for x in box]
    if sample is not None:
        pairs = random.Random(2018).sample(pairs, sample)
    covers = {}
    for x, y in pairs:
        got = so.si_le(x, y)
        assert got == sub.si_le(x, y), (wg.format(x), wg.format(y))
        if not got or x == y:
            continue
        assert so.si_length(x) > so.si_length(y)
        if y not in covers:
            covers[y] = [c for _, c in so.si_covers_below(y, 4)]
        assert any(so.si_le(x, c) for c in covers[y]), (
            wg.format(x), wg.format(y)
        )


# ---------------------------------------------------------------------------
# 6. character engine
# ---------------------------------------------------------------------------

def test_braid_invariance_short_words():
    """demazure_word depends only on the element for lengths <= 5."""
    for kind, rank in [("A", 1), ("A", 2)]:
        datum = root_datum(kind, rank)
        sub = Subword(kind, rank)
        f = GradedCharacter.zero((-40, 40))
        for j, wt in enumerate(itertools.product((-1, 0, 1),
                                                 repeat=datum.rank)):
            f = f + GradedCharacter.monomial(j % 3 - 1, wt, 1 + (j % 2),
                                             (-40, 40))
        by_element = {}
        for length in range(6):
            for word in itertools.product(range(rank + 1), repeat=length):
                x = sub.from_word(word)
                if sub.length(x) != length:
                    continue
                got = demazure_word(datum, list(word), f)
                assert by_element.setdefault(x, got) == got, word


def test_demazure_idempotent_random():
    """D_i^2 = D_i on 100 random characters in a wide (unclipped) window."""
    rng = random.Random(11)
    for kind, rank in [("A", 1), ("A", 2)]:
        datum = root_datum(kind, rank)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                q = rng.randint(-4, 4)
                wt = tuple(rng.randint(-3, 3) for _ in range(rank))
                terms[(q, wt)] = rng.randint(1, 3)
            f = GradedCharacter.make(terms, (-30, 30))
            i = rng.randint(0, rank)
            once = demazure_word(datum, (i,), f)
            assert demazure_word(datum, (i,), once) == once


def test_weyl_dimensions_match_product_formula():
    rng = random.Random(23)
    for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        datum = root_datum(kind, rank)
        rs = oracle.RootSystem(kind, rank)
        for _ in range(10):
            lam = tuple(rng.randint(0, 3) for _ in range(rank))
            assert weyl_character(datum, lam).total() == rs.weyl_dimension(lam)


def test_global_module_matches_polynomial_loop_construction(a1, wg_a1):
    """W(w) for SL2 is V(w) tensor K[z]: one e^{+/-w} in every q-layer."""
    got = gch_global_weyl(a1, wg_a1.affine_from_finite(wg_a1.w0), (1,), (0, 4))
    expect = {(k, (s,)): 1 for k in range(4) for s in (1, -1)}
    assert dict(got.terms) == expect


# ---------------------------------------------------------------------------
# 7. quasi-map suite
# ---------------------------------------------------------------------------

def test_degree_conservation_200_random():
    """Saturated degree plus total defect equals the target degree."""
    rng = random.Random(424242)
    for _ in range(200):
        rank = rng.choice((1, 2))
        data = random_dp(rng, rank)
        validate_dp(data)
        total = defect_divisor(data).total()
        sat = saturate(data)
        for i in range(rank):
            assert sat.component_degree(i) + total[i] == data.degrees[i]


def test_perturbed_data_rejected_50_random():
    """Bumping one coefficient breaks the contraction identity."""
    rng = random.Random(777)
    rejected = 0
    while rejected < 50:
        data = random_dp(rng, 2)
        vec = [list(map(int, p)) for p in data.components[1]]
        j = rng.randrange(3)
        poly = vec[j] or [0]
        poly[rng.randrange(len(poly))] += rng.choice((1, -1, 2))
        vec[j] = poly
        perturbed = DPData.make(
            2, (data.components[0], tuple(tuple(p) for p in vec)),
            data.degrees,
        )
        try:
            validate_dp(perturbed)
        except InvalidDPError:
            rejected += 1
        # the bump can cancel (e.g. against a zero first component); retry
    assert rejected == 50


def test_dimension_formulas_agree():
    """The si-length difference, the translation-plus-orbit count, and the
    parabolic formula give the same dimension on all comparable pairs."""
    for kind, rank in [("A", 1), ("A", 2)]:
        datum = root_datum(kind, rank)
        so = si_order(datum)
        wg = so.wg
        w0_word = wg.reduced_word_finite(wg.w0)
        l_w0 = wg.length_finite(wg.w0)
        for beta in itertools.product(range(4), repeat=rank):
            v = wg.element(w0_word, beta)
            for u_word in ([], [1], w0_word):
                u = wg.finite_from_word(u_word)
                for bp in itertools.product(range(2), repeat=rank):
                    w = wg.element(u_word, bp)
                    if not so.si_le(v, w):
                        continue
                    diff = tuple(a - b for a, b in zip(beta, bp))
                    expected = 2 * sum(diff) + l_w0 - wg.length_finite(u)
                    assert dim_richardson(datum, v, w) == expected
            # boundary stratum attached to u drops by l(u)
            top = dim_richardson(datum, v, wg.identity)
            for u_word in ([], [1], w0_word):
                u = wg.finite_from_word(u_word)
                w = wg.affine_from_finite(u)
                if so.si_le(v, w):
                    assert dim_richardson(datum, v, w) == top - \
                        wg.length_finite(u)
            # full-flag parabolic formula
            assert dim_parabolic(
                datum, (), beta, wg.finite_from_word([])
            ) == dim_richardson(datum, v, wg.identity)


# ---------------------------------------------------------------------------
# 8. CLI determinism against golden files
# ---------------------------------------------------------------------------

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name,argv", JOBSPECS, ids=[n for n, _ in JOBSPECS])
def test_cli_golden_byte_equality(tmp_path, monkeypatch, name, argv):
    """Cold run, warm (cached) run, and --no-cache run are byte-identical
    to the committed golden output."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "rb") as fh:
        golden = fh.read()
    monkeypatch.setenv("SILC_CACHE", str(tmp_path / "cache"))
    runner = CliRunner()
    for extra in ([], [], ["--no-cache"]):
        res = runner.invoke(main, argv + extra, catch_exceptions=False)
        assert res.exit_code == 0, res.output
        assert res.stdout.encode("utf-8") == golden, (name, extra)
