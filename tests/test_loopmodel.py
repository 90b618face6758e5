"""The loop model gives the upward module of an extremal element
x = u * t_beta in absolute degrees, and stores symmetric tensors: one sorted
monomial per multiset.  loopref adds the downward module and the
intersection that the Richardson sections of the tests come from."""

import loopmodel
import loopref
import pytest

from silc.rootdata import RootDataError, root_datum, vec_sub
from silc.semiinf import si_order
from silc.weylgroup import weyl_group


@pytest.mark.parametrize("lam,monomials,pivots", [
    ((2, 1), 297, 267), ((2, 2), 891, 715), ((3, 0), 119, 119),
])
def test_upward_closure_of_w0_is_symmetric(a2, lam, monomials, pivots):
    """Upward closure of the extremal vector of w0 in degrees [0, 4).

    Storing every ordering of the slots gives 540, 2835 and 540 distinct
    monomials for the same pivots."""
    wg = weyl_group(a2)
    seed = loopmodel.extremal_monomial(wg, wg.affine_from_finite(wg.w0), lam)
    span = loopmodel.span_closure(2, seed, loopmodel.raising_ops(2),
                                  lambda d: 0 <= d < 4)
    rows = [row for block in span.blocks.values() for row in block.values()]
    seen = {span.table.monos[m] for row in rows for m in row}
    assert all(list(m) == sorted(m) for m in seen)
    assert (len(seen), len(rows)) == (monomials, pivots)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_operators_move_the_block_order_one_way(rank):
    """span_closure takes blocks in (sigma d, sigma h) order, with h the
    height of the weight, and reads the move of E_{ab} z^k as (k, b - a).
    Each raising operator moves a wedge vector strictly up that order and
    each lowering operator strictly down, so every block is complete before
    it acts; a closure under both at once is refused."""
    datum = root_datum("A", rank)
    for sigma, ops in ((1, loopmodel.raising_ops(rank)),
                       (-1, loopref.lowering_ops(rank))):
        for a, b, k in ops:
            _, image = loopmodel.matrix_unit(a, b, (b,))
            shift = vec_sub(loopmodel.subset_weight(image, rank),
                            loopmodel.subset_weight((b,), rank))
            # E_ab moves the weight by eps_a - eps_b, the root
            # +-(alpha_lo + ... + alpha_{hi-1}), positive when a < b
            lo, hi = min(a, b), max(a, b)
            sign = 1 if a < b else -1
            coords = tuple(sign * (lo <= i < hi) for i in range(1, rank + 1))
            assert datum.root_to_weight(coords) == shift
            height = sum(coords)
            assert (sigma * k, sigma * height) > (0, 0), (a, b, k)
    mixed = loopmodel.raising_ops(rank) + loopref.lowering_ops(rank)
    with pytest.raises(ValueError):
        loopmodel.span_closure(rank, (((1,), 0),), mixed, lambda d: 0 <= d < 2)


@pytest.mark.parametrize("text,seed_degree", [
    ("e@0,0", 0), ("1,2@1,0", -2), ("2@-1,1", 2)])
def test_schubert_blocks_weight_zero_and_empty_window(a2, text, seed_degree):
    """With lam = 0 the seed is the empty monomial, one vector at degree 0;
    with d_max at or below the seed degree the span is empty."""
    wg = weyl_group(a2)
    x = wg.parse(text)
    assert loopmodel.schubert_blocks(a2, x, (0, 0), 1) == {(0, (0, 0)): 1}
    assert loopmodel.schubert_blocks(a2, x, (0, 0), 0) == {}
    lam = (2, 0)
    assert loopmodel.schubert_blocks(a2, x, lam, seed_degree) == {}
    assert loopmodel.schubert_blocks(a2, x, lam, seed_degree + 1) != {}


def test_richardson_blocks_weight_zero(a2):
    """The extremal elements of a comparable pair v <= w."""
    wg = weyl_group(a2)
    v, w = wg.parse("1,2@1,1"), wg.parse("e@0,0")
    assert si_order(a2).si_le(v, w)
    w0 = wg.affine_from_finite(wg.w0)
    xv, xw = wg.compose(v, w0), wg.compose(w, w0)
    assert loopref.richardson_blocks(a2, xv, xw, (0, 0)) == {(0, (0, 0)): 1}


def test_entry_points_require_type_a(b2):
    wg = weyl_group(b2)
    x = wg.identity
    with pytest.raises(RootDataError):
        loopmodel.schubert_blocks(b2, x, (1, 0), 2)
    with pytest.raises(RootDataError):
        loopref.richardson_blocks(b2, x, x, (1, 0))
