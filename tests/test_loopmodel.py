"""The loop model stores symmetric tensors: one sorted monomial per multiset."""

import pytest

from silc import loopmodel
from silc.weylgroup import weyl_group


@pytest.mark.parametrize("lam,monomials,pivots", [
    ((2, 1), 297, 267), ((2, 2), 891, 715), ((3, 0), 119, 119),
])
def test_upward_closure_of_w0_is_symmetric(a2, lam, monomials, pivots):
    """Upward closure of the extremal vector of w0 in degrees [0, 4).

    Storing every ordering of the slots gives 540, 2835 and 540 distinct
    monomials for the same pivots."""
    wg = weyl_group(a2)
    seed = loopmodel.extremal_monomial(wg, wg.w0, (0, 0), lam)
    span = loopmodel.span_closure(2, seed, loopmodel.raising_ops(2),
                                  lambda d: 0 <= d < 4)
    rows = [row for block in span.blocks.values() for row in block.values()]
    seen = {m for row in rows for m in row}
    assert all(list(m) == sorted(m) for m in seen)
    assert (len(seen), len(rows)) == (monomials, pivots)
