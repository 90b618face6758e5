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
    seen = {span.table.monos[m] for row in rows for m in row}
    assert all(list(m) == sorted(m) for m in seen)
    assert (len(seen), len(rows)) == (monomials, pivots)


def test_shared_upward_closure_is_order_independent(a2):
    """Downward closures intern into the memoized upward closure's table
    and give their monomials back: whatever ran before, each intersection
    equals the one from a fresh memo, and the table keeps its size."""
    wg = weyl_group(a2)
    w, lam = wg.parse("e@0,0"), (2, 1)
    bottoms = [wg.parse(x) for x in
               ("1,2,1@1,1", "1,2@1,0", "2,1@0,1", "1@1,1", "2@0,0", "e@1,1")]
    fresh = {v: loopmodel.richardson_blocks(a2, v, w, lam, {}, 6) for v in bottoms}
    assert all(fresh.values())
    for order in (bottoms, bottoms[::-1]):
        spans, sizes = {}, set()
        for v in order:
            assert loopmodel.richardson_blocks(a2, v, w, lam, spans, 6) == fresh[v]
            (span_up,) = spans.values()
            sizes.add((len(span_up.table.monos), len(span_up.table.ids)))
        assert len(sizes) == 1
