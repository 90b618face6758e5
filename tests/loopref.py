"""The loop-model sections that the tests compare the formula with.

silc computes every section character from the twist-coefficient formula
and runs the loop model only inside the product-identity check of
compute_pieri.  This module keeps the loop model's own description of
sections for the tests:

- the Richardson sections of a strictly dominant (or zero) twist on v <= w
  are the graded dual of the intersection of the upward module of w w0
  with the downward module of v w0;
- the global Weyl module of w is the upward module of w.

Both are anchored and weighted as silc.pieri anchors and weights them.
"""

from silc import pieri
from silc.charring import FULL_WINDOW, GradedCharacter
from silc.loopmodel import BlockSpan, extremal_monomial, raising_ops, \
    schubert_blocks, span_closure
from silc.rootdata import require_type_a, vec_dot, vec_neg
from silc.weylgroup import weyl_group


def lowering_ops(rank):
    """Generators of the opposite Iwahori current algebra (degrees 0 and -1)."""
    n1 = rank + 1
    return [(i + 1, i, 0) for i in range(1, n1)] + [(1, n1, -1)]


def richardson_blocks(datum, xv, xw, lam):
    """Graded dimensions {(d, wt): dim} of the intersection of the upward
    module of xw and the downward module of xv, in absolute z-degrees,
    computed in full."""
    require_type_a(datum)
    rank = datum.rank
    wg = weyl_group(datum)
    d_low = -vec_dot(xw.translation, lam)
    d_high = -vec_dot(xv.translation, lam)
    if d_low > d_high:
        return {}
    up = span_closure(rank, extremal_monomial(wg, xw, lam), raising_ops(rank),
                      lambda d: d <= d_high)
    down = span_closure(rank, extremal_monomial(wg, xv, lam), lowering_ops(rank),
                        lambda d: d_low <= d <= d_high)
    # the two closures intern their monomials apart: re-intern the downward
    # rows into the upward table, so the blocks compare
    intern, monos = up.table.intern, down.table.monos
    out = {}
    for key, block_b in down.blocks.items():
        block_a = up.blocks.get(key)
        if not block_a or not block_b:
            continue
        # dim(A ∩ B) = dim A + dim B - dim(A + B)
        stack = BlockSpan()
        stack.blocks[key] = dict(block_a)
        added = sum(
            stack.insert(key, {intern(monos[m]): c for m, c in vec.items()})
            is not None
            for vec in block_b.values())
        if len(block_b) > added:
            out[key] = len(block_b) - added
    return out


def richardson_character(datum, v, w, lam, window=FULL_WINDOW):
    """smt_character(datum, v, w, lam, window) for v <= w and a strictly
    dominant (or zero) lam, from the loop model."""
    xv, _ = pieri._extremal(datum, v, lam)[:2]
    xw, d_w = pieri._extremal(datum, w, lam)[:2]
    blocks = richardson_blocks(datum, xv, xw, lam)
    return GradedCharacter.make(
        {(d - d_w, vec_neg(wt)): dim for (d, wt), dim in blocks.items()}, window)


def global_weyl_character(datum, w, lam, window):
    """gch_global_weyl(datum, w, lam, window) from the loop model: the
    extremal vector of w sits at degree 0."""
    d_ext = -vec_dot(w.translation, lam)
    blocks = schubert_blocks(datum, w, lam, window[1] + d_ext)
    return GradedCharacter.make(
        {(d - d_ext, wt): dim for (d, wt), dim in blocks.items()}, window)
