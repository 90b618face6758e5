"""The loop-model sections that the tests compare the formula with.

silc computes every section character from the twist-coefficient formula
and runs no second model.  This module keeps the loop model's own
description of sections for the tests:

- the sections of the lambda-twist on the full orbit closure of u are the
  graded dual of the upward module of u w0 (loop_sections);
- the Richardson sections of a strictly dominant (or zero) twist on v <= w
  are the graded dual of the intersection of the upward module of w w0
  with the downward module of v w0;
- the global Weyl module of w is the upward module of w.

All are anchored and weighted as silc.pieri anchors and weights them.
verify_table checks a twist table against the product identity with the
sections on both sides from the loop model, and verified_pieri is
compute_pieri followed by that check for rho, on a window high enough to
see every entry of the table (rho_height), and for 2 rho.
"""

from silc.charring import FULL_WINDOW, GradedCharacter
from silc.errors import CharacterError, InconsistencyError
from silc.pieri import _extremal, compute_pieri
from silc.rootdata import RootDatum, require_type_a, vec_add, vec_dot, vec_neg
from silc.weylgroup import weyl_group

from loopmodel import BlockSpan, extremal_monomial, raising_ops, \
    schubert_blocks, span_closure


def strictly_dominant(lam):
    return all(c > 0 for c in lam)


def shift_q(f: GradedCharacter, n: int) -> GradedCharacter:
    """f times q^n, its window moved with it."""
    return GradedCharacter.make({(q + n, wt): c for (q, wt), c in f.terms},
                                (f.window[0] + n, f.window[1] + n))


def loop_sections(datum, u, lam, qbar_max):
    """Sections of the lambda-twist on the full orbit closure of u below
    qbar_max, in absolute degrees, from the loop model: the upward module of
    u w0 with its weights negated.  It must not go through the formula,
    which verify_table checks against it."""
    x = _extremal(datum, u, lam)[0]
    blocks = schubert_blocks(datum, x, lam, qbar_max)
    return GradedCharacter.make(
        {(d, vec_neg(wt)): dim for (d, wt), dim in blocks.items()}, FULL_WINDOW)


def verify_table(datum: RootDatum, w, lam, coeffs, mu, q_height: int):
    """Check the product identity for the twist by mu on qbar-degrees
    [0, q_height), given every nonzero coefficient a^u_w(lam) there, with
    the sections on both sides from the loop model.

    Coefficient terms at qbar >= q_height cannot reach the check window,
    because the sections of every u below w start no lower than those of w.
    """
    if not strictly_dominant(mu):
        raise CharacterError(f"verification weight {mu} must be strictly dominant")
    lam_mu = vec_add(lam, mu)
    d_w_lam = _extremal(datum, w, lam)[1]
    abs_lo = _extremal(datum, w, lam_mu)[1]
    abs_hi = abs_lo + q_height
    check_window = (abs_lo, abs_hi)

    lhs = loop_sections(datum, w, lam_mu, abs_hi).truncate(check_window)
    rhs = GradedCharacter.zero(check_window)
    # the anchor shift can be negative, in which case products that land in
    # the check window draw on section degrees above abs_hi
    sec_hi = abs_hi - min(d_w_lam, 0)
    for u, a in coeffs:
        a_abs = shift_q(a.truncate(FULL_WINDOW), d_w_lam)
        sec_u = loop_sections(datum, u, mu, sec_hi)
        rhs = rhs + (a_abs * sec_u).truncate(check_window)
    diff = lhs - rhs
    if not diff.is_zero():
        raise InconsistencyError(
            f"twist identity failed for verification weight {mu}: "
            f"residual {diff.terms[:5]}..."
        )


def rho_height(datum, w, table):
    """The height H of the check window [0, H) on which the product identity
    for rho sees every entry of table: at least its hi, and above
    q + d_u(rho) - d_w(rho) for each entry a^u whose lowest qbar-degree is
    q, as the sections of u for rho start d_u(rho) - d_w(rho) above those
    of w."""
    d_w = _extremal(datum, w, datum.rho)[1]
    return max([table.window[1]] + [
        1 + a.terms[0][0][0] + _extremal(datum, u, datum.rho)[1] - d_w
        for u, a in table.coeffs])


def verified_pieri(datum, w, lam, window, depth=None):
    """compute_pieri(datum, w, lam, window), checked against the product
    identity for rho on [0, rho_height), where it sees every entry, and for
    2 rho on [0, hi), before it is returned.  The check windows start at
    degree 0, so the tables they check are built from 0."""
    table = compute_pieri(datum, w, lam, window, depth)
    q_hi = window[1]
    if sum(lam) and q_hi > 0:
        height = rho_height(datum, w, table)
        for mu, h in ((datum.rho, height), (vec_add(datum.rho, datum.rho), q_hi)):
            full = compute_pieri(datum, w, lam, (0, h))
            verify_table(datum, w, tuple(lam), full.coeffs, mu, h)
    return table


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
    """smt_character(datum, v, w, lam).truncate(window) for v <= w and a
    strictly dominant (or zero) lam, from the loop model."""
    xv, _ = _extremal(datum, v, lam)[:2]
    xw, d_w = _extremal(datum, w, lam)[:2]
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
