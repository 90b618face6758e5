"""Exact loop-realization of level-zero modules in type A.

Every fundamental representation of sl_{n+1} is minuscule, so the level-zero
module attached to varpi_k is realized on Lambda^k(K^{n+1}) tensor Laurent
polynomials in z, with the loop algebra acting in the obvious way and the
q-grading given by the z-exponent.  Submodules generated by an extremal
vector under the upper (or lower) triangular current algebra are computed by
exact integer span closure inside a truncated tensor product; section spaces
of Richardson varieties are graded intersections of one submodule of each
kind.  A caller that intersects one upward submodule with many downward ones
passes richardson_blocks a memo of upward closures and drops it when done;
this module keeps no closures of its own.

Monomial basis: a slot is (subset, z_exp) with subset a sorted tuple encoding
a wedge basis vector.  The current algebra acts by derivations, so the module
of an extremal vector stays inside the symmetric tensors tensor_i
Sym^{m_i}(Lambda^i tensor K[z, 1/z]); a monomial is a sorted tuple of slots M
and stands for the sum of its distinct orderings (slots of different varpi_i
differ in subset size, so one global sort suffices).  An operator acts once on
each distinct slot s of M: if it sends s to sign * s', it adds
sign * mult_{M'}(s') to M' = sorted(M - s + s'), which keeps the arithmetic in
the integers and every dimension as in the full tensor product.  All vectors
are homogeneous in (total z-degree, total weight), so the linear algebra runs
in small independent blocks.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import gcd

from .rootdata import RootDataError, RootDatum, vec_add
from .weylgroup import FiniteWeylElement, weyl_group


def is_type_a(datum: RootDatum) -> bool:
    a = datum.cartan.entries
    r = datum.rank
    for i in range(r):
        for j in range(r):
            expect = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            if a[i][j] != expect:
                return False
    return True


def require_type_a(datum: RootDatum):
    if not is_type_a(datum):
        raise RootDataError(
            "graded character computations use the minuscule loop realization "
            "and are implemented for type A root data only"
        )


# ---------------------------------------------------------------------------
# wedge combinatorics
# ---------------------------------------------------------------------------

def subset_weight(subset, rank):
    """Fundamental-weight coordinates of a wedge basis vector."""
    s = set(subset)
    return tuple((1 if i in s else 0) - (1 if i + 1 in s else 0)
                 for i in range(1, rank + 1))


def matrix_unit(a, b, subset):
    """E_{ab} on a wedge subset: returns (sign, new_subset) or None."""
    if a == b:
        return (1, subset) if a in subset else None
    if b not in subset or a in subset:
        return None
    lo, hi = (a, b) if a < b else (b, a)
    crossings = sum(1 for s in subset if lo < s < hi)
    sign = -1 if crossings % 2 else 1
    new = tuple(sorted(set(subset) - {b} | {a}))
    return (sign, new)


def permutation_of(wg, u: FiniteWeylElement):
    """One-line permutation of {1..n+1} realizing u (type A)."""
    n1 = wg.datum.rank + 1
    perm = list(range(1, n1 + 1))
    # u = s_{i1} ... s_{ik}; apply rightmost first to the identity's values
    word = wg.reduced_word_finite(u)
    for i in reversed(word):
        # left-multiplying by s_i swaps the values i and i+1
        perm = [i + 1 if x == i else (i if x == i + 1 else x) for x in perm]
    return perm


# ---------------------------------------------------------------------------
# span closure
# ---------------------------------------------------------------------------

class BlockSpan:
    """Echelonized homogeneous subspace, blocked by (degree, weight)."""

    def __init__(self):
        self.blocks = {}  # (d, wt) -> dict pivot_monomial -> vector(dict)

    @staticmethod
    def _normalize(vec):
        g = 0
        for c in vec.values():
            g = gcd(g, abs(c))
        if g > 1:
            vec = {m: c // g for m, c in vec.items()}
        # fix the sign of the leading coefficient
        lead = max(vec)
        if vec[lead] < 0:
            vec = {m: -c for m, c in vec.items()}
        return vec

    def insert(self, key, vec):
        """Reduce vec against the block; insert if independent. Returns vec or None."""
        block = self.blocks.setdefault(key, {})
        vec = dict(vec)
        while vec:
            lead = max(vec)
            row = block.get(lead)
            if row is None:
                vec = self._normalize(vec)
                block[lead] = vec
                return vec
            a, b = row[lead], vec[lead]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = {m: fa * c for m, c in vec.items()}
            for m, c in row.items():
                nc = new.get(m, 0) - fb * c
                if nc:
                    new[m] = nc
                elif m in new:
                    del new[m]
            vec = new
        return None

    def dims(self):
        return {key: len(block) for key, block in self.blocks.items() if block}


def monomial_data(monomial, rank):
    d = 0
    wt = (0,) * rank
    for subset, z in monomial:
        d += z
        wt = vec_add(wt, subset_weight(subset, rank))
    return d, wt


def span_closure(rank, seed, ops, d_ok):
    """Close the span of a sorted seed monomial under the operators (each a
    derivation of the symmetric tensor algebra); returns a BlockSpan."""
    span = BlockSpan()
    work = deque()
    key = monomial_data(seed, rank)
    if d_ok(key[0]):
        work.append((key, span.insert(key, {seed: 1})))
    # per-operator caches: slot action table and the fixed (degree, weight)
    # shift, so block keys propagate without re-deriving them per monomial
    eps = [subset_weight((i,), rank) for i in range(1, rank + 2)]
    tables = []
    for op in ops:
        _, a, b, k = op
        shift = tuple(x - y for x, y in zip(eps[a - 1], eps[b - 1]))
        tables.append((a, b, k, shift, {}))
    while work:
        (d, wt), vec = work.popleft()
        for a, b, k, shift, table in tables:
            nd = d + k
            if not d_ok(nd):
                continue
            out = {}
            get_hit = table.get
            for monomial, coeff in vec.items():
                for i, slot in enumerate(monomial):
                    if i and slot == monomial[i - 1]:
                        continue  # act once on each distinct slot
                    subset, z = slot
                    hit = get_hit(subset, 0)
                    if hit == 0:
                        hit = table[subset] = matrix_unit(a, b, subset)
                    if hit is None:
                        continue
                    sign, new_subset = hit
                    new_slot = (new_subset, z + k)
                    new_mono = tuple(sorted(
                        monomial[:i] + (new_slot,) + monomial[i + 1:]))
                    nc = (out.get(new_mono, 0)
                          + sign * coeff * new_mono.count(new_slot))
                    if nc:
                        out[new_mono] = nc
                    elif new_mono in out:
                        del out[new_mono]
            if not out:
                continue
            nkey = (nd, vec_add(wt, shift))
            inserted = span.insert(nkey, out)
            if inserted is not None:
                work.append((nkey, inserted))
    return span


# ---------------------------------------------------------------------------
# current-algebra generator lists
# ---------------------------------------------------------------------------

def raising_ops(rank):
    """Generators of the Iwahori current algebra (degrees 0 and +1).

    A span that is closed under the simple raising operators E_{i,i+1} z^0
    and the affine generator E_{n+1,1} z^1 is closed under the whole algebra
    they generate (brackets act within any invariant subspace), so these
    suffice for exact span closures.
    """
    n1 = rank + 1
    return [("E", i, i + 1, 0) for i in range(1, n1)] + [("E", n1, 1, 1)]


def lowering_ops(rank):
    """Generators of the opposite Iwahori current algebra (degrees 0 and -1)."""
    n1 = rank + 1
    return [("E", i + 1, i, 0) for i in range(1, n1)] + [("E", 1, n1, -1)]


# ---------------------------------------------------------------------------
# extremal seeds and module characters
# ---------------------------------------------------------------------------

def extremal_monomial(wg, u: FiniteWeylElement, beta, lam):
    """Sorted monomial of the extremal vector of u * t_beta: for
    lambda = sum m_i varpi_i, m_i equal slots u(1..i) z^{-beta_i}."""
    perm = permutation_of(wg, u)
    return tuple(sorted((tuple(sorted(perm[:i])), -beta[i - 1])
                        for i, m in enumerate(lam, start=1) for _ in range(m)))


def schubert_blocks(datum: RootDatum, ufin: FiniteWeylElement, beta, lam, d_max):
    """Graded dimensions {(d, wt): dim} of the submodule generated upward from
    the extremal vector of ufin * t_beta, in absolute z-degrees < d_max.

    Unlike a pure q-shift of the finite part, the translation twists each
    weight space by its own degree, so the closure is run from the translated
    seed directly.  Degrees never drop below the seed degree -<beta, lam>.
    """
    require_type_a(datum)
    rank = datum.rank
    d_ext = -sum(b * l for b, l in zip(beta, lam))
    if sum(lam) == 0:
        return {(0, (0,) * rank): 1} if d_max > 0 else {}
    if d_ext >= d_max:
        return {}
    wg = weyl_group(datum)
    seed = extremal_monomial(wg, ufin, tuple(beta), lam)
    span = span_closure(rank, seed, raising_ops(rank),
                        lambda d: d_ext <= d < d_max)
    return span.dims()


def richardson_blocks(datum: RootDatum, v, w, lam, spans, reach):
    """Graded dimensions {(d, wt): dim} of the intersection of the upward
    module of w*w0 and the downward module of v*w0, in absolute z-degrees.

    The intersection is the full (finite-dimensional) space of the dual of
    the Richardson section module; no truncation is applied.

    spans is a dict that keeps upward closures for later calls with the
    same top; each is closed at least reach degrees above its seed.
    The raising operators never lower the degree, so a block of the upward
    module depends only on the degrees from the seed up to its own, and a
    wider closure gives every narrower request the same dimensions.
    """
    require_type_a(datum)
    rank = datum.rank
    if sum(lam) == 0:
        return {(0, (0,) * rank): 1}
    wg = weyl_group(datum)
    w0aff = wg.affine_from_finite(wg.w0)
    xw = wg.compose(w, w0aff)
    xv = wg.compose(v, w0aff)
    uw, bw = xw.finite, xw.translation
    uv, bv = xv.finite, xv.translation
    d_low = -sum(b * l for b, l in zip(bw, lam))
    d_high = -sum(b * l for b, l in zip(bv, lam))
    if d_low > d_high:
        return {}
    d_top = max(d_high, d_low + reach)
    key = (uw, bw, lam, d_top)
    span_up = spans.get(key)
    if span_up is None:
        span_up = spans[key] = span_closure(
            rank, extremal_monomial(wg, uw, bw, lam), raising_ops(rank),
            lambda d: d_low <= d <= d_top)
    span_down = span_closure(rank, extremal_monomial(wg, uv, bv, lam),
                             lowering_ops(rank), lambda d: d_low <= d <= d_high)

    out = {}
    keys = set(span_up.blocks) & set(span_down.blocks)
    for key in keys:
        block_a = span_up.blocks[key]
        block_b = span_down.blocks[key]
        dim_a, dim_b = len(block_a), len(block_b)
        if dim_a == 0 or dim_b == 0:
            continue
        # dim(A ∩ B) = dim A + dim B - dim(A + B)
        stack = BlockSpan()
        stack.blocks[key] = {m: dict(vec) for m, vec in block_a.items()}
        added = 0
        for vec in block_b.values():
            if stack.insert(key, vec) is not None:
                added += 1
        dim = dim_b - added
        if dim > 0:
            out[key] = dim
    return out
