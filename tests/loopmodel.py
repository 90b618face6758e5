"""Exact loop-realization of level-zero modules in type A.

Every fundamental representation of sl_{n+1} is minuscule, so the level-zero
module attached to varpi_k is realized on Lambda^k(K^{n+1}) tensor Laurent
polynomials in z, with the loop algebra acting in the obvious way and the
q-grading given by the z-exponent.  Submodules generated by an extremal
vector under the upper (or lower) triangular current algebra are computed by
exact integer span closure inside a truncated tensor product.

The module answers one question about extremal affine elements
x = u * t_beta, whose extremal vector sits at z-degree -<beta, lambda>, in
absolute degrees: schubert_blocks(datum, x, lam, d_max) gives the graded
dimensions of the upward module of x below d_max.  silc computes every
section character from the twist-coefficient formula; this module is the
independent model the tests check it against, through the product identity
of loopref.verify_table and the section characters of loopref.  Which
element stands for which section space, and how sections are anchored and
weighted, is left to the caller.  The module keeps no closures between
calls.

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

A closure takes its blocks in an order that every operator strictly raises,
so no block acts before it has received all its vectors.  Then each block is
echelonized once, shortest vectors first, and a block spanned by the
monomials it touches (almost every block of a Demazure-type module) is
stored as unit rows and acts monomial by monomial.

Vectors are keyed by int ids, not by monomials: each closure's Monomials
table interns each sorted monomial once, and operators read the slots back
through it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from math import gcd

from silc.rootdata import RootDatum, require_type_a, vec_add
from silc.weylgroup import AffineWeylElement, FiniteWeylElement, weyl_group


# ---------------------------------------------------------------------------
# wedge combinatorics
# ---------------------------------------------------------------------------

def subset_weight(subset, rank):
    """Fundamental-weight coordinates of a wedge basis vector."""
    s = set(subset)
    return tuple((1 if i in s else 0) - (1 if i + 1 in s else 0)
                 for i in range(1, rank + 1))


def matrix_unit(a, b, subset):
    """E_{ab}, a != b, on a wedge subset: returns (sign, new_subset) or None."""
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

class Monomials:
    """Interning table of sorted monomials: ids maps each monomial to an int
    id, given in order of first appearance, and monos maps an id back."""

    def __init__(self):
        self.ids = {}
        self.monos = []

    def intern(self, monomial):
        mid = self.ids.get(monomial)
        if mid is None:
            mid = self.ids[monomial] = len(self.monos)
            self.monos.append(monomial)
        return mid


class BlockSpan:
    """Echelonized homogeneous subspace, blocked by (degree, weight).

    A vector is a dict from monomial ids to nonzero integer coefficients,
    ids of the Monomials table the span holds.  A pivot is the largest id
    of its row, so the pivots depend on the order in which the table met
    the monomials, and the dimensions do not.  span_closure stores a block
    whose rank equals the number of monomials its rows touch as unit rows
    {m: {m: 1}}, which are echelon rows too.
    """

    def __init__(self):
        self.table = Monomials()
        self.blocks = {}  # (d, wt) -> dict pivot id -> vector

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
        """Reduce vec against the block; insert if independent. Returns the
        inserted row or None.  vec itself is never changed."""
        block = self.blocks.setdefault(key, {})
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
            get = new.get
            for m, c in row.items():
                nc = get(m, 0) - fb * c
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
    """Close the span of a sorted seed monomial under the operators, each a
    triple (a, b, k) for E_{ab} z^k acting as a derivation of the symmetric
    tensor algebra; returns a BlockSpan whose table holds every monomial the
    closure meets.

    Every operator must move the order key (sigma d, sigma h) of a block
    strictly up, with one sign sigma for all of them: +1 for raising_ops and
    -1 for lowering operators.  Here d is the degree and h the height of the
    weight; E_{ab} z^k moves them by (k, b - a), since eps_a - eps_b has
    height b - a in type A.  Blocks are then taken from a heap in this
    order, so every block has received all its vectors before it acts.
    """
    span = BlockSpan()
    blocks = span.blocks
    insert = span.insert
    monos = span.table.monos
    intern = span.table.intern
    key = monomial_data(seed, rank)
    if not d_ok(key[0]):
        return span
    # per-operator caches: the fixed shift of the block key (degree, weight)
    # and of the order key, the matrix unit on each wedge subset, and the
    # action on each monomial id of a block that is not full, as a dict
    # {id: coefficient}
    eps = [subset_weight((i,), rank) for i in range(1, rank + 2)]
    sigma = 1 if ops and (ops[0][2], ops[0][1] - ops[0][0]) > (0, 0) else -1
    caches = []
    for a, b, k in ops:
        move = (sigma * k, sigma * (b - a))
        if move <= (0, 0):
            raise ValueError("the operators do not all raise or all lower the "
                             "(degree, height) order")
        shift = tuple(x - y for x, y in zip(eps[a - 1], eps[b - 1]))
        caches.append((a, b, k, shift, move[0], move[1], {}, {}))

    def act(mid, a, b, k, units):
        monomial = monos[mid]
        terms = {}
        for i, slot in enumerate(monomial):
            if i and slot == monomial[i - 1]:
                continue  # act once on each distinct slot
            subset, z = slot
            hit = units.get(subset, 0)
            if hit == 0:
                hit = units[subset] = matrix_unit(a, b, subset)
            if hit is None:
                continue
            sign, new_subset = hit
            new_slot = (new_subset, z + k)
            # the rest stays sorted: insert new_slot after the smaller slots
            # and before the slots equal to it, which it is counted with
            rest = monomial[:i] + monomial[i + 1:]
            j = bisect_left(rest, new_slot)
            mult = bisect_right(rest, new_slot, j) - j + 1
            # slots s != s' give one monomial only if the operator swaps
            # them, which no E_{ab} z^k does, so each id comes up once
            terms[intern(rest[:j] + (new_slot,) + rest[j:])] = sign * mult
        return terms

    pending = {key: [{intern(seed): 1}]}
    heap = [(0, 0, key)]
    while heap:
        od, oh, key = heappop(heap)
        vecs = pending.pop(key)
        support = set().union(*vecs)
        n = len(support)
        full = n == 1
        if not full:
            # shortest first keeps the rows sparse; the rank cannot pass n,
            # and once it reaches n the other vectors lie in the span
            vecs.sort(key=len)
            for vec in vecs:
                if insert(key, vec) is not None and len(blocks[key]) == n:
                    full = True
                    break
        if full:
            # the block is spanned by its monomials: act on them one by one
            blocks[key] = {m: {m: 1} for m in support}
        block = blocks[key]
        d, wt = key
        for a, b, k, shift, md, mh, units, acted in caches:
            nd = d + k
            if not d_ok(nd):
                continue
            images = []
            if full:
                # each monomial of a full block is acted on once per operator
                for mid in block:
                    terms = act(mid, a, b, k, units)
                    if terms:
                        images.append(terms)
            else:
                for row in block.values():
                    out = {}
                    get = out.get
                    for mid, coeff in row.items():
                        terms = acted.get(mid)
                        if terms is None:
                            terms = acted[mid] = act(mid, a, b, k, units)
                        for nid, c in terms.items():
                            out[nid] = get(nid, 0) + c * coeff
                    out = {m: c for m, c in out.items() if c}
                    if out:
                        images.append(out)
            if not images:
                continue
            nkey = (nd, vec_add(wt, shift))
            waiting = pending.get(nkey)
            if waiting is None:
                pending[nkey] = images
                heappush(heap, (od + md, oh + mh, nkey))
            else:
                waiting.extend(images)
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
    return [(i, i + 1, 0) for i in range(1, n1)] + [(n1, 1, 1)]


# ---------------------------------------------------------------------------
# extremal seeds and module characters
# ---------------------------------------------------------------------------

def extremal_monomial(wg, x: AffineWeylElement, lam):
    """Sorted monomial of the extremal vector of x = u * t_beta: for
    lambda = sum m_i varpi_i, m_i equal slots u(1..i) z^{-beta_i}."""
    perm = permutation_of(wg, x.finite)
    return tuple(sorted((tuple(sorted(perm[:i])), -x.translation[i - 1])
                        for i, m in enumerate(lam, start=1) for _ in range(m)))


def schubert_blocks(datum: RootDatum, x: AffineWeylElement, lam, d_max):
    """Graded dimensions {(d, wt): dim} of the submodule generated upward from
    the extremal vector of x = u * t_beta, in absolute z-degrees < d_max.

    The translation multiplies every varpi_i slot by z^{-beta_i}, which
    commutes with every current-algebra operator, so it only moves the
    blocks of the finite part u by the seed degree -<beta, lam>; degrees
    never drop below that seed degree, so the span is empty if d_max is not
    above it, and no lower bound is needed.
    """
    require_type_a(datum)
    rank = datum.rank
    return span_closure(rank, extremal_monomial(weyl_group(datum), x, lam),
                        raising_ops(rank), lambda d: d < d_max).dims()
