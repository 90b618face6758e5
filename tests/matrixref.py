"""The matrix formulas of a finite Weyl group, for the tests.

In type A silc works on permutations; these formulas are the reference it
is checked against.  A simple reflection s_i acts on three bases, with
a[i][j] = <alpha_i^vee, alpha_j>:

- simple roots: s_i alpha_j = alpha_j - a[i][j] alpha_i;
- simple coroots: s_i alpha_j^vee = alpha_j^vee - a[j][i] alpha_i^vee;
- fundamental weights: s_i varpi_j = varpi_j - [i = j] alpha_i, where
  alpha_i has weight coordinates column i of a.

An element's matrices are products of these along a word, so they do not
depend on how silc stores the element.
"""

import random

from silc.rootdata import mat_identity, mat_mul, mat_vec, vec_dot


def simple_matrices(datum, i):
    """(root, coweight, weight) matrices of s_{i+1}."""
    a = datum.cartan.entries
    r = datum.rank

    def make(entry):
        return tuple(tuple(entry(k, j) for j in range(r)) for k in range(r))

    return (make(lambda k, j: int(k == j) - (k == i) * a[i][j]),
            make(lambda k, j: int(k == j) - (k == i) * a[j][i]),
            make(lambda k, j: int(k == j) - (j == i) * a[k][i]))


class Matrices:
    """(root, coweight, weight) matrices of an element, made by the word
    products of simple_matrices."""

    def __init__(self, datum):
        self.datum = datum
        self.simple = [simple_matrices(datum, i) for i in range(datum.rank)]
        ident = mat_identity(datum.rank)
        self.identity = (ident, ident, ident)
        self.reflections = [(alpha, self.reflection(alpha))
                            for alpha in datum.positive_roots()]

    def times_simple(self, mats, i):
        return tuple(mat_mul(m, s) for m, s in zip(mats, self.simple[i]))

    def of_word(self, word):
        mats = self.identity
        for i in word:
            mats = self.times_simple(mats, i - 1)
        return mats

    def length(self, root_mat):
        """How many positive roots the root matrix sends to negative ones."""
        return sum(any(c < 0 for c in mat_vec(root_mat, rt.coords))
                   for rt in self.datum.positive_roots())

    def reflection_word(self, alpha):
        """A word for s_alpha: lowering alpha by simple reflections, alpha =
        s_{i_1} ... s_{i_k} alpha_j, gives s_{i_1} ... s_{i_k} s_j s_{i_k}
        ... s_{i_1}.  Some <alpha_i^vee, alpha> > 0 while alpha is not
        simple, and s_i alpha is then a lower positive root."""
        a = self.datum.cartan.entries
        coords = list(alpha.coords)
        path = []
        while sum(coords) > 1:
            i, p = next((i, p) for i, p in enumerate(mat_vec(a, coords)) if p > 0)
            coords[i] -= p
            path.append(i + 1)
        return path + [coords.index(1) + 1] + path[::-1]

    def reflection(self, alpha):
        """Root matrix of s_alpha: alpha_j - <alpha^vee, alpha_j> alpha."""
        a = self.datum.cartan.entries
        r = self.datum.rank
        pairing = [vec_dot(alpha.coroot, [a[k][j] for k in range(r)]) for j in range(r)]
        return tuple(tuple(int(k == j) - alpha.coords[k] * pairing[j] for j in range(r))
                     for k in range(r))

    def covers(self, root_mat):
        """(alpha, root matrix of u*s_alpha, shift) for each edge of the
        quantum Bruhat graph below u, by the lengths of the products: the
        reference for WeylGroup.edges."""
        lu = self.length(root_mat)
        zero = (0,) * self.datum.rank
        out = []
        for alpha, s_alpha in self.reflections:
            y = mat_mul(root_mat, s_alpha)
            step = self.length(y) - lu
            if step == 1:
                out.append((alpha, y, zero))
            elif step == 1 - 2 * sum(alpha.coroot):
                out.append((alpha, y, alpha.coroot))
        return out


def all_elements(wg):
    """{element: its matrices} for every element of the finite Weyl group,
    by right multiplication with simple reflections."""
    ref = Matrices(wg.datum)
    simple = [wg.finite_from_word([i + 1]) for i in range(wg.datum.rank)]
    found = {wg.id_finite: ref.identity}
    frontier = [wg.id_finite]
    while frontier:
        nxt = []
        for u in frontier:
            for i, s in enumerate(simple):
                x = u * s
                if x not in found:
                    found[x] = ref.times_simple(found[u], i)
                    nxt.append(x)
        frontier = nxt
    return found


def sampled_elements(wg, count, word_length, seed):
    """{element: its matrices} for count elements given by seeded random
    words."""
    rng = random.Random(seed)
    ref = Matrices(wg.datum)
    out = {}
    for _ in range(count):
        word = [rng.randint(1, wg.datum.rank) for _ in range(word_length)]
        out[wg.finite_from_word(word)] = ref.of_word(word)
    return out


def distinct_elements(wg, count, seed):
    """{element: its matrices} for count distinct elements, given by seeded
    random words of lengths 0..|Phi+|, so of either parity of length."""
    rng = random.Random(seed)
    ref = Matrices(wg.datum)
    top = len(wg.datum.positive_roots())
    out = {}
    while len(out) < count:
        word = [rng.randint(1, wg.datum.rank) for _ in range(rng.randint(0, top))]
        out.setdefault(wg.finite_from_word(word), ref.of_word(word))
    return out
