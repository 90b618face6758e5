"""Independent reference mathematics for the benchmark's output checks.

Nothing here imports ``silc``.  Root systems are rebuilt from Cartan matrices,
the affine Weyl group is modelled as affine maps on the coweight lattice, and
the characters come from closed forms: the Weyl dimension product formula,
Gelfand-Tsetlin patterns for type A, and the q-binomial (q-Whittaker) formula
for global Weyl modules (Chari-Ion, arXiv:1307.1440).

Conventions match the package's documented ones: weights are in
fundamental-weight coordinates, roots in simple-root coordinates, coweights
in simple-coroot coordinates, and column j of the Cartan matrix holds the
fundamental-weight coordinates of the simple root alpha_j, so that
``A[i][j] = <alpha_i^vee, alpha_j>``.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Cartan matrices and root systems
# ---------------------------------------------------------------------------

def bourbaki_cartan(kind, rank):
    """Cartan matrix of a finite series in Bourbaki's numbering, read with the
    column convention above: in B_r the last simple root is short, in C_r it
    is long, in G2 alpha_1 is short, and in F4 alpha_1 and alpha_2 are long."""
    r = rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    if kind in "ABC":
        for i in range(r - 1):
            link(i, i + 1)
        if kind == "B":
            link(r - 2, r - 1, -1, -2)
        if kind == "C":
            link(r - 2, r - 1, -2, -1)
    elif kind == "D":
        for i in range(r - 2):
            link(i, i + 1)
        link(r - 3, r - 1)
    elif kind == "G":
        link(0, 1, -3, -1)
    elif kind == "F":
        link(0, 1)
        link(1, 2, -1, -2)
        link(2, 3)
    elif kind == "E":
        for i, j in [(1, 3), (3, 4), (2, 4)] + [(k, k + 1) for k in range(4, r)]:
            link(i - 1, j - 1)
    else:
        raise ValueError(kind)
    return tuple(tuple(row) for row in a)


def cartan(kind, rank):
    """The Cartan matrix the package builds for the label (kind, rank).

    This is the one place where the checks follow the package's labelling
    rather than Bourbaki's: its "B" and "C" are Bourbaki's C and B, and its
    F4 and G2 number their nodes in reverse.  Once the package labels types
    as Bourbaki does, this becomes ``bourbaki_cartan`` alone, and the
    goldens of the B, C, F and G jobs change with it."""
    a = bourbaki_cartan({"B": "C", "C": "B"}.get(kind, kind), rank)
    if kind in "FG":
        a = tuple(tuple(row[::-1]) for row in a[::-1])
    return a


class RootSystem:
    """Positive roots with their coroots, rho, and the Weyl action on weights."""

    def __init__(self, kind, rank, matrix=None):
        self.kind, self.rank = kind, rank
        self.A = a = matrix or cartan(kind, rank)
        r = rank
        # symmetrizer: (alpha_i, alpha_i)/2 = d_i with d_i a_ij = d_j a_ji
        d = [None] * r
        d[0] = Fraction(1)
        changed = True
        while changed:
            changed = False
            for i in range(r):
                for j in range(r):
                    if d[i] is not None and d[j] is None and a[i][j]:
                        d[j] = d[i] * a[i][j] / a[j][i]
                        changed = True
        self.d = d
        roots = {tuple(int(i == j) for j in range(r)) for i in range(r)}
        frontier = list(roots)
        while frontier:
            nxt = []
            for rt in frontier:
                for i in range(r):
                    img = self.reflect_root(i, rt)
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        pos = sorted((rt for rt in roots if min(rt) >= 0), key=lambda x: (sum(x), x))
        self.positive = tuple(pos)
        self.coroots = tuple(self._coroot(rt) for rt in pos)
        self.theta = pos[-1]
        self.theta_coroot = self.coroots[-1]
        self.two_rho_coweight = tuple(sum(c[i] for c in self.coroots) for i in range(r))

    def pair_root(self, coweight, root):
        """<coweight, root> with coweight in coroot and root in root coordinates."""
        a = self.A
        return sum(coweight[i] * a[i][j] * root[j]
                   for i in range(self.rank) for j in range(self.rank) if a[i][j])

    def reflect_root(self, i, rt):
        p = sum(self.A[i][j] * rt[j] for j in range(self.rank))
        return tuple(c - p * (k == i) for k, c in enumerate(rt))

    def _coroot(self, rt):
        r, a, d = self.rank, self.A, self.d
        norm = sum(rt[i] * rt[j] * d[i] * a[i][j] for i in range(r) for j in range(r))
        out = tuple(Fraction(2) * rt[i] * d[i] / norm for i in range(r))
        assert all(x.denominator == 1 for x in out)
        return tuple(int(x) for x in out)

    def reflect_weight(self, i, lam):
        return tuple(x - lam[i] * self.A[k][i] for k, x in enumerate(lam))

    def act_word(self, word, lam):
        """s_{i1} ... s_{ik} applied to a weight, rightmost letter first."""
        for i in reversed(word):
            lam = self.reflect_weight(i - 1, lam)
        return lam

    def longest_word(self):
        """A reduced word for w0: walk rho down to -rho one simple reflection
        at a time, each step lowering <mu, rho^vee> by a simple root."""
        mu, word = tuple(1 for _ in range(self.rank)), []
        while True:
            i = next((k for k, c in enumerate(mu) if c > 0), None)
            if i is None:
                return word
            mu = self.reflect_weight(i, mu)
            word.append(i + 1)

    def reflection(self, root):
        """Root-action matrix of the reflection in a (positive or negative) root."""
        gamma = tuple(abs(c) for c in root)
        cor = self.coroots[self.positive.index(gamma)]
        r = self.rank
        return tuple(tuple(int(k == j) - gamma[k] * sum(cor[m] * self.A[m][j] for m in range(r))
                           for j in range(r)) for k in range(r))

    def weyl_dimension(self, lam):
        num = Fraction(1)
        for cr in self.coroots:
            num *= Fraction(sum(c * (x + 1) for c, x in zip(cr, lam)), sum(cr))
        assert num.denominator == 1
        return int(num)


# ---------------------------------------------------------------------------
# the affine Weyl group as affine maps x -> C x + c on the coweight lattice
# ---------------------------------------------------------------------------

def matmul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(len(n)))
                       for j in range(len(n[0]))) for i in range(len(m)))


def _apply(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


class AffineWeyl:
    """Elements are (R, C, c): R acts on roots, C on coweights, and the
    element u t_beta is the affine map x -> u(x + beta), so c = C beta."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        r, a = rs.rank, rs.A
        ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        self.zero = (0,) * r
        self.identity = (ident, ident, self.zero)
        simples = []
        for i in range(r):
            R = tuple(tuple(int(k == j) - (k == i) * a[i][j] for j in range(r))
                      for k in range(r))
            C = tuple(tuple(int(k == j) - (k == i) * a[j][i] for j in range(r))
                      for k in range(r))
            simples.append((R, C, self.zero))
        # s_0 = s_theta t_{-theta^vee}: x -> s_theta(x) + theta^vee
        th, thv = rs.theta, rs.theta_coroot
        R0 = tuple(tuple(int(k == j) - th[k] * sum(thv[m] * a[m][j] for m in range(r))
                         for j in range(r)) for k in range(r))
        C0 = tuple(tuple(int(k == j) - thv[k] * sum(a[j][m] * th[m] for m in range(r))
                         for j in range(r)) for k in range(r))
        self.simple = [(R0, C0, thv)] + simples
        # finite group by breadth-first search, with a reduced word per element
        self.finite_words = {ident: ()}
        self._coweight_mat = {ident: ident}
        frontier = [(ident, ident)]
        while frontier:
            nxt = []
            for R, C in frontier:
                for i in range(1, r + 1):
                    Rs, Cs, _ = simples[i - 1]
                    R2 = matmul(Rs, R)
                    if R2 not in self.finite_words:
                        self.finite_words[R2] = (i,) + self.finite_words[R]
                        self._coweight_mat[R2] = C2 = matmul(Cs, C)
                        nxt.append((R2, C2))
            frontier = nxt

    def element(self, R, beta):
        C = self._coweight_mat[R]
        return (R, C, _apply(C, beta))

    def mul(self, x, y):
        return (matmul(x[0], y[0]), matmul(x[1], y[1]), tuple(
            p + q for p, q in zip(x[2], _apply(x[1], y[2]))))

    def length(self, x):
        R, _, c = x
        n = 0
        for rt in self.rs.positive:
            img = _apply(R, rt)
            n += abs(self.rs.pair_root(c, img) + (max(img) <= 0))
        return n

    def finite_length(self, R):
        return sum(max(_apply(R, rt)) <= 0 for rt in self.rs.positive)

    def translation(self, beta):
        return self.element(self.identity[0], beta)

    def inverse(self, x):
        """Inverse of the affine map x -> C x + c."""
        R, _, c = x
        Rinv = next(S for S in self.finite_words if matmul(R, S) == self.identity[0])
        Cinv = self._coweight_mat[Rinv]
        return (Rinv, Cinv, tuple(-v for v in _apply(Cinv, c)))

    def reduced_word(self, x):
        word = []
        lx = self.length(x)
        while lx:
            for i, s in enumerate(self.simple):
                y = self.mul(s, x)
                ly = self.length(y)
                if ly < lx:
                    word.append(i)
                    x, lx = y, ly
                    break
        return word


def si_length(aw: AffineWeyl, R, beta):
    """l(u) + 2<beta, rho> for u t_beta (rho pairs to 1 with each coroot)."""
    return aw.finite_length(R) + 2 * sum(beta)


class SubwordOrder:
    """x <=_si y iff x t_B <= y t_B in Bruhat order for one fixed deep
    antidominant B, decided by a memoized subword search in a reduced word
    of y t_B."""

    def __init__(self, aw: AffineWeyl, depth=8):
        self.aw = aw
        self.t = aw.translation(tuple(-depth * c for c in aw.rs.two_rho_coweight))
        self._words = {}

    def le(self, x, y):
        """x and y as (R, beta) pairs."""
        aw = self.aw
        X = aw.mul(aw.element(*x), self.t)
        key = (y[0], tuple(y[1]))
        word = self._words.get(key)
        if word is None:
            word = aw.reduced_word(aw.mul(aw.element(*y), self.t))
            self._words[key] = word
        L = len(word)
        letters = aw.simple
        memo = set()  # (position, element) states known to fail
        stack = [(0, X, aw.length(X))]
        while stack:
            i, z, lz = stack.pop()
            if lz == 0:
                return True
            if L - i < lz or (i, z) in memo:
                continue
            memo.add((i, z))
            stack.append((i + 1, z, lz))
            sz = aw.mul(letters[word[i]], z)
            if aw.length(sz) < lz:
                stack.append((i + 1, sz, lz - 1))
        return False


# ---------------------------------------------------------------------------
# type A characters from Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------

def _qbinom(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q."""
    if k < 0 or k > n:
        return [0]
    poly = [1]
    for i in range(k):
        # multiply by (1 - q^{n-i}) / (1 - q^{i+1}) via exact polynomial ops
        num = [0] * (len(poly) + n - i)
        for e, c in enumerate(poly):
            num[e] += c
            num[e + n - i] -= c
        poly = _div_one_minus_qk(num, i + 1)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _div_one_minus_qk(num, k):
    out = [0] * len(num)
    for e in range(len(num)):
        out[e] = num[e] + (out[e - k] if e >= k else 0)
    return out


def _gt_patterns(top):
    """All Gelfand-Tsetlin patterns with the given top row, as row lists from
    the top row down to the single-entry row."""
    if len(top) == 1:
        yield [top]
        return
    ranges = [range(top[i + 1], top[i] + 1) for i in range(len(top) - 1)]

    def rows(i, acc):
        if i == len(ranges):
            yield tuple(acc)
            return
        for x in ranges[i]:
            yield from rows(i + 1, acc + [x])

    for row in rows(0, []):
        for rest in _gt_patterns(row):
            yield [top] + rest


def q_whittaker(lam):
    """P_lam(x; q, 0) for sl_{n+1}, lam in fundamental-weight coordinates:
    {(q, weight): coefficient}."""
    n1 = len(lam) + 1
    top = tuple(sum(lam[i:]) for i in range(len(lam))) + (0,)
    out = {}
    for pattern in _gt_patterns(top):
        sizes = [sum(row) for row in pattern] + [0]
        content = [sizes[n1 - 1 - k] - sizes[n1 - k] for k in range(n1)]
        wt = tuple(content[i] - content[i + 1] for i in range(n1 - 1))
        poly = [1]
        for upper, lower in zip(pattern, pattern[1:]):
            for i in range(len(lower)):
                factor = _qbinom(upper[i] - upper[i + 1], lower[i] - upper[i + 1])
                poly = _polymul(poly, factor)
        for e, c in enumerate(poly):
            if c:
                out[(e, wt)] = out.get((e, wt), 0) + c
    return out


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def global_weyl_character(lam, q_max):
    """ch W(lam) = P_lam(x; q, 0) / prod_i (q; q)_{lam_i}, degrees < q_max."""
    series = [1] + [0] * (q_max - 1)
    for m in lam:
        for k in range(1, m + 1):
            # divide by (1 - q^k)
            series = _div_one_minus_qk(series, k)[:q_max]
    out = {}
    for (e, wt), c in q_whittaker(lam).items():
        for f, s in enumerate(series):
            if s and e + f < q_max:
                key = (e + f, wt)
                out[key] = out.get(key, 0) + c * s
    return {k: v for k, v in out.items() if v}


def schur_character(lam):
    """ch V(lam) for sl_{n+1}: {weight: multiplicity}."""
    return {wt: c for (e, wt), c in q_whittaker(lam).items() if e == 0}


def h0_closed_form(d, m):
    """dim H^0 of the m-twist on the degree-d SL2 Richardson space."""
    return math.comb(2 * d + 1 + m, m)
