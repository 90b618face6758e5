"""Truncated graded-character arithmetic, Demazure operators and Weyl
characters.

A GradedCharacter is a finite map (q_power, weight) -> integer coefficient
together with a half-open truncation window [q_min, q_max) on the q-exponent.
The q-grading tracks the loop rotation; weights are in fundamental-weight
coordinates.

Demazure operators (demazure_word), Weyl characters (weyl_character) and
twist steps (pieri) run on packed terms (_Packing): each (q, weight) becomes
one int with the weight in fixed-width digits below q, so a string step, a
reflection or a product with a monomial is an int addition; the terms are
unpacked once, at the end: per Pieri coefficient or per section character.

weyl_character solves only the dominant multiplicities, by Freudenthal's
formula, and copies them over W-orbits; the tests hold it to demazure_word
along a word for w0.
"""

from __future__ import annotations

from reprlib import repr as brief  # a word may be long option text
from typing import NamedTuple

from .errors import CharacterError, InconsistencyError
from .rootdata import RootDatum, brief_vector, vec_add, vec_dot, vec_sub


FULL_WINDOW = (-(10 ** 9), 10 ** 9)


class GradedCharacter(NamedTuple):
    terms: tuple  # sorted tuple of ((q, weight), coeff) with coeff != 0
    window: tuple  # (q_min, q_max), half-open

    @staticmethod
    def make(term_map, window) -> "GradedCharacter":
        q_min, q_max = window
        items = []
        for (q, wt), c in term_map.items():
            if c != 0 and q_min <= q < q_max:
                items.append(((int(q), tuple(wt)), int(c)))
        items.sort(key=lambda kv: (kv[0][0], kv[0][1]))
        return GradedCharacter(tuple(items), (q_min, q_max))

    @staticmethod
    def zero(window=FULL_WINDOW) -> "GradedCharacter":
        return GradedCharacter((), tuple(window))

    @staticmethod
    def monomial(q, wt, coeff=1, window=FULL_WINDOW) -> "GradedCharacter":
        return GradedCharacter.make({(q, tuple(wt)): coeff}, tuple(window))

    @staticmethod
    def one(rank, window=FULL_WINDOW) -> "GradedCharacter":
        return GradedCharacter.monomial(0, (0,) * rank, 1, window)

    # -- ring structure ------------------------------------------------------

    def _common_window(self, other):
        return (max(self.window[0], other.window[0]),
                min(self.window[1], other.window[1]))

    def __add__(self, other: "GradedCharacter") -> "GradedCharacter":
        window = self._common_window(other)
        out = {}
        for (k, c) in self.terms + other.terms:
            out[k] = out.get(k, 0) + c
        return GradedCharacter.make(out, window)

    def __sub__(self, other: "GradedCharacter") -> "GradedCharacter":
        return self + other.scale(-1)

    def scale(self, c: int) -> "GradedCharacter":
        return GradedCharacter.make({k: c * v for k, v in self.terms}, self.window)

    def __mul__(self, other: "GradedCharacter") -> "GradedCharacter":
        window = self._common_window(other)
        q_min, q_max = window
        out = {}
        for (q1, w1), c1 in self.terms:
            for (q2, w2), c2 in other.terms:
                q = q1 + q2
                if q_min <= q < q_max:
                    k = (q, vec_add(w1, w2))
                    out[k] = out.get(k, 0) + c1 * c2
        return GradedCharacter.make(out, window)

    def __rmul__(self, other):
        # not the tuple's repetition: c * ch is undefined, as ch * c is
        return NotImplemented

    def truncate(self, window) -> "GradedCharacter":
        return GradedCharacter.make(dict(self.terms), window)

    # -- queries ----------------------------------------------------------------

    def coefficient(self, q, wt) -> int:
        target = (q, tuple(wt))
        for k, c in self.terms:
            if k == target:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def total(self) -> int:
        """Specialization q -> 1, e^mu -> 1 (sum of all coefficients)."""
        return sum(c for _, c in self.terms)

    def nonnegative(self) -> bool:
        return all(c >= 0 for _, c in self.terms)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "window": [self.window[0], self.window[1]],
            "terms": [{"q": q, "wt": list(wt), "c": c} for (q, wt), c in self.terms],
        }


class _Packing:
    """Packed terms of rank r whose weight coordinates lie in [-bound, bound].

    A term (q, wt) is the int q * 2^(r b) + sum_j (wt_j + bound) *
    2^((r - 1 - j) b), with b bits per weight digit.  Every digit lies in
    [0, 2 bound], so digits never carry into each other, and adding packed
    weights (offset 0) adds the weights as long as the sum stays within the
    bound.  q, the top digit, is unbounded and may be negative; a window
    test on q is a comparison of the packed term with the packed degrees.
    Coordinate 0 sits in the highest weight digit, so packed terms sort as
    GradedCharacter.make sorts (q, wt).
    """

    def __init__(self, rank, bound):
        self.bound = bound
        self.bits = (2 * bound + 1).bit_length()
        self.mask = (1 << self.bits) - 1
        self.shifts = [(rank - 1 - j) * self.bits for j in range(rank)]
        self.q_shift = rank * self.bits

    def degree(self, q) -> int:
        """q in the top digit and zeros below: a packed degree shift, or a
        window end to compare packed terms with."""
        return q << self.q_shift

    def weight(self, vec, offset=0) -> int:
        """vec in the weight digits, each raised by offset."""
        return sum((c + offset) << s for c, s in zip(vec, self.shifts))

    def pack(self, f: GradedCharacter) -> dict:
        return {(q << self.q_shift) + self.weight(wt, self.bound): c
                for (q, wt), c in f.terms}

    def unpack(self, terms, window) -> GradedCharacter:
        """The GradedCharacter.make of the packed terms: nonzero terms on the
        window, in the order of their packed ints."""
        q_shift, mask, bound, shifts = self.q_shift, self.mask, self.bound, self.shifts
        lo, hi = self.degree(window[0]), self.degree(window[1])
        xs = sorted(x for x, c in terms.items() if c and lo <= x < hi)
        return GradedCharacter(tuple(
            ((x >> q_shift, tuple([((x >> s) & mask) - bound for s in shifts])), terms[x])
            for x in xs), tuple(window))


# ---------------------------------------------------------------------------
# Demazure operators
# ---------------------------------------------------------------------------

def demazure_word(datum: RootDatum, word, f: GradedCharacter) -> GradedCharacter:
    """D_{i_n} ... D_{i_1} f for word = (i_1, ..., i_n), where
    D_i f = (f - e^{-alpha_i} s_i f) / (1 - e^{-alpha_i}), exactly per string.

    i ranges over {0, 1, ..., r}; i = 0 uses the affine simple root, whose
    reflection shifts the q-power alongside the finite weight.  A term
    c q^k e^wt with m = <alpha_i^vee, wt> (for i = 0, m = -<theta^vee, wt>)
    becomes the string c q^k (e^wt + ... + e^{wt - m alpha_i}) if m >= 0,
    nothing if m = -1, and -c q^k (e^{wt + alpha_i} + ... +
    e^{wt - (m + 1) alpha_i}) if m < -1, where alpha_0 = -theta moves the
    q-power by one per step: e^{wt + j theta} sits at q^{k - j}.  Terms
    outside the window are dropped.

    The steps run on packed terms (_Packing), so a string step adds or
    subtracts the packed alpha_i (for i = 0, the packed theta minus one unit
    of q), and the window test on q is a comparison with the packed q_min
    and q_max.
    """
    r = datum.rank
    word = tuple(word)
    for i in word:
        if not 0 <= i <= r:
            raise CharacterError(f"Demazure index {brief(i)} out of range 0..{r}")
    # Digit width.  Every weight a step emits lies on the segment from wt to
    # s_i wt (for i = 0 from wt to s_theta wt: s_0 acts on weights as
    # s_theta), and the convex hull of a W-stable set is W-stable, so every
    # weight of the word stays in the convex hull of W * (initial support).
    # Coordinate j of a weight mu is <alpha_j^vee, mu>, and on w * nu this is
    # <w^-1 alpha_j^vee, nu>, a coroot paired with nu.  So no coordinate
    # exceeds bound = max |<beta^vee, nu>| over positive roots beta and
    # initial weights nu, every digit wt_j + bound lies in [0, 2 bound], and
    # digits never carry into each other.  q, the top digit, is unbounded.
    coroots = [rt.coroot for rt in datum.positive_roots()]
    bound = max((abs(vec_dot(cv, wt)) for (_, wt), _c in f.terms
                 for cv in coroots), default=0)
    pk = _Packing(r, bound)
    mask, shifts = pk.mask, pk.shifts
    alphas = [pk.weight(a) for a in datum.simple_root_weights]
    theta_step = pk.weight(datum.root_to_weight(datum.theta.coords)) - pk.degree(1)
    theta_covec = [(c, s) for c, s in zip(datum.theta.coroot, shifts) if c]
    lo, hi = pk.degree(f.window[0]), pk.degree(f.window[1])
    terms = pk.pack(f)
    for i in word:
        out = {}
        get = out.get
        if i >= 1:
            s, a = shifts[i - 1], alphas[i - 1]
            for x, c in terms.items():
                if not c:
                    continue
                m = ((x >> s) & mask) - bound
                if m >= 0:
                    for _ in range(m + 1):
                        out[x] = get(x, 0) + c
                        x -= a
                elif m < -1:
                    c = -c
                    for _ in range(-m - 1):
                        x += a
                        out[x] = get(x, 0) + c
        else:
            for x, c in terms.items():
                if not c:
                    continue
                m = -sum(cv * (((x >> s) & mask) - bound) for cv, s in theta_covec)
                if m >= 0:
                    for _ in range(m + 1):
                        if lo <= x < hi:
                            out[x] = get(x, 0) + c
                        x += theta_step
                elif m < -1:
                    c = -c
                    for _ in range(-m - 1):
                        x -= theta_step
                        if lo <= x < hi:
                            out[x] = get(x, 0) + c
        terms = out
    return pk.unpack(terms, f.window)


def weyl_character(datum: RootDatum, lam) -> GradedCharacter:
    """ch V(lambda) at q-degree 0 by Freudenthal's formula on the dominant
    weights (Moody-Patera, Bull. AMS 7 (1982)):

        m(mu) ((lambda+rho, lambda+rho) - (mu+rho, mu+rho)) = 2 sum over
        alpha > 0 of S_alpha(mu), S_alpha(x) = sum over k >= 1 of
        (x + k alpha, alpha) m(x + k alpha).

    With the integer symmetrizer d, lambda - mu = sum n_j alpha_j and alpha
    = sum c_j alpha_j, the left factor is sum n_j d_j (lambda + mu + 2
    rho)_j and (x, alpha) = sum c_j d_j x_j; a division that leaves a
    remainder raises InconsistencyError.  The dominant mu <= lambda come
    from lambda by subtracting positive roots (Stembridge, Adv. Math. 136
    (1998)) and are solved by increasing height of lambda - mu, each m(mu)
    written over the W-orbit of mu by simple reflections; S_alpha is
    memoized along alpha-strings.  Packed digits hold the hull bound of
    demazure_word plus one root step, so a string step past the weights
    lands on no weight.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {brief_vector(lam)} is not dominant")
    r = datum.rank
    d = datum.cartan.symmetrizer()
    pos = datum.positive_roots()
    roots = [(rt.coords, datum.root_to_weight(rt.coords)) for rt in pos]
    hull = max(vec_dot(rt.coroot, lam) for rt in pos)
    pk = _Packing(r, hull + max(abs(c) for _, a in roots for c in a))
    bound, mask, shifts = pk.bound, pk.mask, pk.shifts
    # dominant weights below lambda, each with lambda - mu in simple roots
    below = {lam: (0,) * r}
    stack = [lam]
    while stack:
        mu = stack.pop()
        for coords, a in roots:
            nu = vec_sub(mu, a)
            if min(nu) >= 0 and nu not in below:
                below[nu] = vec_add(below[mu], coords)
                stack.append(nu)
    # per positive root: packed alpha, x -> (x, alpha), (alpha, alpha), memo
    strings = []
    for coords, a in roots:
        form = tuple(c * dj for c, dj in zip(coords, d))
        strings.append((pk.weight(a), form, vec_dot(form, a), {}))
    alphas = [(s, pk.weight(a)) for s, a in zip(shifts, datum.simple_root_weights)]
    top = tuple(l + 2 for l in lam)  # lambda + 2 rho
    mult = {}
    for mu, n in sorted(below.items(), key=lambda kv: sum(kv[1])):
        x0 = pk.weight(mu, bound)
        if mu == lam:
            m = 1
        else:
            total = 0
            for a, form, aa, memo in strings:
                # up the alpha-string to a memo hit or off the weights, then
                # back down by S(x) = (x + alpha, alpha) m(x + alpha) + S(x + alpha)
                x, p, chain = x0, vec_dot(form, mu), []
                while (s := memo.get(x)) is None:
                    x += a
                    p += aa
                    mx = mult.get(x)
                    if mx is None:
                        s = 0
                        break
                    chain.append((x - a, p * mx))
                for y, t in reversed(chain):
                    s += t
                    memo[y] = s
                total += s
            m, rem = divmod(2 * total, sum(
                nj * dj * (tj + mj) for nj, dj, tj, mj in zip(n, d, top, mu)))
            if rem:
                raise InconsistencyError(
                    f"Freudenthal's formula leaves remainder {rem} at {mu}")
        mult[x0] = m
        orbit = [x0]
        for x in orbit:
            for shift, a in alphas:
                k = ((x >> shift) & mask) - bound
                if k > 0 and (y := x - k * a) not in mult:
                    mult[y] = m
                    orbit.append(y)
    return pk.unpack(mult, (0, 1))


def __getattr__(name):
    # global Weyl characters are sums of twist coefficients and live in
    # pieri, which imports this module; perfbench/worker.py still imports
    # gch_global_weyl from here
    if name == "gch_global_weyl":
        from .pieri import gch_global_weyl
        return gch_global_weyl
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
