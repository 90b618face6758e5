"""Truncated graded-character arithmetic and Demazure operators.

A GradedCharacter is a finite map (q_power, weight) -> integer coefficient
together with a half-open truncation window [q_min, q_max) on the q-exponent.
The q-grading tracks the loop rotation; weights are in fundamental-weight
coordinates.

Demazure operators run in one kernel, demazure_word, on packed terms: each
(q, weight) becomes one int with the weight in fixed-width digits below q,
so a string step is an int subtraction; the terms are unpacked into a
GradedCharacter once, at the end of the word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CharacterError
from .rootdata import RootDatum, vec_add, vec_dot
from .weylgroup import weyl_group


FULL_WINDOW = (-(10 ** 9), 10 ** 9)


@dataclass(frozen=True)
class GradedCharacter:
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

    def truncate(self, window) -> "GradedCharacter":
        return GradedCharacter.make(dict(self.terms), window)

    def shift_q(self, n: int) -> "GradedCharacter":
        return GradedCharacter.make(
            {(q + n, wt): c for (q, wt), c in self.terms},
            (self.window[0] + n, self.window[1] + n),
        )

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

    @staticmethod
    def from_json(obj) -> "GradedCharacter":
        terms = {(t["q"], tuple(t["wt"])): t["c"] for t in obj["terms"]}
        return GradedCharacter.make(terms, tuple(obj["window"]))


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

    The steps run on packed terms.  A term (q, wt) is packed once into the int
    q * 2^(r b) + sum_j (wt_j + bound) * 2^(j b), with b bits per weight
    digit, so a string step adds or subtracts the packed alpha_i (for i = 0,
    the packed theta minus one unit of q), and the window test on q is a
    comparison with q_min * 2^(r b) and q_max * 2^(r b).
    """
    r = datum.rank
    word = tuple(word)
    for i in word:
        if not 0 <= i <= r:
            raise CharacterError(f"Demazure index {i} out of range 0..{r}")
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
    bits = (2 * bound + 1).bit_length()
    mask = (1 << bits) - 1
    shifts = [j * bits for j in range(r)]
    q_shift = r * bits

    def packed(vec, offset=0):
        return sum((c + offset) << s for c, s in zip(vec, shifts))

    alphas = [packed(a) for a in datum.simple_root_weights]
    theta_step = packed(datum.root_to_weight(datum.theta.coords)) - (1 << q_shift)
    theta_covec = [(c, s) for c, s in zip(datum.theta.coroot, shifts) if c]
    q_min, q_max = f.window
    lo, hi = q_min << q_shift, q_max << q_shift
    terms = {(q << q_shift) + packed(wt, bound): c for (q, wt), c in f.terms}
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
    return GradedCharacter.make(
        {(x >> q_shift, tuple(((x >> s) & mask) - bound for s in shifts)): c
         for x, c in terms.items()},
        f.window)


def weyl_character(datum: RootDatum, lam) -> GradedCharacter:
    """ch V(lambda) by the Demazure character formula along a word for w0."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    wg = weyl_group(datum)
    f = GradedCharacter.monomial(0, lam, 1, (0, 1))
    return demazure_word(datum, wg.w0_word, f)


def __getattr__(name):
    # global Weyl characters are sums of twist coefficients and live in
    # pieri, which imports this module; perfbench/worker.py still imports
    # gch_global_weyl from here
    if name == "gch_global_weyl":
        from .pieri import gch_global_weyl
        return gch_global_weyl
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
