"""Truncated graded-character arithmetic and Demazure operators.

A GradedCharacter is a finite map (q_power, weight) -> integer coefficient
together with a half-open truncation window [q_min, q_max) on the q-exponent.
The q-grading tracks the loop rotation; weights are in fundamental-weight
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import RootDatum, vec_add, vec_dot, vec_scale, vec_sub
from .weylgroup import AffineWeylElement, weyl_group


class CharacterError(ValueError):
    pass


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

    def q_layer(self, q) -> dict:
        return {wt: c for (qq, wt), c in self.terms if qq == q}

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

def demazure_step(datum: RootDatum, i: int, f: GradedCharacter) -> GradedCharacter:
    """D_i f = (f - e^{-alpha_i} s_i f) / (1 - e^{-alpha_i}), exactly per string.

    i ranges over {0, 1, ..., r}; i = 0 uses the affine simple root, whose
    reflection shifts the q-power alongside the finite weight.
    """
    r = datum.rank
    if not 0 <= i <= r:
        raise CharacterError(f"Demazure index {i} out of range 0..{r}")
    q_min, q_max = f.window
    out = {}

    def put(q, wt, c):
        if q_min <= q < q_max:
            k = (q, wt)
            out[k] = out.get(k, 0) + c

    if i >= 1:
        alpha = datum.simple_root_weights[i - 1]
        for (q, wt), c in f.terms:
            m = wt[i - 1]
            if m >= 0:
                for k in range(m + 1):
                    put(q, vec_sub(wt, vec_scale(k, alpha)), c)
            elif m < -1:
                for k in range(1, -m):
                    put(q, vec_add(wt, vec_scale(k, alpha)), -c)
    else:
        theta_wt = datum.root_to_weight(datum.theta.coords)
        theta_covec = datum.theta.coroot
        for (q, wt), c in f.terms:
            m = -vec_dot(theta_covec, wt)
            if m >= 0:
                # affine string: weight + k*theta, q-power - k
                for k in range(m + 1):
                    put(q - k, vec_add(wt, vec_scale(k, theta_wt)), c)
            elif m < -1:
                for k in range(1, -m):
                    put(q + k, vec_sub(wt, vec_scale(k, theta_wt)), -c)
    return GradedCharacter.make(out, f.window)


def demazure_word(datum: RootDatum, word, f: GradedCharacter) -> GradedCharacter:
    for i in word:
        f = demazure_step(datum, i, f)
    return f


def weyl_character(datum: RootDatum, lam) -> GradedCharacter:
    """ch V(lambda) by the Demazure character formula along a word for w0."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    wg = weyl_group(datum)
    word = wg.reduced_word_finite(wg.w0)
    f = GradedCharacter.monomial(0, lam, 1, (0, 1))
    return demazure_word(datum, word, f)


# ---------------------------------------------------------------------------
# Global Weyl module characters
# ---------------------------------------------------------------------------

def gch_global_weyl(datum: RootDatum, w: AffineWeylElement, lam, window) -> GradedCharacter:
    """Truncated graded character of the Demazure-type submodule attached to w.

    Normalization: the cyclic extremal vector sits at q-degree 0.  The
    translation part of w matters beyond an overall shift: it twists each
    weight space of the cyclic module by its own degree.
    """
    from . import loopmodel

    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise CharacterError(f"weight {lam} is not dominant")
    q_min, q_max = window
    if q_max <= q_min:
        return GradedCharacter.zero(window)
    d_ext = -vec_dot(w.translation, lam)
    blocks = loopmodel.schubert_blocks(
        datum, w.finite, w.translation, lam, q_max + d_ext
    )
    terms = {(d - d_ext, wt): dim for (d, wt), dim in blocks.items()}
    return GradedCharacter.make(terms, window)
