"""One q-degree of a graded character, for the tests that compare layers."""


def q_layer(ch, q):
    """{weight: coefficient} over the terms of ch in q-degree q."""
    return {wt: c for (qq, wt), c in ch.terms if qq == q}
