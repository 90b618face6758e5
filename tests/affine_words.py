"""Affine reduced words for the brute-force subword oracles."""


def reduced_word(wg, w):
    """Greedy reduced word of an affine element, smallest left descent first."""
    word = []
    while w != wg.identity:
        i = wg.first_left_descent(w)
        assert i is not None, "descent search failed"
        word.append(i)
        w = wg.left_mul_simple(i, w)
    return word
