"""The affine Bruhat and semi-infinite orders the order tests compare to.

They come from ``perfbench/oracle.py``, which shares no code with silc: the
affine Weyl group as affine maps on the coweight lattice, reduced words by
peeling left descents, and the subword property of the Bruhat order.
"""

import oracle

# w <=_si v iff w t_B <= v t_B in the Bruhat order, for B = -DEPTH * 2rho^vee
DEPTH = 16


class Subword(oracle.AffineWeyl):
    """oracle.AffineWeyl of one Cartan type, with memoized products and
    lengths and a Bruhat order that keeps one search memo per upper element,
    so the comparisons below one element share their work."""

    def __init__(self, kind, rank):
        super().__init__(oracle.RootSystem(kind, rank))
        self.deep = self.translation(
            tuple(-DEPTH * c for c in self.rs.two_rho_coweight))
        self._products, self._lengths, self._searches = {}, {}, {}

    def mul(self, x, y):
        got = self._products.get((x, y))
        if got is None:
            got = self._products[(x, y)] = super().mul(x, y)
        return got

    def length(self, x):
        got = self._lengths.get(x)
        if got is None:
            got = self._lengths[x] = super().length(x)
        return got

    def of(self, w):
        """The oracle element of a silc element u t_beta."""
        return self.element(w.finite.root_mat, w.translation)

    def from_word(self, word):
        x = self.identity
        for i in word:
            x = self.mul(x, self.simple[i])
        return x

    def bruhat_le(self, x, y):
        """x <= y iff a subword of a reduced word of y is a reduced word of x:
        walk the word, peeling its letters off x where they are left
        descents, until x is the identity."""
        got = self._searches.get(y)
        if got is None:
            got = self._searches[y] = (self.reduced_word(y), {})
        word, memo = got

        def settled(i, z, lz):
            """Whether z, of length lz, lies below the product of word[i:],
            or None while that still needs a search."""
            if lz == 0:
                return True
            if len(word) - i < lz:
                return False
            return memo.get((i, z))

        # the recursion "peel word[i] off z if it is a left descent and
        # match the rest, else skip word[i]", on an explicit stack: a frame
        # [i, z, lz, stage] has tried nothing (stage 0), waits for the peeled
        # branch (1) or for the skipped one (2); answer is what the last
        # frame to finish found
        lx = self.length(x)
        answer = settled(0, x, lx)
        stack = [] if answer is not None else [[0, x, lx, 0]]
        while stack:
            top = stack[-1]
            i, z, lz, stage = top
            if stage == 0:
                sz = self.mul(self.simple[word[i]], z)
                answer = False
                if self.length(sz) < lz:
                    answer = settled(i + 1, sz, lz - 1)
                    if answer is None:
                        top[3] = 1
                        stack.append([i + 1, sz, lz - 1, 0])
                        continue
            if stage < 2 and not answer:
                answer = settled(i + 1, z, lz)
                if answer is None:
                    top[3] = 2
                    stack.append([i + 1, z, lz, 0])
                    continue
            memo[(i, z)] = answer
            stack.pop()
        return answer

    def si_le(self, w, v):
        """w <=_si v for silc elements w and v."""
        return self.bruhat_le(self.mul(self.of(w), self.deep),
                              self.mul(self.of(v), self.deep))
