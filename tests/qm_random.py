"""Random Drinfeld-Pluecker data generation shared by the test suites.

Rank-2 data are built as wedge pairs, which satisfy the contraction identity
by construction; defects are forced by scaling components with explicit
factors and by padding the target degrees for deficiency at infinity.
"""

from silc.quasimap import DPData, _mul, _sub, _trim

DEFECT_FACTORS = [(0, 1), (1, 1), (-1, 1), (0, 0, 1), (2, 1)]


def wedge(v1, v2):
    """Pluecker coordinates (c12, c13, c23) of two polynomial 3-vectors.

    Pairing the wedge against either argument vanishes identically, so this
    is the standard way to manufacture valid rank-2 data.
    """
    a = [_trim(c) for c in v1]
    b = [_trim(c) for c in v2]
    return (
        _sub(_mul(a[0], b[1]), _mul(a[1], b[0])),
        _sub(_mul(a[0], b[2]), _mul(a[2], b[0])),
        _sub(_mul(a[1], b[2]), _mul(a[2], b[1])),
    )


def scale_component(vec, factor):
    """Multiply every coordinate polynomial by the given polynomial."""
    f = _trim(factor)
    return tuple(_mul(_trim(c), f) for c in vec)


def random_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    return tuple(rng.randint(-3, 3) for _ in range(deg + 1))


def random_vector(rng, dim, max_deg):
    while True:
        vec = tuple(random_poly(rng, max_deg) for _ in range(dim))
        if any(any(c for c in p) for p in vec):
            return vec


def random_dp(rng, rank):
    """A valid DPData with a random mix of finite and infinity defects."""
    if rank == 1:
        comps = [random_vector(rng, 2, 2)]
    else:
        while True:
            v1 = random_vector(rng, 3, 1)
            v2 = random_vector(rng, 3, 1)
            u2 = wedge(v1, v2)
            if any(u2):
                break
        comps = [v1, u2]
    out = []
    degrees = []
    for vec in comps:
        if rng.random() < 0.5:
            vec = scale_component(vec, rng.choice(DEFECT_FACTORS))
        deg = max(len(p) - 1 for p in vec if p)
        degrees.append(deg + rng.randint(0, 2))  # deficiency at infinity
        out.append(vec)
    return DPData.make(rank, tuple(out), tuple(degrees))
