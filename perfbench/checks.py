"""Output checks.  Each takes the plain-data outputs a workload recorded
(element strings, dicts of character terms, integers) and returns a list of
``(check_name, passed, detail)``.  They use only ``oracle`` and never the
package under test, and they run outside the timed part of a workload.
"""

from __future__ import annotations

import random
from itertools import product

from oracle import (
    AffineWeyl,
    RootSystem,
    SubwordOrder,
    global_weyl_character,
    h0_closed_form,
    matmul,
    schur_character,
    si_length,
)

ORACLE_DEPTH = 8   # fixed antidominant translation -ORACLE_DEPTH * 2 rho^vee
ORACLE_PAIRS = {"A2": 100, "B2": 50, "G2": 30}
ORACLE_PER_INTERVAL = 4
ORACLE_COVERS = 12
TRIPLES = 20000

_GROUPS = {}


def group(name):
    """Independent model of the affine Weyl group of a rank <= 2 type "A2"."""
    got = _GROUPS.get(name)
    if got is None:
        rs = RootSystem(name[0], int(name[1:]))
        aw = AffineWeyl(rs)
        got = _GROUPS[name] = (rs, aw, SubwordOrder(aw, ORACLE_DEPTH))
    return got


def parse(aw, text):
    """Element grammar "u_word@beta" to (root-action matrix, beta)."""
    upart, bpart = text.split("@")
    R = aw.identity[0]
    if upart != "e":
        for i in upart.split(","):
            R = matmul(R, aw.simple[int(i)][0])
    return R, tuple(int(b) for b in bpart.split(","))


def _result(name, failures, checked):
    if failures:
        return (name, False, f"{len(failures)} of {checked} wrong, first: {failures[0]}")
    return (name, True, f"{checked} checked")


# ---------------------------------------------------------------------------
# order-box
# ---------------------------------------------------------------------------

def check_order(out, seed):
    """out: {"pairs": {type: (elements, [(i, j, bool)])},
             "covers": [(v, [(root, delta, x)])], "intervals": [(v, w, [u])]}"""
    rng = random.Random(seed * 7919 + 1)
    results = []
    parsed = {}
    for tname, (elements, _) in out["pairs"].items():
        _, aw, _ = group(tname)
        parsed[tname] = [parse(aw, e) for e in elements]

    def sl(tname, x):
        return si_length(group(tname)[1], *x)

    # A1 is a chain ordered by si-length
    els = parsed["A1"]
    bad = [(i, j) for i, j, got in out["pairs"]["A1"][1]
           if got != (sl("A1", els[i]) >= sl("A1", els[j]))]
    results.append(_result("order.a1_chain", bad, len(out["pairs"]["A1"][1])))

    # deep-translation subword oracle on a seeded sample
    bad, n = [], 0
    for tname, k in ORACLE_PAIRS.items():
        elements, pairs = out["pairs"][tname]
        sub = group(tname)[2]
        for i, j, got in rng.sample(pairs, min(k, len(pairs))):
            n += 1
            if sub.le(parsed[tname][i], parsed[tname][j]) != got:
                bad.append((tname, elements[i], elements[j], got))
    results.append(_result("order.subword_oracle", bad, n))

    # partial-order axioms on the full A2 table
    elements, pairs = out["pairs"]["A2"]
    rel = {(i, j): got for i, j, got in pairs}
    m = len(elements)
    bad = [i for i in range(m) if not rel.get((i, i), False)]
    bad += [(i, j) for (i, j), got in rel.items()
            if got and i != j and rel.get((j, i))]
    ups = {i: [j for j in range(m) if rel.get((i, j))] for i in range(m)}
    n = 0
    for _ in range(TRIPLES):
        i = rng.randrange(m)
        j = rng.choice(ups[i]) if ups[i] else i
        if ups[j]:
            k = rng.choice(ups[j])
            n += 1
            if not rel.get((i, k)):
                bad.append((elements[i], elements[j], elements[k]))
    results.append(_result("order.partial_order_axioms", bad, len(rel) + n))

    # strict relations raise si-length; right translation preserves the order
    bad, n = [], 0
    for tname, (elements, pairs) in out["pairs"].items():
        for i, j, got in pairs:
            n += 1
            if got and i != j and not sl(tname, parsed[tname][i]) > sl(tname, parsed[tname][j]):
                bad.append((tname, elements[i], elements[j]))
    index = {x: i for i, x in enumerate(parsed["A2"])}
    for (i, j), got in rel.items():
        (Ri, bi), (Rj, bj) = parsed["A2"][i], parsed["A2"][j]
        for g in product((-1, 0, 1), repeat=2):
            a = index.get((Ri, tuple(x + y for x, y in zip(bi, g))))
            b = index.get((Rj, tuple(x + y for x, y in zip(bj, g))))
            if a is not None and b is not None and (a, b) in rel:
                n += 1
                if rel[(a, b)] != got:
                    bad.append(("translate", elements[i], elements[j], g))
    results.append(_result("order.length_and_translation", bad, n))

    results.append(check_covers(out["covers"], rng))
    results.append(check_intervals(out["intervals"], rng))
    return results


def check_covers(covers, rng, tname="A2"):
    """Each cover is a reflection of v, one si-length step down, and below v."""
    rs, aw, sub = group(tname)
    bad, n, sampled = [], 0, []
    for v_text, cov in covers:
        v = parse(aw, v_text)
        V = aw.element(*v)
        Vinv = aw.inverse(V)
        for root, delta, x_text in cov:
            n += 1
            x = parse(aw, x_text)
            if si_length(aw, *x) != si_length(aw, *v) + 1:
                bad.append(("length", v_text, x_text))
                continue
            refl = aw.mul(aw.element(*x), Vinv)
            # an affine reflection: an involution whose linear part is s_gamma
            if (aw.mul(refl, refl) != aw.identity
                    or refl[0] != rs.reflection(root)):
                bad.append(("reflection", v_text, x_text, root, delta))
            sampled.append((x, v, x_text, v_text))
    for x, v, x_text, v_text in rng.sample(sampled, min(ORACLE_COVERS, len(sampled))):
        if not sub.le(x, v):
            bad.append(("not below", v_text, x_text))
    return _result("order.covers", bad, n)


def check_intervals(intervals, rng, tname="A2"):
    """Every element lies between the endpoints; a nonempty interval holds
    both endpoints and an empty one has incomparable endpoints."""
    _, aw, sub = group(tname)
    bad, n = [], 0
    for v_text, w_text, elements in intervals:
        v, w = parse(aw, v_text), parse(aw, w_text)
        n += 1
        if not elements:
            if sub.le(v, w):
                bad.append(("empty but comparable", v_text, w_text))
            continue
        if v_text not in elements or w_text not in elements:
            bad.append(("endpoints missing", v_text, w_text))
        lv, lw = si_length(aw, *v), si_length(aw, *w)
        for u_text in elements:
            n += 1
            if not lw <= si_length(aw, *parse(aw, u_text)) <= lv:
                bad.append(("length", v_text, u_text, w_text))
        for u_text in rng.sample(elements, min(ORACLE_PER_INTERVAL, len(elements))):
            u = parse(aw, u_text)
            if not (sub.le(v, u) and sub.le(u, w)):
                bad.append(("outside", v_text, u_text, w_text))
    return _result("order.intervals", bad, n)


# ---------------------------------------------------------------------------
# pieri-tables
# ---------------------------------------------------------------------------

def check_pieri(tables):
    """tables: [{"type", "w", "lam", "window", "coeffs": [(u, {(q, wt): c})]}]"""
    bad_base, bad_support, bad_layers, n_support = [], [], [], 0
    for t in tables:
        rs, aw, sub = group(t["type"])
        lam, (lo, hi) = tuple(t["lam"]), t["window"]
        w = parse(aw, t["w"])
        # base coefficient e^{-w w0 lam} at qbar 0
        word = aw.finite_words[w[0]]
        base = tuple(-x for x in rs.act_word(list(word), rs.act_word(rs.longest_word(), lam)))
        got = dict(t["coeffs"]).get(t["w"], {})
        if {k: v for k, v in got.items() if k[0] == 0} != {(0, base): 1}:
            bad_base.append((t["type"], t["w"], lam, sorted(got.items())[:3]))
        # support below w
        for u_text, _ in t["coeffs"]:
            n_support += 1
            u = parse(aw, u_text)
            below = (si_length(aw, *u) >= si_length(aw, *w)) if t["type"] == "A1" \
                else sub.le(u, w)
            if not below:
                bad_support.append((t["type"], u_text, t["w"], lam))
        # layer sums against the global Weyl module W(lam), weights negated
        total = {}
        for _, terms in t["coeffs"]:
            for k, c in terms.items():
                total[k] = total.get(k, 0) + c
        expect = {(q, tuple(-x for x in wt)): c
                  for (q, wt), c in global_weyl_character(lam, hi).items() if q >= lo}
        layer0 = sum(c for (q, _), c in total.items() if q == 0)
        if total != expect or (lo == 0 and layer0 != rs.weyl_dimension(lam)):
            bad_layers.append((t["type"], t["w"], lam))
    return [
        _result("pieri.base_coefficient", bad_base, len(tables)),
        _result("pieri.support_below_w", bad_support, n_support),
        _result("pieri.layers_match_global_weyl", bad_layers, len(tables)),
    ]


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

# dim V(k rho) = (k + 1)^N with N positive roots, whatever the labelling
KNOWN_DIMENSIONS = {
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0)): 3875,
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1)): 248,
    ("D4", (1, 0, 1, 1)): 350,
    ("B3", (4, 4, 4)): 5 ** 9,
    ("C3", (4, 4, 4)): 5 ** 9,
    ("D4", (2, 2, 2, 2)): 3 ** 12,
    ("G2", (10, 10)): 11 ** 6,
}


def check_characters(out):
    """out: {"weyl": [(type, lam, {wt: c})], "gweyl": [(type, lam, window,
    {(q, wt): c})], "h0": [(d, m, dim)]}"""
    results = []
    bad_dim, bad_sym, n_sym = [], [], 0
    for tname, lam, char in out["weyl"]:
        rs = RootSystem(tname[0], int(tname[1:]))
        total = sum(char.values())
        known = KNOWN_DIMENSIONS.get((tname, tuple(lam)))
        if total != rs.weyl_dimension(lam) or (known is not None and total != known):
            bad_dim.append((tname, lam, total))
        for wt, c in char.items():
            for i in range(rs.rank):
                n_sym += 1
                if char.get(rs.reflect_weight(i, wt), 0) != c:
                    bad_sym.append((tname, lam, wt, i))
    results.append(_result("characters.weyl_dimension", bad_dim, len(out["weyl"])))
    results.append(_result("characters.reflection_invariance", bad_sym, n_sym))

    bad_layer0, bad_fund, bad_ci = [], [], []
    for tname, lam, (lo, hi), char in out["gweyl"]:
        layers = {}
        for (q, wt), c in char.items():
            layers.setdefault(q, {})[wt] = c
        schur = schur_character(lam)
        if layers.get(0, {}) != schur:
            bad_layer0.append((tname, lam))
        if sum(lam) == 1 and any(layers.get(q, {}) != schur for q in range(max(lo, 0), hi)):
            bad_fund.append((tname, lam))
        expect = {k: c for k, c in global_weyl_character(lam, hi).items() if k[0] >= lo}
        if char != expect:
            bad_ci.append((tname, lam, (lo, hi)))
    n = len(out["gweyl"])
    results.append(_result("characters.gweyl_layer0_is_weyl_module", bad_layer0, n))
    results.append(_result("characters.gweyl_fundamental_layers", bad_fund, n))
    results.append(_result("characters.gweyl_q_whittaker", bad_ci, n))

    bad = [(d, m, dim) for d, m, dim in out["h0"] if dim != h0_closed_form(d, m)]
    results.append(_result("characters.h0_closed_form", bad, len(out["h0"])))
    return results


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------

def check_cli(jobs, goldens):
    """jobs: [{"name", "kind": cold|warm|usage, "code", "stdout", "stderr"}]
    for the operations that did not fail."""
    cold = {j["name"]: j for j in jobs if j["kind"] == "cold"}
    bad_golden = [n for n, j in cold.items() if j["stdout"] != goldens[n]]
    bad_cold = [n for n, j in cold.items() if "cached: true" in j["stderr"]]
    bad_warm, n_warm = [], 0
    for j in jobs:
        if j["kind"] == "warm":
            n_warm += 1
            c = cold.get(j["name"])
            if c is None or j["stdout"] != c["stdout"] or "cached: true" not in j["stderr"]:
                bad_warm.append(j["name"])
    return [
        _result("cli.cold_matches_golden", bad_golden, len(cold)),
        _result("cli.cold_not_cached", bad_cold, len(cold)),
        _result("cli.warm_equals_cold_and_cached", bad_warm, n_warm),
    ]
