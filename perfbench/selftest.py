"""Self-test of the benchmark: every workload runs at a tiny size and passes
its output checks, and every check rejects one planted wrong answer.

    python3 perfbench/selftest.py      (from the root of a checkout)
"""

import ast
import copy
import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402

_OUTPUTS = {}


def tiny_outputs(workload):
    """Plain outputs of one tiny round, produced by the package under test."""
    if workload not in _OUTPUTS:
        env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
        p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workload,
                            "5", "plain", "1", "tiny"], env=env, capture_output=True,
                           timeout=170, check=True)
        _OUTPUTS[workload] = json.loads(p.stdout.decode().splitlines()[-1])
    return _OUTPUTS[workload]


def verdicts(results):
    return {name: ok for name, ok, _ in results}


class TinyRounds(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for workload in ("order-box", "pieri-tables", "characters", "cli-jobs"):
            rep = tiny_outputs(workload)
            self.assertTrue(rep["checks"], workload)
            for name, ok, detail in rep["checks"]:
                self.assertTrue(ok, f"{workload} {name}: {detail}")
            expect_failed = 1 if workload == "cli-jobs" else 0  # one known fault
            self.assertEqual(rep["failed"], expect_failed, rep.get("failures"))


class PlantedOrderAnswers(unittest.TestCase):
    def setUp(self):
        self.out = ast.literal_eval(tiny_outputs("order-box")["outputs"])
        self.assertTrue(all(verdicts(checks.check_order(self.out, 5)).values()))

    def rejects(self, name, out):
        self.assertFalse(verdicts(checks.check_order(out, 5))[name])

    def flipped(self, tname, pick):
        out = copy.deepcopy(self.out)
        elements, pairs = out["pairs"][tname]
        k = next(k for k, p in enumerate(pairs) if pick(p))
        i, j, got = pairs[k]
        pairs[k] = (i, j, not got)
        return out

    def test_a1_chain(self):
        self.rejects("order.a1_chain", self.flipped("A1", lambda p: p[0] != p[1]))

    def test_subword_oracle(self):
        out = copy.deepcopy(self.out)
        for tname in ("A2", "B2", "G2"):
            elements, pairs = out["pairs"][tname]
            out["pairs"][tname] = (elements, [(i, j, not g) for i, j, g in pairs])
        self.rejects("order.subword_oracle", out)

    def test_reflexivity(self):
        self.rejects("order.partial_order_axioms", self.flipped("A2", lambda p: p[0] == p[1]))

    def test_strict_relation_raises_length(self):
        _, aw, _ = checks.group("A2")
        els = [checks.parse(aw, e) for e in self.out["pairs"]["A2"][0]]
        self.rejects("order.length_and_translation", self.flipped("A2", lambda p: (
            not p[2] and oracle.si_length(aw, *els[p[0]]) < oracle.si_length(aw, *els[p[1]]))))

    def test_covers(self):
        out = copy.deepcopy(self.out)
        v, cov = next((v, c) for v, c in out["covers"] if c)
        root, delta, _ = cov[0]
        cov[0] = (root, delta, v)
        self.rejects("order.covers", out)

    def test_intervals(self):
        out = copy.deepcopy(self.out)
        v, w, elements = next(t for t in out["intervals"] if t[2])
        elements.append(w.split("@")[0] + "@" + ",".join(str(int(b) - 5) for b in
                                                           w.split("@")[1].split(",")))
        self.rejects("order.intervals", out)


class PlantedPieriAnswers(unittest.TestCase):
    def setUp(self):
        self.out = ast.literal_eval(tiny_outputs("pieri-tables")["outputs"])
        self.assertTrue(all(verdicts(checks.check_pieri(self.out)).values()))

    def rejects(self, name, out):
        self.assertFalse(verdicts(checks.check_pieri(out))[name])

    def test_base_coefficient(self):
        out = copy.deepcopy(self.out)
        table = out[0]
        terms = dict(table["coeffs"])[table["w"]]
        key = next(iter(terms))
        terms[key] += 1
        self.rejects("pieri.base_coefficient", out)

    def test_support_below_w(self):
        out = copy.deepcopy(self.out)
        table = out[0]
        upart, bpart = table["w"].split("@")
        table["coeffs"].append((f"{upart}@{int(bpart) - 1}", {}))
        self.rejects("pieri.support_below_w", out)

    def test_layers(self):
        out = copy.deepcopy(self.out)
        table = out[0]
        u, terms = next((u, t) for u, t in table["coeffs"] if u != table["w"] and t)
        key = next(iter(terms))
        terms[key] += 1
        self.rejects("pieri.layers_match_global_weyl", out)


class PlantedCharacterAnswers(unittest.TestCase):
    def setUp(self):
        self.out = ast.literal_eval(tiny_outputs("characters")["outputs"])
        self.assertTrue(all(verdicts(checks.check_characters(self.out)).values()))

    def rejects(self, name, out):
        self.assertFalse(verdicts(checks.check_characters(out))[name])

    def test_weyl_dimension(self):
        out = copy.deepcopy(self.out)
        tname, lam, char = out["weyl"][0]
        char[tuple(lam)] += 1
        self.rejects("characters.weyl_dimension", out)

    def test_reflection_invariance(self):
        out = copy.deepcopy(self.out)
        tname, lam, char = out["weyl"][0]
        low = tuple(-x for x in lam)  # the lowest weight, since w0 = -1 in B3
        char[tuple(lam)] -= 1
        char[low] = char.get(low, 0) + 1
        self.rejects("characters.reflection_invariance", out)

    def gweyl_plant(self, q):
        out = copy.deepcopy(self.out)
        tname, lam, window, char = out["gweyl"][0]
        key = next(k for k in char if k[0] == q)
        char[key] += 1
        return out

    def test_gweyl_layer0(self):
        self.rejects("characters.gweyl_layer0_is_weyl_module", self.gweyl_plant(0))

    def test_gweyl_fundamental_layers(self):
        self.rejects("characters.gweyl_fundamental_layers", self.gweyl_plant(1))

    def test_gweyl_q_whittaker(self):
        self.rejects("characters.gweyl_q_whittaker", self.gweyl_plant(2))

    def test_h0(self):
        out = copy.deepcopy(self.out)
        d, m, dim = out["h0"][0]
        out["h0"][0] = (d, m, dim + 1)
        self.rejects("characters.h0_closed_form", out)


class PlantedCliAnswers(unittest.TestCase):
    def setUp(self):
        self.jobs = ast.literal_eval(tiny_outputs("cli-jobs")["outputs"])
        sys.path.insert(0, HERE)
        import worker

        self.goldens = worker.goldens()
        self.assertTrue(all(verdicts(checks.check_cli(self.jobs, self.goldens)).values()))

    def planted(self, kind, field, text):
        jobs = copy.deepcopy(self.jobs)
        job = next(j for j in jobs if j["kind"] == kind)
        job[field] += text
        return verdicts(checks.check_cli(jobs, self.goldens))

    def test_golden(self):
        self.assertFalse(self.planted("cold", "stdout", " ")["cli.cold_matches_golden"])

    def test_cold_not_cached(self):
        self.assertFalse(self.planted("cold", "stderr", "cached: true\n")["cli.cold_not_cached"])

    def test_warm(self):
        self.assertFalse(self.planted("warm", "stdout", "x")["cli.warm_equals_cold_and_cached"])


class OracleSanity(unittest.TestCase):
    def test_closed_forms(self):
        rs = oracle.RootSystem("E", 8)
        self.assertEqual(rs.weyl_dimension((1, 0, 0, 0, 0, 0, 0, 0)), 3875)
        self.assertEqual(len(rs.longest_word()), 120)
        # A1: W(m) = sum_k [m choose k]_q e^{2k-m} / (q; q)_m
        self.assertEqual(oracle.global_weyl_character((1,), 3),
                         {(q, (s,)): 1 for q in range(3) for s in (1, -1)})
        self.assertEqual(oracle.h0_closed_form(1, 1), 4)

    def test_bourbaki_labels_and_the_package_labels(self):
        def fundamental_dims(kind, rank, matrix=None):
            rs = oracle.RootSystem(kind, rank, matrix)
            return [rs.weyl_dimension(tuple(int(i == j) for j in range(rank)))
                    for i in range(rank)]

        bourbaki = {("B", 3): [7, 21, 8], ("C", 3): [6, 14, 14],
                    ("F", 4): [52, 1274, 273, 26], ("G", 2): [7, 14]}
        package = {("B", 3): [6, 14, 14], ("C", 3): [7, 21, 8],
                   ("F", 4): [26, 273, 1274, 52], ("G", 2): [14, 7]}
        for (kind, rank), dims in bourbaki.items():
            self.assertEqual(fundamental_dims(kind, rank, oracle.bourbaki_cartan(kind, rank)),
                             dims)
            self.assertEqual(fundamental_dims(kind, rank), package[kind, rank])

    def test_subword_order_on_a1_is_the_length_chain(self):
        _, aw, sub = checks.group("A1")
        rng = random.Random(0)
        els = [(R, (b,)) for R in aw.finite_words for b in range(-2, 3)]
        for _ in range(40):
            x, y = rng.choice(els), rng.choice(els)
            self.assertEqual(sub.le(x, y),
                             oracle.si_length(aw, *x) >= oracle.si_length(aw, *y))


class TraceWindow(unittest.TestCase):
    def test_only_calls_after_the_snapshot_count(self):
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        from calltrace import Tracer

        tracer = Tracer()
        tracer.install()
        from silc.rootdata import root_datum
        from silc.weylgroup import weyl_group

        wg = weyl_group(root_datum("A", 2))
        x = wg.parse("1,2@1,0")
        wg.compose(x, x)
        before = tracer.snapshot()
        wg.compose(x, wg.compose(x, x))
        trace = tracer.since(before)
        self.assertEqual(trace["stats"]["weylgroup.WeylGroup.compose"][0], 2)
        self.assertEqual(tracer.snapshot()["stats"]["weylgroup.WeylGroup.compose"][0], 3)


if __name__ == "__main__":
    unittest.main()
