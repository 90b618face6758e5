"""One round of one workload, in a fresh interpreter.

Run by ``run.py`` from the root of a checkout as

    python3 perfbench/worker.py WORKLOAD SEED MODE CHECK SIZE

MODE is ``setup`` (stop once set up), ``plain`` (time the operations),
``traced`` (time them with the call tracer installed) or, for ``cli-jobs``
only, ``inproc`` / ``inproc-traced`` (run the jobs in-process through click's
CliRunner).  CHECK is 1 to run the output checks.  SIZE is ``full``, or
``tiny`` for the benchmark's self-test.  The last line of stdout is one JSON
object; ``ready`` is the CLOCK_MONOTONIC time at which the workload could run
its first operation.
"""

import hashlib
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# every root datum and Weyl group a workload names is built during set-up
TYPES = {
    "order-box": ["A1", "A2", "B2", "G2"],
    "pieri-tables": ["A1", "A2"],
    "characters": ["E8", "B3", "C3", "D4", "F4", "G2", "A1", "A2", "A3"],
    "cli-jobs": [],
}


def setup(workload, traced):
    """Import the package, build the workload's data; return (data, tracer)."""
    if workload == "cli-jobs":
        import silc.cli  # noqa: F401  (the import every command pays)
    else:
        import silc.pieri  # noqa: F401
    tracer = None
    if traced:
        from calltrace import Tracer

        tracer = Tracer()
        tracer.install()
    # looked up after install, so that group construction is traced too
    from silc.rootdata import root_datum
    from silc.semiinf import si_order
    from silc.weylgroup import weyl_group

    data = {}
    for tname in TYPES[workload]:
        d = root_datum(tname[0], int(tname[1:]))
        data[tname] = (d, weyl_group(d), si_order(d))
    return data, tracer


# ---------------------------------------------------------------------------
# workloads: each returns (operations, finish); an operation is a
# zero-argument callable and finish(results) turns the raw results into the
# plain data that checks.py reads
# ---------------------------------------------------------------------------

def finite_words(tname):
    """A reduced word for every finite Weyl group element (oracle.py's own
    enumeration), sorted."""
    from oracle import AffineWeyl, RootSystem

    return sorted(AffineWeyl(RootSystem(tname[0], int(tname[1:]))).finite_words.values())


def element_text(word, beta):
    return (",".join(map(str, word)) if word else "e") + "@" + ",".join(map(str, beta))


def box_texts(tname, center, radius):
    betas = [()]
    for c in center:
        betas = [b + (x,) for b in betas for x in range(c - radius, c + radius + 1)]
    return [element_text(w, b) for b in betas for w in finite_words(tname)]


def order_box(data, rng, tiny):
    ops, plan = [], {}
    # A1 and A2: every pair of a box; B2 and G2: seeded samples of box pairs
    spec = {"A1": (3, None), "A2": (1, None), "B2": (1, 400), "G2": (1, 400)}
    if tiny:
        spec = {"A1": (1, None), "A2": (0, None), "B2": (0, 20), "G2": (0, 20)}
    for tname, (radius, sample) in spec.items():
        d, wg, so = data[tname]
        center = tuple(rng.randint(-2, 2) for _ in range(d.rank))
        elems = [wg.parse(t) for t in box_texts(tname, center, radius)]
        pairs = [(i, j) for i in range(len(elems)) for j in range(len(elems))]
        if sample is not None:
            pairs = rng.sample(pairs, sample)
        plan[tname] = ([wg.format(x) for x in elems], pairs, len(ops))
        for i, j in pairs:
            ops.append(lambda so=so, x=elems[i], y=elems[j]: so.si_le(x, y))
    d, wg, so = data["A2"]
    a2 = [wg.parse(t) for t in plan["A2"][0]]
    covers_at = len(ops)
    for v in a2:
        ops.append(lambda v=v: so.si_covers_below(v, 2))
    # intervals from a box element w down to a deeper translate of it
    intervals = []
    for _ in range(2 if tiny else 12):
        w = rng.choice(a2)
        gamma = rng.choice([(1, 0), (0, 1), (1, 1)])
        beta = tuple(b + g for b, g in zip(w.translation, gamma))
        intervals.append((wg.parse(element_text(rng.choice(finite_words("A2")), beta)), w))
    intervals_at = len(ops)
    for v, w in intervals:
        ops.append(lambda v=v, w=w: so.si_interval(v, w, 1))

    def finish(results):
        out = {"pairs": {}, "covers": [], "intervals": []}
        for tname, (texts, pairs, start) in plan.items():
            out["pairs"][tname] = (texts, [(i, j, results[start + k])
                                           for k, (i, j) in enumerate(pairs)])
        for k, v in enumerate(a2):
            out["covers"].append((wg.format(v), [
                (tuple(alpha.root_coords), alpha.delta_coeff, wg.format(x))
                for alpha, x in results[covers_at + k]]))
        for k, (v, w) in enumerate(intervals):
            out["intervals"].append((wg.format(v), wg.format(w), [
                wg.format(u) for u in results[intervals_at + k]]))
        return out

    return ops, finish


def pieri_tables(data, rng, tiny):
    from silc.pieri import compute_pieri

    # the A1 tables share section caches, so their order stays fixed; the
    # seed picks their base translations, which right translation makes
    # equally costly
    jobs = [] if tiny else [("A2", "e@0,0", (1, 0), (0, 1), 2),
                            ("A2", "e@0,0", (1, 1), (0, 1), 2)]
    for m in (1, 2) if tiny else (1, 2, 3):
        jobs.append(("A1", f"e@{rng.choice([1, 2, 3])}", (m,), (0, 2), 3))
    ops = []
    for tname, w_text, lam, window, depth in jobs:
        d, wg, _ = data[tname]
        ops.append(lambda d=d, w=wg.parse(w_text), lam=lam, window=window, depth=depth:
                   compute_pieri(d, w, lam, window, depth))

    def finish(results):
        tables = []
        for (tname, w_text, lam, window, _), table in zip(jobs, results):
            wg = data[tname][1]
            tables.append({
                "type": tname, "w": wg.format(wg.parse(w_text)), "lam": lam,
                "window": window,
                "coeffs": [(wg.format(u), dict(a.terms)) for u, a in table.coeffs]})
        return tables

    return ops, finish


def characters(data, rng, tiny):
    from silc.charring import gch_global_weyl, weyl_character
    from silc.pieri import h0_dimension

    # the seed translates the h0 pairs, which leaves their cost unchanged, so
    # every seed asks for the same work.  The operations share the package's
    # memo tables, so what one costs depends on what ran before it: they run
    # in a fixed order, which spreads the mid-sized ones, where the median
    # latency falls, over the whole round.  Past E8 the weights are large
    # enough that each character takes 0.2-0.5 s of Demazure steps, not the
    # few ms of a small weight
    weyl = [("E8", (1, 0, 0, 0, 0, 0, 0, 0)), ("B3", (4, 4, 4)), ("C3", (4, 4, 4)),
            ("D4", (2, 2, 2, 2)), ("F4", (1, 0, 1, 1)), ("G2", (10, 10))]
    gweyl = [("A2", (1, 0), (0, 4)), ("A3", (1, 0, 1), (0, 3))]
    h0 = [(d, 3, rng.randint(-3, 3)) for d in range(1, 6)]
    if tiny:
        weyl, h0 = weyl[1:3] + weyl[5:], h0[:2]
    ops = []
    for tname, lam in weyl:
        ops.append(lambda d=data[tname][0], lam=lam: weyl_character(d, lam))
    for tname, lam, window in gweyl:
        d, wg, _ = data[tname]
        w0 = wg.parse(element_text(max(finite_words(tname), key=len), (0,) * d.rank))
        ops.append(lambda d=d, w0=w0, lam=lam, window=window:
                   gch_global_weyl(d, w0, lam, window))
    d1, wg1, _ = data["A1"]
    for d, m, k in h0:
        ops.append(lambda v=wg1.parse(f"1@{d + k}"), w=wg1.parse(f"e@{k}"), m=m:
                   h0_dimension(d1, v, w, (m,)))
    order = [1, 0, 2, 8, 11, 3, 6, 9, 4, 12, 5, 7, 10] if not tiny else range(len(ops))

    def finish(results):
        res = [None] * len(ops)
        for k, r in zip(order, results):
            res[k] = r
        res = iter(res)
        return {
            "weyl": [(t, lam, {wt: c for (_, wt), c in next(res).terms}) for t, lam in weyl],
            "gweyl": [(t, lam, win, dict(next(res).terms)) for t, lam, win in gweyl],
            "h0": [(d, m, next(res)) for d, m, _ in h0],
        }

    return [ops[k] for k in order], finish


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------

# usage errors: the exit-code contract says exit 2 without a traceback
USAGE_OK = [
    ["order", "le", "--rank", "1", "--w", "1@0", "--v", "x@0"],
    ["char", "weyl", "--rank", "2", "--lam", "-1,0"],
]
# known exit-code faults: each exits 1 with a leaked exception
USAGE_FAULTS = [
    ["char", "gweyl", "--type", "B", "--rank", "2", "--w", "e@0,0", "--lam", "1,0",
     "--window", "0:2"],
    ["h0", "--type", "B", "--rank", "2", "--v", "e@1,1", "--w", "e@0,0", "--lam", "1,1"],
    ["pieri", "--type", "B", "--rank", "2", "--w", "e@0,0", "--lam", "1,1",
     "--window", "0:1", "--depth", "2"],
    ["order", "covers", "--rank", "1", "--v", "e@0", "--height-bound", "0"],
]


def load_jobspecs():
    import runpy

    return runpy.run_path(os.path.join("tests", "jobspecs.py"))["JOBSPECS"]


def cli_plan(rng, tiny):
    specs = load_jobspecs()
    usage = USAGE_OK + USAGE_FAULTS
    if tiny:
        specs, usage = specs[:3], usage[:1] + usage[-1:]
    cold = [("cold", n, a) for n, a in specs]
    warm = [("warm", n, a) for n, a in specs]
    usage = [("usage", " ".join(a), a) for a in usage]
    for group in (cold, warm, usage):
        rng.shuffle(group)
    return cold + warm + usage


def cli_jobs(rng, tiny, cache_root):
    import subprocess

    env = dict(os.environ, SILC_CACHE=cache_root)
    ops = []
    for kind, name, argv in cli_plan(rng, tiny):
        def op(argv=argv, kind=kind, name=name):
            try:
                p = subprocess.run([sys.executable, "-m", "silc.cli"] + argv, env=env,
                                   cwd=cache_root, capture_output=True, timeout=150)
            except subprocess.TimeoutExpired:
                return job_record(kind, name, None, b"", b"timed out")
            return job_record(kind, name, p.returncode, p.stdout, p.stderr)
        ops.append(op)
    return ops


def cli_jobs_inproc(rng, tiny, cache_root):
    from click.testing import CliRunner

    from silc.cli import main

    os.environ["SILC_CACHE"] = cache_root
    runner = CliRunner()
    ops = []
    for kind, name, argv in cli_plan(rng, tiny):
        def op(argv=argv, kind=kind, name=name):
            r = runner.invoke(main, argv)
            err = r.stderr
            if r.exception is not None and not isinstance(r.exception, SystemExit):
                err += f"Traceback: leaked {type(r.exception).__name__}"
            return job_record(kind, name, r.exit_code, r.stdout_bytes, err.encode())
        ops.append(op)
    return ops


def job_record(kind, name, code, stdout, stderr):
    stderr = stderr.decode("utf-8", "replace")
    ok = (code == 2 and "Traceback" not in stderr) if kind == "usage" else code == 0
    return {"kind": kind, "name": name, "code": code, "ok": ok,
            "stdout": stdout.decode("utf-8", "replace"), "stderr": stderr}


def goldens():
    out = {}
    for name, _ in load_jobspecs():
        with open(os.path.join("tests", "golden", name + ".txt"), "rb") as fh:
            out[name] = fh.read().decode("utf-8")
    return out


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def run_round(workload, seed, mode, check, tiny, data, tracer, ready):
    import shutil
    import tempfile

    import checks

    rng = random.Random(seed)
    tmp = None
    if workload == "cli-jobs":
        tmp_root = os.path.join(os.getcwd(), ".perfbench_tmp")
        os.makedirs(tmp_root, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=tmp_root)
        ops = (cli_jobs_inproc if mode.startswith("inproc") else cli_jobs)(rng, tiny, tmp)
    else:
        ops, finish = {"order-box": order_box, "pieri-tables": pieri_tables,
                       "characters": characters}[workload](data, rng, tiny)

    # the trace covers the timed operations only, not the harness's parsing
    # and formatting around them
    before = tracer.snapshot() if tracer is not None else None
    times, results = [], []
    t_all = time.perf_counter()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                res = op()
            except Exception as exc:  # an operation that raises counts as failed
                res = exc
            times.append(time.perf_counter() - t0)
            results.append(res)
        wall = time.perf_counter() - t_all
        if tracer is not None:
            trace = tracer.since(before)
            # group construction happens in set-up, so it is read in full
            build = tracer.snapshot()["stats"].get("weylgroup.WeylGroup.__init__")
            trace["group_build_ms"] = build[1] if build is not None else 0.0
            trace["absent"] = tracer.absent
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(tmp_root)
            except OSError:  # another round's cache is still there
                pass

    report = {"ready": ready, "op_ms": [t * 1000 for t in times], "wall_s": wall,
              "attempted": len(ops)}
    if workload == "cli-jobs":
        report["failed"] = sum(not r["ok"] for r in results)
        out = [r for r in results if r["ok"]]
        who = resource.RUSAGE_SELF if mode.startswith("inproc") else resource.RUSAGE_CHILDREN
        report["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        report["failures"] = sorted(r["name"] for r in results if not r["ok"])
        for kind in ("cold", "warm"):
            report[kind + "_ms"] = [t * 1000 for t, r in zip(times, results) if r["kind"] == kind]
        digest = [(r["kind"], r["name"], r["code"], r["stdout"]) for r in results]
        run_checks = lambda: checks.check_cli(out, goldens())  # noqa: E731
    else:
        errors = [r for r in results if isinstance(r, Exception)]
        report["failed"] = len(errors)
        report["failures"] = [repr(e) for e in errors[:3]]
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = finish(results) if not errors else None
        digest = out
        run_checks = {
            "order-box": lambda: checks.check_order(out, seed),
            "pieri-tables": lambda: checks.check_pieri(out),
            "characters": lambda: checks.check_characters(out),
        }[workload]
        if workload == "pieri-tables" and out is not None:
            report["table_support"] = sum(len(t["coeffs"]) for t in out)
    report["digest"] = hashlib.sha256(repr(digest).encode()).hexdigest()
    if tiny:
        report["outputs"] = repr(out)
    t0 = time.perf_counter()
    report["checks"] = run_checks() if check and out is not None else []
    report["check_s"] = time.perf_counter() - t0
    if tracer is not None:
        report["trace"] = trace
    return report


def main(argv):
    workload, seed, mode, check, size = argv
    data, tracer = setup(workload, mode.endswith("traced"))
    ready = time.monotonic()
    if mode == "setup":
        report = {"ready": ready}
    else:
        report = run_round(workload, int(seed), mode, check == "1", size == "tiny",
                           data, tracer, ready)
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
