"""silc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of a workload runs in a fresh
interpreter (perfbench/worker.py), so the package's process-global memo
tables start empty as they do for a one-shot command.  Rounds repeat while
another one is expected to fit in S seconds, and at least MIN_ROUNDS run.
The load is a closed loop: one process, one caller, one operation at a time.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of traced rounds, each next to an untraced round
of the same inputs, and the median tracing overhead between the two.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("order-box", "pieri-tables", "characters", "cli-jobs")
SETUP_SAMPLES = 3
ROUND_TIMEOUT = 170
# rounds per run: the two short workloads run at least three; a round of
# pieri-tables lasts 15-25 s and one of cli-jobs 45-65 s, so they run once,
# or the runs of a whole benchmark would not fit in an hour
MIN_ROUNDS = {"order-box": 3, "characters": 3, "pieri-tables": 1, "cli-jobs": 1}
# traced runs: untraced/traced pairs of rounds, at least two, more while
# another pair is expected to fit in this many seconds
TRACE_MIN_PAIRS, TRACE_MAX_PAIRS, TRACE_SECONDS = 2, 5, 60


def worker(workload, seed, mode, check):
    """Run one round in a fresh interpreter; return (launch time, report)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           mode, "1" if check else "0", "full"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, env=env, capture_output=True, timeout=ROUND_TIMEOUT)
    if p.returncode != 0:
        sys.stderr.write(p.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"worker {workload}/{mode} exited with {p.returncode}")
    return t0, json.loads(p.stdout.decode().strip().splitlines()[-1])


def run_rounds(workload, seed, seconds):
    start = time.monotonic()
    rounds, setups = [], []
    while True:
        t0, rep = worker(workload, seed, "plain", check=not rounds)
        rounds.append(rep)
        setups.append(rep["ready"] - t0)
        now = time.monotonic()
        if len(rounds) >= MIN_ROUNDS[workload] and \
                (now - start) + (now - t0 - rep["check_s"]) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        t0, rep = worker(workload, seed, "setup", check=False)
        setups.append(rep["ready"] - t0)
    return rounds, setups


def summarize(rounds):
    """correct, attempted, failed and the notes printed above the result."""
    first = rounds[0]
    checks = first["checks"]
    same = all(r["digest"] == first["digest"] for r in rounds)
    # no checks means the outputs could not be assembled: an operation of a
    # workload other than cli-jobs failed
    correct = bool(checks) and all(ok for _, ok, _ in checks) and same
    notes = [f"check {name}: {'pass' if ok else 'FAIL'} ({detail})"
             for name, ok, detail in checks]
    if len(rounds) > 1:
        notes.append(f"check rounds_identical: {'pass' if same else 'FAIL'} "
                     f"({len(rounds)} rounds)")
    for f in first.get("failures", []):
        notes.append(f"failed operation: {f}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return correct, attempted, failed, notes


def end_to_end(workload, seed, seconds):
    rounds, setups = run_rounds(workload, seed, seconds)
    correct, attempted, failed, notes = summarize(rounds)
    ops = [t for r in rounds for t in r["op_ms"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        # a mean, not a median, over rounds: the machine's speed swings
        # between two levels, and the median of three rounds jumps with it
        "op_p50_ms": (statistics.mean(statistics.median(r["op_ms"]) for r in rounds), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }
    notes.append(f"{len(rounds)} rounds, {len(ops)} operation latencies, "
                 f"{len(setups)} set-up samples")
    return correct, attempted, failed, metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

W, S = "weylgroup.WeylGroup.", "semiinf.SemiInfiniteOrder."

# name, unit, wrapped function it reads (reported absent once that is gone)
PER_LAYER = [
    ("weylgroup.group_build_ms", "ms", W + "__init__"),
    ("weylgroup.compose.calls", "count", W + "compose"),
    ("weylgroup.compose.ms", "ms", W + "compose"),
    ("weylgroup.length_finite.calls", "count", W + "length_finite"),
    ("weylgroup.length_affine.calls", "count", W + "length_affine"),
    ("weylgroup.bruhat_le.calls", "count", W + "bruhat_le"),
    ("weylgroup.bruhat_le.ms", "ms", W + "bruhat_le"),
    ("weylgroup.reduced_word.ms", "ms", W + "reduced_word"),
    ("weylgroup.self_ms", "ms", None),
    ("semiinf.si_le.calls", "count", S + "si_le"),
    ("semiinf.si_le.ms", "ms", S + "si_le"),
    ("semiinf.si_le.bruhat_free_ratio", "ratio", S + "si_le"),
    ("semiinf.si_interval.calls", "count", S + "si_interval"),
    ("semiinf.si_interval.ms", "ms", S + "si_interval"),
    ("semiinf.si_interval.yield", "ratio", S + "si_interval"),
    ("semiinf.si_covers_below.ms", "ms", S + "si_covers_below"),
    ("semiinf.self_ms", "ms", None),
    ("loopmodel.span_closure.calls", "count", "loopmodel.span_closure"),
    ("loopmodel.span_closure.ms", "ms", "loopmodel.span_closure"),
    ("loopmodel.span_closure.pivots", "count", "loopmodel.span_closure"),
    ("loopmodel.span_closure.blocks", "count", "loopmodel.span_closure"),
    ("loopmodel.pivot_yield", "ratio", "loopmodel.span_closure"),
    ("loopmodel.richardson_blocks.ms", "ms", "loopmodel.richardson_blocks"),
    ("loopmodel.schubert_blocks.ms", "ms", "loopmodel.schubert_blocks"),
    ("loopmodel.self_ms", "ms", None),
    ("charring.demazure_step.calls", "count", "charring.demazure_step"),
    ("charring.demazure_step.ms", "ms", "charring.demazure_step"),
    ("charring.self_ms", "ms", None),
    ("pieri.compute_pieri.ms", "ms", "pieri.compute_pieri"),
    ("pieri.smt_character.calls", "count", "pieri.smt_character"),
    ("pieri.smt_character.ms", "ms", "pieri.smt_character"),
    ("pieri.schubert_section_character.calls", "count", "pieri.schubert_section_character"),
    ("pieri.schubert_section_character.ms", "ms", "pieri.schubert_section_character"),
    ("pieri.table_support", "count", None),
    ("pieri.self_ms", "ms", None),
    ("cli.import_ms", "ms", None),
    ("cli.import_sympy_ms", "ms", None),
    ("cli.cold_job_p50_ms", "ms", None),
    ("cli.warm_job_p50_ms", "ms", None),
    ("cache.load.ms", "ms", "cache.load"),
    ("cache.store.ms", "ms", "cache.store"),
    ("cache.hits", "count", "cache.load"),
    ("cache.misses", "count", "cache.load"),
    ("quasimap.ms", "ms", None),
    ("trace.overhead_pct", "%", None),
]


def layer_values(tr):
    """Per-layer values from a traced round's call statistics."""
    stats, cnt = tr["stats"], tr["counters"]
    values = {"weylgroup.group_build_ms": tr["group_build_ms"]}
    for name, _, src in PER_LAYER:
        if src is None or name in values:
            continue
        calls, incl, _ = stats.get(src, (0, 0.0, 0.0))
        if name.endswith(".calls"):
            values[name] = calls
        elif name.endswith("ms"):
            values[name] = incl
    for module in ("weylgroup", "semiinf", "loopmodel", "charring", "pieri"):
        values[module + ".self_ms"] = sum(
            s[2] for k, s in stats.items() if k.split(".")[0] == module)

    def ratio(num, den):
        return num / den if den else 0.0

    pivots = cnt.get("span_closure.pivots", 0)
    values.update({
        "semiinf.si_le.bruhat_free_ratio": ratio(cnt.get("si_le.bruhat_free", 0),
                                                 values["semiinf.si_le.calls"]),
        "semiinf.si_interval.yield": ratio(cnt.get("si_interval.returned", 0),
                                           cnt.get("si_interval.tested", 0)),
        "loopmodel.span_closure.pivots": pivots,
        "loopmodel.span_closure.blocks": cnt.get("span_closure.blocks", 0),
        "loopmodel.pivot_yield": ratio(cnt.get("blocks.dimension", 0), pivots),
        "cache.hits": cnt.get("cache.hits", 0),
        "cache.misses": cnt.get("cache.misses", 0),
        "quasimap.ms": tr["module_ms"].get("quasimap", 0.0),
    })
    return values


def import_times():
    """(silc.cli, sympy) cumulative import milliseconds from -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import silc.cli"],
                       env=env, capture_output=True, timeout=ROUND_TIMEOUT)
    cumulative = {}
    for line in p.stderr.decode().splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m and m.group(2) not in cumulative:
            cumulative[m.group(2)] = int(m.group(1)) / 1000.0
    return cumulative.get("silc.cli", 0.0), cumulative.get("sympy", 0.0)


def wrapper_cost_s(n=200_000):
    """Seconds one tracer wrapper adds to a call, from a wrapped no-op."""
    sys.path.insert(0, HERE)
    from calltrace import Tracer

    def noop():
        pass

    wrapped = Tracer()._wrap("calibration.noop", "calibration", noop)
    best = {}
    for _ in range(3):
        for f in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(n):
                f()
            dt = time.perf_counter() - t0
            best[f] = min(best.get(f, dt), dt)
    return max(best[wrapped] - best[noop], 0.0) / n


def traced(workload, seed):
    plain_mode, traced_mode = (("inproc", "inproc-traced") if workload == "cli-jobs"
                               else ("plain", "traced"))
    start = time.monotonic()
    plains, reps = [], []
    while len(reps) < TRACE_MIN_PAIRS or (
            len(reps) < TRACE_MAX_PAIRS
            and (time.monotonic() - start) * (len(reps) + 1) / len(reps) < TRACE_SECONDS):
        plains.append(worker(workload, seed, plain_mode, check=not plains)[1])
        reps.append(worker(workload, seed, traced_mode, check=False)[1])
    correct, attempted, failed, notes = summarize(plains + reps)
    per_round = []
    for plain, rep in zip(plains, reps):
        values = layer_values(rep["trace"])
        values["pieri.table_support"] = rep.get("table_support", 0)
        if workload == "cli-jobs":
            values["cli.cold_job_p50_ms"] = statistics.median(rep["cold_ms"])
            values["cli.warm_job_p50_ms"] = statistics.median(rep["warm_ms"])
        values["trace.overhead_pct"] = 100.0 * (rep["wall_s"] / plain["wall_s"] - 1.0)
        per_round.append(values)
    values = {k: statistics.median(v[k] for v in per_round) for k in per_round[0]}
    if workload == "cli-jobs":
        values["cli.import_ms"], values["cli.import_sympy_ms"] = import_times()
    absent = [m for m, _, src in PER_LAYER if src in reps[0]["trace"]["absent"]]
    metrics = {m: (values.get(m, 0), unit) for m, unit, _ in PER_LAYER}
    notes.append("tracing overhead: median of "
                 + ", ".join(f"{v['trace.overhead_pct']:+.1f}%" for v in per_round)
                 + f" over {len(per_round)} traced rounds, each against an untraced one")
    calls = sum(s[0] for s in reps[0]["trace"]["stats"].values())
    cost = wrapper_cost_s()
    notes.append(f"tracing overhead estimate: {calls} wrapped calls at {cost * 1e6:.2f} us "
                 f"each = {calls * cost:.3f} s, "
                 f"{100 * calls * cost / statistics.median(p['wall_s'] for p in plains):.1f}% "
                 f"of the untraced operations")
    for m in absent:
        notes.append(f"absent: {m} (its wrapped function no longer exists)")
    return correct, attempted, failed, metrics, notes


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in ("src/silc/__init__.py", "tests/jobspecs.py", "tests/golden"):
        if not os.path.exists(need):
            sys.exit(f"run.py: {need} not found; run from the root of a silc checkout")
    if args.trace:
        correct, attempted, failed, metrics, notes = traced(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics, notes = end_to_end(
            args.workload, args.seed, args.seconds)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
