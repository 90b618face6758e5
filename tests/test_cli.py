"""CLI behavior: dispatch, exit codes, determinism, and the result cache."""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from jobspecs import JOBSPECS

from silc import pieri
from silc.cli import main


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("SILC_CACHE", str(tmp_path / "cache"))
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_order_le_example(runner):
    res = invoke(runner, ["order", "le", "--rank", "1", "--w", "1@0",
                          "--v", "e@0"])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"result": True}


def test_h0_example(runner):
    res = invoke(runner, ["h0", "--rank", "1", "--v", "1@1", "--w", "e@0",
                          "--lam", "1"])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"dim": 4}


def test_h0_window_computes_the_character_once(runner, monkeypatch):
    calls = []
    coefficients = pieri._twist_coefficients
    monkeypatch.setattr(pieri, "_twist_coefficients",
                        lambda *args: calls.append(args) or coefficients(*args))
    res = invoke(runner, ["h0", "--rank", "1", "--v", "1@1", "--w", "e@0",
                          "--lam", "1", "--window", "0:100", "--no-cache"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    terms = payload["character"]["terms"]
    assert payload["dim"] == 4 == sum(t["c"] for t in terms)
    assert len(calls) == 1


def test_malformed_coordinates_usage_error(runner):
    res = invoke(runner, ["order", "le", "--rank", "2", "--w", "1@0",
                          "--v", "e@0,0"])
    assert res.exit_code == 2
    res = invoke(runner, ["char", "weyl", "--rank", "2", "--lam", "1"])
    assert res.exit_code == 2


def test_computation_error_exit_code(runner, monkeypatch):
    """A base coefficient that is not the extremal monomial exits 3."""
    coefficients = pieri._twist_coefficients

    def doubled_base(datum, w, *args):
        coeffs = coefficients(datum, w, *args)
        coeffs[w] = coeffs[w] + coeffs[w]
        return coeffs

    monkeypatch.setattr(pieri, "_twist_coefficients", doubled_base)
    res = invoke(runner, ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1",
                          "--window", "0:2", "--no-cache"])
    assert res.exit_code == 3
    payload = json.loads(res.stdout)
    assert payload["error"]["type"] == "InconsistencyError"


@pytest.mark.parametrize("window", ["-2:0", "0:0"])
def test_window_below_degree_zero_gives_an_empty_table(runner, window):
    res = invoke(runner, ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1",
                          "--window", window, "--no-cache"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["coeffs"] == []


def test_depth_changes_no_byte(runner):
    out = [invoke(runner, ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1",
                           "--window", "0:4", "--depth", depth, "--no-cache"])
           for depth in ("2", "5")]
    assert [res.exit_code for res in out] == [0, 0]
    assert out[0].stdout_bytes == out[1].stdout_bytes
    assert json.loads(out[0].stdout)["coeffs"]


def test_non_dominant_weight_usage_error(runner):
    res = invoke(runner, ["char", "weyl", "--rank", "1", "--lam", "-1"])
    assert res.exit_code == 2


def test_unknown_type_usage_error(runner):
    res = invoke(runner, ["char", "weyl", "--type", "Z", "--rank", "1",
                          "--lam", "1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("cmd", [
    ["char", "gweyl", "--rank", "1", "--w", "1@0", "--lam", "1"],
    ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1", "--depth", "3"],
    ["h0", "--rank", "1", "--v", "1@1", "--w", "e@0", "--lam", "1"],
], ids=["char gweyl", "pieri", "h0"])
def test_reversed_window_usage_error(runner, cmd):
    res = invoke(runner, cmd + ["--window", "3:1", "--no-cache"])
    assert res.exit_code == 2
    assert "3:1" in res.output


@pytest.mark.parametrize("args,out", [
    (["dim", "richardson", "--v", "1,2@1000000,1000000", "--w", "e@0,0"],
     '{"dim":4000002,"empty":false}\n'),
    (["order", "le", "--w", "1,2@1000000,1000000", "--v", "e@0,0"],
     '{"result":true}\n'),
])
def test_far_apart_pair_answers_at_once(tmp_path, args, out):
    """The order compares translations without walking between them, so a
    pair a million coroots apart takes as long as a near one."""
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-m", "silc.cli", *args, "--rank", "2",
                          "--no-cache"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=20,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    assert res.stdout == out


def test_a4_fundamental_table_runs_in_a_small_address_space(tmp_path):
    """The A4 varpi_1 table is the closed form cut to its window: it needs
    no module closure, so it fits in 1 GB of address space."""
    src = Path(__file__).resolve().parents[1] / "src"
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    res = subprocess.run([sys.executable, "-m", "silc.cli", "pieri", "--rank", "4",
                          "--w", "e@0,0,0,0", "--lam", "1,0,0,0", "--window", "0:1",
                          "--depth", "2", "--no-cache"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=30,
                         preexec_fn=limit, env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    assert len(json.loads(res.stdout)["coeffs"]) == 5


@pytest.mark.parametrize("rank", [-1, 0, 17])
def test_rank_out_of_range_usage_error(runner, rank):
    lam = ",".join(["1"] + ["0"] * (rank - 1))
    res = invoke(runner, ["char", "weyl", "--rank", str(rank), "--lam", lam])
    assert res.exit_code == 2
    if rank > 0:
        assert "maximum 16" in res.output


def test_csv_output(runner):
    res = invoke(runner, ["char", "weyl", "--rank", "1", "--lam", "1",
                          "--output", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "q,wt,c"
    assert set(lines[1:]) == {"0,-1,1", "0,1,1"}


def test_csv_unsupported_command(runner, tmp_path):
    res = invoke(runner, ["h0", "--rank", "1", "--v", "1@1", "--w", "e@0",
                          "--lam", "1", "--output", "csv"])
    assert res.exit_code == 2
    # rejected before computing: nothing printed, nothing cached
    assert res.stdout == ""
    cache_dir = tmp_path / "cache"
    assert not cache_dir.exists() or not os.listdir(cache_dir)


def test_pretty_output_same_payload(runner):
    args = ["char", "gweyl", "--rank", "1", "--w", "1@0", "--lam", "1",
            "--window", "0:3"]
    plain = invoke(runner, args)
    pretty = invoke(runner, args + ["--output", "pretty"])
    assert json.loads(plain.stdout) == json.loads(pretty.stdout)


CACHED_ARGS = ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1",
               "--window", "0:2", "--depth", "3"]


def test_cache_round_trip_and_byte_equality(runner, tmp_path):
    first = invoke(runner, CACHED_ARGS)
    assert first.exit_code == 0
    cache_files = os.listdir(tmp_path / "cache")
    assert len(cache_files) == 1
    second = invoke(runner, CACHED_ARGS)
    assert second.stdout == first.stdout
    nocache = invoke(runner, CACHED_ARGS + ["--no-cache"])
    assert nocache.stdout == first.stdout


def test_corrupted_cache_self_heals(runner, tmp_path):
    first = invoke(runner, CACHED_ARGS)
    cache_dir = tmp_path / "cache"
    (entry,) = list(cache_dir.iterdir())
    entry.write_text("{not json")
    second = invoke(runner, CACHED_ARGS)
    assert second.exit_code == 0
    assert second.stdout == first.stdout
    # the entry was rewritten with valid content
    assert json.loads(entry.read_text())["payload"]


def test_unwritable_cache_is_bypassed(monkeypatch):
    monkeypatch.setenv("SILC_CACHE", "/proc/definitely-not-writable/cache")
    runner = CliRunner()
    res = runner.invoke(main, ["order", "le", "--rank", "1", "--w", "1@0",
                               "--v", "e@0"], catch_exceptions=False)
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"result": True}


def test_cache_key_includes_source_digest(runner, tmp_path, monkeypatch):
    from silc import cache

    args = ["order", "le", "--rank", "1", "--w", "1@0", "--v", "e@0"]
    invoke(runner, args)
    monkeypatch.setattr(cache, "source_digest", lambda: "0" * 64)
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert len(os.listdir(tmp_path / "cache")) == 2


DP_A1 = json.dumps({"rank": 1, "degrees": [1], "components": [
    {"weight": 1, "polys": [["0", "1"], ["1"]]}]})
DP_WEIGHT_2 = json.dumps({"rank": 1, "degrees": [0], "components": [
    {"weight": 2, "polys": [["1"], ["0"]]}]})


@pytest.mark.parametrize("args", [
    ["char", "gweyl", "--type", "B", "--rank", "2", "--w", "e@0,0",
     "--lam", "1,0", "--window", "0:2"],
    ["h0", "--type", "B", "--rank", "2", "--v", "e@1,1", "--w", "e@0,0",
     "--lam", "1,1"],
    ["pieri", "--type", "B", "--rank", "2", "--w", "e@0,0", "--lam", "1,1",
     "--window", "0:1", "--depth", "2"],
    ["order", "covers", "--rank", "1", "--v", "e@0", "--height-bound", "0"],
    ["dim", "parabolic", "--rank", "2", "--beta", "0,0", "--w", "5"],
    ["dim", "parabolic", "--rank", "2", "--beta", "0,0", "--w", "1",
     "--j", "1"],
    ["qmap", "eval", "--rank", "1", "--data", "[1,2]"],
    ["qmap", "eval", "--rank", "1", "--data", json.dumps(
        {"rank": 1, "components": [{"weight": 2, "polys": [["1"], ["0"]]}],
         "degrees": [0]})],
    ["qmap", "validate", "--rank", "1", "--data", json.dumps(
        {"rank": 1, "components": [{"weight": 1, "polys": [[0.1], ["1"]]}],
         "degrees": [0]})],
    ["dim", "richardson", "--rank", "1", "--v", "1@", "--w", "e@0"],
    ["qmap", "validate", "--type", "G", "--rank", "2", "--data", DP_A1],
    ["qmap", "eval", "--rank", "2", "--data", DP_A1],
    *[["qmap", "validate", "--rank", "1", "--data", json.dumps(
        {**json.loads(DP_A1), "degrees": [d]})] for d in (1.9, "1", True)],
    ["qmap", "validate", "--rank", "1", "--data", json.dumps(
        {**json.loads(DP_A1), "components": 2 * json.loads(DP_A1)["components"]})],
    ["order", "le", "--rank", "2", "--w", "1,,2@0,0", "--v", "e@0,0"],
    ["dim", "parabolic", "--rank", "2", "--beta", "0,0", "--w", "1,,"],
    *[["qmap", "eval", "--rank", "1", "--data", json.dumps(
        {**json.loads(DP_A1), "components": [{"weight": 1, "polys": polys}]})]
      for polys in ([["1"], "01"], [[True], ["1"]], [["0"], [False, True]],
                    [["1/0"], ["1"]])],
], ids=["gweyl-B2", "h0-B2", "pieri-B2", "height-bound-0", "parabolic-index",
        "parabolic-descent", "qmap-data-list", "qmap-weight-2", "qmap-float",
        "empty-translation", "qmap-type-G", "qmap-rank-2", "qmap-degree-float",
        "qmap-degree-string", "qmap-degree-bool", "qmap-weight-twice",
        "element-empty-letter", "word-empty-letter", "qmap-poly-string",
        "qmap-coefficient-true", "qmap-coefficient-bools",
        "qmap-coefficient-zero-denominator"])
def test_library_input_errors_are_usage_errors(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


# every subcommand: a valid A1 argv, and the options appended to it (click
# keeps the last value of a repeated option) that make it malformed, of a
# non-A type, out of range, or inverted (a reversed window or pair)
CONTRACT = {
    "order le": (["--rank", "1", "--w", "1@0", "--v", "e@0"], {
        "malformed": ["--w", "x@0"],
        "type": ["--type", "B", "--rank", "2", "--w", "1@0,0", "--v", "e@0,0"],
        "range": ["--w", "3@0"],
        "inverted": ["--w", "e@0", "--v", "1@1"]}),
    "order covers": (["--rank", "1", "--v", "e@0"], {
        "malformed": ["--v", "e@a"],
        "type": ["--type", "G", "--rank", "2", "--v", "e@0,0"],
        "range": ["--height-bound", "-3"]}),
    "order interval": (["--rank", "1", "--v", "1@1", "--w", "e@0"], {
        "malformed": ["--radius", "x"],
        "type": ["--type", "B", "--rank", "2", "--v", "1@1,1", "--w", "e@0,0"],
        "range": ["--radius", "-1"],
        "inverted": ["--v", "e@0", "--w", "1@1"]}),
    "char weyl": (["--rank", "1", "--lam", "1"], {
        "malformed": ["--lam", "1,,"],
        "type": ["--type", "G", "--rank", "2", "--lam", "1,0"],
        "range": ["--lam", "-2"]}),
    "char gweyl": (["--rank", "1", "--w", "1@0", "--lam", "1", "--window", "0:3"], {
        "malformed": ["--window", "0-3"],
        "type": ["--type", "B", "--rank", "2", "--w", "e@0,0", "--lam", "1,0"],
        "range": ["--lam", "-1"],
        "inverted": ["--window", "3:0"]}),
    "char demazure": (["--rank", "1", "--word", "1", "--lam", "1", "--window", "0:2"], {
        "malformed": ["--word", "1,x"],
        "type": ["--type", "B", "--rank", "2", "--word", "1,2", "--lam", "1,0"],
        "range": ["--word", "2"],
        "inverted": ["--window", "2:0"]}),
    "pieri": (["--rank", "1", "--w", "e@0", "--lam", "1", "--window", "0:2",
               "--depth", "3"], {
        "malformed": ["--lam", "one"],
        "type": ["--type", "B", "--rank", "2", "--w", "e@0,0", "--lam", "1,1",
                 "--window", "0:1", "--depth", "2"],
        "range": ["--lam", "-1"],
        "inverted": ["--window", "2:0"]}),
    "h0": (["--rank", "1", "--v", "1@1", "--w", "e@0", "--lam", "1"], {
        "malformed": ["--window", "x"],
        "type": ["--type", "B", "--rank", "2", "--v", "e@1,1", "--w", "e@0,0",
                 "--lam", "1,1"],
        "range": ["--lam", "-1"],
        "inverted": ["--window", "3:0"]}),
    "qmap validate": (["--rank", "1", "--data", DP_A1], {
        "malformed": ["--data", "[1,2]"],
        "type": ["--type", "G", "--rank", "2"],
        "range": ["--data", DP_WEIGHT_2]}),
    "qmap defect": (["--rank", "1", "--data", DP_A1], {
        "malformed": ["--data", "{"],
        "type": ["--type", "G", "--rank", "2"],
        "range": ["--data", DP_WEIGHT_2]}),
    "qmap eval": (["--rank", "1", "--data", DP_A1], {
        "malformed": ["--data", "[1,2]"],
        "type": ["--type", "G", "--rank", "2"],
        "range": ["--data", DP_WEIGHT_2]}),
    "dim richardson": (["--rank", "1", "--v", "1@1", "--w", "e@0"], {
        "malformed": ["--v", "1@x"],
        "type": ["--type", "B", "--rank", "2", "--v", "1@1,1", "--w", "e@0,0"],
        "range": ["--v", "1@1,1"],
        "inverted": ["--v", "e@0", "--w", "1@1"]}),
    "dim parabolic": (["--rank", "2", "--beta", "1,0", "--w", "e"], {
        "malformed": ["--beta", "1;0"],
        "type": ["--type", "G", "--rank", "2"],
        "range": ["--beta", "-1,0"],
        "inverted": ["--j", "3"]}),
}


@pytest.mark.parametrize("args", [
    pytest.param(cmd.split() + base + extra + ["--no-cache"], id=f"{cmd}-{name}")
    for cmd, (base, variants) in CONTRACT.items()
    for name, extra in variants.items()
])
def test_every_subcommand_keeps_the_exit_code_contract(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code in (0, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    if res.exit_code == 3:
        assert "error" in json.loads(res.stdout)


def test_dim_parabolic_error_names_the_word(runner):
    res = runner.invoke(main, ["dim", "parabolic", "--rank", "2", "--beta",
                               "0,0", "--w", "1", "--j", "1", "--no-cache"])
    assert res.exit_code == 2
    assert "w = 1 is not the minimal representative" in res.output


def test_qmap_validate_reports_invalid_without_failing(runner):
    data = json.dumps({
        "rank": 2,
        "components": [
            {"weight": 1, "polys": [["1"], ["0"], ["0"]]},
            {"weight": 2, "polys": [["0"], ["0"], ["1"]]},
        ],
        "degrees": [0, 0],
    })
    res = invoke(runner, ["qmap", "validate", "--rank", "2", "--data", data])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["valid"] is False and "contraction" in payload["reason"]


def test_qmap_defect_prints_primitive_integer_factors(runner):
    data = json.dumps({"rank": 1, "degrees": [3], "components": [
        {"weight": 1, "polys": [["-1", "2"], ["1", "-4", "4"]]}]})
    res = invoke(runner, ["qmap", "defect", "--rank", "1", "--data", data])
    assert res.exit_code == 0
    assert res.stdout == ('{"at_infinity":[1],"finite_points":[{"factor":'
                          '"2*z - 1","multiplicity":[1]}],"total":[2]}\n')


# the compute modules a job of each golden group loads, beyond the ones
# `import silc.cli` loads for every job
GROUP_MODULES = {
    "order": {"semiinf"},
    "char": {"charring", "pieri", "semiinf"},
    "pieri": {"pieri", "charring", "semiinf"},
    "h0": {"pieri", "charring", "semiinf"},
    "qmap": {"quasimap", "semiinf"},
    "dim": {"quasimap", "semiinf"},
}


@pytest.mark.parametrize("group", list(GROUP_MODULES))
def test_each_golden_job_imports_only_its_modules(tmp_path, group):
    """In a fresh interpreter, `import silc.cli` loads no compute module, and
    the group's golden jobs print their goldens, load only the group's
    modules and never import sympy."""
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        "from jobspecs import JOBSPECS\n"
        "from silc.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('silc.'))\n"
        "at_import = loaded()\n"
        "for name in sys.argv[1:]:\n"
        "    main(dict(JOBSPECS)[name] + ['--no-cache'], standalone_mode=False)\n"
        "print(json.dumps([at_import, loaded(), 'sympy' in sys.modules]))\n"
    )
    names = [name for name, _ in JOBSPECS if name.split("_")[0] == group]
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    res = subprocess.run([sys.executable, "-c", code, *names], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    *outputs, report = res.stdout.splitlines(keepends=True)
    assert "".join(outputs) == "".join(
        (tests / "golden" / f"{name}.txt").read_text() for name in names)
    at_import, after_jobs, sympy_loaded = json.loads(report)
    base = ["silc.cache", "silc.cli", "silc.errors", "silc.rootdata",
            "silc.weylgroup"]
    assert at_import == base
    assert after_jobs == sorted(base + [f"silc.{m}" for m in GROUP_MODULES[group]])
    assert not sympy_loaded


def test_cache_misses_after_an_edit_to_a_module_the_job_does_not_import(tmp_path):
    """The cache never serves a result computed by other code, even when
    the edited module is one the job never loads."""
    package = tmp_path / "src" / "silc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "silc", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"),
           "SILC_CACHE": str(tmp_path / "cache")}
    args = [sys.executable, "-m", "silc.cli", "order", "le", "--rank", "1",
            "--w", "1@0", "--v", "e@0"]

    def run():
        res = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == '{"result":true}\n'
        return "cached: true" in res.stderr

    assert not run()
    assert run()
    with open(package / "quasimap.py", "a", encoding="utf-8") as fh:
        fh.write("# an edit that order le never imports\n")
    assert not run()


def test_old_exception_names_are_the_contract_classes():
    from silc import charring, errors, pieri, quasimap, rootdata

    assert rootdata.RootDataError is errors.RootDataError
    assert charring.CharacterError is errors.CharacterError
    assert quasimap.QuasimapError is errors.QuasimapError
    assert pieri.InconsistencyError is errors.InconsistencyError
    for cls in (quasimap.InvalidDPError, quasimap.DegreeError,
                quasimap.EmptyRichardsonError):
        assert issubclass(cls, errors.QuasimapError)


DP_A2_NOT_CONTRACTING = json.dumps({"rank": 2, "degrees": [0, 0], "components": [
    {"weight": 1, "polys": [["1"], ["0"], ["0"]]},
    {"weight": 2, "polys": [["0"], ["0"], ["1"]]}]})
DP_A1_TOO_HIGH = json.dumps({"rank": 1, "degrees": [0], "components": [
    {"weight": 1, "polys": [["0", "1"], ["1"]]}]})


# each subclass of QuasimapError still exits 2, except the empty Richardson
# variety, which dim richardson reports
@pytest.mark.parametrize("args, code, text", [
    (["qmap", "defect", "--rank", "2", "--data", DP_A2_NOT_CONTRACTING], 2,
     "contraction identity fails"),
    (["qmap", "eval", "--rank", "1", "--data", DP_A1_TOO_HIGH], 2,
     "exceeding the target"),
    (["dim", "parabolic", "--rank", "1", "--beta", "-1", "--w", "e"], 2,
     "is not a nonnegative coroot sum"),
    (["dim", "richardson", "--rank", "1", "--v", "e@0", "--w", "1@1"], 0,
     '{"empty":true}'),
], ids=["InvalidDPError", "DegreeError", "QuasimapError", "EmptyRichardsonError"])
def test_quasimap_errors_keep_their_exit_codes(runner, args, code, text):
    res = runner.invoke(main, args + ["--no-cache"])
    assert res.exit_code == code, res.output
    assert text in res.output


DP_A1_OTHER = json.dumps({"rank": 1, "degrees": [2], "components": [
    {"weight": 1, "polys": [["0", "1"], ["1", "0", "1"]]}]})

# for every subcommand, each of its options set to another valid value
# (appended to the CONTRACT argv); --data-file gives the same data as --data
VARIED = {
    "order le": [["--w", "e@0"], ["--v", "1@0"]],
    "order covers": [["--v", "1@0"], ["--height-bound", "3"]],
    "order interval": [["--v", "1@2"], ["--w", "1@0"], ["--radius", "3"]],
    "char weyl": [["--lam", "2"]],
    "char gweyl": [["--w", "e@0"], ["--lam", "2"], ["--window", "0:2"]],
    "char demazure": [["--word", "0"], ["--lam", "2"], ["--q", "1"],
                      ["--window", "0:1"]],
    "pieri": [["--w", "1@0"], ["--lam", "2"], ["--window", "0:1"],
              ["--depth", "4"]],
    "h0": [["--v", "1@2"], ["--w", "1@0"], ["--lam", "2"], ["--window", "0:2"]],
    "qmap validate": [["--data", DP_A1_OTHER]],
    "qmap defect": [["--data", DP_A1_OTHER]],
    "qmap eval": [["--data", DP_A1_OTHER], ["--at", "inf"]],
    "dim richardson": [["--v", "1@2"], ["--w", "1@0"]],
    "dim parabolic": [["--beta", "0,1"], ["--w", "2"], ["--j", "1"]],
}


@pytest.mark.parametrize("cmd", list(CONTRACT))
def test_cache_key_includes_parameters(runner, tmp_path, cmd):
    command = main
    for word in cmd.split():
        command = command.commands[word]
    options = {opt for p in command.params for opt in p.opts}
    shared = {"--type", "--rank", "--output", "--no-cache", "--data-file"}
    assert options - shared == {extra[0] for extra in VARIED[cmd]}
    base = CONTRACT[cmd][0]
    for extra in [[]] + VARIED[cmd]:
        res = invoke(runner, cmd.split() + base + extra)
        assert res.exit_code == 0, (extra, res.output)
    assert len(os.listdir(tmp_path / "cache")) == 1 + len(VARIED[cmd])
