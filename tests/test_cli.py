"""CLI behavior: dispatch, exit codes, determinism, and the result cache."""

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings, strategies as st
from jobspecs import JOBSPECS

from silc import pieri
from silc.cli import COMMANDS, COMMON, MAX_WORD_LETTERS, main
from silc.quasimap import MAX_COEFFICIENT_DIGITS, MAX_COEFFICIENTS


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
        coeffs, pk = coefficients(datum, w, *args)
        coeffs[w] = {k: 2 * c for k, c in coeffs[w].items()}
        return coeffs, pk

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
    # still parsed as an integer, though it reaches neither compute nor key
    res = invoke(runner, ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1",
                          "--window", "0:4", "--depth", "deep", "--no-cache"])
    assert res.exit_code == 2


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


@pytest.mark.parametrize("cmd", [
    ["char", "gweyl", "--rank", "1", "--w", "1@0", "--lam", "1"],
    ["pieri", "--rank", "1", "--w", "e@0", "--lam", "1"],
], ids=["char gweyl", "pieri"])
@pytest.mark.parametrize("window", ["0:401", "400:401"])
def test_window_above_the_limit_usage_error(runner, cmd, window):
    """Both build every degree from 0 up to hi; one past the limit is
    refused before anything is computed."""
    res = invoke(runner, cmd + ["--window", window, "--no-cache"])
    assert res.exit_code == 2
    assert "maximum 400" in res.output


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
    """A rank outside 1..16 exits 2 with one Error line and no traceback."""
    lam = ",".join(["1"] + ["0"] * (rank - 1))
    res = invoke(runner, ["char", "weyl", "--rank", str(rank), "--lam", lam])
    assert res.exit_code == 2
    assert res.stdout == "" and "Traceback" not in res.output
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, res.stderr
    assert ("maximum 16" if rank > 0 else "minimum 1") in errors[0]


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


def test_the_cache_writes_without_tempfile(tmp_path):
    """Without site-packages, whose .pth files may load them first, neither
    `import silc.cli` nor a cached job loads tempfile, shutil or random, and
    the job leaves its entry and no temporary file."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from silc.cli import main\n"
            "modules = ('tempfile', 'shutil', 'random')\n"
            "print(*[m for m in modules if m in sys.modules])\n"
            "main(['order', 'le', '--rank', '1', '--w', '1@0', '--v', 'e@0'])\n"
            "print(*[m for m in modules if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "SILC_CACHE": str(tmp_path / "cache")})
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["", '{"result":true}', ""]
    (entry,) = os.listdir(tmp_path / "cache")
    assert entry.endswith(".json")


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch,
                                                       capsys):
    from silc import cache

    def refuse(src, dst):
        raise PermissionError("refused")

    monkeypatch.setenv("SILC_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(os, "replace", refuse)
    cache.store("0" * 64, {"result": True})
    assert os.listdir(tmp_path / "cache") == []
    assert "warning: cache bypassed (refused)" in capsys.readouterr().err


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
                    [["1/0"], ["1"]], [["1e5000"], ["1"]], [["1e-5000"], ["1"]])],
], ids=["gweyl-B2", "h0-B2", "pieri-B2", "height-bound-0", "parabolic-index",
        "parabolic-descent", "qmap-data-list", "qmap-weight-2", "qmap-float",
        "empty-translation", "qmap-type-G", "qmap-rank-2", "qmap-degree-float",
        "qmap-degree-string", "qmap-degree-bool", "qmap-weight-twice",
        "element-empty-letter", "word-empty-letter", "qmap-poly-string",
        "qmap-coefficient-true", "qmap-coefficient-bools",
        "qmap-coefficient-zero-denominator", "qmap-coefficient-exponent",
        "qmap-coefficient-negative-exponent"])
def test_library_input_errors_are_usage_errors(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


def test_zero_twist_global_weyl_outside_type_a(runner):
    """The zero twist takes no formula step, so char gweyl answers it in
    type B as h0 and pieri do: the constant at degree 0."""
    res = invoke(runner, ["char", "gweyl", "--type", "B", "--rank", "2",
                          "--w", "e@0,0", "--lam", "0,0", "--window", "0:2",
                          "--no-cache"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["terms"] == [{"q": 0, "wt": [0, 0], "c": 1}]


# every subcommand: a valid A1 argv, and the options appended to it (the
# parser keeps the last value of a repeated option) that make it malformed, of a
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


@pytest.mark.parametrize("cmd, flag", [
    (cmd, flag) for cmd, (base, _) in CONTRACT.items()
    for flag in ("--w", "--v", "--word") if flag in base] + [("dim parabolic", "--j")])
def test_a_word_of_more_than_1024_letters_is_refused(runner, monkeypatch, cmd, flag):
    """Every element word, char demazure's --word and dim parabolic's --j:
    1,025 letters exit 2 as the option is parsed, before any product is
    formed."""
    from silc.weylgroup import WeylGroup

    real = WeylGroup.finite_from_word

    def finite_from_word(self, word):
        assert len(word) <= MAX_WORD_LETTERS
        return real(self, word)

    monkeypatch.setattr(WeylGroup, "finite_from_word", finite_from_word)
    base, _ = CONTRACT[cmd]
    value = ",".join(["1"] * (MAX_WORD_LETTERS + 1))
    if flag in base:  # an element keeps its translation
        value += "".join(base[base.index(flag) + 1].partition("@")[1:])
    res = runner.invoke(main, cmd.split() + base + [flag, value, "--no-cache"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert f"Error: Invalid value for '{flag}': a word has more than 1024 letters" \
        in res.stderr


def test_a_word_of_1024_letters_is_accepted(runner):
    """s1 taken 1,024 times is the identity."""
    word = ",".join(["1"] * MAX_WORD_LETTERS)
    args = ["order", "le", "--rank", "1", "--v", "1@0", "--no-cache"]
    res = invoke(runner, args + ["--w", f"{word}@0"])
    assert res.exit_code == 0
    assert res.stdout == invoke(runner, args + ["--w", "e@0"]).stdout


ORDER_LE = ["order", "le", "--rank", "1", "--w", "1@0"]


@pytest.mark.parametrize("args", [
    ORDER_LE + ["--v", "e@0", "--bogus", "1"],
    ORDER_LE + ["--v"],
    ORDER_LE,
    ORDER_LE + ["--v", "e@0", "extra"],
    ["order", "bogus", "--rank", "1"],
    ["bogus"],
    ["order"],
    [],
], ids=["unknown-option", "option-without-value", "missing-required",
        "stray-positional", "unknown-subcommand", "unknown-command", "bare-group",
        "bare-silc"])
def test_parser_usage_errors(runner, args):
    """Every command line the parser refuses exits 2, with a message on
    stderr, nothing on stdout and no traceback."""
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == "" and "Error: " in res.stderr
    assert "Traceback" not in res.output


def test_an_option_value_may_start_with_a_dash(runner):
    """An option's value is the next token, so a negative weight reaches the
    library, which refuses it as not dominant."""
    res = runner.invoke(main, ["char", "weyl", "--rank", "2", "--lam", "-1,0"])
    assert res.exit_code == 2, res.output
    assert "weight (-1, 0) is not dominant" in res.stderr
    res = invoke(runner, ["char", "demazure", "--rank", "1", "--word", "1,0",
                          "--lam", "1", "--window", "-2:2", "--no-cache"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["window"] == [-2, 2]


@pytest.mark.parametrize("cmd", ["validate", "defect", "eval"])
def test_qmap_takes_exactly_one_data_source(runner, tmp_path, cmd):
    """Neither or both of --data / --data-file is a usage error, refused
    before the cache or the library sees the command line."""
    path = tmp_path / "dp.json"
    path.write_text(DP_A1)
    base = ["qmap", cmd, "--rank", "1"]
    for extra in ([], ["--data", DP_A1, "--data-file", str(path)]):
        res = runner.invoke(main, base + extra)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert "provide exactly one of --data / --data-file" in res.stderr
    assert not (tmp_path / "cache").exists()
    assert invoke(runner, base + ["--data-file", str(path)]).stdout == \
        invoke(runner, base + ["--data", DP_A1, "--no-cache"]).stdout


def test_an_option_value_may_follow_an_equals_sign(runner):
    args = ["char", "demazure", "--rank", "1", "--word", "1,0", "--lam", "1",
            "--window", "-2:2", "--no-cache"]
    res = invoke(runner, ["char", "demazure", "--rank=1", "--word=1,0", "--lam", "1",
                          "--window=-2:2", "--no-cache"])
    assert res.exit_code == 0 and res.stdout == invoke(runner, args).stdout
    res = runner.invoke(main, ["order", "le", "--rank=1", "--w=1@0", "--v=e@0=", "--no-cache"])
    assert res.exit_code == 2 and "Invalid value for '--v'" in res.stderr


@pytest.mark.parametrize("args,listed", [
    ([], ["order", "char", "qmap", "dim", "pieri", "h0"]),
    (["order"], ["le", "covers", "interval"]),
    (["order", "covers"], ["--v", "--height-bound", "--rank", "--no-cache"]),
    (["pieri", "--rank", "1"], ["--w", "--window", "--depth"]),
], ids=["silc", "group", "leaf", "leaf-after-options"])
def test_help_exits_0(runner, args, listed):
    res = invoke(runner, args + ["--help"])
    assert res.exit_code == 0, res.output
    words = {line.split()[0] for line in res.stdout.splitlines() if line.startswith("  ")}
    assert set(listed) <= words, res.stdout


def test_dim_parabolic_error_names_the_word(runner):
    res = runner.invoke(main, ["dim", "parabolic", "--rank", "2", "--beta",
                               "0,0", "--w", "1", "--j", "1", "--no-cache"])
    assert res.exit_code == 2
    assert "w = 1 is not the minimal representative" in res.output


def test_dim_parabolic_on_a_proper_parabolic(runner):
    res = invoke(runner, ["dim", "parabolic", "--rank", "3", "--j", "2",
                          "--beta", "1,0,1", "--w", "e", "--no-cache"])
    assert res.exit_code == 0, res.output
    assert res.stdout == '{"dim":11}\n'
    res = runner.invoke(main, ["dim", "parabolic", "--rank", "2", "--j", "3",
                               "--beta", "0,0", "--w", "e", "--no-cache"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


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



def test_qmap_defect_gives_one_factor_per_multiplicity_vector(runner):
    """z and z - 1 are both simple zeros of the one component, so they share
    one factor: over an algebraically closed field the defect is a divisor,
    and the factors are not split further over Q."""
    data = json.dumps({"rank": 1, "degrees": [3], "components": [
        {"weight": 1, "polys": [["0", "-1", "1"], ["0", "0", "-1", "1"]]}]})
    res = invoke(runner, ["qmap", "defect", "--rank", "1", "--data", data])
    assert res.exit_code == 0
    assert res.stdout == ('{"at_infinity":[0],"finite_points":[{"factor":'
                          '"z**2 - z","multiplicity":[1]}],"total":[2]}\n')


N = MAX_COEFFICIENT_DIGITS
# 3,000-digit u1 and c23 in rank 2: each prints, but their product in the
# contraction residual has more digits than Python prints
DP_A2_HUGE = json.dumps({"rank": 2, "degrees": [1, 2], "components": [
    {"weight": 1, "polys": [["9" * 3000], ["0", "1"], ["0"]]},
    {"weight": 2, "polys": [["1"], ["0", "1"], ["9" * 3000]]}]})


def dp_a1(*polys):
    return json.dumps({"rank": 1, "degrees": [max(map(len, polys)) - 1],
                       "components": [{"weight": 1, "polys": list(polys)}]})


@pytest.mark.parametrize("cmd", ["validate", "defect", "eval"])
@pytest.mark.parametrize("rank, data, accepted", [
    (1, dp_a1(["9" * N], ["1"]), True),
    (1, dp_a1(["1" + "0" * N], ["1"]), False),
    (1, dp_a1([10 ** N - 1], ["1"]), True),
    (1, dp_a1([-10 ** N], ["1"]), False),
    (1, dp_a1(["1/" + "9" * N], ["1"]), True),
    (1, dp_a1(["1/1" + "0" * N], ["1"]), False),
    (1, dp_a1(["0." + "0" * (N - 2) + "1"], ["1"]), True),
    (1, dp_a1(["0." + "0" * (N - 1) + "1"], ["1"]), False),
    (1, dp_a1(["1"] * MAX_COEFFICIENTS, ["1"]), True),
    (1, dp_a1(["1"] * (MAX_COEFFICIENTS + 1), ["1"]), False),
    (2, DP_A2_HUGE, False),
], ids=["digits", "digits-over", "json-int", "json-int-over", "denominator",
        "denominator-over", "decimal", "decimal-over", "coefficients",
        "coefficients-over", "huge-residual"])
def test_qmap_size_limits(runner, cmd, rank, data, accepted):
    res = runner.invoke(main, ["qmap", cmd, "--rank", str(rank), "--data",
                               data, "--no-cache"])
    if accepted:
        assert res.exit_code == 0, res.output
        return
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, res.stderr
    assert f"more than {N} digits" in errors[0] or (
        f"more than {MAX_COEFFICIENTS} coefficients" in errors[0])


POLYS_A1 = [["0", "1"], ["1"]]
HUGE_INT = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("data, message", [
    ({"components": [{"weight": 1, "polys": POLYS_A1}], "degrees": [1]},
     "data has no 'rank'"),
    ({"rank": 1, "degrees": [1]}, "data has no 'components'"),
    ({"rank": 1, "components": [{"weight": 1, "polys": POLYS_A1}]},
     "data has no 'degrees'"),
    ({"rank": 1, "components": [{"polys": POLYS_A1}], "degrees": [1]},
     "a component has no 'weight'"),
    ({"rank": 1, "components": [{"weight": 1}], "degrees": [1]},
     "component weight 1 has no 'polys'"),
    ({"rank": 1, "components": None, "degrees": [1]},
     "'components' in data must be a list"),
    ({"rank": 1, "components": [{"weight": 1, "polys": POLYS_A1}],
      "degrees": None}, "'degrees' in data must be a list"),
    ({"rank": 1, "components": [{"weight": 1, "polys": "x" * 5000}],
      "degrees": [1]}, "'polys' in component weight 1 must be a list"),
    ({"rank": 1, "components": [{"weight": 1, "polys": [["x" * 5000], ["1"]]}],
      "degrees": [1]}, "is not an exact rational"),
    ('{"rank": 1, "components": [{"weight": 1, "polys": [[%s], ["1"]]}], '
     '"degrees": [0]}' % HUGE_INT,
     f"an integer of more than {sys.get_int_max_str_digits()} digits"),
], ids=["rank", "components", "degrees", "weight", "polys", "null-components",
        "null-degrees", "long-polys", "long-coefficient", "huge-json-int"])
def test_malformed_qmap_data_names_what_is_wrong(runner, data, message):
    """One short Error: line that names the missing or malformed key and
    echoes no long value."""
    text = data if isinstance(data, str) else json.dumps(data)
    res = runner.invoke(main, ["qmap", "defect", "--rank", "1", "--data", text,
                               "--no-cache"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], res.stderr
    assert len(res.stderr) < 300 and "set_int_max_str_digits" not in res.stderr


FUZZ_ODD = st.sampled_from([None, True, 1.5, "1", "x", [], {}, -1, 10 ** 30])
# coefficients that parse, up to the digit limit, and ones that do not
FUZZ_GOOD = st.one_of(st.just(0), st.integers(-3, 3), st.sampled_from([
    "2", "-1", "3/2", "-4/6", "0/7", " 1/2 ", "0.25", "1_0", "9" * N,
    "-" + "9" * N, "1/" + "9" * N, 10 ** N - 1]))
FUZZ_BAD = st.one_of(FUZZ_ODD, st.sampled_from([
    "1/0", "1e5", "2E-3", "-1e1000000000", "nan", "inf", "", "1" + "0" * N,
    "1/1" + "0" * N, "0." + "0" * N + "1", "9" * 3000, 10 ** N, -10 ** N]))


@st.composite
def fuzz_argvs(draw):
    """A qmap argv whose --data is well formed for rank 1 or 2 but for at
    most one fault: a wrong rank, weight, shape, coefficient or degree, a
    missing key, broken JSON, or a command line that does not match."""
    cmd = draw(st.sampled_from(["validate", "defect", "eval"]))
    rank = draw(st.sampled_from([1, 2]))
    payload = {"rank": rank, "degrees": draw(st.lists(
        st.integers(0, 6), min_size=rank, max_size=rank)), "components": [
        {"weight": i + 1, "polys": draw(st.lists(
            st.lists(FUZZ_GOOD, min_size=1, max_size=4), min_size=dim, max_size=dim))}
        for i, dim in enumerate((2,) if rank == 1 else (3, 3))]}
    comp = draw(st.sampled_from(payload["components"]))
    fault = draw(st.sampled_from([None, None, "rank", "weight", "polys",
                                  "coefficient", "degrees", "key", "text", "flag"]))
    if fault == "rank":
        payload["rank"] = draw(st.one_of(FUZZ_ODD, st.integers(0, 3)))
    elif fault == "weight":
        comp["weight"] = draw(st.one_of(FUZZ_ODD, st.integers(0, 3)))
    elif fault == "polys":
        comp["polys"] = draw(st.one_of(
            FUZZ_ODD, st.lists(st.lists(FUZZ_GOOD, max_size=2), max_size=4),
            st.sampled_from([MAX_COEFFICIENTS, MAX_COEFFICIENTS + 1]).map(
                lambda n: [["1"] * n] * len(comp["polys"]))))
    elif fault == "coefficient":
        draw(st.sampled_from(comp["polys"])).append(draw(FUZZ_BAD))
    elif fault == "degrees":
        payload["degrees"] = draw(st.one_of(FUZZ_ODD, st.lists(
            st.one_of(st.integers(-2, 40), FUZZ_ODD), max_size=3)))
    elif fault == "key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    text = json.dumps(payload)
    if fault == "text":
        text = draw(st.sampled_from([
            "", "{", "[1, 2]", "null", text[:-1], text.replace('"2"', "9" * 5000)]))
    argv = ["qmap", cmd, "--rank", str(rank), "--data", text, "--no-cache"]
    if fault == "flag":
        argv += draw(st.sampled_from([["--rank", str(3 - rank)], ["--rank", "0"],
                                      ["--type", "B", "--rank", "2"], ["--at", "1"]]))
    return argv + draw(st.sampled_from([[], ["--at", "inf"], ["--at", "0"]])
                       if cmd == "eval" else st.just([]))


def run_in_process(argv):
    """silc's exit code, stdout and stderr, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@seed(32)
@settings(max_examples=500, deadline=None)
@given(fuzz_argvs())
def test_qmap_exit_code_contract_on_fuzzed_data(argv):
    """Every --data payload exits 0, 2 or 3, never with a traceback, and
    prints JSON on exits 0 and 3."""
    code, out, err = run_in_process(argv)
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    if code == 2:
        assert out == "" and "Error: " in err
    else:
        json.loads(out)

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
    """In a fresh interpreter without site-packages, `import silc.cli` loads
    no compute module, and the group's golden jobs print their goldens, load
    only the group's modules and never import sympy."""
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        "from jobspecs import JOBSPECS\n"
        "from silc.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('silc.'))\n"
        "at_import = loaded()\n"
        "for name in sys.argv[1:]:\n"
        "    main(dict(JOBSPECS)[name] + ['--no-cache'])\n"
        "print(json.dumps([at_import, loaded(), 'sympy' in sys.modules]))\n"
    )
    names = [name for name, _ in JOBSPECS if name.split("_")[0] == group]
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    res = subprocess.run([sys.executable, "-S", "-c", code, *names], cwd=tmp_path,
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


@pytest.mark.parametrize("module,absent", [
    ("silc.pieri", ["dataclasses", "inspect", "fractions"]),
    ("silc.cli", ["dataclasses", "inspect", "fractions", "click"]),
])
def test_the_compute_path_imports_neither_dataclasses_nor_fractions(module, absent):
    """Records are NamedTuples, rootdata works in integers and the CLI
    parses its options itself, so a fresh interpreter pays for none of these
    modules (inspect, which dataclasses and click load, costs about 6 ms)."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys, {module}\nprint(*[m for m in {absent!r} if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


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


# options that change no byte of the payload and stay out of the cache key
UNKEYED = {"pieri": {"--depth"}}


@pytest.mark.parametrize("cmd", list(CONTRACT))
def test_cache_key_includes_parameters(runner, tmp_path, cmd):
    options = set(COMMON) | set(COMMANDS[cmd][1]) | {"--no-cache"}
    shared = {"--type", "--rank", "--output", "--no-cache", "--data-file"}
    assert options - shared == {extra[0] for extra in VARIED[cmd]}
    base = CONTRACT[cmd][0]
    for extra in [[]] + VARIED[cmd]:
        res = invoke(runner, cmd.split() + base + extra)
        assert res.exit_code == 0, (extra, res.output)
    keyed = [extra for extra in VARIED[cmd] if extra[0] not in UNKEYED.get(cmd, ())]
    assert len(os.listdir(tmp_path / "cache")) == 1 + len(keyed)
