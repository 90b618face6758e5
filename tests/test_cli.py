"""CLI behavior: dispatch, exit codes, determinism, and the result cache."""

import json
import os

import pytest
from click.testing import CliRunner

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


def test_malformed_coordinates_usage_error(runner):
    res = invoke(runner, ["order", "le", "--rank", "2", "--w", "1@0",
                          "--v", "e@0,0"])
    assert res.exit_code == 2
    res = invoke(runner, ["char", "weyl", "--rank", "2", "--lam", "1"])
    assert res.exit_code == 2


def test_computation_error_exit_code(runner):
    res = invoke(runner, ["pieri", "--rank", "1", "--w", "e@0",
                          "--lam", "1", "--window", "0:4", "--depth", "2"])
    assert res.exit_code == 3
    payload = json.loads(res.stdout)
    assert payload["error"]["type"] == "WindowExhaustedError"


def test_non_dominant_weight_usage_error(runner):
    res = invoke(runner, ["char", "weyl", "--rank", "1", "--lam", "-1"])
    assert res.exit_code == 2


def test_unknown_type_usage_error(runner):
    res = invoke(runner, ["char", "weyl", "--type", "Z", "--rank", "1",
                          "--lam", "1"])
    assert res.exit_code == 2


def test_csv_output(runner):
    res = invoke(runner, ["char", "weyl", "--rank", "1", "--lam", "1",
                          "--output", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "q,wt,c"
    assert set(lines[1:]) == {"0,-1,1", "0,1,1"}


def test_csv_unsupported_command(runner):
    res = invoke(runner, ["h0", "--rank", "1", "--v", "e@0", "--w", "e@0",
                          "--lam", "1", "--output", "csv"])
    assert res.exit_code == 2


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


def test_cache_key_includes_parameters(runner, tmp_path):
    invoke(runner, ["order", "le", "--rank", "1", "--w", "1@0", "--v", "e@0"])
    invoke(runner, ["order", "le", "--rank", "1", "--w", "e@0", "--v", "1@0"])
    assert len(os.listdir(tmp_path / "cache")) == 2


def test_cache_key_includes_source_digest(runner, tmp_path, monkeypatch):
    from silc import cache

    args = ["order", "le", "--rank", "1", "--w", "1@0", "--v", "e@0"]
    invoke(runner, args)
    monkeypatch.setattr(cache, "source_digest", lambda: "0" * 64)
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert len(os.listdir(tmp_path / "cache")) == 2


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
], ids=["gweyl-B2", "h0-B2", "pieri-B2", "height-bound-0", "parabolic-index",
        "parabolic-descent"])
def test_library_input_errors_are_usage_errors(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


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
