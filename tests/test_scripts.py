"""The scripts in scripts/ run end to end on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_section_growth_matches_binomials(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "section_growth.py",
                       "--max-degree", "2", "--max-twist", "2")
    rows = [line.split() for line in lines[1:-1]]
    assert [row[:4] for row in rows] == [
        ["1", "1", "4", "4"], ["1", "2", "10", "10"],
        ["2", "1", "6", "6"], ["2", "2", "21", "21"]]
    assert all(row[4] == "ok" for row in rows)


def test_section_growth_exits_1_on_a_mismatch(monkeypatch, capsys):
    import silc.pieri

    monkeypatch.setattr(silc.pieri, "h0_dimension", lambda *args: 5)
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, capsys, "section_growth.py",
                   "--max-degree", "1", "--max-twist", "2")
    assert exit_info.value.code == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert rows == [["1", "1", "5", "4", "MISMATCH"],
                    ["1", "2", "5", "10", "MISMATCH"]]


def test_twist_table_sweep_is_translation_invariant(monkeypatch, capsys):
    """Each table of the sweep also passes the product identity."""
    import silc.pieri
    from loopref import verified_pieri

    monkeypatch.setattr(silc.pieri, "compute_pieri", verified_pieri)
    lines = run_script(monkeypatch, capsys, "twist_table_sweep.py",
                       "--rank", "1", "--lam", "1", "--radius", "1")
    assert lines[0] == "A1 lam=(1,) window=(0,2): 6 elements"
    rows = [line.split(None, 3) for line in lines[2:]]
    assert [row[0] for row in rows] == ["1@-1", "e@-1", "1@0", "e@0", "1@1", "e@1"]
    # support and mass per finite part, the same at every translation
    assert [row[1:3] for row in rows] == [["3", "3"], ["4", "4"]] * 3


def test_goldens_check_passes_and_writes_nothing(monkeypatch, capsys, tmp_path):
    golden = SCRIPTS.parent / "tests" / "golden"
    before = {p.name: p.stat().st_mtime_ns for p in golden.iterdir()}
    monkeypatch.setenv("SILC_CACHE", str(tmp_path / "cache"))
    lines = run_script(monkeypatch, capsys, "make_goldens.py", "--check")
    assert lines[-1].endswith("goldens match")
    assert not any(line.startswith("differs") for line in lines)
    assert {p.name: p.stat().st_mtime_ns for p in golden.iterdir()} == before
