#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/ from tests/jobspecs.py.

Run from the repository root after any deliberate output-format change, and
review the diff before committing.  With --check, write nothing: name every
golden whose output differs and exit 1 if any does.
"""

import argparse
import os
import pathlib
import sys
import tempfile

from click.testing import CliRunner

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package from this checkout, installed or not, and the job list
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from jobspecs import JOBSPECS  # noqa: E402

from silc.cli import main  # noqa: E402


def run(check=False):
    golden = ROOT / "tests" / "golden"
    if not check:
        golden.mkdir(exist_ok=True)
    runner = CliRunner()
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["SILC_CACHE"] = os.path.join(tmp, "cache")
        for name, argv in JOBSPECS:
            result = runner.invoke(main, argv + ["--no-cache"],
                                   catch_exceptions=False)
            if result.exit_code != 0:
                raise SystemExit(f"{name}: exit {result.exit_code}\n"
                                 f"{result.output}")
            path = golden / f"{name}.txt"
            data = result.stdout.encode("utf-8")
            if not check:
                path.write_bytes(data)
                print(f"wrote {name}.txt ({len(data)} bytes)")
            elif not path.exists() or path.read_bytes() != data:
                differ.append(name)
                print(f"differs: {name}.txt")
    if check:
        print(f"{len(JOBSPECS) - len(differ)} of {len(JOBSPECS)} goldens match")
        if differ:
            raise SystemExit(1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/golden/ instead of writing")
    run(parser.parse_args().check)
