"""Mutation check: every row of the mutation table must be killed by its tests.

    python scripts/mutation_check.py

scripts/mutations.json lists one-line mutations of the package, one row
each: the file, the old text, the new text, and the tests that must kill
the mutation. The check copies src/, tests/, configs/ (acceptance criteria
such as C11 read a shipped config) and pyproject.toml to a temporary
directory and runs every named test there on the unmutated copy, where all
must pass. Then, row by row, it replaces the old text by the new
text, runs each of the row's tests on its own, and restores the file. A row
is killed when every one of its tests fails on the mutant.

A digest pin is never a row's test: a digest cannot tell a bug from a
deliberate change of the stream, so it kills every mutation and shows
nothing. Each test named here checks a law, an identity or a bound.

Exit 0 when every row is killed. Exit 1 when a row's old text does not
occur exactly once in its file, when a named test fails on the unmutated
copy, or when a mutation survives one of its tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "scripts" / "mutations.json"
TEST_TIMEOUT_S = 900


def _pytest(copy: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TEST_TIMEOUT_S)
    return proc.returncode


def main() -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    stale = [r["id"] for r in rows if (ROOT / r["file"]).read_text(encoding="utf-8").count(r["old"]) != 1]
    if stale:
        print(f"old text not found exactly once: {stale}")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutation_check_") as tmp:
        copy = Path(tmp)
        for sub in ("src", "tests", "configs"):
            shutil.copytree(ROOT / sub, copy / sub, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        where = subprocess.run(
            [sys.executable, "-c", "import bootchain; print(bootchain.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"bootchain imports from {where}, not from the copy")
            return 1
        tests = sorted({t for r in rows for t in r["tests"]})
        if _pytest(copy, tests) != 0:
            print("a named test fails on the unmutated copy")
            return 1
        survived = []
        for row in rows:
            path = copy / row["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(row["old"], row["new"]), encoding="utf-8")
            try:
                for test in row["tests"]:
                    t0 = time.perf_counter()
                    killed = _pytest(copy, [test]) != 0
                    verdict = "killed" if killed else "SURVIVED"
                    print(f"{row['id']:34s} {verdict:8s} {time.perf_counter() - t0:5.1f} s  {test}", flush=True)
                    if not killed:
                        survived.append((row["id"], test))
            finally:
                path.write_text(original, encoding="utf-8")
    print(f"{len(rows)} mutations, {len(survived)} survived: {survived}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
