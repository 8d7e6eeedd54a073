import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_clt_rates_script_runs():
    proc = _run_script("clt_rates.py", "--replicates", "500", "--n-grid", "100", "400")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("W2=") == 10  # five models, two sample sizes


def test_mutation_table_rows_apply_once():
    # scripts/mutation_check.py applies each row by text; a row whose old text
    # moved or doubled would mutate nothing, or the wrong line
    rows = json.loads((ROOT / "scripts" / "mutations.json").read_text(encoding="utf-8"))
    assert len({r["id"] for r in rows}) == len(rows)
    for row in rows:
        assert (ROOT / row["file"]).read_text(encoding="utf-8").count(row["old"]) == 1, row["id"]
        assert row["new"] != row["old"] and row["tests"], row["id"]
        for test in row["tests"]:
            path, name = test.split("::")
            assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), test
