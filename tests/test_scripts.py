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


def test_surrogate_diagnostics_script_runs():
    proc = _run_script("surrogate_diagnostics.py", "--draws", "2000")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_clt_rates_script_runs():
    proc = _run_script("clt_rates.py", "--replicates", "500", "--n-grid", "100", "400")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("W2=") == 10  # five models, two sample sizes
