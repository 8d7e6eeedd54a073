import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "vs plug-in" in proc.stdout


def test_readme_layout_names_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (layout,) = re.findall(r"^## Layout\n\n```\n(.*?)^```", text, flags=re.S | re.M)
    listed = re.findall(r"^  (\w+\.py) ", layout, flags=re.M)
    modules = {p.name for p in (ROOT / "src" / "bootchain").glob("*.py")} - {"__init__.py"}
    assert sorted(listed) == sorted(modules)
