"""Tests of the benchmark itself (run: python3 -m pytest -q perfbench/tests)."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import read_rows, row_failures  # noqa: E402
from tracing import NAMED_LAYERS, Tracer  # noqa: E402
from workloads import CSV_COLUMNS, WORKLOADS  # noqa: E402


def _tiny(name: str, **mc) -> "run.Workload":
    wl = WORKLOADS[name]
    config = json.loads(json.dumps(wl.config))
    config["mc"].update(mc)
    return dataclasses.replace(wl, config=config)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Untraced and traced tiny runs of two workloads, one of them pooled."""
    out = {}
    for name, mc in (("shift_overhead", {"R": 300}), ("tilde_sweep_pool", {"R": 60, "M": 50})):
        wl = _tiny(name, **mc)
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            reps = run.measure(wl, 5, 0.0, trace, work, lambda line: None)
            out[name, trace] = (wl, reps, run.evaluate(wl, reps, trace, lambda line: None))
    return out


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_emitted_metric_names_match_benchmark_json(tiny_runs):
    bench = _benchmark_json()
    for (name, trace), (_, _, result) in tiny_runs.items():
        assert result["correct"], (name, trace)
        listed = bench["per_layer"] if trace else bench["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed]
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_self_times_are_nonnegative_and_sum_to_traced_wall(tiny_runs):
    for name in ("shift_overhead", "tilde_sweep_pool"):
        _, reps, _ = tiny_runs[name, True]
        for rep in (r for r in reps if r.traced):
            an = rep.analysis
            assert an.absent == []
            assert all(entry["self_s"] >= -1e-9 for entry in an.layers.values())
            total = sum(entry["self_s"] for entry in an.layers.values()) + an.unattributed_s
            assert math.isclose(total, an.wall_s, rel_tol=1e-9, abs_tol=1e-9)


def test_pool_workers_are_traced(tiny_runs):
    _, reps, result = tiny_runs["tilde_sweep_pool", True]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["experiments.pool.starts"] == 5
    assert m["experiments.pool.worker_busy_s"] > 0
    # The surrogate fold runs only through the gaussian binding, in workers.
    assert m["bootstrap.fk_from_states.calls"] == 5 * 60
    assert m["models.sample_xi_block.calls"] == 5 * 60
    assert m["bootstrap.chain_steps"] == 5 * 60 * 50


def test_traced_numbers_equal_untraced(tiny_runs):
    for name in ("shift_overhead", "tilde_sweep_pool"):
        _, reps, result = tiny_runs[name, True]
        assert {r.traced for r in reps} == {False, True}
        assert result["failed"] == 0 and result["correct"]


def _write_csv(path: Path, rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])


def _shift_rows(bias0=0.05, bias1=0.0, se=0.002) -> list[dict]:
    base = {"n": "100", "d": "5", "se_bias": repr(se), "sd": "0.2", "rmse": "0.2",
            "sqrt_n_rmse": "2.0", "sigma_f": "2.0", "d_k": "0.01", "aborts": "0", "seconds": "1.0"}
    return [dict(base, k="0", bias=repr(bias0)), dict(base, k="1", bias=repr(bias1))]


def test_doctored_csv_fails_its_check(tmp_path):
    wl = WORKLOADS["shift_overhead"]
    path = tmp_path / "result.csv"
    _write_csv(path, _shift_rows())
    assert row_failures(wl, read_rows(path)) == {}
    _write_csv(path, _shift_rows(bias1=10 * 0.002))
    assert list(row_failures(wl, read_rows(path))) == [1]

    rep = run.Rep(traced=False, elapsed=1.0, wall_s=1.0, setups=[0.1], peak_rss_mb=40.0,
                  rows=read_rows(path))
    result = run.evaluate(wl, [rep], False, lambda line: None)
    assert not result["correct"]
    assert result["failed"] == wl.replicates and result["attempted"] == 2 * wl.replicates


def test_wrong_header_and_slope_fail(tmp_path):
    path = tmp_path / "result.csv"
    path.write_text("n,d,k,bias\n100,5,0,0.05\n")
    with pytest.raises(Exception, match="frozen column tuple"):
        read_rows(path)
    wl = WORKLOADS["tilde_sweep_pool"]
    rows = []
    for n, d in wl.grid_points():
        rmse = 2.0 / n**0.7  # slope -0.7, outside [-0.6, -0.4]
        rows.append({"n": str(n), "d": str(d), "k": "1", "bias": "0.0", "se_bias": "0.001", "sd": "0.1",
                     "rmse": repr(rmse), "sqrt_n_rmse": repr(math.sqrt(n) * rmse),
                     "sigma_f": repr(math.sqrt(n) * rmse), "d_k": "0.01", "aborts": "0", "seconds": "1"})
    assert sorted(row_failures(wl, rows)) == list(range(5))


def test_numbers_must_repeat_and_counts_must_match():
    wl = WORKLOADS["shift_overhead"]
    a = run.Rep(traced=False, elapsed=1.0, wall_s=1.0, setups=[0.1], peak_rss_mb=40.0, rows=_shift_rows())
    b = dataclasses.replace(a, rows=_shift_rows(bias1=0.0001))
    result = run.evaluate(wl, [a, b], False, lambda line: None)
    assert not result["correct"] and result["failed"] == 2 * wl.replicates

    layers = {name: 1.0 for name in run.PER_LAYER}
    t1 = dataclasses.replace(a, traced=True, layers=dict(layers))
    t2 = dataclasses.replace(a, traced=True, layers=dict(layers, **{"bootstrap.chain_steps": 2.0}))
    problems = []
    run.evaluate(wl, [t1, t2], False, problems.append)
    assert any("bootstrap.chain_steps" in p for p in problems)


def _fake_package(monkeypatch, drop: str):
    """A stand-in package whose bootstrap lacks one named function; gaussian
    imports fk_from_states by name, as bootchain does."""
    pkg = types.ModuleType("fakechain")
    pkg.__path__ = []
    mods = {}
    for short in ("bootstrap", "gaussian", "experiments"):
        mod = types.ModuleType(f"fakechain.{short}")
        mods[short] = mod
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        setattr(pkg, short, mod)
    monkeypatch.setitem(sys.modules, "fakechain", pkg)
    src = {
        "bootstrap": "def fk_from_states(f, states):\n    return (1.0, 0.0, 0)\n"
                     "def simulate_chain_block(model, start, k, n, m, rng):\n    return start\n",
        "experiments": "def derive_stream(seed, r, c):\n    return (seed, r, c)\n",
    }
    for short, code in src.items():
        exec(compile(code, f"fakechain/{short}.py", "exec"), mods[short].__dict__)
    delattr(mods["bootstrap"], drop)
    mods["gaussian"].fk_from_states = mods["bootstrap"].fk_from_states
    return pkg, mods


def test_missing_function_is_reported_absent(monkeypatch, tmp_path):
    import numpy as np

    pkg, mods = _fake_package(monkeypatch, drop="simulate_chain_block")
    tracer = Tracer(tmp_path).install(pkg)
    assert "bootstrap.simulate_chain_block" in tracer.absent
    assert set(tracer.absent) <= set(NAMED_LAYERS)
    assert tracer.bindings["bootstrap.fk_from_states"] == ["bootstrap.fk_from_states", "gaussian.fk_from_states"]
    assert mods["gaussian"].fk_from_states is mods["bootstrap"].fk_from_states
    assert mods["experiments"].derive_stream(7, 3, 0) == (7, 3, 0)
    mods["gaussian"].fk_from_states(None, np.zeros((2, 4, 3)))
    assert tracer.counters["chains"] == 4
    assert list(tracer.rep) == [3, 3]


def test_child_runs_cli_in_process_without_warnings(tmp_path):
    wl = _tiny("poisson_outer", R=50)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.make_config(3)))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "run", str(ROOT), str(config), str(tmp_path), "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    assert info["rc"] == 0 and info["wall_s"] > 0 and info["peak_rss_kb"] > 0
    assert read_rows(tmp_path / "result.csv")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = _benchmark_json()
    proc = subprocess.run(
        bench["command"] + ["--workload", "shift_overhead", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
