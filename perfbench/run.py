"""bootchain benchmark: run one workload for a measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; bootchain is imported from ./src, so
nothing needs installing. Workloads are listed in perfbench/workloads.py.

Every repetition is a fresh interpreter (child.py) that imports bootchain,
parses a config generated from --seed and runs it in-process through
bootchain.cli.main. Repetitions repeat until the window is spent (at least
three); each is several seconds of work, so that it averages over short
swings in machine speed. Two set-up-only interpreters follow each untraced
repetition, so setup_s is a median over many start-ups. All repetitions of
a run use the same seed: every CSV they write is checked against exact
targets and against the first repetition's numbers, bit for bit.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones (tracing.py); trace.overhead_s is the
traced minus the untraced median wall time. Computed work counts must
repeat exactly across traced repetitions.

The last line of stdout is one JSON object: correct, attempted (replicates),
failed (replicates of rows that fail a check, or of crashed repetitions)
and metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from checks import CheckError, numeric_mismatch, read_rows, row_failures  # noqa: E402
from tracing import TraceAnalysis, analyze, percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_REPS = 3  # repetitions in a run, at least; a trace run has 2 traced
SETUP_PROBES = 2  # set-up-only interpreters after each untraced repetition
RUN_LIMIT_S = 170.0  # a run ends within 180 s whatever happens

END_TO_END = {
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "time_to_se_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; "count" metrics are computed from array sizes or call
# counts and must repeat exactly across runs of one seed.
PER_LAYER = {
    "experiments.derive_stream.calls": "count",
    "experiments.derive_stream.self_s": "s",
    "experiments.run_replicates.self_s": "s",
    "experiments.estimator_call.count": "count",
    "experiments.estimator_call.p50_us": "us",
    "experiments.estimator_call.p90_us": "us",
    "bootstrap.fk_from_states.calls": "count",
    "bootstrap.fk_from_states.self_s": "s",
    "functionals.value.calls": "count",
    "functionals.value.self_s": "s",
    "functionals.value.points": "count",
    "models.step_block.calls": "count",
    "models.step_block.self_s": "s",
    "models.step_block.draws": "count",
    "models.step_block.draws_per_s": "1/s",
    "models.estimate_block.calls": "count",
    "models.estimate_block.draws": "count",
    "models.sample_xi_block.calls": "count",
    "bootstrap.chain_block.self_s": "s",
    "bootstrap.chain_steps": "count",
    "models.sample_data.calls": "count",
    "models.sample_data.self_s": "s",
    "models.sample_data.draws": "count",
    "experiments.pool.starts": "count",
    "experiments.pool.overhead_s": "s",
    "experiments.pool.startup_wait_s": "s",
    "experiments.pool.worker_busy_s": "s",
    "experiments.pool.imbalance": "ratio",
    "bootstrap.chain_abort_ratio": "ratio",
    "experiments.replicate_aborts": "count",
    "distances.kolmogorov.self_s": "s",
    "gaussian.sigma_f.self_s": "s",
    "experiments.rate_fit.calls": "count",
    "cli.write_outputs.self_s": "s",
    "config.load_config.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

STEP_LAYERS = ("models.estimate_block", "models.sample_xi_block")
CHAIN_LAYERS = ("bootstrap.simulate_chain_block", "gaussian.tilde_chain_block")
WRITE_LAYERS = ("cli.write_csv", "cli.write_json", "cli.render_rate_chart")


@dataclass
class Rep:
    traced: bool
    elapsed: float  # spawn to exit
    error: str | None = None
    wall_s: float = math.nan
    setups: list = field(default_factory=list)  # this repetition's and its probes'
    import_s: float = math.nan
    peak_rss_mb: float = math.nan
    rows: list | None = None
    layers: dict | None = None  # per-layer metrics of a traced repetition
    analysis: TraceAnalysis | None = None


def _reap_group(pgid: int):
    """Kill what is left of a child's process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _spawn(cmd: list[str], cwd: Path, timeout: float) -> tuple[int | None, str, str]:
    proc = subprocess.Popen(
        cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        rc = None
    _reap_group(proc.pid)
    return rc, out, err


def _child(mode: str, wl: Workload, config: Path, rep_dir: Path, timeout: float):
    """Run child.py; returns (spawn time, exit code or None on timeout,
    parsed last stdout line or None, stderr)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(ROOT), str(config), str(rep_dir), str(wl.threads)]
    t_spawn = time.monotonic()
    rc, out, err = _spawn(cmd, rep_dir, timeout)
    try:
        info = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        info = None
    return t_spawn, rc, info, err.strip()[-2000:]


def run_rep(wl: Workload, seed: int, work: Path, index: int, traced: bool, timeout: float) -> Rep:
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir(parents=True)
    config = rep_dir / "config.json"
    config.write_text(json.dumps(wl.make_config(seed), indent=1) + "\n")
    t_spawn, rc, info, err = _child("trace" if traced else "run", wl, config, rep_dir, timeout)
    rep = Rep(traced=traced, elapsed=time.monotonic() - t_spawn)
    if rc is None:
        rep.error = f"timed out after {timeout:.0f} s"
        return rep
    if info is None:
        rep.error = f"child exited {rc} without a result: {err}"
        return rep
    if rc != 0 or info["rc"] != 0:
        rep.error = f"bootchain run exited {info['rc']}: {err}"
    rep.wall_s = info["wall_s"]
    rep.import_s = info["import_s"]
    rep.peak_rss_mb = info["peak_rss_kb"] / 1024.0
    setups = [info["t_ready"] - t_spawn]
    for _ in range(0 if traced else SETUP_PROBES):
        t_probe, rc, probe, _ = _child("setup", wl, config, rep_dir, timeout)
        if rc == 0 and probe is not None:
            setups.append(probe["t_ready"] - t_probe)
    rep.setups = setups
    rep.elapsed = time.monotonic() - t_spawn
    try:
        rep.rows = read_rows(rep_dir / "result.csv")
    except CheckError as exc:
        rep.error = rep.error or str(exc)
    if traced and rep.error is None:
        try:
            rep.analysis = analyze(rep_dir / "trace", rep.wall_s)
        except (OSError, ValueError, KeyError) as exc:
            rep.error = f"unreadable trace: {exc}"
            return rep
        rep.layers = layer_metrics(rep.analysis)
    return rep


def layer_metrics(an: TraceAnalysis) -> dict:
    """Published per-layer metrics of one traced repetition."""

    def get(names, key):
        names = (names,) if isinstance(names, str) else names
        return sum(an.layers.get(n, {}).get(key, 0) for n in names)

    step_self = get(STEP_LAYERS, "self_s")
    chains = an.counters.get("chains", 0)
    return {
        "experiments.derive_stream.calls": get("experiments.derive_stream", "calls"),
        "experiments.derive_stream.self_s": get("experiments.derive_stream", "self_s"),
        "experiments.run_replicates.self_s": get("experiments.run_replicates", "self_s"),
        "experiments.estimator_call.count": len(an.estimator_us),
        "experiments.estimator_call.p50_us": percentile(an.estimator_us, 50),
        "experiments.estimator_call.p90_us": percentile(an.estimator_us, 90),
        "bootstrap.fk_from_states.calls": get("bootstrap.fk_from_states", "calls"),
        "bootstrap.fk_from_states.self_s": get("bootstrap.fk_from_states", "self_s"),
        "functionals.value.calls": get("functionals.value", "calls"),
        "functionals.value.self_s": get("functionals.value", "self_s"),
        "functionals.value.points": get("functionals.value", "work"),
        "models.step_block.calls": get(STEP_LAYERS, "calls"),
        "models.step_block.self_s": step_self,
        "models.step_block.draws": get(STEP_LAYERS, "work"),
        "models.step_block.draws_per_s": get(STEP_LAYERS, "work") / step_self if step_self > 0 else 0.0,
        "models.estimate_block.calls": get("models.estimate_block", "calls"),
        "models.estimate_block.draws": get("models.estimate_block", "work"),
        "models.sample_xi_block.calls": get("models.sample_xi_block", "calls"),
        "bootstrap.chain_block.self_s": get(CHAIN_LAYERS, "self_s"),
        "bootstrap.chain_steps": get("bootstrap.fk_from_states", "work"),
        "models.sample_data.calls": get("models.sample_data", "calls"),
        "models.sample_data.self_s": get("models.sample_data", "self_s"),
        "models.sample_data.draws": get("models.sample_data", "work"),
        **{f"experiments.pool.{k}": v for k, v in an.pool.items()},
        "bootstrap.chain_abort_ratio": an.counters.get("aborted_chains", 0) / chains if chains else 0.0,
        "distances.kolmogorov.self_s": get("distances.kolmogorov_to_std_normal", "self_s"),
        "gaussian.sigma_f.self_s": get("gaussian.sigma_f", "self_s"),
        "experiments.rate_fit.calls": get("experiments.rate_fit", "calls"),
        "cli.write_outputs.self_s": get(WRITE_LAYERS, "self_s"),
        "config.load_config.self_s": get("config.load_config", "self_s"),
        "trace.unattributed_s": an.unattributed_s,
        "trace.spans": an.spans,
    }


def layer_load(name: str, an: TraceAnalysis) -> tuple[str, bool] | None:
    """Does the traced run load the layer the workload was chosen for?"""
    self_s = {k: v["self_s"] for k, v in an.layers.items()}
    total = sum(self_s.values())

    def share(*names):
        return sum(self_s.get(n, 0.0) for n in names) / total

    if name == "laplace_kernel":
        s = share("models.estimate_block")
        return f"models.estimate_block holds {s:.0%} of self time (expected > 80%)", s > 0.8
    if name == "poisson_outer":
        top = max(self_s, key=self_s.get)
        return f"largest self-time layer is {top} (expected models.sample_data)", top == "models.sample_data"
    if name == "tilde_sweep_pool":
        s = share("models.sample_xi_block", "gaussian.tilde_chain_block")
        starts = an.pool["starts"]
        return (f"sample_xi_block + tilde_chain_block hold {s:.0%} of self time (expected > 50%), "
                f"{starts} pool starts (expected 5)", s > 0.5 and starts == 5)
    if name == "shift_overhead":
        glue = share("experiments.derive_stream", "bootstrap.fk_from_states", "functionals.value",
                     "experiments.run_replicates")
        kernel = share("models.estimate_block")
        return (f"stream + fold + functional + loop self time {glue:.0%} vs estimate_block {kernel:.0%}",
                glue > kernel)
    return None


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path, log) -> list[Rep]:
    t0 = time.monotonic()
    reps: list[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 0
        rep = run_rep(wl, seed, work, len(reps), traced, RUN_LIMIT_S - (time.monotonic() - t0))
        reps.append(rep)
        log(f"  rep {len(reps) - 1:2d}{' traced' if traced else '       '}  wall {rep.wall_s:8.4f} s  "
            f"setup {statistics.median(rep.setups) if rep.setups else math.nan:6.4f} s  peak {rep.peak_rss_mb:6.1f} MB"
            + (f"  ERROR {rep.error}" if rep.error else ""))
        if rep.error:
            return reps
        next_traced = trace and len(reps) % 2 == 0
        same = [r.elapsed for r in reps if r.traced == next_traced] or [rep.elapsed]
        finish = time.monotonic() + max(same)
        if finish - t0 > RUN_LIMIT_S - 5 or (len(reps) >= MIN_REPS and finish > t0 + seconds):
            return reps


def evaluate(wl: Workload, reps: list[Rep], trace: bool, log) -> dict:
    per_rep = wl.replicates_per_run()
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    for i, rep in enumerate(reps):
        attempted += per_rep
        if rep.rows is None or rep.error:
            failed += per_rep
            problems.append(f"rep {i}: {rep.error}")
            continue
        bad = row_failures(wl, rep.rows)
        if reference is None:
            reference = rep.rows
        else:
            mismatch = numeric_mismatch(reference, rep.rows)
            if mismatch:
                bad = {j: ["numbers differ from rep 0: " + "; ".join(mismatch[:3])] for j in range(len(rep.rows))}
        failed += wl.replicates * len(bad)
        problems += [f"rep {i} row {j}: {m}" for j, msgs in sorted(bad.items()) for m in msgs]

    traced = [r for r in reps if r.traced and r.layers is not None]
    for name, unit in PER_LAYER.items():
        values = {r.layers[name] for r in traced if name in r.layers}
        if unit == "count" and len(values) > 1:
            problems.append(f"computed count {name} differs between traced runs: {sorted(values)}")

    good = [r for r in reps if r.error is None and r.rows is not None]
    metrics = {}
    if trace and traced:
        untraced = [r for r in good if not r.traced]
        values = {name: statistics.median(r.layers[name] for r in traced) for name in PER_LAYER
                  if name in traced[0].layers}
        values["experiments.replicate_aborts"] = sum(int(row["aborts"]) for row in traced[0].rows)
        values["setup.import_s"] = statistics.median(r.import_s for r in good)
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(r.wall_s for r in untraced)) if untraced else 0.0
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
        an = traced[-1].analysis
        if an.absent:
            log(f"absent layers: {', '.join(an.absent)}")
        if an.counters.get("work_errors"):
            log(f"work counts unavailable for {an.counters['work_errors']} calls")
        load = layer_load(wl.name, an)
        if load:
            log(f"layer load: {load[0]} -> {'as expected' if load[1] else 'NOT as expected'}")
        log("self time by layer (last traced run):")
        for layer, entry in sorted(an.layers.items(), key=lambda kv: -kv[1]["self_s"]):
            log(f"  {layer:40s} {entry['self_s']:9.4f} s  {entry['calls']:9d} calls")
    elif not trace and good:
        wall = statistics.median(r.wall_s for r in good)
        n, d, k = wl.headline()
        head = next(row for row in reference if (int(row["n"]), int(row["d"]), int(row["k"])) == (n, d, k))
        values = {
            "wall_s": wall,
            "replicates_per_s": per_rep / wall,
            "time_to_se_s": wall * (float(head["se_bias"]) / wl.se_ref) ** 2,
            "setup_s": statistics.median(t for r in good for t in r.setups),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for p in problems[:20]:
        log(f"CHECK FAILED {p}")
    correct = not problems and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        parser.error("--seed must be a nonnegative 64-bit integer")
    if not (ROOT / "src" / "bootchain" / "__init__.py").is_file():
        print(f"error: no bootchain sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def log(line: str):
        print(line, flush=True)

    log(f"workload {wl.name} (threads={wl.threads}, R={wl.replicates}) seed {args.seed} "
        f"window {args.seconds:g} s trace {args.trace}")
    try:
        reps = measure(wl, args.seed, args.seconds, bool(args.trace), work, log)
        result = evaluate(wl, reps, bool(args.trace), log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_fraction = result["failed"] / result["attempted"]
    log(f"{len(reps)} repetitions, {result['attempted']} replicates, failed_fraction {failed_fraction:g}")
    for name, m in result["metrics"].items():
        log(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
