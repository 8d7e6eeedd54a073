"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads all --seeds 1-10 [--trace 0|1]
                                [--seconds S] [--out FILE] [--record FILE]

For every workload and metric: the median of the per-seed values, and the
spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Spreads of
end-to-end metrics are compared with a third of the metric's bound in
BENCHMARK.json. --record also writes the benchmark record: the generated
configs, se_ref, metric units and layers, the machine, and the medians as
baseline (end-to-end or per-layer, by --trace; the other half of an
existing record is kept).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, run_rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1

# Which end-to-end metric a change to each layer (or to one metric's own
# layer) should move, on which workload; elsewhere it should stay flat.
MOVES = {
    "experiments.derive_stream": ("wall_s, replicates_per_s", "shift_overhead"),
    "experiments.run_replicates": ("wall_s, replicates_per_s", "shift_overhead"),
    "experiments.estimator_call": ("wall_s, replicates_per_s", "shift_overhead"),
    "bootstrap.fk_from_states": ("wall_s", "shift_overhead, tilde_sweep_pool"),
    "functionals.value": ("wall_s", "shift_overhead, tilde_sweep_pool"),
    "models.step_block": ("wall_s, time_to_se_s", "laplace_kernel, tilde_sweep_pool"),
    "models.estimate_block": ("wall_s, time_to_se_s", "laplace_kernel"),
    "bootstrap.chain_block": ("wall_s", "laplace_kernel, tilde_sweep_pool"),
    "models.sample_data": ("wall_s", "poisson_outer"),
    "models.sample_xi_block": ("wall_s", "tilde_sweep_pool"),
    "experiments.pool": ("wall_s", "tilde_sweep_pool"),
    "bootstrap.chain_steps": ("wall_s, time_to_se_s", "laplace_kernel"),
    "bootstrap.chain_abort_ratio": ("failed fraction (attempted/failed)", "all"),
    "experiments.replicate_aborts": ("failed fraction (attempted/failed)", "all"),
    "experiments.rate_fit": ("wall_s", "tilde_sweep_pool"),
    "distances.kolmogorov": ("wall_s", "tilde_sweep_pool"),
    "gaussian.sigma_f": ("wall_s", "tilde_sweep_pool"),
    "cli.write_outputs": ("wall_s", "tilde_sweep_pool"),
    "config.load_config": ("setup_s", "all"),
    "setup": ("setup_s", "all"),
    "trace": ("none (a property of the trace)", "all"),
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.monotonic() - t0
    return result


def machine() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip().lower()
            info[f"cache_l{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.machine()
    return info


def default_seed_rows(name: str) -> list[dict]:
    """The CSV one untraced repetition writes at the default seed."""
    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    rep = run_rep(WORKLOADS[name], DEFAULT_SEED, work, 0, False, 170.0)
    shutil.rmtree(work, ignore_errors=True)
    return [{k: v for k, v in row.items() if k != "seconds"} for row in rep.rows or []]


def record(summary: dict, trace: int, previous: dict) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    metrics = [{"name": n, "unit": u, "layer": "end_to_end", "bound": e2e[n]["bound"]}
               for n, u in END_TO_END.items()]
    for n, u in PER_LAYER.items():
        layer = n.rsplit(".", 1)[0]
        moves, on = MOVES.get(n) or MOVES[layer]
        metrics.append({"name": n, "unit": u, "layer": layer, "computed": u == "count",
                        "should_move": moves, "on": on})
    return {
        "run_seconds": bench["run_seconds"],
        "machine": machine(),
        "workloads": [
            {"name": w.name, "why": w.why, "threads": w.threads, "se_ref": w.se_ref,
             "headline_row": dict(zip(("n", "d", "k"), w.headline())),
             "config": w.make_config(DEFAULT_SEED),
             "default_seed_csv": default_seed_rows(w.name)}
            for w in WORKLOADS.values()
        ],
        "metrics": metrics,
        "baseline": {**previous.get("baseline", {}), ("per_layer" if trace else "end_to_end"): summary},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the per-seed results and summary here")
    parser.add_argument("--record", default=None, help="write the benchmark record here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs, summary, ok = {}, {}, True
    for name in names:
        runs[name] = []
        for seed in seeds:
            res = run_one(name, seed, seconds, args.trace)
            runs[name].append({"seed": seed, **res})
            print(f"{name} seed {seed}: exit {res['exit']} correct {res.get('correct')} "
                  f"{res['elapsed_s']:.1f} s", flush=True)
            ok = ok and res["exit"] == 0 and res.get("correct") is True
        summary[name] = {}
        metric_names = runs[name][0].get("metrics", {})
        for metric in metric_names:
            values = [r["metrics"][metric]["value"] for r in runs[name] if metric in r.get("metrics", {})]
            if len(values) < 2:
                continue
            med, rel = spread(values)
            summary[name][metric] = {"median": med, "iqr_share": rel, "unit": metric_names[metric]["unit"]}
            flag = ""
            if metric in bounds:
                flag = "ok" if rel < bounds[metric] / 3 else ("within bound" if rel <= bounds[metric] else "OVER BOUND")
            print(f"  {name:18s} {metric:40s} median {med:12.6g}  spread {rel:7.2%}  {flag}")

    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": seeds, "seconds": seconds, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    if args.record:
        path = Path(args.record)
        previous = json.loads(path.read_text()) if path.exists() else {}
        path.write_text(json.dumps(record(summary, args.trace, previous), indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
