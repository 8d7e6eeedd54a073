"""Outside-in tracing of bootchain, and the per-layer split derived from it.

The tracer wraps the public functions of the bootchain modules (plus the two
private replicate-loop functions that are layers of their own) from outside
the package: every module binding of a function, including names imported
into another module, is replaced by one wrapper. Each call records a span
(layer, start, end, parent span, replicate id, computed work) in compact
in-memory arrays. The main process writes its spans when the run ends; a
forked pool worker writes its spans when it exits.

Nothing here changes what the program computes: wrappers pass arguments and
results through unchanged, so a traced run writes the same CSV numbers as
an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

MODULES = ("experiments", "models", "bootstrap", "gaussian", "functionals", "distances", "config", "cli")
PRIVATE_LAYERS = {
    ("experiments", "_run_replicates"): "experiments.run_replicates",
    ("experiments", "_batched_errors"): "experiments.dispatch",
}
POOL_LAYER = "experiments.pool"
ESTIMATOR_LAYERS = ("bootstrap.fk_estimate", "gaussian.tilde_fk_estimate")

# Layers the per-layer metrics are built from; each missing one is reported
# as absent rather than failing the run.
NAMED_LAYERS = (
    "experiments.derive_stream",
    "experiments.run_replicates",
    "experiments.dispatch",
    POOL_LAYER,
    *ESTIMATOR_LAYERS,
    "bootstrap.fk_from_states",
    "functionals.value",
    "models.estimate_block",
    "models.sample_xi_block",
    "bootstrap.simulate_chain_block",
    "gaussian.tilde_chain_block",
    "models.sample_data",
    "distances.kolmogorov_to_std_normal",
    "gaussian.sigma_f",
    "experiments.rate_fit",
    "cli.write_csv",
    "cli.write_json",
    "config.load_config",
)


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _shape(x) -> tuple:
    shape = getattr(x, "shape", None)
    return np.shape(x) if shape is None else shape


def _per_cell_draws(model, n: int) -> int:
    """Raw draws per (row, coordinate) summed over coordinates: n for the
    raw-draw kernels (Laplace, logistic, IC-uniform), 1 for sum-closed ones."""
    kind = type(model).__name__
    tags = getattr(model, "noise_dist", ())
    if kind == "LogConcaveLocation":
        return sum(1 if t == "gaussian" else n for t in tags)
    if kind == "IndependentComponents":
        return sum(n if t == "uniform" else 1 for t in tags)
    return int(model.dim)


def _work_estimate_block(args, kwargs) -> float:
    model, thetas, n = (_arg(args, kwargs, i, k) for i, k in enumerate(("model", "thetas", "n")))
    return float(_shape(thetas)[0] * _per_cell_draws(model, int(n)))


def _work_sample_xi_block(args, kwargs) -> float:
    return float(np.size(_arg(args, kwargs, 1, "thetas")))


def _work_sample_data(args, kwargs) -> float:
    model = _arg(args, kwargs, 0, "model")
    n = int(_arg(args, kwargs, 2, "n"))
    return float(model.dim if type(model).__name__ == "GaussianShift" else n * model.dim)


def _work_value(args, kwargs) -> float:
    shape = _shape(_arg(args, kwargs, 1, "theta"))
    return float(math.prod(shape[:-1])) if shape else 1.0


def _work_fold(args, kwargs) -> float:
    shape = _shape(_arg(args, kwargs, 1, "states"))
    return float((shape[0] - 1) * shape[1])  # chain steps behind the fold


WORK = {
    "models.estimate_block": _work_estimate_block,
    "models.sample_xi_block": _work_sample_xi_block,
    "models.sample_data": _work_sample_data,
    "functionals.value": _work_value,
    "bootstrap.fk_from_states": _work_fold,
}


class Tracer:
    """Span recorder for one process; forked pool workers inherit and reset it."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer = array("q")
        self.rep = array("q")
        self.work = array("d")
        self.stack: list[int] = []
        self.rep_id = -1
        self.counters = {"chains": 0, "aborted_chains": 0, "work_errors": 0}
        self.bindings: dict[str, list[str]] = {}
        self.absent: list[str] = []

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _open(self, lid: int, work: float) -> int:
        """A span that is not pushed on the stack (the pool lifetime)."""
        i = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rep.append(self.rep_id)
        self.work.append(work)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        if self.end[i] == 0.0:
            self.end[i] = time.perf_counter()

    def _work(self, hook, args, kwargs) -> float:
        try:
            return hook(args, kwargs)
        except Exception:  # a changed signature must not break the run
            self.counters["work_errors"] += 1
            return 0.0

    def _set_replicate(self, args):
        """derive_stream(seed, replicate, chain) starts a replicate's spans."""
        try:
            self.rep_id = int(args[1])
        except (IndexError, TypeError, ValueError):
            self.rep_id = -1

    def _count_chains(self, args, kwargs, out):
        """Chains behind one fold, and how many aborted (all of them when the
        fold raised); read from its input shape and its return value."""
        try:
            chains = int(_shape(_arg(args, kwargs, 1, "states"))[1])
            aborted = chains if out is None else int(out[2])
        except Exception:
            self.counters["work_errors"] += 1
            return
        self.counters["chains"] += chains
        self.counters["aborted_chains"] += aborted

    def wrap(self, fn, name: str):
        lid = self.layer_id(name)
        hook = WORK.get(name)
        perf = time.perf_counter
        end, stack = self.end, self.stack
        add_layer, add_parent, add_rep, add_work, add_end, add_start = (
            self.layer.append, self.parent.append, self.rep.append,
            self.work.append, self.end.append, self.start.append,
        )
        push, pop = stack.append, stack.pop
        tracer = self
        fold = name == "bootstrap.fk_from_states"
        stream = name == "experiments.derive_stream"
        replicate_loop = name == "experiments.run_replicates"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stream:
                tracer._set_replicate(args)
            i = len(end)
            add_layer(lid)
            add_parent(stack[-1] if stack else -1)
            add_rep(tracer.rep_id)
            add_work(0.0 if hook is None else tracer._work(hook, args, kwargs))
            add_end(0.0)
            push(i)
            add_start(perf())
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end[i] = perf()
                pop()
                if replicate_loop:
                    tracer.rep_id = -1
                if fold:
                    tracer._count_chains(args, kwargs, out)

        return traced

    def install(self, package) -> "Tracer":
        """Wrap every binding of the package's layer functions in place."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{package.__name__}.{short}")
            except ModuleNotFoundError:
                continue
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not (obj.__module__ or "").startswith(package.__name__ + "."):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                if attr.startswith("_"):
                    name = PRIVATE_LAYERS.get((home, attr))
                    if name is None:
                        continue
                else:
                    name = f"{home}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, name)
                setattr(mod, attr, wrappers[id(obj)])
                self.bindings.setdefault(name, []).append(f"{short}.{attr}")
        experiments = sys.modules.get(f"{package.__name__}.experiments")
        base = getattr(experiments, "ProcessPoolExecutor", None)
        if base is not None:
            experiments.ProcessPoolExecutor = _traced_pool(self, base)
            self.bindings[POOL_LAYER] = ["experiments.ProcessPoolExecutor"]
        self.absent = [n for n in NAMED_LAYERS if n not in self.bindings]
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    # -- output --------------------------------------------------------------

    def _after_fork(self):
        # A pool worker starts with the parent's open spans: drop them, and
        # write this process's spans when multiprocessing shuts it down.
        for arr in (self.start, self.end, self.parent, self.layer, self.rep, self.work):
            del arr[:]
        self.stack.clear()
        self.rep_id = -1
        self.counters = dict.fromkeys(self.counters, 0)
        mp_util.Finalize(None, self.dump, args=(None, True), exitpriority=100)

    def dump(self, path=None, worker: bool = False) -> Path:
        path = Path(path) if path else self.out_dir / f"{'worker' if worker else 'main'}-{os.getpid()}.npz"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            parent=np.asarray(self.parent, dtype=np.int64),
            layer=np.asarray(self.layer, dtype=np.int64),
            rep=np.asarray(self.rep, dtype=np.int64),
            work=np.asarray(self.work, dtype=float),
            names=np.array(self.names, dtype=str),
            meta=np.array(json.dumps({
                "pid": os.getpid(),
                "worker": worker,
                "counters": self.counters,
                "bindings": self.bindings,
                "absent": self.absent,
            })),
        )
        return path


def _traced_pool(tracer: Tracer, base):
    lid = tracer.layer_id(POOL_LAYER)

    class TracedProcessPool(base):
        """Records the pool's lifetime, construction to finished shutdown."""

        def __init__(self, max_workers=None, *args, **kwargs):
            self._bench_span = tracer._open(lid, float(max_workers or os.cpu_count() or 1))
            super().__init__(max_workers, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer._close(self._bench_span)

    return TracedProcessPool


# ---------------------------------------------------------------------------
# analysis


@dataclass
class ProcessSpans:
    """Spans of one process; `layer` holds layer names resolved per file."""

    pid: int
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    layer: np.ndarray
    rep: np.ndarray
    work: np.ndarray
    counters: dict

    @property
    def dur(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        dur = self.dur
        child = np.zeros_like(dur)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], dur[has])
        return dur - child


def load_process(path: Path) -> tuple[ProcessSpans, dict]:
    with np.load(path, allow_pickle=False) as z:
        names = z["names"]
        meta = json.loads(str(z["meta"]))
        return ProcessSpans(
            pid=meta["pid"],
            start=z["start"],
            end=z["end"],
            parent=z["parent"],
            layer=names[z["layer"]] if len(z["layer"]) else np.array([], dtype=str),
            rep=z["rep"],
            work=z["work"],
            counters=meta["counters"],
        ), meta


@dataclass
class TraceAnalysis:
    wall_s: float
    layers: dict  # name -> {"calls", "self_s", "work"}
    unattributed_s: float
    pool: dict
    estimator_us: np.ndarray
    counters: dict
    absent: list
    spans: int


def analyze(trace_dir: Path, wall_s: float) -> TraceAnalysis:
    """Per-layer self time, calls and computed work of one traced run.

    Self time is a span's duration minus that of its child spans. Worker
    spans run concurrently inside a pool span, so each worker-second counts
    as 1/workers of a wall second: the pool span keeps as self time its
    lifetime minus that share. Then the self times of all layers plus
    unattributed_s (wall time outside every top-level span) equal the
    traced wall time.
    """
    mains = sorted(trace_dir.glob("main-*.npz"))
    if len(mains) != 1:
        raise FileNotFoundError(f"expected one main span file in {trace_dir}, found {len(mains)}")
    main, meta = load_process(mains[0])
    workers = [load_process(p)[0] for p in sorted(trace_dir.glob("worker-*.npz"))]

    main_self = main.self_time()
    pool_idx = np.flatnonzero(main.layer == POOL_LAYER)
    weights = []
    for w in workers:
        top = w.parent < 0
        first = w.start[top].min() if top.any() else np.inf
        inside = [i for i in pool_idx if main.start[i] <= first <= main.end[i]]
        weight = 1.0 / main.work[inside[0]] if inside else 1.0
        weights.append(weight)
        if inside:
            main_self[inside[0]] -= weight * w.dur[top].sum()

    layers: dict[str, dict] = {}

    def add(names, self_t, work, weight):
        for name in np.unique(names):
            sel = names == name
            entry = layers.setdefault(str(name), {"calls": 0, "self_s": 0.0, "work": 0.0})
            entry["calls"] += int(sel.sum())
            entry["self_s"] += weight * float(self_t[sel].sum())
            entry["work"] += float(work[sel].sum())

    add(main.layer, main_self, main.work, 1.0)
    for w, weight in zip(workers, weights):
        add(w.layer, w.self_time(), w.work, weight)

    top_main = float(main.dur[main.parent < 0].sum())
    counters = dict(main.counters)
    for w in workers:
        for key, val in w.counters.items():
            counters[key] = counters.get(key, 0) + val

    est = np.concatenate([p.dur[np.isin(p.layer, ESTIMATOR_LAYERS)] for p in [main, *workers]])
    return TraceAnalysis(
        wall_s=wall_s,
        layers=layers,
        unattributed_s=wall_s - top_main,
        pool=_pool_stats(main, workers),
        estimator_us=est * 1e6,
        counters=counters,
        absent=meta["absent"],
        spans=int(len(main.start) + sum(len(w.start) for w in workers)),
    )


def _pool_stats(main: ProcessSpans, workers: list[ProcessSpans]) -> dict:
    """Replicate dispatch: in-process at one thread, a process pool above.

    Per dispatch call: busy time of each worker (idle workers count 0),
    overhead = dispatch wall - busiest worker, startup wait = first task
    start - dispatch start.
    """
    stats = {"starts": int((main.layer == POOL_LAYER).sum()), "overhead_s": 0.0,
             "startup_wait_s": 0.0, "worker_busy_s": 0.0, "imbalance": 0.0}
    busy_max = busy_mean = 0.0
    tasks_layer = "experiments.run_replicates"
    for d in np.flatnonzero(main.layer == "experiments.dispatch"):
        t0, t1 = main.start[d], main.end[d]
        pools = np.flatnonzero((main.parent == d) & (main.layer == POOL_LAYER))
        if len(pools):
            n_workers = int(main.work[pools[0]])
            busy, firsts = {}, []
            for w in workers:
                sel = (w.parent < 0) & (w.layer == tasks_layer) & (w.start >= t0) & (w.end <= t1)
                if sel.any():
                    busy[w.pid] = float(w.dur[sel].sum())
                    firsts.append(float(w.start[sel].min()))
            per_worker = list(busy.values()) + [0.0] * max(0, n_workers - len(busy))
        else:
            sel = (main.parent == d) & (main.layer == tasks_layer)
            per_worker = [float(main.dur[sel].sum())]
            firsts = [float(main.start[sel].min())] if sel.any() else []
        if not firsts:
            continue
        stats["overhead_s"] += float(t1 - t0) - max(per_worker)
        stats["startup_wait_s"] += min(firsts) - float(t0)
        stats["worker_busy_s"] += sum(per_worker)
        busy_max += max(per_worker)
        busy_mean += sum(per_worker) / len(per_worker)
    if busy_mean > 0:
        stats["imbalance"] = busy_max / busy_mean - 1.0
    return stats


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
