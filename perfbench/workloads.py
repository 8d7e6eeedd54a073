"""The benchmark's workloads: generated configs, exact targets, headline rows.

Each workload loads a different layer of bootchain. The program only ever
receives the generated config file; nothing under configs/ is read.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

# The frozen CSV column tuple of `bootchain run` (see cli.CSV_COLUMNS).
CSV_COLUMNS = (
    "n",
    "d",
    "k",
    "bias",
    "se_bias",
    "sd",
    "rmse",
    "sqrt_n_rmse",
    "sigma_f",
    "d_k",
    "aborts",
    "seconds",
)


def _zero_target(n: int, d: int, k: int) -> float:
    return 0.0


def _shift_target(n: int, d: int, k: int) -> float:
    # Plug-in ||X||^2 under X ~ N(theta, I/n) has bias tr(I)/n = d/n exactly;
    # the state-independent step variance makes the k=1 estimator unbiased.
    return d / n if k == 0 else 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    config: dict  # everything but "seed" and "outputs"
    se_ref: float  # se_bias of the headline row at the default seed, rounded
    target: Callable[[int, int, int], float] = _zero_target  # (n, d, k) -> exact bias
    slope_range: tuple[float, float] | None = None

    def make_config(self, seed: int) -> dict:
        doc = dict(self.config)
        doc["seed"] = int(seed)
        doc["outputs"] = {"csv": "result.csv", "json": "result.json"}
        return doc

    def grid_points(self) -> list[tuple[int, int]]:
        grid = self.config["grid"]
        if "d" in grid:
            return [(n, grid["d"]) for n in sorted(grid["n"])]
        return [(n, max(1, math.ceil(n ** grid["alpha"]))) for n in sorted(grid["n"])]

    def expected_rows(self) -> list[tuple[int, int, int]]:
        """(n, d, k) of every CSV row, in file order."""
        k = self.config["k"]
        plugin = self.config.get("compare", {}).get("plugin", False) and k > 0
        rows = []
        for n, d in self.grid_points():
            if plugin:
                rows.append((n, d, 0))
            rows.append((n, d, k))
        return rows

    def headline(self) -> tuple[int, int, int]:
        """The order-k row at the largest n."""
        return self.expected_rows()[-1]

    @property
    def replicates(self) -> int:
        return self.config["mc"]["R"]

    def replicates_per_run(self) -> int:
        return self.replicates * len(self.expected_rows())


_QUADRATIC = {"variant": "quadratic_form"}
_THETA = {"rule": "unit_sin"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shift_overhead",
            why="tiny numeric work per replicate, so per-replicate Python overhead "
            "(streams, fold, functional calls) dominates",
            threads=1,
            config={
                "kind": "risk",
                "model": {"variant": "gaussian_shift", "noise": {"kind": "identity", "scale": 1.0}},
                "functional": _QUADRATIC,
                "theta": _THETA,
                "k": 1,
                "grid": {"n": [100], "d": 5},
                "mc": {"M": 200, "R": 30000},
                "compare": {"plugin": True},
            },
            se_ref=0.00117,
            target=_shift_target,
        ),
        Workload(
            name="laplace_kernel",
            why="raw M*n*d Laplace draws in the bootstrap step kernel "
            "(models.estimate_block) take nearly all of the time",
            threads=1,
            config={
                "kind": "risk",
                "model": {"variant": "log_concave_location", "noise_dist": "laplace"},
                "functional": _QUADRATIC,
                "theta": _THETA,
                "k": 1,
                "grid": {"n": [500], "d": 5},
                "mc": {"M": 200, "R": 400},
            },
            se_ref=0.0063,
        ),
        Workload(
            name="poisson_outer",
            why="the raw n*d outer data draw (models.sample_data) is the largest layer",
            threads=1,
            config={
                "kind": "risk",
                "model": {"variant": "exponential_family", "family": "poisson_product"},
                "functional": _QUADRATIC,
                "theta": _THETA,
                "k": 1,
                "grid": {"n": [2000], "d": 5},
                "mc": {"M": 200, "R": 5000},
            },
            se_ref=0.00068,
        ),
        Workload(
            name="tilde_sweep_pool",
            why="surrogate chains on growing d with 2 workers: one process pool per grid "
            "point, surrogate step kernel and pool overhead",
            threads=2,
            config={
                "kind": "sweep",
                "model": {
                    "variant": "gaussian_shift",
                    "noise": {"kind": "diag_tanh", "a": 1.0, "b": 0.5},
                },
                "functional": _QUADRATIC,
                "theta": _THETA,
                "k": 1,
                "grid": {"n": [250, 500, 1000, 2000, 4000], "alpha": 0.4},
                "mc": {"M": 1000, "R": 1200},
                "compare": {"tilde": True},
            },
            se_ref=0.00092,
            slope_range=(-0.6, -0.4),
        ),
    )
}
