"""Declarative experiment harness: risk, normality, CLT diagnostics, sweeps.

Every kind takes one path through a grid point: _grid_point resolves the
model, functional, theta (the one check of its dimension) and sigma_f, and
_summary turns the point's error vector into its row (bias, se, sd, rmse,
d_k, aborts, the failed flag). risk, sweep, normality and oracle-check rows
come from one replicate pass per point; clt rows from a plug-in draw and a
surrogate draw per point, with W1/W2 in the row's extra.

Reproducibility contract: a grid point's R replicates run in blocks of
B = max(1, 2^14 // (M d)) (models._BLOCK_SCALARS), and block b draws all of
its randomness from the counter-based stream derive_stream(master_seed, b,
0): first its B theta_hat rows, as one call of the block kernel
models.estimate_block, then the chains of its finite rows, one kernel call
per step. At B = 1 a block is one replicate. Every order row a grid point
reports (the plug-in row of compare_plugin, each oracle-check order) is
folded from the same theta_hat and the prefixes of the same chains. B
depends on (M, d) alone; a run's one worker pool splits the block range at
any size, and the aggregation is a sequential fold in replicate order, so
summaries are bit-identical for a fixed seed at every worker count and for
every set of orders. Wall time is the one nondeterministic field;
timing="none" zeroes it for byte-stable output files.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import bootstrap, distances, functionals, gaussian, models

MAX_SEED = 2**64
MAX_INDEX = 2**32
# glibc malloc caps its dynamic mmap threshold at 32 MiB; a freed mapped
# block below the cap raises the threshold to the block's size
_ALLOCATOR_PRIME_BYTES = 16 * 2**20
# a normality run divides its errors by sigma_f; below this it is degenerate
SIGMA_F_FLOOR = 1e-8


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def derive_stream(master_seed: int, replicate_index: int, chain_index: int):
    """Independent-quality random stream keyed by (seed, replicate, chain);
    the harness passes a replicate block's index, or a clt grid point's.

    Counter-based: the tuple is packed into a Philox-4x64 key, so the map
    from index tuples to streams is injective and stateless. Identical
    tuples give identical streams on every run and worker count.
    """
    if not (0 <= master_seed < MAX_SEED):
        raise ValueError("master seed must fit in 64 bits")
    if not (0 <= replicate_index < MAX_INDEX and 0 <= chain_index < MAX_INDEX):
        raise ValueError("replicate/chain indices must fit in 32 bits")
    key = np.array([master_seed, (replicate_index << 32) | chain_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def unit_sin_theta(d: int) -> np.ndarray:
    """Deterministic parameter rule theta_i proportional to sin(i), scaled to
    unit norm; dimension-consistent across sweeps."""
    v = np.sin(np.arange(1, d + 1, dtype=float))
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class GridSpec:
    """n values with either a fixed dimension or the rule d = ceil(n^alpha)."""

    n_values: tuple[int, ...]
    d_fixed: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if len(ns) == 0 or any(n < 1 for n in ns):
            raise ConfigError("grid needs positive sample sizes")
        if len(set(ns)) != len(ns):
            raise ConfigError("grid n values must be distinct")
        object.__setattr__(self, "n_values", tuple(sorted(ns)))
        if (self.d_fixed is None) == (self.alpha is None):
            raise ConfigError("grid needs exactly one of d or alpha")
        if self.d_fixed is not None and self.d_fixed < 1:
            raise ConfigError("fixed dimension must be >= 1")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")

    def points(self) -> list[tuple[int, int]]:
        if self.d_fixed is not None:
            return [(n, self.d_fixed) for n in self.n_values]
        return [(n, max(1, math.ceil(n**self.alpha))) for n in self.n_values]


def _constant(obj, d: int):
    return obj


def as_factory(obj) -> Callable[[int], object]:
    """Wrap a fixed spec object as a dimension-indexed factory."""
    return obj if callable(obj) else partial(_constant, obj)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs; model/functional/theta may be
    fixed objects or factories taking the grid dimension d."""

    kind: str
    model: Callable[[int], models.Model]
    functional: Callable[[int], functionals.Functional]
    theta: Callable[[int], np.ndarray]
    k: int
    grid: GridSpec
    inner_chains: int = 1000  # M
    replicates: int = 2000  # R
    delta: float | None = None  # None -> 3 sqrt(tr Sigma / n); inf: no truncation
    seed: int = 0
    use_tilde: bool = False
    compare_plugin: bool = False
    timing: str = "wall"

    def __post_init__(self):
        object.__setattr__(self, "model", as_factory(self.model))
        object.__setattr__(self, "functional", as_factory(self.functional))
        theta = self.theta
        if theta is None:
            theta = unit_sin_theta
        elif not callable(theta):
            theta = partial(_constant, np.asarray(theta, dtype=float))
        object.__setattr__(self, "theta", theta)
        if not (0 <= self.k <= bootstrap.MAX_ORDER):
            raise ConfigError(f"k must be in [0, {bootstrap.MAX_ORDER}]")
        if self.replicates < 1 or self.inner_chains < 1:
            raise ConfigError("R and M must be >= 1")
        if self.kind == "normality" and self.replicates < 100:
            raise ConfigError("normality diagnostics need R >= 100")
        if self.timing not in ("wall", "none"):
            raise ConfigError('timing must be "wall" or "none"')
        if not (0 <= self.seed < MAX_SEED):
            raise ConfigError("seed must fit in 64 bits")
        if self.delta is not None and not self.delta > 0:
            raise ConfigError("delta must be positive (or None for the default)")


@dataclass
class TrialSummary:
    """Per-grid-point aggregate; field order matches the CSV contract."""

    n: int
    d: int
    k: int
    bias: float
    se_bias: float
    sd: float
    rmse: float
    sqrt_n_rmse: float
    sigma_f: float
    d_k: float
    aborts: int
    seconds: float
    failed: bool = False
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# replicate execution


def _prime_allocator() -> None:
    """Keep the replicate loop's arrays on the heap.

    Every block allocates and frees arrays of up to (k+1)*B*M*d doubles.
    glibc malloc maps blocks above a dynamic threshold (128 KiB at start)
    straight from the OS and trims the heap top beyond twice that, so such
    arrays can be faulted in afresh on every block: on a 2-vCPU Linux VM, a
    quarter of the wall time of a surrogate sweep, all of it system time.
    Freeing one large mapped block raises both thresholds for the rest of
    the process; other allocators are unaffected.
    """
    np.empty(_ALLOCATOR_PRIME_BYTES // 8)


def _block_size(m: int, d: int) -> int:
    """Replicates per block: a function of (M, d) alone, never of the
    worker count or the orders."""
    return max(1, models._BLOCK_SCALARS // (m * d))


def _run_replicates(payload: tuple, start: int, stop: int) -> np.ndarray:
    """Errors of replicates [start, stop), start a block boundary, one row
    per order; NaN marks an aborted replicate. A non-finite theta_hat (the
    outer draw left the model domain) aborts every order of its replicate
    before any chain starts from it."""
    _prime_allocator()
    model, func, theta, f_true, orders, n, m, step, seed = payload
    size = _block_size(m, theta.shape[0])
    errs = np.empty((len(orders), stop - start))
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        rng = derive_stream(seed, lo // size, 0)
        theta_hat = models.estimate_block(model, np.repeat(theta[None, :], hi - lo, axis=0), n, rng)
        est = bootstrap.fk_estimate_at(model, func, theta_hat, orders, n, m, rng, step)
        errs[:, lo - start : hi - start] = est - f_true
    return errs


def _batched_errors(payload: tuple, total: int, threads: int, pool=None) -> np.ndarray:
    """Errors of replicates [0, total), split on block boundaries over the
    threads workers of pool (in process without a pool, or with fewer than
    two blocks per worker)."""
    size = _block_size(payload[6], payload[2].shape[0])
    blocks = -(-total // size)
    if pool is None or blocks < 2 * threads:
        return _run_replicates(payload, 0, total)
    cuts = [min(int(b) * size, total) for b in np.linspace(0, blocks, threads + 1, dtype=int)]
    ranges = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    parts = list(pool.map(_run_replicates, *zip(*[(payload, lo, hi) for lo, hi in ranges])))
    return np.concatenate(parts, axis=1)


def _chain_step(cfg: ExperimentConfig, model, theta, n: int):
    """The chains' transition kernel at a grid point: None (the bootstrap
    step), or the surrogate step truncated at delta (default
    3 sqrt(tr Sigma / n); an infinite delta disables truncation)."""
    if not cfg.use_tilde:
        return None
    delta = gaussian.default_delta(model, theta, n) if cfg.delta is None else cfg.delta
    return partial(gaussian.surrogate_step, delta=delta)


def _grid_point(cfg: ExperimentConfig, n: int, d: int):
    """(model, functional, theta, sigma_f) at grid point (n, d); the one
    check that theta has the grid's dimension."""
    model = cfg.model(d)
    func = cfg.functional(d)
    theta = np.asarray(cfg.theta(d), dtype=float)
    if theta.shape != (d,):
        raise ConfigError(f"theta has dimension {theta.shape}, grid point (n={n}, d={d}) needs {d}")
    return model, func, theta, gaussian.sigma_f(model, func, theta)


def _summary(
    n: int, d: int, k: int, errs: np.ndarray, sig_f: float, seconds: float, dev=None
) -> TrialSummary:
    """The row of one order at one grid point from its R errors (NaN marks
    an aborted replicate). d_k is the Kolmogorov distance of dev / sigma_f
    to N(0, 1), where dev is sqrt(n) errs unless the caller drew it exactly."""
    good = np.isfinite(errs)
    valid = errs[good]
    aborts = int(errs.size - valid.size)
    bias = se_bias = sd = rmse = d_k = math.nan
    if valid.size >= 2:
        bias = float(valid.mean())
        sd = float(valid.std(ddof=1))
        rmse = float(math.sqrt(np.mean(valid**2)))
        se_bias = sd / math.sqrt(valid.size)
        if sig_f > 0:
            dev = valid * math.sqrt(n) if dev is None else dev[good]
            d_k = distances.kolmogorov_to_std_normal(dev / sig_f)
    return TrialSummary(
        n=n,
        d=d,
        k=k,
        bias=bias,
        se_bias=se_bias,
        sd=sd,
        rmse=rmse,
        sqrt_n_rmse=math.sqrt(n) * rmse,
        sigma_f=sig_f,
        d_k=d_k,
        aborts=aborts,
        seconds=seconds,
        failed=aborts > bootstrap.ABORT_RATE_LIMIT * errs.size or valid.size < 2,
    )


def _summarize_point(
    cfg: ExperimentConfig, orders: tuple[int, ...], point: tuple, threads: int, pool
) -> list[TrialSummary]:
    """One pass of R replicates at a resolved grid point on the run's pool,
    summarized once per order; every row shares the pass's wall time."""
    n, d, (model, func, theta, sig_f) = point
    f_true = float(functionals.value(func, theta))
    step = _chain_step(cfg, model, theta, n) if max(orders) > 0 else None

    t0 = time.perf_counter()
    payload = (model, func, theta, f_true, orders, n, cfg.inner_chains, step, cfg.seed)
    errs_by_order = _batched_errors(payload, cfg.replicates, threads, pool)
    seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0
    return [_summary(n, d, k, errs, sig_f, seconds) for k, errs in zip(orders, errs_by_order)]


def _summarize_points(
    cfg: ExperimentConfig, orders: tuple[int, ...], threads: int
) -> list[TrialSummary]:
    """Every grid point's pass in grid order, on one worker pool for the
    whole run; its workers start on the first pass that splits. Every point
    is resolved, and a normality run's sigma_f floor checked, before any
    replicate runs."""
    points = [(n, d, _grid_point(cfg, n, d)) for n, d in cfg.grid.points()]
    for n, d, (*_, sig_f) in points:
        if cfg.kind == "normality" and not sig_f >= SIGMA_F_FLOOR:
            raise ConfigError(
                f"sigma_f = {sig_f:g} below the {SIGMA_F_FLOOR:g} floor at (n={n}, d={d})"
            )
    with ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        return [
            row for point in points for row in _summarize_point(cfg, orders, point, threads, pool)
        ]


def run_risk_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """R replicates per grid point: draw data, compute the order-k corrected
    estimate, record the error against f(theta). With compare_plugin set, a
    k=0 row accompanies each grid point, folded from the same replicates.
    A normality config is rejected where sigma_f falls below SIGMA_F_FLOOR."""
    orders = (0, cfg.k) if cfg.compare_plugin and cfg.k > 0 else (cfg.k,)
    return _summarize_points(cfg, orders, threads)


# a normality run's headline d_k standardizes the errors by sigma_f(theta)
run_normality_experiment = run_risk_experiment


def run_clt_diagnostic(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """W1/W2 between the u-projections of sqrt(n)(theta_hat - theta) and of
    the surrogate xi(theta), per grid point.

    The run is vectorized over replicates with per-grid-point streams, so it
    is deterministic independently of the thread count (threads unused). The
    CSV-shaped fields describe the plug-in error of the linear functional
    <u, .>; the distances live in extra["w1"], extra["w2"].
    """
    out = []
    for gi, (n, d) in enumerate(cfg.grid.points()):
        model, func, theta, sig_u = _grid_point(cfg, n, d)
        if func.variant != "linear":
            raise ConfigError("clt diagnostic needs a linear functional (the projection u)")
        t0 = time.perf_counter()
        block = np.broadcast_to(theta, (cfg.replicates, d))
        theta_hat = models.estimate_block(model, block, n, derive_stream(cfg.seed, gi, 0))
        dev = math.sqrt(n) * ((theta_hat - theta) @ func.u)
        xi_proj = models.sample_xi_block(model, block, derive_stream(cfg.seed, gi, 1)) @ func.u

        good = np.isfinite(dev)
        extra = {}
        if good.sum() >= 2:  # else _summary marks the row failed
            w1 = distances.wasserstein1(dev[good], xi_proj[good])
            w2 = distances.wasserstein2(dev[good], xi_proj[good])
            if not w1 <= w2 + 1e-12:
                raise bootstrap.EstimationError(f"W1 = {w1!r} exceeds W2 = {w2!r}")
            extra = {"w1": w1, "w2": w2}
        seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0
        summ = _summary(n, d, 0, dev / math.sqrt(n), sig_u, seconds, dev=dev)
        summ.extra = extra
        out.append(summ)
    return out


def run_oracle_check(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """Measured bias of the corrected estimator vs the closed-form oracle for
    f = exp(<., u>) under the constant-isotropic shift model, one row per
    order 0..k, all folded from one pass of replicates per grid point. A row
    passes iff |bias - signed target| <= 4 se_bias; extra carries the target,
    the z-score (bias - signed target) / se_bias and the verdict."""
    model, func, _, _ = _grid_point(cfg, *cfg.grid.points()[0])
    if not (
        isinstance(model, models.GaussianShift)
        and isinstance(model.noise_map, models.IdentityMap)
    ):
        raise ConfigError("oracle check needs the shift model with Sigma = sigma^2 I")
    if func.variant != "exp_linear":
        raise ConfigError("oracle check needs the exp_linear functional")
    sigma2 = model.noise_map.scale**2

    out = _summarize_points(cfg, tuple(range(cfg.k + 1)), threads)
    for summ in out:
        _, func, theta, _ = _grid_point(cfg, summ.n, summ.d)
        target = bootstrap.bias_oracle_exp(theta, func.u, sigma2, summ.n, summ.k)
        signed = (-1) ** summ.k * target
        ok = summ.se_bias > 0 and abs(summ.bias - signed) <= 4.0 * summ.se_bias
        z = (summ.bias - signed) / summ.se_bias if summ.se_bias > 0 else math.nan
        summ.extra.update(
            {
                "oracle_bias": target,
                "oracle_bias_signed": signed,
                "oracle_z": z,
                "oracle_pass": bool(ok),
            }
        )
        summ.failed = summ.failed or not ok
    return out


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """Dispatch on cfg.kind; "sweep" is a risk run plus a rate fit stored in
    the final row's extra."""
    if cfg.kind in ("risk", "sweep"):
        out = run_risk_experiment(cfg, threads=threads)
        if cfg.kind == "sweep":
            rows = [s for s in out if s.k == cfg.k and not s.failed and s.rmse > 0]
            if len(rows) >= 3:
                slope, intercept, r2 = rate_fit(
                    [s.n for s in rows], [s.rmse for s in rows]
                )
                out[-1].extra.update({"slope": slope, "intercept": intercept, "r2": r2})
        return out
    if cfg.kind == "normality":
        return run_normality_experiment(cfg, threads=threads)
    if cfg.kind == "clt":
        return run_clt_diagnostic(cfg, threads=threads)
    if cfg.kind == "oracle-check":
        return run_oracle_check(cfg, threads=threads)
    raise ConfigError(f"unknown experiment kind {cfg.kind!r}")


def rate_fit(ns, rmses) -> tuple[float, float, float]:
    """Least squares of log RMSE on log n: (slope, intercept, r squared)."""
    ns = np.asarray(ns, dtype=float)
    rm = np.asarray(rmses, dtype=float)
    if ns.size < 3:
        raise ValueError("rate fit needs at least 3 grid points")
    if np.any(ns <= 0) or np.any(rm <= 0):
        raise ValueError("rate fit needs positive inputs")
    x = np.log(ns)
    y = np.log(rm)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
