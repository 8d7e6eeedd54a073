"""Declarative experiment harness: risk, normality, CLT diagnostics, sweeps.

One runner, run_experiment, serves every kind. It resolves each grid point
once (_grid_point: the model, functional, theta, the one check of its
dimension, and sigma_f) and checks the kind's preconditions at every point
before any replicate runs. _summary turns a point's error vector into its
row (bias, se, sd, rmse, d_k, aborts, the failed flag). risk, sweep,
normality and oracle-check rows come from one replicate pass per point; clt
rows from a plug-in draw and a surrogate draw per point, with W1/W2 in the
row's extra.

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

KINDS = ("risk", "normality", "clt", "sweep", "oracle-check")
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
        if self.kind not in KINDS:
            raise ConfigError(f"kind: expected one of {KINDS}, got {self.kind!r}")
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


def _check_point(cfg: ExperimentConfig, n: int, d: int, model, func, theta, sig_f) -> None:
    """The kind's preconditions at one resolved grid point."""
    if cfg.kind == "normality" and not sig_f >= SIGMA_F_FLOOR:
        raise ConfigError(f"sigma_f = {sig_f:g} below the {SIGMA_F_FLOOR:g} floor at (n={n}, d={d})")
    if cfg.kind == "clt" and func.variant != "linear":
        raise ConfigError("clt diagnostic needs a linear functional (the projection u)")
    if cfg.kind == "oracle-check":
        shift = isinstance(model, models.GaussianShift)
        if not (shift and isinstance(model.noise_map, models.IdentityMap)):
            raise ConfigError("oracle check needs the shift model with Sigma = sigma^2 I")
        if func.variant != "exp_linear":
            raise ConfigError("oracle check needs the exp_linear functional")


def _clt_row(cfg: ExperimentConfig, gi: int, n: int, d: int, model, func, theta, sig_u):
    """W1/W2 between the u-projections of sqrt(n)(theta_hat - theta) and of
    the surrogate xi(theta) at grid point gi, drawn vectorized over the
    replicates from the point's own streams (on no pool). The CSV-shaped
    fields describe the plug-in error of the linear functional <u, .>; the
    distances live in extra["w1"], extra["w2"]."""
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
    return summ


def _oracle_verdict(summ: TrialSummary, model, func, theta) -> None:
    """Checks a row's bias against the closed-form oracle for f = exp(<., u>)
    under the isotropic shift: the row passes iff |bias - signed target| <=
    4 se_bias. extra gets the target, the z-score and the verdict."""
    target = bootstrap.bias_oracle_exp(theta, func.u, model.noise_map.scale**2, summ.n, summ.k)
    signed = (-1) ** summ.k * target
    ok = summ.se_bias > 0 and abs(summ.bias - signed) <= 4.0 * summ.se_bias
    z = (summ.bias - signed) / summ.se_bias if summ.se_bias > 0 else math.nan
    summ.extra.update(
        oracle_bias=target, oracle_bias_signed=signed, oracle_z=z, oracle_pass=bool(ok)
    )
    summ.failed = summ.failed or not ok


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """Every grid point's rows, in grid order. A clt point gives one _clt_row;
    any other kind runs one pass of R replicates per point on one worker
    pool for the whole run (its workers start on the first pass that
    splits), summarized once per order, each row with the pass's wall time:
    (k,), (0, k) with compare_plugin, or 0..k with oracle verdicts for
    oracle-check. A sweep's final row gets the rate fit of its order-k rows."""
    points = [(n, d, *_grid_point(cfg, n, d)) for n, d in cfg.grid.points()]
    for point in points:
        _check_point(cfg, *point)
    if cfg.kind == "clt":
        return [_clt_row(cfg, gi, *point) for gi, point in enumerate(points)]
    orders = (0, cfg.k) if cfg.compare_plugin and cfg.k > 0 else (cfg.k,)
    if cfg.kind == "oracle-check":
        orders = tuple(range(cfg.k + 1))

    out = []
    with ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for n, d, model, func, theta, sig_f in points:
            f_true = float(functionals.value(func, theta))
            step = None  # the bootstrap step, or the surrogate step truncated at delta
            if cfg.use_tilde and max(orders) > 0:
                delta = gaussian.default_delta(model, theta, n) if cfg.delta is None else cfg.delta
                step = partial(gaussian.surrogate_step, delta=delta)
            t0 = time.perf_counter()
            payload = (model, func, theta, f_true, orders, n, cfg.inner_chains, step, cfg.seed)
            errs_by_order = _batched_errors(payload, cfg.replicates, threads, pool)
            seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0
            for k, errs in zip(orders, errs_by_order):
                out.append(_summary(n, d, k, errs, sig_f, seconds))
                if cfg.kind == "oracle-check":
                    _oracle_verdict(out[-1], model, func, theta)
    if cfg.kind == "sweep":
        rows = [s for s in out if s.k == cfg.k and not s.failed and s.rmse > 0]
        if len(rows) >= 3:
            slope, intercept, r2 = rate_fit([s.n for s in rows], [s.rmse for s in rows])
            out[-1].extra.update({"slope": slope, "intercept": intercept, "r2": r2})
    return out


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
