"""Declarative experiment harness: risk, normality, CLT diagnostics, sweeps.

Reproducibility contract: every replicate r draws all of its randomness from
the counter-based stream derive_stream(master_seed, r, 0): first theta_hat,
as one row of the block kernel models.estimate_block, then its chains.
Each grid point runs its replicates once: every order row it reports (the
plug-in row of compare_plugin, each oracle-check order) is folded from the
same theta_hat and the prefixes of the same chains, in one worker pool.
Replicates are independent work items; a worker pool of any size partitions
the replicate index range, and the aggregation is a sequential fold in index
order, so summaries are bit-identical for a fixed seed regardless of the
worker count. Wall time is the one nondeterministic field; timing="none"
zeroes it for byte-stable output files.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
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


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def derive_stream(master_seed: int, replicate_index: int, chain_index: int):
    """Independent-quality random stream keyed by (seed, replicate, chain).

    Counter-based: the tuple is packed into a Philox-4x64 key, so the map
    from index tuples to streams is injective and stateless. Identical
    tuples give identical streams on every run and worker count.
    """
    if not (0 <= master_seed < MAX_SEED):
        raise ValueError("master seed must fit in 64 bits")
    if not (0 <= replicate_index < MAX_INDEX and 0 <= chain_index < MAX_INDEX):
        raise ValueError("replicate/chain indices must fit in 32 bits")
    key = np.array(
        [master_seed, (replicate_index << 32) | chain_index], dtype=np.uint64
    )
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
    delta: float | str | None = None  # None/"auto" -> 3 sqrt(tr Sigma / n)
    seed: int = 0
    sigma0: float = 1e-8
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
    errors: np.ndarray | None = None


# ---------------------------------------------------------------------------
# replicate execution


def _prime_allocator() -> None:
    """Keep the replicate loop's arrays on the heap.

    Every replicate allocates and frees arrays of up to (k+1)*M*d doubles.
    glibc malloc maps blocks above a dynamic threshold (128 KiB at start)
    straight from the OS and trims the heap top beyond twice that, so,
    depending on what the process happened to free before, such arrays can
    be faulted in afresh on every replicate. On a 2-vCPU Linux VM that was
    a quarter of the wall time of a surrogate sweep, all of it system time.
    Freeing one large mapped block raises both thresholds for the rest of
    the process; other allocators are unaffected.
    """
    np.empty(_ALLOCATOR_PRIME_BYTES // 8)


def _run_replicates(payload: tuple, start: int, stop: int) -> np.ndarray:
    """Errors of replicates [start, stop), one row per order; NaN marks an
    aborted replicate. A non-finite theta_hat (the outer draw left the model
    domain) aborts every order before any chain starts."""
    _prime_allocator()
    model, func, theta, f_true, orders, n, m, step, seed = payload
    theta_row = theta[None, :]
    errs = np.full((len(orders), stop - start), np.nan)
    for i, r in enumerate(range(start, stop)):
        rng = derive_stream(seed, r, 0)
        theta_hat = models.estimate_block(model, theta_row, n, rng)[0]
        if np.isfinite(theta_hat).all():
            est = bootstrap.fk_estimate_at(model, func, theta_hat, orders, n, m, rng, step)
            errs[:, i] = est - f_true
    return errs


def _batched_errors(payload: tuple, total: int, threads: int) -> np.ndarray:
    if threads <= 1 or total < 2 * threads:
        return _run_replicates(payload, 0, total)
    bounds = np.linspace(0, total, threads + 1, dtype=int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_run_replicates, *zip(*[(payload, lo, hi) for lo, hi in ranges])))
    return np.concatenate(parts, axis=1)


def _chain_step(cfg: ExperimentConfig, model, theta, n: int):
    """The chains' transition kernel at a grid point: None (the bootstrap
    step), or the surrogate step truncated at delta (default
    3 sqrt(tr Sigma / n); an infinite delta disables truncation)."""
    if not cfg.use_tilde:
        return None
    delta = cfg.delta
    if delta is None or delta == "auto":
        delta = gaussian.default_delta(model, theta, n)
    trunc = gaussian.TruncationRule(delta=float(delta), n=n) if math.isfinite(delta) else None
    return partial(gaussian.surrogate_step, trunc=trunc)


def _summarize_point(
    cfg: ExperimentConfig, orders: tuple[int, ...], n: int, d: int, threads: int, keep_errors: bool
) -> list[TrialSummary]:
    """One pass of R replicates at grid point (n, d), summarized once per
    order; every row shares the pass's wall time."""
    model = cfg.model(d)
    func = cfg.functional(d)
    theta = np.asarray(cfg.theta(d), dtype=float)
    if theta.shape != (d,):
        raise ConfigError(f"theta has dimension {theta.shape}, grid point needs {d}")
    f_true = float(functionals.value(func, theta))
    sig_f = gaussian.sigma_f(model, func, theta)
    step = _chain_step(cfg, model, theta, n) if max(orders) > 0 else None

    t0 = time.perf_counter()
    payload = (model, func, theta, f_true, orders, n, cfg.inner_chains, step, cfg.seed)
    errs_by_order = _batched_errors(payload, cfg.replicates, threads)
    seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0

    out = []
    for k, errs in zip(orders, errs_by_order):
        valid = errs[np.isfinite(errs)]
        aborts = int(errs.size - valid.size)
        failed = aborts > bootstrap.ABORT_RATE_LIMIT * cfg.replicates or valid.size < 2
        if valid.size >= 2:
            bias = float(valid.mean())
            sd = float(valid.std(ddof=1))
            rmse = float(math.sqrt(np.mean(valid**2)))
            se_bias = sd / math.sqrt(valid.size)
            std = valid * math.sqrt(n) / sig_f if sig_f > 0 else None
            d_k = distances.kolmogorov_to_std_normal(std) if std is not None else math.nan
        else:
            bias = sd = rmse = se_bias = d_k = math.nan
        out.append(
            TrialSummary(
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
                failed=failed,
                errors=valid if keep_errors else None,
            )
        )
    return out


def run_risk_experiment(
    cfg: ExperimentConfig, threads: int = 1, keep_errors: bool = False
) -> list[TrialSummary]:
    """R replicates per grid point: draw data, compute the order-k corrected
    estimate, record the error against f(theta). With compare_plugin set, a
    k=0 row accompanies each grid point, folded from the same replicates."""
    orders = (0, cfg.k) if cfg.compare_plugin and cfg.k > 0 else (cfg.k,)
    out = []
    for n, d in cfg.grid.points():
        out.extend(_summarize_point(cfg, orders, n, d, threads, keep_errors))
    return out


def run_normality_experiment(
    cfg: ExperimentConfig, threads: int = 1, keep_errors: bool = False
) -> list[TrialSummary]:
    """Risk run whose headline output is the Kolmogorov distance of the
    standardized errors sqrt(n) err / sigma_f(theta) to N(0, 1). Rejects
    configurations where sigma_f falls below the configured floor."""
    for n, d in cfg.grid.points():
        sig_f = gaussian.sigma_f(cfg.model(d), cfg.functional(d), np.asarray(cfg.theta(d)))
        if not sig_f >= cfg.sigma0 or sig_f <= 0.0:
            raise ConfigError(
                f"sigma_f = {sig_f:g} below the sigma0 = {cfg.sigma0:g} floor at (n={n}, d={d})"
            )
    return run_risk_experiment(cfg, threads=threads, keep_errors=keep_errors)


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
        model = cfg.model(d)
        func = cfg.functional(d)
        if func.variant != "linear":
            raise ConfigError("clt diagnostic needs a linear functional (the projection u)")
        u = func.u
        theta = np.asarray(cfg.theta(d), dtype=float)
        t0 = time.perf_counter()
        rng_data = derive_stream(cfg.seed, gi, 0)
        rng_xi = derive_stream(cfg.seed, gi, 1)
        block = np.broadcast_to(theta, (cfg.replicates, d))
        theta_hat = models.estimate_block(model, block, n, rng_data)
        dev = math.sqrt(n) * ((theta_hat - theta) @ u)
        xi_proj = models.sample_xi_block(model, block, rng_xi) @ u

        good = np.isfinite(dev)
        aborts = int(dev.size - good.sum())
        dev_ok = dev[good]
        sig_u = gaussian.sigma_f(model, func, theta)
        bias = se_bias = sd = rmse = d_k = math.nan
        extra = {}
        if dev_ok.size >= 2:  # else a failed row, as in _summarize_point
            w1 = distances.wasserstein1(dev_ok, xi_proj[good])
            w2 = distances.wasserstein2(dev_ok, xi_proj[good])
            if not w1 <= w2 + 1e-12:
                raise bootstrap.EstimationError(f"W1 = {w1!r} exceeds W2 = {w2!r}")
            extra = {"w1": w1, "w2": w2}
            errs = dev_ok / math.sqrt(n)
            bias = float(errs.mean())
            sd = float(errs.std(ddof=1))
            se_bias = sd / math.sqrt(dev_ok.size)
            rmse = float(math.sqrt(np.mean(errs**2)))
            if sig_u > 0:
                d_k = distances.kolmogorov_to_std_normal(dev_ok / sig_u)
        seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0
        out.append(
            TrialSummary(
                n=n,
                d=d,
                k=0,
                bias=bias,
                se_bias=se_bias,
                sd=sd,
                rmse=rmse,
                sqrt_n_rmse=math.sqrt(n) * rmse,
                sigma_f=sig_u,
                d_k=d_k,
                aborts=aborts,
                seconds=seconds,
                failed=aborts > bootstrap.ABORT_RATE_LIMIT * cfg.replicates or dev_ok.size < 2,
                extra=extra,
            )
        )
    return out


def run_oracle_check(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """Measured bias of the corrected estimator vs the closed-form oracle for
    f = exp(<., u>) under the constant-isotropic shift model, one row per
    order 0..k, all folded from one pass of replicates per grid point. extra
    carries the oracle target and the pass verdict."""
    d0 = cfg.grid.points()[0][1]
    model = cfg.model(d0)
    func = cfg.functional(d0)
    if not (
        isinstance(model, models.GaussianShift)
        and isinstance(model.noise_map, models.IdentityMap)
    ):
        raise ConfigError("oracle check needs the shift model with Sigma = sigma^2 I")
    if func.variant != "exp_linear":
        raise ConfigError("oracle check needs the exp_linear functional")
    sigma2 = model.noise_map.scale**2

    out = []
    for n, d in cfg.grid.points():
        theta = np.asarray(cfg.theta(d), dtype=float)
        rows = _summarize_point(cfg, tuple(range(cfg.k + 1)), n, d, threads, keep_errors=False)
        for k, summ in enumerate(rows):
            target = bootstrap.bias_oracle_exp(theta, cfg.functional(d).u, sigma2, n, k)
            signed = (-1) ** k * target
            ok = abs(summ.bias - signed) <= 4.0 * summ.se_bias or abs(summ.bias) <= max(
                4.0 * summ.se_bias, 2.0 * target
            )
            summ.extra.update(
                {"oracle_bias": target, "oracle_bias_signed": signed, "oracle_pass": bool(ok)}
            )
            summ.failed = summ.failed or not ok
            out.append(summ)
    return out


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """Dispatch on cfg.kind; "sweep" is a risk run plus a rate fit stored in
    the final row's extra."""
    if cfg.kind in ("risk", "sweep"):
        out = run_risk_experiment(cfg, threads=threads)
        if cfg.kind == "sweep":
            rows = [s for s in out if s.k == cfg.k and not s.failed]
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
