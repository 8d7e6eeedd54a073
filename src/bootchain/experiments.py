"""Declarative experiment harness: risk, normality, CLT diagnostics, sweeps
and oracle checks.

ExperimentConfig and GridSpec hold every rule about fields and values, for
JSON and Python configs alike. One runner, run_experiment, serves every
kind. It resolves and checks every grid point, in grid order, before any
replicate runs (_grid_point: the model, functional, theta and sigma_f, the
one check of their dimensions and of the kind's preconditions). _summary
turns a point's error vector into its row (bias, se, sd, rmse, d_k, aborts,
the failed flag). Every kind's rows come from one replicate pass per point;
a clt row gets W1/W2 against an exact surrogate draw in its extra, an
oracle-check row its test against the exact _oracle_bias.

Reproducibility contract: a grid point's R replicates run in blocks of
B = max(1, 2^16 // (M d)) (_BLOCK_SCALARS), and block b draws all of its
randomness from the one stream derive_stream(master_seed, b, 0), an SFC64
generator seeded from the tuple: first its B theta_hat rows, one call of
the block kernel models.estimate_block on B starts at theta with
chains = 1, then the chains of its finite rows, one kernel call per step
with chains = M, each row's M chains in antithetic pairs where the
kernel's driver is symmetric (bootstrap.chain_steps). At B = 1 a block is
one replicate. Every order row a grid point reports (the plug-in row of
compare_plugin, each oracle-check order) is folded from the same theta_hat
and the prefixes of the same chains; a clt point (k = 0, M = 1) steps none,
and grid point g draws its surrogate projections from derive_stream(
master_seed, g, 1). B depends on (M, d) alone; a run's one worker pool
splits the block range at any size, and the aggregation is a sequential
fold in replicate order, so summaries are bit-identical for a fixed seed at
every worker count and for every set of orders. Wall time is the one
nondeterministic field; timing="none" zeroes it for byte-stable output
files.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import bootstrap, distances, functionals, models

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


class EstimationError(RuntimeError):
    """A Monte Carlo summary broke an identity it must satisfy (a clt row's
    W1 above its W2)."""


def derive_stream(master_seed: int, replicate_index: int, chain_index: int):
    """Independent-quality random stream keyed by (seed, replicate, chain);
    the harness passes a replicate block's index, or a clt grid point's.

    An SFC64 generator seeded by SeedSequence(seed, spawn_key=(replicate,
    chain)). The seed fills the hashed pool before the spawn key is
    appended, so distinct tuples hash distinct words and share a stream only
    through a collision of the 128-bit hash: distinct with overwhelming
    probability, not by construction. (The entropy list [seed, replicate,
    chain] would not do: its zero padding makes (s, 1, 0) and (s + 2^32, 0,
    0) one stream.) Identical tuples give identical streams on every run
    and worker count; a bool or fractional key is refused, never truncated.
    """
    for key, top in ((master_seed, MAX_SEED), (replicate_index, MAX_INDEX), (chain_index, MAX_INDEX)):
        if isinstance(key, bool) or not isinstance(key, numbers.Integral) or not 0 <= key < top:
            raise ValueError("master seed must be an integer in [0, 2^64), each index one in [0, 2^32)")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(replicate_index), int(chain_index)))
    return np.random.Generator(np.random.SFC64(seq))


def as_int(value, where: str) -> int:
    """value as an int; a bool or fractional value is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where}: expected an integer")
    return int(value)


def as_real(value, where: str) -> float:
    """value as a float; a bool, string or complex value is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number")
    return float(value)


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
        ns = tuple(as_int(n, "grid.n") for n in self.n_values)
        if not ns or min(ns) < 1:
            raise ConfigError("grid.n: needs positive sample sizes")
        if len(set(ns)) != len(ns):
            raise ConfigError("grid.n: values must be distinct")
        object.__setattr__(self, "n_values", tuple(sorted(ns)))
        if (self.d_fixed is None) == (self.alpha is None):
            raise ConfigError("grid: needs exactly one of d or alpha")
        if self.d_fixed is not None:
            object.__setattr__(self, "d_fixed", as_int(self.d_fixed, "grid.d"))
            if self.d_fixed < 1:
                raise ConfigError("grid.d: must be >= 1")
        if self.alpha is not None:
            object.__setattr__(self, "alpha", as_real(self.alpha, "grid.alpha"))
            if not 0.0 < self.alpha < 1.0:
                raise ConfigError("grid.alpha: must lie in (0, 1)")

    def points(self) -> list[tuple[int, int]]:
        if self.d_fixed is not None:
            return [(n, self.d_fixed) for n in self.n_values]
        return [(n, max(1, math.ceil(n**self.alpha))) for n in self.n_values]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs; model/functional/theta may be
    fixed objects or factories taking the grid dimension d (theta None is
    unit_sin_theta). Every rule of a JSON config, including the refusal of
    a field the run would ignore, holds here, and each message starts with
    the config-file field: mc.M is inner_chains, mc.R replicates,
    compare.tilde use_tilde and compare.plugin compare_plugin."""

    kind: str
    model: models.Model | Callable[[int], models.Model]
    functional: functionals.Functional | Callable[[int], functionals.Functional]
    theta: np.ndarray | Callable[[int], np.ndarray] | None
    k: int
    grid: GridSpec
    inner_chains: int = 1000  # M
    replicates: int = 2000  # R
    delta: float | None = None  # None -> 3 ||L(theta)||_F / sqrt(n); inf: no truncation
    seed: int = 0
    use_tilde: bool = False
    compare_plugin: bool = False
    timing: str = "wall"

    def __post_init__(self):
        for name, where in (("use_tilde", "compare.tilde"), ("compare_plugin", "compare.plugin")):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{where}: expected a boolean")
        if self.kind not in KINDS:
            raise ConfigError(f"kind: expected one of {KINDS}, got {self.kind!r}")
        for name, where in (("k", "k"), ("inner_chains", "mc.M"), ("replicates", "mc.R"), ("seed", "seed")):
            object.__setattr__(self, name, as_int(getattr(self, name), where))
        if not (0 <= self.k <= bootstrap.MAX_ORDER):
            raise ConfigError(f"k: must be in [0, {bootstrap.MAX_ORDER}]")
        if self.inner_chains < 1:
            raise ConfigError("mc.M: must be >= 1")
        if self.replicates < 1:
            raise ConfigError("mc.R: must be >= 1")
        if self.kind == "normality" and self.replicates < 100:
            raise ConfigError("mc.R: normality diagnostics need R >= 100")
        if self.timing not in ("wall", "none"):
            raise ConfigError('timing: must be "wall" or "none"')
        if not (0 <= self.seed < MAX_SEED):
            raise ConfigError("seed: must fit in 64 bits")
        if self.delta is not None:
            object.__setattr__(self, "delta", as_real(self.delta, "delta"))
            if not self.delta > 0:
                raise ConfigError("delta: must be positive (or unset for the default)")
        if self.kind == "clt":  # the diagnostic runs no chains and compares no estimators
            unused = (("k", self.k != 0), ("mc.M", self.inner_chains != 1), ("delta", self.delta is not None),
                      ("compare.tilde", self.use_tilde), ("compare.plugin", self.compare_plugin))
            for name, bad in unused:
                if bad:
                    raise ConfigError(f"{name}: clt configs need k = 0, M = 1, no delta, no compare")
        elif self.use_tilde and self.k == 0:
            raise ConfigError("compare.tilde: a k = 0 run steps no chains, surrogate or bootstrap")
        elif self.compare_plugin and (self.k == 0 or self.kind == "oracle-check"):
            raise ConfigError("compare.plugin: a k = 0 or oracle-check run reports the plug-in row anyway")
        elif self.delta is not None and not self.use_tilde:
            raise ConfigError("delta: only surrogate chains (compare.tilde) are truncated")


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

    Every chain step allocates and frees a block's (B, M, d) states (up to
    2^16 doubles, or M*d at B = 1) and a raw-draw kernel its chunks of up
    to 2^16 doubles. glibc malloc maps blocks above a dynamic threshold
    (128 KiB at start) straight from the OS and trims the heap top beyond
    twice that, so such arrays can be faulted in afresh on every block: on
    a 2-vCPU Linux VM, a quarter of the wall time of a surrogate sweep, all
    of it system time. Freeing one large mapped block raises both
    thresholds for the rest of the process; other allocators are unaffected.
    """
    np.empty(_ALLOCATOR_PRIME_BYTES // 8)


_BLOCK_SCALARS = 2**16  # chain-state budget B*M*d of one block of replicates


def _block_size(m: int, d: int) -> int:
    """Replicates per block: a function of (M, d) alone, never of the
    worker count or the orders."""
    return max(1, _BLOCK_SCALARS // (m * d))


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
        starts = np.broadcast_to(theta, (hi - lo, 1, theta.shape[0]))
        theta_hat = models.estimate_block(model, starts, n, rng)[:, 0]
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
    """(model, functional, theta, sigma_f) at grid point (n, d), calling
    each factory at d, and the one check of the point: the model, a finite
    theta and the functional's finite u and Q fit d, and the kind's
    preconditions hold (the normality sigma_f floor, clt's linear
    functional, the closed form of _oracle_bias)."""
    specs = (cfg.model, cfg.functional, unit_sin_theta if cfg.theta is None else cfg.theta)
    model, func, theta = (spec(d) if callable(spec) else spec for spec in specs)
    if model.dim != d:
        raise ConfigError(f"model: dim {model.dim} does not match grid point d = {d}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ConfigError(f"theta has dimension {theta.shape}, grid point (n={n}, d={d}) needs {d}")
    if not np.all(np.isfinite(theta)):
        raise ConfigError("theta: entries must be finite")
    if func.u is not None and func.u.shape != (d,):
        raise ConfigError(f"functional.u: length {func.u.size} does not match d = {d}")
    if func.Q is not None and func.Q.shape != (d, d):
        raise ConfigError(f"functional.Q: expected a list of d = {d} rows")
    for name, entries in (("u", func.u), ("Q", func.Q)):
        if entries is not None and not np.all(np.isfinite(entries)):
            raise ConfigError(f"functional.{name}: entries must be finite")
    sig_f = models.sigma_f(model, func, theta)
    if cfg.kind == "normality" and not sig_f >= SIGMA_F_FLOOR:
        raise ConfigError(f"sigma_f = {sig_f:g} below the {SIGMA_F_FLOOR:g} floor at (n={n}, d={d})")
    if cfg.kind == "clt" and (func.u is None or func.profile != "identity"):
        raise ConfigError("clt diagnostic needs a linear functional (the projection u)")
    if cfg.kind == "oracle-check":
        _oracle_bias(model, func, theta, n, cfg.k)
    return model, func, theta, sig_f


def _summary(n: int, d: int, k: int, errs: np.ndarray, sig_f: float, seconds: float) -> TrialSummary:
    """The row of one order at one grid point from its R errors (NaN marks
    an aborted replicate). d_k is the Kolmogorov distance of sqrt(n) errs /
    sigma_f to N(0, 1)."""
    valid = errs[np.isfinite(errs)]
    aborts = int(errs.size - valid.size)
    bias = se_bias = sd = rmse = d_k = math.nan
    if valid.size >= 2:
        bias = float(valid.mean())
        sd = float(valid.std(ddof=1))
        rmse = float(math.sqrt(np.mean(valid**2)))
        se_bias = sd / math.sqrt(valid.size)
        if sig_f > 0:
            d_k = distances.kolmogorov_to_std_normal(valid * math.sqrt(n) / sig_f)
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


def _clt_distances(summ: TrialSummary, errs: np.ndarray, seed: int, g: int) -> None:
    """W1/W2 into a clt row's extra: between sqrt(n) times the pass's finite
    errors <u, theta_hat - theta> and the surrogate's projections <u, xi> =
    <L(theta)^T u, z> ~ N(0, sigma_f^2), drawn exactly as sigma_f times one
    normal per finite error from grid point g's stream (seed, g, 1)."""
    errs = errs[np.isfinite(errs)]
    if errs.size < 2:  # _summary marked the row failed
        return
    dev = math.sqrt(summ.n) * errs
    xi_proj = summ.sigma_f * derive_stream(seed, g, 1).standard_normal(errs.size)
    w1 = distances.wasserstein1(dev, xi_proj)
    w2 = distances.wasserstein2(dev, xi_proj)
    if not w1 <= w2 + 1e-12:
        raise EstimationError(f"W1 = {w1!r} exceeds W2 = {w2!r}")
    summ.extra.update(w1=w1, w2=w2)


def _oracle_bias(model, func, theta, n: int, k: int) -> float:
    """Exact signed bias of the order-k corrected estimator at sample size n,
    or the ConfigError that says why no closed form applies. For f =
    exp(<., u>) under the shift model with Sigma = sigma^2 I, Tf = f e^a with
    a = sigma^2 ||u||^2 / (2n) (Gaussian MGF), so each application of the
    bias operator multiplies f by (e^a - 1): the bias is
    (-1)^k f(theta) (e^a - 1)^(k+1)."""
    noise = model.noise_map if isinstance(model, models.GaussianShift) else None
    if not (isinstance(noise, models.IdentityMap) and np.ndim(noise.scale) == 0):
        raise ConfigError("oracle check needs the shift model with Sigma = sigma^2 I")
    if func.u is None or func.profile != "exp":
        raise ConfigError("oracle check needs the exp_linear functional")
    a = noise.scale**2 * float(func.u @ func.u) / (2.0 * n)
    return (-1) ** k * float(np.exp(theta @ func.u) * math.expm1(a) ** (k + 1))


def _oracle_verdict(summ: TrialSummary, model, func, theta) -> None:
    """Checks a row's bias against _oracle_bias: the row passes iff |bias -
    signed target| <= 4 se_bias. extra gets the target's magnitude and sign,
    the z-score and the verdict."""
    signed = _oracle_bias(model, func, theta, summ.n, summ.k)
    ok = summ.se_bias > 0 and abs(summ.bias - signed) <= 4.0 * summ.se_bias
    z = (summ.bias - signed) / summ.se_bias if summ.se_bias > 0 else math.nan
    summ.extra.update(
        oracle_bias=abs(signed), oracle_bias_signed=signed, oracle_z=z, oracle_pass=bool(ok)
    )
    summ.failed = summ.failed or not ok


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[TrialSummary]:
    """Every grid point's rows, in grid order, once _grid_point has passed
    every point (the first failing point fails the run). Each point runs one
    pass of R replicates on one worker pool for the whole run (its workers
    start on the first pass that splits), summarized once per order, each
    row with the pass's wall time: (k,), (0, k) with compare_plugin, or 0..k
    with oracle verdicts for oracle-check; a clt row gets its W1/W2. A
    sweep's final row gets the rate fit of its order-k rows."""
    points = [(n, d, *_grid_point(cfg, n, d)) for n, d in cfg.grid.points()]
    orders = (0, cfg.k) if cfg.compare_plugin else (cfg.k,)
    if cfg.kind == "oracle-check":
        orders = tuple(range(cfg.k + 1))

    out = []
    with ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for g, (n, d, model, func, theta, sig_f) in enumerate(points):
            f_true = float(functionals.value(func, theta))
            step = None  # the bootstrap step, or the surrogate step truncated at delta
            if cfg.use_tilde:
                delta = models.default_delta(model, theta, n) if cfg.delta is None else cfg.delta
                step = partial(models.surrogate_step, delta=delta)
            t0 = time.perf_counter()
            payload = (model, func, theta, f_true, orders, n, cfg.inner_chains, step, cfg.seed)
            errs_by_order = _batched_errors(payload, cfg.replicates, threads, pool)
            seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0
            for k, errs in zip(orders, errs_by_order):
                out.append(_summary(n, d, k, errs, sig_f, seconds))
                if cfg.kind == "oracle-check":
                    _oracle_verdict(out[-1], model, func, theta)
                elif cfg.kind == "clt":
                    _clt_distances(out[-1], errs, cfg.seed, g)
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
