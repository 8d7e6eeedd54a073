"""One calibrated gate for law-equality checks on one-dimensional samples,
and the bootstrap standard error of W1 that sets its band."""

import math

import numpy as np

from bootchain import distances
from bootchain.experiments import derive_stream


def _log_sd_var(x: np.ndarray) -> float:
    """Variance of the log sample sd of x: Var(s^2) / (4 sigma^4), with the
    exact Var(s^2) = sigma^4 (kappa - (N-3)/(N-1)) / N of the unbiased
    sample variance (kappa the kurtosis), which stays positive for a
    two-point law, where kappa = 1."""
    c = x - x.mean()
    m2 = np.mean(c * c)
    kappa = np.mean(c**4) / m2**2
    return (kappa - (x.size - 3) / (x.size - 1)) / (4.0 * x.size)


def wasserstein1_bootstrap_se(a, b, rng, n_boot: int = 100) -> float:
    """Bootstrap standard error of the empirical W1 between two samples,
    resampling both with replacement. Used to set Monte Carlo fluctuation
    bands for same-law comparisons."""
    x = distances._check_sample(a)
    y = distances._check_sample(b)
    vals = np.empty(n_boot)
    for i in range(n_boot):
        xs = x[rng.integers(0, x.size, x.size)]
        ys = y[rng.integers(0, y.size, y.size)]
        vals[i] = distances.wasserstein1(xs, ys)
    return float(vals.std(ddof=1))


def spread_z(a, ref, ref2) -> float:
    """log(sd(a) / sd(ref with ref2)) in standard errors: the log-ratio has
    mean 0 under one law, so ref2 joins ref as reference sample."""
    a, pool = np.asarray(a, dtype=float), np.concatenate([ref, ref2]).astype(float)
    gap = math.log(np.std(a, ddof=1) / np.std(pool, ddof=1))
    return gap / math.sqrt(_log_sd_var(a) + _log_sd_var(pool))


def w1_excess(a, ref, ref2, seed: int) -> float:
    """W1(a, ref) - W1(ref2, ref) in units of sqrt(2) bootstrap se of
    W1(a, ref): the statistic of assert_same_law's W1 clause, at most 4
    under one law."""
    w1 = distances.wasserstein1(a, ref)
    null = distances.wasserstein1(ref2, ref)
    se = wasserstein1_bootstrap_se(a, ref, derive_stream(seed, 0, 2))
    return (w1 - null) / (math.sqrt(2.0) * se)


def assert_same_law(a, ref, ref2, seed: int):
    """a is as close to ref as an independent sample ref2 of ref's law is,
    and has its spread.

    The W1 of two samples of one law has mean about 2.3 bootstrap se (the
    mean over the sd of the integrated |Brownian bridge|), so a bare
    W1 <= 4 se gate fails several per cent of samples of one law. The
    difference W1(a, ref) - W1(ref2, ref) has mean 0 and sd at most about
    sqrt(2) se; the gate is four of those (w1_excess). W1 weighs a scale
    error by the spread of the whole law, so it misses a 10% error at 4000
    draws; the log-ratio of the sample sds (spread_z) is within four of its
    standard errors.
    """
    excess = w1_excess(a, ref, ref2, seed)
    assert excess <= 4.0, f"same-law W1: W1 excess at {excess:.3g} of its 4 units"
    z = spread_z(a, ref, ref2)
    assert abs(z) <= 4.0, f"same-law spread: log sd ratio at {z:.3g} se"
