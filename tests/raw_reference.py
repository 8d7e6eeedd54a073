"""Raw-draw reference for the block kernels, and whole chains for the tests.

models.estimate_block draws each sample mean from the exact law of a sum of
n draws where one exists. raw_estimate is the long way round: it draws the
n observations themselves and fits theta_hat to their mean, so the
law-equality tests have a baseline that takes no shortcut.
simulate_chain_block keeps every state of a chain block, which the run
path (bootstrap.fk_estimate_at) folds as it is drawn and never stores.
"""

import math

import numpy as np

from bootchain import bootstrap, models


def simulate_chain_block(model, starts, k: int, n: int, m: int, rng, step=None) -> np.ndarray:
    """The states of bootstrap.chain_steps stacked after a (B, d) block of
    starts: shape (k+1, B, M, d)."""
    starts = bootstrap._as_block(model, starts, "starts")
    states = np.empty((k + 1, starts.shape[0], m, starts.shape[1]))
    states[0] = starts[:, None, :]
    for j, after in enumerate(bootstrap.chain_steps(model, starts, k, n, m, rng, step), 1):
        states[j] = after
    return states


def raw_estimate(model, theta, n: int, rng) -> np.ndarray:
    """theta_hat fitted to one observation set of size n drawn at theta: the
    shift's single normal vector, or the mean of n raw draws (drivers,
    Poisson counts or Gaussian-mean values) put through the estimator.
    theta must lie in the sampling domain."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(model, models.GaussianShift):
        z = rng.standard_normal(model.dim)
        return theta + models._factor(model, theta, z) / math.sqrt(n)
    if isinstance(model, models.ExponentialFamily):
        if model.family == "poisson_product":
            draws = rng.poisson(np.exp(theta), size=(n, model.dim)).astype(float)
            return models._mle_from_mean(draws.mean(axis=0))
        # Gaussian-mean: X ~ N(v theta, diag(v)), so the MLE is Xbar / v
        draws = model.base * theta + np.sqrt(model.base) * rng.standard_normal((n, model.dim))
        return draws.mean(axis=0) / model.base
    eta = np.empty((n, model.dim))
    for j, tag in enumerate(model.noise_dist):
        eta[:, j] = models._DRIVERS[tag][0](rng, n)
    return (theta + models._factor(model, theta, eta)).mean(axis=0)
