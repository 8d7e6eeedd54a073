"""Raw-draw reference for the block kernels, and whole chains for the tests.

models.estimate_block draws each sample mean from the exact law of a sum of
n draws where one exists. raw_estimate is the long way round: it draws the
n observations themselves and fits theta_hat to their mean, so the
law-equality tests have a baseline that takes no shortcut.
raw_gaussian_mean does the same for the Gaussian-mean model, which the
package runs as a Gaussian shift.
simulate_chain_block keeps every state of a chain block, which the run
path (bootstrap.fk_estimate_at) folds as it is drawn and never stores.
sigma multiplies out the covariance Sigma(theta) = L(theta) L(theta)^T of
the package's own factor, the reference the family tests check; the
package reads sigma_f and the default delta off L(theta) and never forms it.
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


def sigma(model, theta) -> np.ndarray:
    """Sigma(theta) = L(theta) L(theta)^T: the covariance of the surrogate
    xi(theta) and of the normal limit of sqrt(n)(theta_hat - theta)."""
    d = model.dim
    lt = models._factor(model, np.broadcast_to(np.asarray(theta, dtype=float), (d, d)), np.eye(d))
    return lt.T @ lt


def raw_estimate(model, theta, n: int, rng) -> np.ndarray:
    """theta_hat fitted to one observation set of size n drawn at theta: the
    shift's single normal vector, or the mean of n raw draws (drivers or
    Poisson counts) put through the estimator. theta must lie in the
    sampling domain."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(model, models.GaussianShift):
        z = rng.standard_normal(model.dim)
        return theta + models._factor(model, theta, z) / math.sqrt(n)
    if isinstance(model, models.ExponentialFamily):
        draws = rng.poisson(np.exp(theta), size=(n, model.dim)).astype(float)
        return models._mle_from_mean(draws.mean(axis=0))
    eta = np.empty((n, model.dim))
    for j, tag in enumerate(model.noise_dist):
        eta[:, j] = models._DRIVERS[tag][0](rng, n)
    return (theta + models._factor(model, theta, eta)).mean(axis=0)


def raw_gaussian_mean(base, theta, n: int, rng) -> np.ndarray:
    """The Gaussian-mean MLE fitted to n raw draws at theta: X ~ N(v theta,
    diag(v)) with base variances v, so theta_hat = Xbar / v. This is the
    data models.gaussian_mean stands for; its kernel is the shift's one
    normal draw, and raw_estimate on it would compare that draw with itself."""
    theta = np.asarray(theta, dtype=float)
    v = np.broadcast_to(np.asarray(base, dtype=float), theta.shape)
    draws = v * theta + np.sqrt(v) * rng.standard_normal((n, theta.size))
    return draws.mean(axis=0) / v
