"""Raw-draw reference for the block kernels.

models.estimate_block draws each sample mean from the exact law of a sum of
n draws where one exists. raw_estimate is the long way round: it draws the
n observations themselves and fits theta_hat to their mean, so the
law-equality tests have a baseline that takes no shortcut.
"""

import math

import numpy as np

from bootchain import models


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
