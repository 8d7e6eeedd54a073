"""Law-equality checks for the sum-closed block kernels.

estimate_block draws each sample mean from the exact law of a sum of n
draws instead of drawing the n values. For every family and noise tag that
takes such a shortcut, its rows must match estimate(sample_data(...)), the
raw-draw path, in law: the empirical W1 between the two samples stays
inside four bootstrap standard errors.
"""

import numpy as np
import pytest

from bootchain import distances, models
from bootchain.experiments import derive_stream

REPS = 4000

SUM_CLOSED = {
    "ic_rademacher": (models.IndependentComponents(dim=1, noise_dist="rademacher"), 0.0),
    "ic_centered_exponential": (
        models.IndependentComponents(dim=1, noise_dist="centered_exponential"),
        0.0,
    ),
    "ic_gaussian": (
        models.IndependentComponents(
            dim=1, noise_dist="gaussian", noise_map=models.IdentityMap(scale=1.7)
        ),
        0.0,
    ),
    "poisson": (models.ExponentialFamily(dim=1, family="poisson_product"), 0.3),
    "gaussian_mean": (models.ExponentialFamily(dim=1, family="gaussian_mean", base=2.5), 0.4),
    "location_gaussian": (
        models.LogConcaveLocation(dim=1, noise_dist="gaussian", scale=1.5),
        0.0,
    ),
    "location_laplace": (
        models.LogConcaveLocation(dim=1, noise_dist="laplace", scale=0.7),
        0.0,
    ),
}


def raw_means(model, theta, n: int, rng) -> np.ndarray:
    """REPS draws of estimate(sample_data(...)): n raw values per draw."""
    return np.array(
        [models.estimate(model, models.sample_data(model, theta, n, rng))[0] for _ in range(REPS)]
    )


def assert_same_law(a, b, seed: int):
    w1 = distances.wasserstein1(a, b)
    se = distances.wasserstein1_bootstrap_se(a, b, derive_stream(seed, 0, 2))
    assert w1 <= 4.0 * se, f"W1 = {w1:.4g} outside 4 * se = {4.0 * se:.4g}"


@pytest.mark.parametrize("n", [1, 3, 25])
@pytest.mark.parametrize("case", sorted(SUM_CLOSED))
def test_block_kernel_matches_raw_draw_means(case, n):
    model, t = SUM_CLOSED[case]
    theta = np.array([t])
    seed = 400 + n
    block = models.estimate_block(model, np.full((REPS, 1), t), n, derive_stream(seed, 0, 0))
    assert_same_law(block[:, 0], raw_means(model, theta, n, derive_stream(seed, 0, 1)), seed)


@pytest.mark.parametrize("theta0", [None, [0.5]])
def test_poisson_outer_draw_with_frequent_mle_fallback(theta0):
    # n e^theta = 5 e^-3 ~ 0.25: about 78% of the samples are all zeros
    model = models.ExponentialFamily(dim=1, family="poisson_product", theta0=theta0)
    theta, n, seed = np.array([-3.0]), 5, 410
    outer = np.array(
        [
            models.estimate_block(model, theta[None, :], n, derive_stream(seed, r, 0))[0, 0]
            for r in range(REPS)
        ]
    )
    raw = raw_means(model, theta, n, derive_stream(seed + 1, 0, 0))
    fallback = np.log(models.DEFAULT_MLE_CLAMP) if theta0 is None else theta0[0]
    assert np.mean(outer == fallback) > 0.7
    assert_same_law(outer, raw, seed)
