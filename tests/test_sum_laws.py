"""Law-equality checks for the sum-closed block kernels.

estimate_block draws each sample mean from the exact law of a sum of n
draws instead of drawing the n values. For every family and noise tag that
takes such a shortcut, its rows must match raw_reference.raw_estimate, the
fit to n raw draws (raw_gaussian_mean for the Gaussian-mean model, whose
kernel is the shift's one normal draw), in law: its W1 to a raw sample is
no larger than that of a second raw sample, up to four standard errors of
the difference, and its sd matches theirs to four standard errors of the
log-ratio (law_gate.assert_same_law).
"""

from functools import partial

import numpy as np
import pytest
from law_gate import assert_same_law
from raw_reference import raw_estimate, raw_gaussian_mean

from bootchain import models
from bootchain.experiments import derive_stream

REPS = 4000
GAUSSIAN_MEAN_BASE = 2.5

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
    "poisson": (models.ExponentialFamily(dim=1), 0.3),
    "gaussian_mean": (models.gaussian_mean(1, GAUSSIAN_MEAN_BASE), 0.4),
    "location_gaussian": (
        models.location(dim=1, noise_dist="gaussian", scale=1.5),
        0.0,
    ),
    "location_laplace": (
        models.location(dim=1, noise_dist="laplace", scale=0.7),
        0.0,
    ),
}


# the raw fit(theta, n, rng) of each case: n raw values per draw
RAW_FITS = {"gaussian_mean": partial(raw_gaussian_mean, GAUSSIAN_MEAN_BASE)}


def raw_means(fit, theta, n: int, rng) -> np.ndarray:
    """REPS draws of fit(theta, n, rng)."""
    return np.array([fit(theta, n, rng)[0] for _ in range(REPS)])


@pytest.mark.parametrize("n", [1, 3, 25])
@pytest.mark.parametrize("case", sorted(SUM_CLOSED))
def test_block_kernel_matches_raw_draw_means(case, n):
    model, t = SUM_CLOSED[case]
    theta = np.array([t])
    seed = 400 + n
    block = models.estimate_block(model, np.full((REPS, 1, 1), t), n, derive_stream(seed, 0, 0))
    fit = RAW_FITS.get(case, partial(raw_estimate, model))
    raw, raw2 = (raw_means(fit, theta, n, derive_stream(seed, i, 1)) for i in (0, 1))
    assert_same_law(block[:, 0, 0], raw, raw2, seed)


def gate_laplace_block(n: int, scale: float):
    """The gate on Laplace block means at the given scale against raw means
    at scale 0.7, at the seed of the Laplace cases above."""
    seed = 400 + n
    model = models.location(dim=1, noise_dist="laplace", scale=0.7)
    wide = models.location(dim=1, noise_dist="laplace", scale=scale)
    block = models.estimate_block(wide, np.zeros((REPS, 1, 1)), n, derive_stream(seed, 0, 0))
    fit = partial(raw_estimate, model)
    raw, raw2 = (raw_means(fit, np.zeros(1), n, derive_stream(seed, i, 1)) for i in (0, 1))
    assert_same_law(block[:, 0, 0], raw, raw2, seed)


@pytest.mark.parametrize("n", [1, 3, 25])
def test_gate_rejects_a_misscaled_kernel(n):
    # the law gate has power: Laplace noise at 1.2 times the scale fails its
    # W1 clause at every seed (by 5.7 to 5.9 of its 4 units)
    with pytest.raises(AssertionError, match="same-law W1"):
        gate_laplace_block(n, 0.84)


@pytest.mark.parametrize("n", [1, 3, 25])
def test_gate_rejects_a_tenth_too_wide_kernel(n):
    # at 1.1 times the scale W1 reads 2.4 to 2.9 of its 4 units and passes;
    # the spread clause fails it (the sd log-ratio at 4.6 to 6.3 se)
    with pytest.raises(AssertionError, match="same-law spread"):
        gate_laplace_block(n, 0.77)


def test_poisson_outer_draw_with_frequent_mle_fallback():
    # n e^theta = 5 e^-3 ~ 0.25: about 78% of the samples are all zeros
    model = models.ExponentialFamily(dim=1)
    theta, n, seed = np.array([-3.0]), 5, 410
    outer = np.array(
        [
            models.estimate_block(model, theta[None, None, :], n, derive_stream(seed, r, 0))[0, 0, 0]
            for r in range(REPS)
        ]
    )
    fit = partial(raw_estimate, model)
    raw, raw2 = (raw_means(fit, theta, n, derive_stream(seed + 1, i, 0)) for i in (0, 1))
    assert np.mean(outer == np.log(models.DEFAULT_MLE_CLAMP)) > 0.7
    assert_same_law(outer, raw, raw2, seed)
