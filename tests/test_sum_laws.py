"""Law-equality checks for the sum-closed block kernels.

estimate_block draws each sample mean from the exact law of a sum of n
draws instead of drawing the n values. For every family and noise tag that
takes such a shortcut, its rows must match raw_reference.raw_estimate, the
fit to n raw draws (raw_gaussian_mean for the Gaussian-mean model, whose
kernel is the shift's one normal draw), in law: its W1 to a raw sample is
no larger than that of a second raw sample, up to four standard errors of
the difference, and its sd matches theirs to four standard errors of the
log-ratio (law_gate.assert_same_law).

The Laplace cases run at POWER_REPS draws, the size at which the gate's
power tests below show that each clause catches its scale error.
"""

from functools import partial

import numpy as np
import pytest
from law_gate import assert_same_law, spread_z, w1_excess
from raw_reference import raw_estimate, raw_gaussian_mean

from bootchain import models
from bootchain.experiments import derive_stream

REPS = 4000
# At 4000 draws the spread clause caught 1.1x Laplace scale in only 68 /
# 95.5 / 98.5 % of 200 seeds (n = 1 / 3 / 25), and W1 caught 1.2x in 79.5 /
# 96.5 / 100 %; at 16,000 draws each caught its error at all of 100 seeds
# and every n, and neither fired at the true scale
POWER_REPS = 16000
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


def raw_means(fit, theta, n: int, rng, reps: int = REPS) -> np.ndarray:
    """reps draws of fit(theta, n, rng)."""
    return np.array([fit(theta, n, rng)[0] for _ in range(reps)])


def law_samples(case: str, n: int, reps: int, kernel_model=None):
    """reps block means of the case (or of kernel_model at its theta), two
    raw samples of the case and the seed."""
    model, t = SUM_CLOSED[case]
    seed = 400 + n
    starts = np.full((reps, 1, 1), t)
    block = models.estimate_block(kernel_model or model, starts, n, derive_stream(seed, 0, 0))
    fit = RAW_FITS.get(case, partial(raw_estimate, model))
    raw, raw2 = (raw_means(fit, np.array([t]), n, derive_stream(seed, i, 1), reps) for i in (0, 1))
    return block[:, 0, 0], raw, raw2, seed


@pytest.mark.parametrize("n", [1, 3, 25])
@pytest.mark.parametrize("case", sorted(SUM_CLOSED))
def test_block_kernel_matches_raw_draw_means(case, n):
    reps = POWER_REPS if case == "location_laplace" else REPS
    assert_same_law(*law_samples(case, n, reps))


def laplace_at(scale: float):
    return models.location(dim=1, noise_dist="laplace", scale=scale)


@pytest.mark.parametrize("n", [1, 3, 25])
def test_gate_rejects_a_misscaled_kernel(n):
    # the law gate has power: its W1 clause fails Laplace noise at 1.2 times
    # the scale, whatever its spread clause reads
    samples = law_samples("location_laplace", n, POWER_REPS, laplace_at(0.84))
    assert w1_excess(*samples) > 4.0


@pytest.mark.parametrize("n", [1, 3, 25])
def test_gate_rejects_a_tenth_too_wide_kernel(n):
    # at 1.1 times the scale the spread clause fails the kernel, whatever
    # its W1 clause reads
    block, raw, raw2, _ = law_samples("location_laplace", n, POWER_REPS, laplace_at(0.77))
    assert spread_z(block, raw, raw2) > 4.0


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
