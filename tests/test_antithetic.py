"""Antithetic inner chains.

Every step kernel of the form theta + c L(theta) (symmetric driver block)
draws its drivers for h = ceil(M/2) chains of each replicate and gives chain
h+i the negated draw of chain i. Each twin must keep its chain's law: the
marginal of the "+" chains and of the "-" chains each match plain chains of
the same kernel, or for Gaussian-mean chains refitted to raw draws
(assert_same_law: W1 to a plain sample no larger than a
second plain sample's, up to four standard errors of the difference, and
the same sd to four standard errors of the log-ratio). The
pair cancels the odd part of the fold, so its variance across replicates
falls.
"""

import math

import numpy as np
import pytest
from law_gate import assert_same_law
from raw_reference import raw_gaussian_mean, simulate_chain_block

from bootchain import bootstrap, functionals, models
from bootchain.experiments import derive_stream, unit_sin_theta

REPS = 4000


def plain(step):
    """The same kernel with every chain drawn on its own: the (B, 1|M, d)
    block is fanned out to its B M chain states and stepped as B M
    independent starts with chains = 1."""

    def kernel(model, states, n, rng, chains):
        fanned = np.broadcast_to(states, (states.shape[0], chains, states.shape[-1]))
        return step(model, fanned.reshape(-1, 1, fanned.shape[-1]), n, rng).reshape(fanned.shape)

    return kernel


def raw_gaussian_mean_step(base):
    """The Gaussian-mean bootstrap step the long way: every chain refits
    Xbar / v to n raw draws of N(v state, diag(v)), not the shift's one
    normal draw that models.gaussian_mean steps with."""

    def kernel(model, states, n, rng, chains):
        fanned = np.broadcast_to(states, (states.shape[0], chains, states.shape[-1]))
        return np.array([[raw_gaussian_mean(base, s, n, rng) for s in row] for row in fanned])

    return kernel


PAIRED_KERNELS = {
    "shift_identity": (
        models.GaussianShift(dim=1, noise_map=models.IdentityMap(scale=1.3)),
        models.estimate_block,
        0.2,
        4,
    ),
    "shift_diag_tanh": (
        models.GaussianShift(dim=1, noise_map=models.DiagTanhMap(a=[1.0], b=[0.5])),
        models.estimate_block,
        0.2,
        2,
    ),
    "surrogate_poisson": (
        models.ExponentialFamily(dim=1),
        models.surrogate_step,
        0.3,
        3,
    ),
    "ic_rademacher": (
        models.IndependentComponents(dim=1, noise_dist="rademacher"),
        models.estimate_block,
        0.0,
        3,
    ),
    "ic_uniform": (
        models.IndependentComponents(dim=1, noise_dist="uniform"),
        models.estimate_block,
        0.0,
        3,
    ),
    "location_laplace": (
        models.location(dim=1, noise_dist="laplace", scale=0.7),
        models.estimate_block,
        0.0,
        3,
    ),
    "location_logistic": (
        models.location(dim=1, noise_dist="logistic"),
        models.estimate_block,
        0.0,
        3,
    ),
    "gaussian_mean": (
        models.gaussian_mean(1, 2.5),
        models.estimate_block,
        0.4,
        3,
    ),
}
# the plain chains a case's twins are compared with, where not plain(step)
PLAIN_REFERENCE = {"gaussian_mean": raw_gaussian_mean_step(2.5)}


@pytest.mark.parametrize("case", sorted(PAIRED_KERNELS))
def test_each_twin_keeps_the_plain_chain_law(case):
    # two steps, so that the twin's second step runs at its own state
    model, step, t, n = PAIRED_KERNELS[case]
    seed = 420 + sorted(PAIRED_KERNELS).index(case)
    starts = np.array([[t]])
    paired = simulate_chain_block(model, starts, 2, n, 2 * REPS, derive_stream(seed, 0, 0), step)[:, 0]
    reference = PLAIN_REFERENCE.get(case, plain(step))
    ref, ref2 = (
        simulate_chain_block(model, starts, 2, n, REPS, derive_stream(seed, i, 0), reference)[-1, 0, :, 0]
        for i in (1, 2)
    )
    plus, minus = paired[-1, :REPS, 0], paired[-1, REPS:, 0]
    assert_same_law(plus, ref, ref2, seed)
    assert_same_law(minus, ref, ref2, seed)


@pytest.mark.parametrize("case", sorted(PAIRED_KERNELS))
def test_twins_take_the_negated_draw(case):
    # one step from the same state: the twins' increments are mirror images
    model, step, t, n = PAIRED_KERNELS[case]
    m = 7  # odd: chain 3 has no twin
    start = np.array([[t]])
    states = simulate_chain_block(model, start, 1, n, m, derive_stream(430, 0, 0), step)[:, 0]
    inc = states[1, :, 0] - t
    assert np.allclose(inc[4:], -inc[:3], rtol=0, atol=1e-14)
    assert not np.allclose(inc[3], -inc[:3])


@pytest.mark.parametrize(
    "model",
    [models.GaussianShift(dim=3), models.location(dim=3, noise_dist="gaussian")],
    ids=["shift", "location"],
)
def test_paired_step_stream_order(model):
    # B = 2 replicates of M = 5 chains at n = 1 and theta = 0, where a step
    # returns its standard normal drivers: h = 3 draws per replicate, chain
    # 3 + i the negation of chain i, chain 2 unpaired; the shift draws its
    # (B, h, d) block in one call, the location model one (B, h) column per
    # coordinate; either way the stream then stands where B h d draws leave it
    b, m, d = 2, 5, 3
    rng, ref = derive_stream(431, 0, 0), derive_stream(431, 0, 0)
    out = models.estimate_block(model, np.zeros((b, 1, d)), 1, rng, chains=m)
    if isinstance(model, models.GaussianShift):
        z = ref.standard_normal((b, 3, d))
    else:
        z = np.stack([ref.standard_normal((b, 3)) for _ in range(d)], axis=-1)
    expected = np.concatenate([z, -z[:, :2]], axis=1)
    assert np.array_equal(out, expected)
    assert rng.standard_normal() == ref.standard_normal()


def test_paired_fold_variance_falls_on_the_shift():
    # per-replicate fold at k=1, M=20 from one fixed theta_hat: the linear
    # term of f(state) - f(theta_hat) is odd in the drivers and cancels
    # within each pair (measured: about 20x)
    model = models.GaussianShift(dim=5)
    f = functionals.quadratic_form()
    theta_hat = np.broadcast_to(unit_sin_theta(5), (REPS, 5))
    n, m = 100, 20
    paired = bootstrap.fk_estimate_at(model, f, theta_hat, (1,), n, m, derive_stream(432, 0, 0))
    ref = bootstrap.fk_estimate_at(
        model, f, theta_hat, (1,), n, m, derive_stream(432, 1, 0), plain(models.estimate_block)
    )
    ratio = ref.var() / paired.var()
    assert math.isfinite(ratio) and ratio >= 5.0, f"variance ratio {ratio:.2f}"
