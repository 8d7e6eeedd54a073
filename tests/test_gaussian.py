import math
from functools import partial

import numpy as np
import pytest

from bootchain import bootstrap, distances, functionals, models
from bootchain.experiments import derive_stream, unit_sin_theta
from law_gate import assert_same_law, wasserstein1_bootstrap_se
from raw_reference import simulate_chain_block


def test_tiny_delta_freezes_chain():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    rng = derive_stream(301, 0, 0)
    step = partial(models.surrogate_step, delta=1e-12)
    states = simulate_chain_block(model, theta[None], 5, 100, 1, rng, step)[:, 0]
    assert np.array_equal(states[:, 0], np.broadcast_to(theta, (6, 3)))


def test_truncated_chain_containment_hard():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, k, m = 100, 3, 10_000
    delta = 0.18  # threshold near the median noise norm so truncation fires
    rng = derive_stream(302, 0, 0)
    step = partial(models.surrogate_step, delta=delta)
    states = simulate_chain_block(model, theta[None], k, n, m, rng, step)[:, 0]
    fired = False
    for j in range(k + 1):
        dist_j = np.linalg.norm(states[j] - theta, axis=1)
        assert np.all(dist_j <= j * delta)
        if j and np.any(states[j][np.all(states[j] == states[j - 1], axis=1)].size):
            fired = True
    assert fired  # delta was chosen so that some draws actually truncate


def test_tilde_chain_matches_hat_chain_for_independent_components():
    # two different kernels: the bootstrap step of Rademacher components
    # draws Binomial sums, the surrogate step Gaussian ones; at n = 400 the
    # law of f after k steps agrees within the gate at 20,000 chains, and a
    # surrogate xi 5% too wide fails it
    model = models.IndependentComponents(dim=3, noise_dist="rademacher")
    n, k, draws, seed = 400, 2, 20_000, 303
    f = functionals.quadratic_form()
    starts = np.broadcast_to(unit_sin_theta(3), (draws, 3))

    def final_values(i, step=None):
        states = simulate_chain_block(model, starts, k, n, 1, derive_stream(seed, i, 0), step)
        return functionals.value(f, states[k, :, 0])

    hat, hat2 = final_values(0), final_values(1)
    assert_same_law(final_values(2, models.surrogate_step), hat, hat2, seed)


def test_sigma_f_examples():
    model = models.GaussianShift(dim=3)
    theta = np.array([0.5, -0.5, 1.0])
    u = np.array([1.0, 2.0, -2.0])
    assert models.sigma_f(model, functionals.linear(u), theta) == pytest.approx(
        np.linalg.norm(u)
    )
    scaled = models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=1.5))
    assert models.sigma_f(scaled, functionals.quadratic_form(), theta) == pytest.approx(
        2.0 * 1.5 * np.linalg.norm(theta)
    )
    assert models.sigma_f(model, functionals.exp_linear(u), np.zeros(3)) == pytest.approx(
        np.linalg.norm(u)
    )


def test_superposition_matches_shorter_chain():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, m = 100, 10_000
    f = functionals.quadratic_form()
    # the flag superposition from its definition: each step adds t_j xi_j / sqrt(n),
    # the m draws of a step in antithetic pairs
    rng, sup = derive_stream(305, 0, 0), theta[None, None, :]
    for t in (1, 0, 1):
        half = rng.standard_normal((1, (m + 1) // 2, 3))
        z = np.concatenate([half, -half[:, : m // 2]], axis=1)
        sup = sup + t * models._factor(model, sup, z) / math.sqrt(n)
    chain = simulate_chain_block(
        model, theta[None], 2, n, m, derive_stream(305, 1, 0), models.surrogate_step
    )[:, 0]
    a = np.asarray(functionals.value(f, sup[0]))
    b = np.asarray(functionals.value(f, chain[2]))
    w1 = distances.wasserstein1(a, b)
    se = wasserstein1_bootstrap_se(a, b, np.random.default_rng(2), n_boot=60)
    assert w1 <= 0.01 + 3.0 * se


def test_tilde_fk_agrees_with_fk_in_mean_for_shift_model():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    f = functionals.quadratic_form()
    n, m, reps = 100, 50, 3000
    diffs = np.empty(reps)
    for r in range(reps):
        theta_hat = models.estimate_block(model, theta[None, None, :], n, derive_stream(306, r, 0))[:, 0]
        hat = bootstrap.fk_estimate_at(model, f, theta_hat, (2,), n, m, derive_stream(306, r, 1))[0, 0]
        tilde = bootstrap.fk_estimate_at(
            model, f, theta_hat, (2,), n, m, derive_stream(306, r, 2), models.surrogate_step
        )[0, 0]
        diffs[r] = hat - tilde
    se = diffs.std(ddof=1) / math.sqrt(reps)
    assert abs(diffs.mean()) <= 4.0 * se


def test_total_truncation_returns_plugin_value():
    model = models.GaussianShift(dim=3)
    theta_hat = unit_sin_theta(3) * 1.3
    f = functionals.exp_linear(np.array([0.2, 0.1, -0.4]))
    rng = derive_stream(307, 0, 0)
    step = partial(models.surrogate_step, delta=1e-12)
    got = bootstrap.fk_estimate_at(model, f, theta_hat[None], (3,), 100, 200, rng, step)[0, 0]
    # frozen chain: sum_i v_i f(theta_hat) = f(theta_hat) since sum v_i = 1
    assert got == pytest.approx(functionals.value(f, theta_hat), rel=1e-12)


def test_deterministic_noise_gives_plugin_for_all_k():
    model = models.GaussianShift(dim=2, noise_map=models.IdentityMap(scale=0.0))
    theta_hat = np.array([0.4, -0.2])
    f = functionals.quadratic_form()
    for k in (0, 1, 3):
        rng = derive_stream(308, k, 0)
        got = bootstrap.fk_estimate_at(
            model, f, theta_hat[None], (k,), 50, 20, rng, models.surrogate_step
        )[0, 0]
        assert got == pytest.approx(functionals.value(f, theta_hat), rel=1e-12)


def test_sigma_f_consistency_with_plugin_error_sd():
    model = models.GaussianShift(dim=4)
    theta = unit_sin_theta(4)
    u = np.array([0.5, -1.0, 0.25, 2.0])
    f = functionals.linear(u)
    n, reps = 100, 10_000
    rng = derive_stream(309, 0, 0)
    hats = models.estimate_block(model, np.broadcast_to(theta, (reps, 1, 4)), n, rng)[:, 0]
    errs = np.asarray(functionals.value(f, hats)) - functionals.value(f, theta)
    sig = models.sigma_f(model, f, theta)
    assert abs(math.sqrt(n) * errs.std(ddof=1) - sig) <= 0.05 * sig


def test_xi_squared_norm_matches_trace():
    model = models.IndependentComponents(
        dim=3,
        noise_dist="gaussian",
        noise_map=models.DiagTanhMap(a=np.array([1.0, 2.0, 1.5]), b=np.array([0.3, -0.5, 0.0])),
    )
    theta = np.array([0.2, -0.4, 0.9])
    draws = 10_000
    z = derive_stream(310, 0, 0).standard_normal((draws, 1, 3))
    xi = models._factor(model, np.broadcast_to(theta, (draws, 1, 3)), z)[:, 0]
    sq = np.sum(xi * xi, axis=1)
    mean, se = sq.mean(), sq.std(ddof=1) / math.sqrt(draws)
    target = float(np.trace(models.sigma(model, theta)))
    assert abs(mean - target) <= 5.0 * se


def test_default_delta_formula():
    model = models.GaussianShift(dim=4, noise_map=models.IdentityMap(scale=2.0))
    theta = np.zeros(4)
    got = models.default_delta(model, theta, 100)
    assert got == pytest.approx(3.0 * math.sqrt(16.0 / 100.0))


def test_sigma_f_nonnegative_everywhere():
    rng = np.random.default_rng(21)
    model = models.IndependentComponents(
        dim=3,
        noise_dist="gaussian",
        noise_map=models.DiagTanhMap(a=np.array([1.0, 0.5, 2.0]), b=np.array([0.5, 0.25, -1.0])),
    )
    fs = [
        functionals.linear(rng.standard_normal(3)),
        functionals.quadratic_form(),
        functionals.exp_linear(rng.standard_normal(3) / 4),
        functionals.radial("log1p"),
    ]
    for _ in range(50):
        theta = rng.standard_normal(3) * 2
        for f in fs:
            assert models.sigma_f(model, f, theta) >= 0.0


def test_surrogate_chain_shape():
    model = models.GaussianShift(dim=2)
    rng = derive_stream(311, 0, 0)
    states = simulate_chain_block(
        model, np.zeros((1, 2)), 4, 50, 1, rng, models.surrogate_step
    )[:, 0]
    assert states.shape == (5, 1, 2)
    assert np.array_equal(states[0, 0], np.zeros(2))
