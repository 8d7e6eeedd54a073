import math
from functools import partial

import numpy as np
import pytest

from bootchain import bootstrap, distances, functionals, gaussian, models
from bootchain.experiments import derive_stream, unit_sin_theta


def test_tiny_delta_freezes_chain():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    trunc = gaussian.TruncationRule(delta=1e-12, n=100)
    rng = derive_stream(301, 0, 0)
    step = partial(gaussian.surrogate_step, trunc=trunc)
    states = bootstrap.simulate_chain_block(model, theta, 5, 100, 1, rng, step)
    assert np.array_equal(states[:, 0], np.broadcast_to(theta, (6, 3)))


def test_truncated_chain_containment_hard():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, k, m = 100, 3, 10_000
    delta = 0.18  # threshold near the median noise norm so truncation fires
    trunc = gaussian.TruncationRule(delta=delta, n=n)
    rng = derive_stream(302, 0, 0)
    step = partial(gaussian.surrogate_step, trunc=trunc)
    states = bootstrap.simulate_chain_block(model, theta, k, n, m, rng, step)
    fired = False
    for j in range(k + 1):
        dist_j = np.linalg.norm(states[j] - theta, axis=1)
        assert np.all(dist_j <= j * delta)
        if j and np.any(states[j][np.all(states[j] == states[j - 1], axis=1)].size):
            fired = True
    assert fired  # delta was chosen so that some draws actually truncate


def test_tilde_chain_matches_hat_chain_for_shift_model():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, k, m = 100, 2, 10_000
    f = functionals.quadratic_form()
    hat = bootstrap.simulate_chain_block(model, theta, k, n, m, derive_stream(303, 0, 0))
    tilde = bootstrap.simulate_chain_block(
        model, theta, k, n, m, derive_stream(303, 1, 0), gaussian.surrogate_step
    )
    a = np.asarray(functionals.value(f, hat[k]))
    b = np.asarray(functionals.value(f, tilde[k]))
    w1 = distances.wasserstein1(a, b)
    se = distances.wasserstein1_bootstrap_se(a, b, np.random.default_rng(1), n_boot=60)
    assert w1 <= 0.01 + 3.0 * se


def test_sigma_f_examples():
    model = models.GaussianShift(dim=3)
    theta = np.array([0.5, -0.5, 1.0])
    u = np.array([1.0, 2.0, -2.0])
    assert gaussian.sigma_f(model, functionals.linear(u), theta) == pytest.approx(
        np.linalg.norm(u)
    )
    scaled = models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=1.5))
    assert gaussian.sigma_f(scaled, functionals.quadratic_form(), theta) == pytest.approx(
        2.0 * 1.5 * np.linalg.norm(theta)
    )
    assert gaussian.sigma_f(model, functionals.exp_linear(u), np.zeros(3)) == pytest.approx(
        np.linalg.norm(u)
    )


def test_superposition_zero_flags_identity():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    rng = derive_stream(304, 0, 0)
    out = gaussian.superposition_block(model, theta, (0, 0, 0), 100, 1, rng)
    assert np.array_equal(out, theta[None, :])


def test_superposition_matches_shorter_chain():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, m = 100, 10_000
    f = functionals.quadratic_form()
    sup = gaussian.superposition_block(model, theta, (1, 0, 1), n, m, derive_stream(305, 0, 0))
    chain = bootstrap.simulate_chain_block(
        model, theta, 2, n, m, derive_stream(305, 1, 0), gaussian.surrogate_step
    )
    a = np.asarray(functionals.value(f, sup))
    b = np.asarray(functionals.value(f, chain[2]))
    w1 = distances.wasserstein1(a, b)
    se = distances.wasserstein1_bootstrap_se(a, b, np.random.default_rng(2), n_boot=60)
    assert w1 <= 0.01 + 3.0 * se


def test_tilde_fk_agrees_with_fk_in_mean_for_shift_model():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    f = functionals.quadratic_form()
    n, m, reps = 100, 50, 3000
    diffs = np.empty(reps)
    for r in range(reps):
        data = models.sample_data(model, theta, n, derive_stream(306, r, 0))
        theta_hat = models.estimate(model, data)
        hat = bootstrap.fk_estimate(model, f, data, 2, n, m, derive_stream(306, r, 1))
        tilde = bootstrap.fk_estimate_at(
            model, f, theta_hat, (2,), n, m, derive_stream(306, r, 2), gaussian.surrogate_step
        )[0]
        diffs[r] = hat - tilde
    se = diffs.std(ddof=1) / math.sqrt(reps)
    assert abs(diffs.mean()) <= 4.0 * se


def test_total_truncation_returns_plugin_value():
    model = models.GaussianShift(dim=3)
    theta_hat = unit_sin_theta(3) * 1.3
    f = functionals.exp_linear(np.array([0.2, 0.1, -0.4]))
    rng = derive_stream(307, 0, 0)
    step = partial(gaussian.surrogate_step, trunc=gaussian.TruncationRule(1e-12, 100))
    got = bootstrap.fk_estimate_at(model, f, theta_hat, (3,), 100, 200, rng, step)[0]
    # frozen chain: sum_i v_i f(theta_hat) = f(theta_hat) since sum v_i = 1
    assert got == pytest.approx(functionals.value(f, theta_hat), rel=1e-12)


def test_deterministic_noise_gives_plugin_for_all_k():
    model = models.GaussianShift(dim=2, noise_map=models.IdentityMap(scale=0.0))
    theta_hat = np.array([0.4, -0.2])
    f = functionals.quadratic_form()
    for k in (0, 1, 3):
        rng = derive_stream(308, k, 0)
        got = bootstrap.fk_estimate_at(
            model, f, theta_hat, (k,), 50, 20, rng, gaussian.surrogate_step
        )[0]
        assert got == pytest.approx(functionals.value(f, theta_hat), rel=1e-12)


def test_sigma_f_consistency_with_plugin_error_sd():
    model = models.GaussianShift(dim=4)
    theta = unit_sin_theta(4)
    u = np.array([0.5, -1.0, 0.25, 2.0])
    f = functionals.linear(u)
    n, reps = 100, 10_000
    rng = derive_stream(309, 0, 0)
    hats = models.estimate_block(model, np.broadcast_to(theta, (reps, 4)), n, rng)
    errs = np.asarray(functionals.value(f, hats)) - functionals.value(f, theta)
    sig = gaussian.sigma_f(model, f, theta)
    assert abs(math.sqrt(n) * errs.std(ddof=1) - sig) <= 0.05 * sig


def test_xi_squared_norm_matches_trace():
    model = models.IndependentComponents(
        dim=3,
        noise_dist="gaussian",
        noise_map=models.DiagTanhMap(a=np.array([1.0, 2.0, 1.5]), b=np.array([0.3, -0.5, 0.0])),
    )
    theta = np.array([0.2, -0.4, 0.9])
    mean, se = gaussian.xi_squared_norm(model, theta, 10_000, derive_stream(310, 0, 0))
    target = float(np.trace(models.sigma(model, theta)))
    assert abs(mean - target) <= 5.0 * se


def test_default_delta_formula():
    model = models.GaussianShift(dim=4, noise_map=models.IdentityMap(scale=2.0))
    theta = np.zeros(4)
    got = gaussian.default_delta(model, theta, 100)
    assert got == pytest.approx(3.0 * math.sqrt(16.0 / 100.0))


def test_validation():
    with pytest.raises(ValueError):
        gaussian.TruncationRule(delta=0.0, n=10)
    with pytest.raises(ValueError):
        gaussian.TruncationRule(delta=1.0, n=0)
    with pytest.raises(ValueError):
        gaussian.HomotopyFlags((0, 2))
    assert gaussian.HomotopyFlags((True, False)).bits == (1, 0)


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
            assert gaussian.sigma_f(model, f, theta) >= 0.0


def test_surrogate_chain_shape():
    model = models.GaussianShift(dim=2)
    rng = derive_stream(311, 0, 0)
    states = bootstrap.simulate_chain_block(
        model, np.zeros(2), 4, 50, 1, rng, gaussian.surrogate_step
    )
    assert states.shape == (5, 1, 2)
    assert np.array_equal(states[0, 0], np.zeros(2))
