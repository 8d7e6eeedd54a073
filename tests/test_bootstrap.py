import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootchain import bootstrap, functionals, models
from bootchain.experiments import derive_stream, unit_sin_theta

# frozen closed-form targets for the exp-linear bias oracle at
# a = sigma^2 ||u||^2 / (2n) = 1/200 (mpmath, 40 digits)
EXPM1_A = 0.0050125208594010634
EXPM1_A_SQ = 2.5125365365930775e-5


def test_difference_weights_examples():
    assert bootstrap.difference_weights(1) == (-1, 1)
    assert bootstrap.difference_weights(2) == (1, -2, 1)
    assert bootstrap.difference_weights(0) == (1,)


def test_collapsed_weights_example_with_double_sum_oracle():
    got = bootstrap.collapsed_weights(2)
    assert got == (3, -3, 1)
    # direct double sum v_i = sum_{j=i}^{k} (-1)^i C(j, i)
    k = 2
    direct = tuple(
        sum((-1) ** i * math.comb(j, i) for j in range(i, k + 1)) for i in range(k + 1)
    )
    assert got == direct


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12))
def test_weight_identities_exact(k):
    dw = bootstrap.difference_weights(k)
    cw = bootstrap.collapsed_weights(k)
    if k >= 1:
        assert sum(dw) == 0
    assert dw[k] == 1
    assert sum(cw) == 1
    for i in range(k + 1):
        double = sum((-1) ** j * (-1) ** (j - i) * math.comb(j, i) for j in range(i, k + 1))
        assert double == (-1) ** i * math.comb(k + 1, i + 1) == cw[i]


def test_weight_order_guards():
    for bad in (-1, 13):
        with pytest.raises(ValueError):
            bootstrap.difference_weights(bad)
        with pytest.raises(ValueError):
            bootstrap.collapsed_weights(bad)


def test_simulate_chain_k0_and_deterministic_kernel():
    model = models.GaussianShift(dim=3)
    rng = derive_stream(201, 0, 0)
    start = unit_sin_theta(3)
    states = bootstrap.simulate_chain_block(model, start, 0, 100, 1, rng)
    assert np.array_equal(states, start[None, None, :])

    frozen = models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=0.0))
    states = bootstrap.simulate_chain_block(frozen, start, 5, 100, 1, rng)
    assert np.array_equal(states[:, 0], np.broadcast_to(start, (6, 3)))


def test_chain_increments_have_variance_one_over_n():
    model = models.GaussianShift(dim=3)
    n, m = 50, 10_000
    rng = derive_stream(202, 0, 0)
    states = bootstrap.simulate_chain_block(model, np.zeros(3), 2, n, m, rng)
    se = math.sqrt(2.0 / m) / n  # SE of a variance estimate of 1/n
    for j in range(2):
        inc = states[j + 1] - states[j]
        emp = inc.var(axis=0, ddof=1)
        assert np.all(np.abs(emp - 1.0 / n) <= 5.0 * se)


def test_estimate_Bjf_quadratic_and_linear():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, m = 50, 20_000
    f_quad = functionals.quadratic_form()

    mean, se = bootstrap.estimate_Bjf(model, f_quad, theta, 1, n, m, derive_stream(203, 0, 0))
    assert abs(mean - 3.0 / n) <= 4.0 * se  # Bf = tr(Sigma)/n

    mean, se = bootstrap.estimate_Bjf(model, f_quad, theta, 2, n, m, derive_stream(203, 1, 0))
    assert abs(mean) <= 4.0 * se  # Bf constant, so B^2 f = 0

    f_lin = functionals.linear(np.array([1.0, -2.0, 0.5]))
    for j in (1, 2, 3):
        mean, se = bootstrap.estimate_Bjf(model, f_lin, theta, j, n, m, derive_stream(203, 2, j))
        assert abs(mean) <= 4.0 * se  # unbiased estimator preserves linear f


def test_fk_estimate_k0_is_plugin():
    model = models.GaussianShift(dim=3)
    rng = derive_stream(204, 0, 0)
    data = models.sample_data(model, unit_sin_theta(3), 100, rng)
    f = functionals.quadratic_form()
    assert bootstrap.fk_estimate(model, f, data, 0, 100, 1, rng) == functionals.value(
        f, data.mean
    )


def test_fk_estimate_k1_quadratic_matches_closed_form():
    # conditional on theta_hat: E f_1 = f(theta_hat) - sigma^2 d / n
    model = models.GaussianShift(dim=5)
    n, m = 100, 10_000
    rng = derive_stream(205, 0, 0)
    data = models.sample_data(model, unit_sin_theta(5), n, rng)
    theta_hat = models.estimate(model, data)
    f = functionals.quadratic_form()
    states = bootstrap.simulate_chain_block(model, theta_hat, 1, n, m, rng)
    mean, se, aborted = bootstrap.fk_from_states(f, states)
    assert aborted == 0
    closed = functionals.value(f, theta_hat) - 5.0 / n
    assert abs(mean - closed) <= 4.0 * se


def test_fk_estimate_k1_cubic_unbiased():
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    u = theta.copy()
    f = functionals.power(u, 3)
    target = functionals.value(f, theta)
    n, m, reps = 100, 100, 5000
    vals = np.empty(reps)
    for r in range(reps):
        rng = derive_stream(206, r, 0)
        data = models.sample_data(model, theta, n, rng)
        vals[r] = bootstrap.fk_estimate(model, f, data, 1, n, m, rng)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 4.0 * se


def test_telescoping_equivalence_on_shared_chains():
    model = models.GaussianShift(dim=3)
    k, n, m = 3, 50, 500
    rng = derive_stream(207, 0, 0)
    start = unit_sin_theta(3)
    states = bootstrap.simulate_chain_block(model, start, k, n, m, rng)
    f = functionals.exp_linear(np.array([0.5, -0.2, 0.1]))
    fv = np.asarray(functionals.value(f, states))

    collapsed, _, _ = bootstrap.fk_from_states(f, states)
    alternating = 0.0
    for j in range(k + 1):
        w = np.array(bootstrap.difference_weights(j), dtype=float)
        alternating += (-1) ** j * float((w @ fv[: j + 1]).mean())
    assert abs(collapsed - alternating) <= 1e-12


def test_prefix_state_matches_fresh_chain_in_distribution():
    from bootchain import distances

    model = models.GaussianShift(dim=3)
    n, m = 100, 20_000
    theta = unit_sin_theta(3)
    f = functionals.quadratic_form()
    inner = bootstrap.simulate_chain_block(model, theta, 2, n, m, derive_stream(208, 0, 0))
    fresh = bootstrap.simulate_chain_block(model, theta, 1, n, m, derive_stream(208, 1, 0))
    a = np.asarray(functionals.value(f, inner[1]))
    b = np.asarray(functionals.value(f, fresh[1]))
    w1 = distances.wasserstein1(a, b)
    se = distances.wasserstein1_bootstrap_se(a, b, np.random.default_rng(0), n_boot=60)
    assert w1 <= 0.01 + 3.0 * se


def test_gaussian_mgf_supports_exp_oracle():
    # independent 1-D check of Tf = f e^a for f = exp(<., u>):
    # E exp(<zeta, u>) with zeta ~ N(0, I/n) is e^(||u||^2 / (2n))
    n, draws = 100, 100_000
    u = np.array([0.6, -0.8])
    rng = derive_stream(209, 0, 0)
    proj = rng.standard_normal(draws) * (np.linalg.norm(u) / math.sqrt(n))
    vals = np.exp(proj)
    a = float(u @ u) / (2 * n)
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.mean() - math.exp(a)) <= 4.0 * se


def test_bias_oracle_exp_values():
    u = np.array([1.0, 0.0])
    theta = np.zeros(2)
    assert bootstrap.bias_oracle_exp(theta, u, 0.0, 100, 3) == 0.0
    assert bootstrap.bias_oracle_exp(theta, u, 1.0, 100, 0) == pytest.approx(EXPM1_A, rel=1e-12)
    assert bootstrap.bias_oracle_exp(theta, u, 1.0, 100, 1) == pytest.approx(
        EXPM1_A_SQ, rel=1e-12
    )
    # scaling by f(theta) = exp(<theta, u>)
    theta2 = np.array([0.7, 0.0])
    assert bootstrap.bias_oracle_exp(theta2, u, 1.0, 100, 0) == pytest.approx(
        math.exp(0.7) * EXPM1_A, rel=1e-12
    )


def test_bias_decay_geometry_ratio():
    # at n = 1, a = 1/2: biases (e^a-1)^2, (e^a-1)^3 are resolvable at this
    # budget; the ratio must sit in (e^a - 1) * [0.5, 2.0]
    model = models.GaussianShift(dim=1)
    f = functionals.exp_linear(np.array([1.0]))
    n, m, reps = 1, 100, 40_000
    errs1 = np.empty(reps)
    errs2 = np.empty(reps)
    for r in range(reps):
        rng = derive_stream(210, r, 0)
        data = models.sample_data(model, np.zeros(1), n, rng)
        theta_hat = models.estimate(model, data)
        states = bootstrap.simulate_chain_block(model, theta_hat, 2, n, m, rng)
        errs2[r] = bootstrap.fk_from_states(f, states)[0] - 1.0
        errs1[r] = bootstrap.fk_from_states(f, states[:2])[0] - 1.0
    ratio = abs(errs2.mean()) / abs(errs1.mean())
    geom = math.expm1(0.5)
    assert 0.5 * geom <= ratio <= 2.0 * geom


def test_all_aborted_chains_raise():
    model = models.ExponentialFamily(dim=1, family="poisson_product")
    rng = derive_stream(211, 0, 0)
    data = models.Data(n=10, mean=np.array([math.exp(40.0)]))  # theta_hat = 40
    f = functionals.linear(np.array([1.0]))
    with pytest.raises(bootstrap.EstimationError):
        bootstrap.fk_estimate(model, f, data, 1, 10, 50, rng)


def test_fk_estimate_at_orders_are_their_single_order_runs():
    # lambda n just below the Poisson domain guard: chains abort more often
    # the longer they run, so each order has its own abort pattern
    model = models.ExponentialFamily(dim=2, family="poisson_product")
    f = functionals.quadratic_form()
    theta = np.array([math.log(1e10 * (1 - 5e-7)), 0.0])
    n, m, orders = 100, 50, (0, 1, 2, 3)

    def estimates(r, orders):
        rng = derive_stream(212, r, 0)
        theta_hat = models.estimate_block(model, theta[None, :], n, rng)[0]
        return bootstrap.fk_estimate_at(model, f, theta_hat, orders, n, m, rng)

    got = np.array([estimates(r, orders) for r in range(30)])
    for r in range(30):
        for i, k in enumerate(orders):
            assert np.array_equal(got[r, i : i + 1], estimates(r, (k,)), equal_nan=True)
    nan_count = np.isnan(got).sum(axis=0)
    assert nan_count[0] == 0 and 0 < nan_count[1] < nan_count[2] < 30
    with pytest.raises(bootstrap.EstimationError):
        data = models.Data(n=n, mean=np.exp(theta))
        bootstrap.fk_estimate(model, f, data, 3, n, m, derive_stream(212, 0, 0))


def test_fk_from_states_counts_aborts():
    f = functionals.linear(np.array([1.0, 0.0]))
    states = np.zeros((2, 4, 2))
    states[1, 2] = np.nan  # one aborted chain
    mean, se, aborted = bootstrap.fk_from_states(f, states)
    assert aborted == 1
    assert mean == 0.0 and se == 0.0
    with pytest.raises(bootstrap.EstimationError):
        bootstrap.fk_from_states(f, np.full((2, 3, 2), np.nan))
