import copy
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from law_gate import wasserstein1_bootstrap_se
from raw_reference import simulate_chain_block

from bootchain import bootstrap, functionals, models
from bootchain.experiments import derive_stream, unit_sin_theta


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
    states = simulate_chain_block(model, start[None], 0, 100, 1, rng)[:, 0]
    assert np.array_equal(states, start[None, None, :])

    frozen = models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=0.0))
    states = simulate_chain_block(frozen, start[None], 5, 100, 1, rng)[:, 0]
    assert np.array_equal(states[:, 0], np.broadcast_to(start, (6, 3)))


def test_chain_increments_have_variance_one_over_n():
    model = models.GaussianShift(dim=3)
    n, m = 50, 10_000
    rng = derive_stream(202, 0, 0)
    states = simulate_chain_block(model, np.zeros((1, 3)), 2, n, m, rng)[:, 0]
    se = math.sqrt(2.0 / m) / n  # SE of a variance estimate of 1/n
    for j in range(2):
        inc = states[j + 1] - states[j]
        emp = inc.var(axis=0, ddof=1)
        assert np.all(np.abs(emp - 1.0 / n) <= 5.0 * se)


def _mean_and_se(vals):
    return vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))


def _per_chain_folds(f, states):
    k = states.shape[0] - 1
    return np.array(bootstrap.collapsed_weights(k), dtype=float) @ functionals.value(f, states)


def test_estimate_Bjf_quadratic_and_linear():
    # the j-th order difference of f along a chain from theta averages to B^j f(theta)
    model = models.GaussianShift(dim=3)
    theta = unit_sin_theta(3)
    n, m = 50, 20_000

    def bjf(f, j, rng):
        states = simulate_chain_block(model, theta[None], j, n, m, rng)[:, 0]
        w = np.array(bootstrap.difference_weights(j), dtype=float)
        return _mean_and_se(w @ functionals.value(f, states))

    f_quad = functionals.quadratic_form()
    mean, se = bjf(f_quad, 1, derive_stream(203, 0, 0))
    assert abs(mean - 3.0 / n) <= 4.0 * se  # Bf = tr(Sigma)/n

    mean, se = bjf(f_quad, 2, derive_stream(203, 1, 0))
    assert abs(mean) <= 4.0 * se  # Bf constant, so B^2 f = 0

    f_lin = functionals.linear(np.array([1.0, -2.0, 0.5]))
    for j in (1, 2, 3):
        mean, se = bjf(f_lin, j, derive_stream(203, 2, j))
        assert abs(mean) <= 4.0 * se  # unbiased estimator preserves linear f


def test_fk_estimate_k0_is_plugin():
    model = models.GaussianShift(dim=3)
    rng = derive_stream(204, 0, 0)
    theta_hat = models.estimate_block(model, unit_sin_theta(3)[None, None, :], 100, rng)[0, 0]
    f = functionals.quadratic_form()
    got = bootstrap.fk_estimate_at(model, f, theta_hat[None], (0,), 100, 1, rng)[0, 0]
    assert got == functionals.value(f, theta_hat)


def test_fk_estimate_k1_quadratic_matches_closed_form():
    # conditional on theta_hat: E f_1 = f(theta_hat) - sigma^2 d / n
    model = models.GaussianShift(dim=5)
    n, m = 100, 10_000
    rng = derive_stream(205, 0, 0)
    theta_hat = models.estimate_block(model, unit_sin_theta(5)[None, None, :], n, rng)[0, 0]
    f = functionals.quadratic_form()
    twin = copy.deepcopy(rng)
    mean = bootstrap.fk_estimate_at(model, f, theta_hat[None], (1,), n, m, rng)[0, 0]
    states = simulate_chain_block(model, theta_hat[None], 1, n, m, twin)[:, 0]
    per_chain = _per_chain_folds(f, states)
    assert np.isfinite(per_chain).all()
    per_chain_mean, se = _mean_and_se(per_chain)
    assert mean == per_chain_mean
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
        theta_hat = models.estimate_block(model, theta[None, None, :], n, rng)[:, 0]
        vals[r] = bootstrap.fk_estimate_at(model, f, theta_hat, (1,), n, m, rng)[0, 0]
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 4.0 * se


def test_telescoping_equivalence_on_shared_chains():
    model = models.GaussianShift(dim=3)
    k, n, m = 3, 50, 500
    start = unit_sin_theta(3)
    states = simulate_chain_block(model, start[None], k, n, m, derive_stream(207, 0, 0))[:, 0]
    f = functionals.exp_linear(np.array([0.5, -0.2, 0.1]))
    fv = np.asarray(functionals.value(f, states))

    # the estimator draws the same chains from a twin stream
    collapsed = bootstrap.fk_estimate_at(model, f, start[None], (k,), n, m, derive_stream(207, 0, 0))[0, 0]
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
    inner = simulate_chain_block(model, theta[None], 2, n, m, derive_stream(208, 0, 0))[:, 0]
    fresh = simulate_chain_block(model, theta[None], 1, n, m, derive_stream(208, 1, 0))[:, 0]
    a = np.asarray(functionals.value(f, inner[1]))
    b = np.asarray(functionals.value(f, fresh[1]))
    w1 = distances.wasserstein1(a, b)
    se = wasserstein1_bootstrap_se(a, b, np.random.default_rng(0), n_boot=60)
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
        theta_hat = models.estimate_block(model, np.zeros((1, 1, 1)), n, rng)[:, 0]
        errs1[r], errs2[r] = bootstrap.fk_estimate_at(model, f, theta_hat, (1, 2), n, m, rng)[:, 0] - 1.0
    ratio = abs(errs2.mean()) / abs(errs1.mean())
    geom = math.expm1(0.5)
    assert 0.5 * geom <= ratio <= 2.0 * geom


def test_all_aborted_chains_give_nan():
    # n e^40 is past the Poisson domain guard, so all 50 chains abort at
    # their first step; the plug-in order needs no chain
    model = models.ExponentialFamily(dim=1)
    rng = derive_stream(211, 0, 0)
    f = functionals.linear(np.array([1.0]))
    (plugin,), (corrected,) = bootstrap.fk_estimate_at(model, f, np.array([[40.0]]), (0, 1), 10, 50, rng)
    assert plugin == 40.0 and np.isnan(corrected)


def test_fk_estimate_at_orders_are_their_single_order_runs():
    # lambda n just below the Poisson domain guard: chains abort more often
    # the longer they run, so each order has its own abort pattern
    model = models.ExponentialFamily(dim=2)
    f = functionals.quadratic_form()
    theta = np.array([math.log(1e10 * (1 - 5e-7)), 0.0])
    n, m, orders = 100, 50, (0, 1, 2, 3)

    def estimates(r, orders):
        rng = derive_stream(212, r, 0)
        theta_hat = models.estimate_block(model, theta[None, None, :], n, rng)[:, 0]
        return bootstrap.fk_estimate_at(model, f, theta_hat, orders, n, m, rng)[:, 0]

    got = np.array([estimates(r, orders) for r in range(30)])
    for r in range(30):
        for i, k in enumerate(orders):
            assert np.array_equal(got[r, i : i + 1], estimates(r, (k,)), equal_nan=True)
    nan_count = np.isnan(got).sum(axis=0)
    assert nan_count[0] == 0 and 0 < nan_count[1] < nan_count[2] < 30
    # started at theta itself, order 3 loses more than 1% of its chains
    assert np.isnan(bootstrap.fk_estimate_at(model, f, theta[None], (3,), n, m, derive_stream(212, 0, 0))[0, 0])


def test_fk_estimate_at_needs_an_order():
    model, f, rng = models.GaussianShift(dim=2), functionals.quadratic_form(), derive_stream(213, 0, 0)
    with pytest.raises(ValueError, match="^need at least one order$"):
        bootstrap.fk_estimate_at(model, f, np.zeros((1, 2)), (), 50, 10, rng)


def _aborting_step(model, states, n, rng, dead, chains=1):
    out = models.estimate_block(model, states, n, rng, chains)
    out[:, dead] = np.nan
    return out


def test_abort_limit_boundary():
    # at M = 200 the 1% limit tolerates 2 aborted chains, not 3
    model = models.GaussianShift(dim=2)
    f = functionals.quadratic_form()
    theta_hat = unit_sin_theta(2)
    n, m = 50, 200
    plugin = functionals.value(f, theta_hat)
    for dead in ([5, 117], [5, 117, 199], list(range(m))):
        step = partial(_aborting_step, dead=dead)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bootstrap.fk_estimate_at(
                model, f, theta_hat[None], (0, 1), n, m, derive_stream(213, 0, 0), step
            )[:, 0]
        assert got[0] == plugin
        if len(dead) > 2:
            assert np.isnan(got[1])
            continue
        states = simulate_chain_block(
            model, theta_hat[None], 1, n, m, derive_stream(213, 0, 0), step
        )[:, 0]
        per_chain = _per_chain_folds(f, states)
        assert np.isnan(per_chain[dead]).all()
        assert got[1] == np.delete(per_chain, dead).mean()


def test_chain_states_are_evaluated_once(monkeypatch):
    points = []
    value = functionals.value

    def counting_value(f, theta):
        points.append(np.asarray(theta)[..., 0].size)
        return value(f, theta)

    monkeypatch.setattr(functionals, "value", counting_value)
    model = models.GaussianShift(dim=3)
    theta_hat = unit_sin_theta(3)
    # a row-wise sum and a BLAS product alike: theta_hat once (order 0 and
    # every chain's step 0), each of the 3 x 50 later chain states once
    for f in (functionals.quadratic_form(), functionals.linear(np.arange(1.0, 4.0))):
        points.clear()
        bootstrap.fk_estimate_at(model, f, theta_hat[None], (0, 1, 2, 3), 100, 50, derive_stream(214, 0, 0))
        assert sum(points) == 1 + 3 * 50


@pytest.mark.parametrize("shape", [(3,), (4, 4)], ids=["single_fit", "d_plus_one"])
def test_block_entry_points_name_the_shape_they_need(shape):
    model = models.GaussianShift(dim=3)
    rows = np.zeros(shape)
    expected = re.escape(f"of shape {shape}: expected a (B, d) block with d = 3")
    with pytest.raises(ValueError, match=expected):
        bootstrap.fk_estimate_at(model, functionals.quadratic_form(), rows, (0, 1), 100, 4, derive_stream(215, 0, 0))
    with pytest.raises(ValueError, match=expected):
        simulate_chain_block(model, rows, 1, 100, 4, derive_stream(215, 0, 0))
