import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from bootchain import experiments as exp
from bootchain import bootstrap, functionals, gaussian, models


def small_cfg(**over):
    base = dict(
        kind="risk",
        model=models.GaussianShift(dim=3),
        functional=functionals.quadratic_form(),
        theta=None,
        k=1,
        grid=exp.GridSpec(n_values=(100,), d_fixed=3),
        inner_chains=50,
        replicates=400,
        seed=99,
    )
    base.update(over)
    return exp.ExperimentConfig(**base)


def test_derive_stream_same_tuple_identical_prefix():
    a = exp.derive_stream(7, 3, 5).random(64)
    b = exp.derive_stream(7, 3, 5).random(64)
    assert np.array_equal(a, b)


def test_derive_stream_distinct_tuples_differ():
    base = exp.derive_stream(7, 3, 5).random(64)
    for tup in ((7, 3, 6), (7, 4, 5), (8, 3, 5), (7, 5, 3)):
        other = exp.derive_stream(*tup).random(64)
        assert not np.array_equal(base, other)


def test_derive_stream_validation():
    with pytest.raises(ValueError):
        exp.derive_stream(-1, 0, 0)
    with pytest.raises(ValueError):
        exp.derive_stream(0, 2**32, 0)
    with pytest.raises(ValueError):
        exp.derive_stream(0, 0, -3)


def test_unit_sin_theta():
    t = exp.unit_sin_theta(6)
    assert t.shape == (6,)
    assert np.linalg.norm(t) == pytest.approx(1.0)
    assert np.array_equal(t, exp.unit_sin_theta(6))


def test_grid_spec_points_and_validation():
    g = exp.GridSpec(n_values=(250, 500, 1000, 2000, 4000), alpha=0.4)
    assert g.points() == [(250, 10), (500, 13), (1000, 16), (2000, 21), (4000, 28)]
    assert exp.GridSpec(n_values=(100, 50), d_fixed=2).points() == [(50, 2), (100, 2)]
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(), d_fixed=2)
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(10, 10), d_fixed=2)
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(10,), d_fixed=2, alpha=0.5)
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(10,))
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(10,), alpha=1.0)


def test_rate_fit_exact_power_laws():
    ns = np.array([100.0, 200.0, 400.0, 800.0])
    slope, intercept, r2 = exp.rate_fit(ns, 3.0 / np.sqrt(ns))
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-10)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-10)
    slope, _, _ = exp.rate_fit(ns, 5.0 / ns)
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        exp.rate_fit([100, 200], [1.0, 0.5])
    with pytest.raises(ValueError):
        exp.rate_fit([100, 200, 300], [1.0, -0.5, 0.2])
    with pytest.raises(ValueError):
        exp.rate_fit([100, 0, 300], [1.0, 0.5, 0.2])


def test_risk_plugin_linear_matches_normal_theory():
    u = exp.unit_sin_theta(3)
    cfg = small_cfg(
        functional=functionals.linear(u),
        k=0,
        replicates=4000,
        grid=exp.GridSpec(n_values=(400,), d_fixed=3),
    )
    (s,) = exp.run_risk_experiment(cfg)
    assert abs(s.bias) <= 4.0 * s.se_bias
    assert abs(s.sqrt_n_rmse - 1.0) <= 0.05  # sigma_f = ||u|| = 1
    assert s.sigma_f == pytest.approx(1.0)
    assert s.aborts == 0 and not s.failed


def test_risk_corrected_quadratic_unbiased():
    cfg = small_cfg(
        k=1,
        replicates=3000,
        inner_chains=100,
        grid=exp.GridSpec(n_values=(100,), d_fixed=5),
        model=models.GaussianShift(dim=5),
    )
    (s,) = exp.run_risk_experiment(cfg)
    assert abs(s.bias) <= 4.0 * s.se_bias


def test_plugin_quadratic_bias_tracks_trace_over_n():
    # d = ceil(n^0.8): plug-in bias = tr(Sigma)/n = d/n dominates
    n = 500
    d = math.ceil(n**0.8)
    cfg = small_cfg(
        k=0,
        replicates=2000,
        model=models.GaussianShift(dim=d),
        grid=exp.GridSpec(n_values=(n,), alpha=0.8),
    )
    (s,) = exp.run_risk_experiment(cfg)
    assert s.d == d
    assert abs(s.bias - d / n) <= 0.1 * d / n


def test_rmse_self_consistency():
    cfg = small_cfg(replicates=500)
    (s,) = exp.run_risk_experiment(cfg)
    r = cfg.replicates - s.aborts
    assert s.rmse**2 == pytest.approx(s.bias**2 + s.sd**2 * (r - 1) / r, abs=1e-10)


def test_determinism_same_seed_and_thread_invariance():
    cfg = small_cfg(replicates=300, timing="none")
    first = exp.run_risk_experiment(cfg)
    second = exp.run_risk_experiment(cfg)
    pooled = exp.run_risk_experiment(cfg, threads=2)
    for a, b in zip(first, second):
        assert (a.bias, a.sd, a.rmse, a.d_k) == (b.bias, b.sd, b.rmse, b.d_k)
    for a, b in zip(first, pooled):
        assert (a.bias, a.sd, a.rmse, a.d_k) == (b.bias, b.sd, b.rmse, b.d_k)


def test_compare_plugin_emits_k0_rows():
    cfg = small_cfg(compare_plugin=True, replicates=200)
    rows = exp.run_risk_experiment(cfg)
    assert [s.k for s in rows] == [0, 1]


def test_clt_gaussian_shift_distances_near_zero():
    u = np.zeros(3)
    u[0] = 1.0
    cfg = small_cfg(
        kind="clt",
        functional=functionals.linear(u),
        replicates=5000,
        grid=exp.GridSpec(n_values=(100,), d_fixed=3),
    )
    (s,) = exp.run_clt_diagnostic(cfg)
    assert s.extra["w1"] <= 0.05  # same law: MC floor only
    assert s.extra["w2"] <= 0.08
    assert s.extra["w1"] <= s.extra["w2"] + 1e-12


def test_clt_rademacher_w2_decreasing():
    u = np.zeros(4)
    u[0] = 1.0
    cfg = small_cfg(
        kind="clt",
        model=models.IndependentComponents(dim=4, noise_dist="rademacher"),
        functional=functionals.linear(u),
        replicates=5000,
        grid=exp.GridSpec(n_values=(100, 400, 1600), d_fixed=4),
    )
    rows = exp.run_clt_diagnostic(cfg)
    w2 = [s.extra["w2"] for s in rows]
    inversions = sum(w2[i + 1] >= w2[i] for i in range(len(w2) - 1))
    assert inversions <= 1


def test_clt_centered_exponential_w1_strictly_improves():
    u = np.zeros(3)
    u[0] = 1.0
    cfg = small_cfg(
        kind="clt",
        model=models.IndependentComponents(dim=3, noise_dist="centered_exponential"),
        functional=functionals.linear(u),
        replicates=8000,
        grid=exp.GridSpec(n_values=(100, 1600), d_fixed=3),
    )
    rows = exp.run_clt_diagnostic(cfg)
    assert rows[-1].extra["w1"] < rows[0].extra["w1"]


def test_clt_requires_linear_functional():
    cfg = small_cfg(kind="clt", functional=functionals.quadratic_form())
    with pytest.raises(exp.ConfigError):
        exp.run_clt_diagnostic(cfg)


def test_normality_rejects_degenerate_sigma_f():
    cfg = small_cfg(
        kind="normality",
        model=models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=0.0)),
        replicates=400,
    )
    with pytest.raises(exp.ConfigError):
        exp.run_normality_experiment(cfg)


def test_normality_replicate_floor():
    with pytest.raises(exp.ConfigError):
        small_cfg(kind="normality", replicates=50)


def test_normality_linear_is_exactly_normal():
    u = exp.unit_sin_theta(3)
    cfg = small_cfg(
        kind="normality",
        functional=functionals.linear(u),
        k=0,
        replicates=2000,
    )
    (s,) = exp.run_normality_experiment(cfg)
    assert s.d_k <= 1.95 / math.sqrt(2000)


def test_oracle_check_runner():
    d = 5
    u = np.zeros(d)
    u[0] = 1.0
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(u),
        model=models.GaussianShift(dim=d),
        theta=np.zeros(d),
        k=1,
        replicates=2000,
        inner_chains=100,
        grid=exp.GridSpec(n_values=(100,), d_fixed=d),
    )
    rows = exp.run_oracle_check(cfg)
    assert [s.k for s in rows] == [0, 1]
    for s in rows:
        assert s.extra["oracle_pass"]
        assert s.extra["oracle_bias_signed"] == (-1) ** s.k * s.extra["oracle_bias"]
    assert rows[0].extra["oracle_bias"] == pytest.approx(0.0050125208594010634, rel=1e-12)


def test_oracle_check_rejects_wrong_setting():
    cfg = small_cfg(kind="oracle-check")
    with pytest.raises(exp.ConfigError):
        exp.run_oracle_check(cfg)
    cfg2 = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(exp.unit_sin_theta(3)),
        model=models.GaussianShift(dim=3, noise_map=models.ConstantMatrixMap(np.eye(3))),
    )
    with pytest.raises(exp.ConfigError):
        exp.run_oracle_check(cfg2)


def test_experiment_config_validation():
    with pytest.raises(exp.ConfigError):
        small_cfg(k=13)
    with pytest.raises(exp.ConfigError):
        small_cfg(replicates=0)
    with pytest.raises(exp.ConfigError):
        small_cfg(timing="fast")
    with pytest.raises(exp.ConfigError):
        small_cfg(seed=-1)


def test_run_experiment_sweep_attaches_slope():
    cfg = small_cfg(
        kind="sweep",
        k=0,
        functional=functionals.linear(exp.unit_sin_theta(3)),
        replicates=300,
        grid=exp.GridSpec(n_values=(100, 200, 400, 800), d_fixed=3),
    )
    rows = exp.run_experiment(cfg)
    assert "slope" in rows[-1].extra
    assert -0.75 <= rows[-1].extra["slope"] <= -0.25


def test_theta_dimension_mismatch_rejected():
    cfg = small_cfg(theta=np.zeros(4))
    with pytest.raises(exp.ConfigError):
        exp.run_risk_experiment(cfg)


def test_monotone_bias_improvement_when_resolvable():
    # exp_linear under the shift model at n=2 (a = 1/4): both biases sit well
    # above 5 MC standard errors, and one correction order must shrink the
    # magnitude
    d = 2
    u = np.zeros(d)
    u[0] = 1.0
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(u),
        model=models.GaussianShift(dim=d),
        theta=np.zeros(d),
        k=1,
        replicates=25_000,
        inner_chains=50,
        grid=exp.GridSpec(n_values=(2,), d_fixed=d),
        seed=314,
    )
    row0, row1 = exp.run_oracle_check(cfg)
    assert abs(row0.bias) > 5.0 * row0.se_bias
    assert abs(row1.bias) > 5.0 * row1.se_bias
    assert abs(row1.bias) < abs(row0.bias)


@pytest.mark.parametrize("use_tilde", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "noise_map",
    [models.IdentityMap(scale=1.3), models.DiagTanhMap(a=np.full(4, 1.0), b=np.full(4, 0.5))],
    ids=["identity", "diag_tanh"],
)
def test_shift_replicate_stream_matches_sample_data_path(noise_map, k, use_tilde):
    # For the shift model the one-row outer draw consumes the stream exactly
    # as sample_data does, so replicate errors are bit-identical to the
    # data-based path computed inline, one order at a time. Every order row
    # of a pass that folds several orders from one chain (top order k: (k,),
    # (0, k) and (0, ..., k)) must equal that single-order path.
    model = models.GaussianShift(dim=4, noise_map=noise_map)
    f = functionals.quadratic_form()
    theta = exp.unit_sin_theta(4)
    f_true = float(functionals.value(f, theta))
    n, m, seed, reps = 50, 30, 11, 40
    step = None
    if use_tilde:
        trunc = gaussian.TruncationRule(gaussian.default_delta(model, theta, n), n)
        step = partial(gaussian.surrogate_step, trunc=trunc)
    expected = np.empty((k + 1, reps))
    for j in range(k + 1):
        for r in range(reps):
            rng = exp.derive_stream(seed, r, 0)
            data = models.sample_data(model, theta, n, rng)
            if use_tilde:
                theta_hat = models.estimate(model, data)
                est = bootstrap.fk_estimate_at(model, f, theta_hat, (j,), n, m, rng, step)[0]
            else:
                est = bootstrap.fk_estimate(model, f, data, j, n, m, rng)
            expected[j, r] = est - f_true
    for orders in sorted({(k,), (0, k), tuple(range(k + 1))}):
        payload = (model, f, theta, f_true, orders, n, m, step, seed)
        got = exp._run_replicates(payload, 0, reps)
        assert got.shape == (len(orders), reps)
        for row, j in zip(got, orders):
            assert np.array_equal(row, expected[j])


def test_nonfinite_outer_estimate_is_a_domain_abort(monkeypatch):
    model = models.ExponentialFamily(dim=2, family="poisson_product")
    f = functionals.quadratic_form()

    def no_chains(*args, **kwargs):
        raise AssertionError("chains started from a non-finite theta_hat")

    monkeypatch.setattr(bootstrap, "simulate_chain_block", no_chains)
    payload = (model, f, np.array([25.0, 0.0]), 0.0, (0, 1), 100, 20, None, 5)
    assert np.all(np.isnan(exp._run_replicates(payload, 0, 10)))


ONE_PASS_CASES = {
    "risk_plugin_bootstrap": dict(compare_plugin=True, k=2, replicates=200, inner_chains=30),
    "risk_plugin_surrogate": dict(
        compare_plugin=True, k=2, replicates=200, inner_chains=30, use_tilde=True, delta=0.05
    ),
    "oracle_bootstrap": dict(
        kind="oracle-check",
        functional=functionals.exp_linear(np.array([1.0, 0.0, 0.0])),
        theta=np.zeros(3),
        k=3,
        replicates=200,
        inner_chains=30,
    ),
    "oracle_surrogate": dict(
        kind="oracle-check",
        functional=functionals.exp_linear(np.array([1.0, 0.0, 0.0])),
        theta=np.zeros(3),
        k=3,
        replicates=200,
        inner_chains=30,
        use_tilde=True,
        delta=0.05,
    ),
    # lambda n sits just below the Poisson domain guard: chains step over
    # it, so the k=2 row loses most replicates and the k=0 row none
    "poisson_overflow_edge": dict(
        model=models.ExponentialFamily(dim=2, family="poisson_product"),
        theta=np.array([math.log(1e10 * (1 - 5e-7)), 0.0]),
        grid=exp.GridSpec(n_values=(100,), d_fixed=2),
        compare_plugin=True,
        k=2,
        replicates=300,
        inner_chains=50,
    ),
}


@pytest.mark.parametrize("case", list(ONE_PASS_CASES))
def test_every_order_row_equals_a_run_of_that_order_alone(case):
    cfg = small_cfg(timing="none", **ONE_PASS_CASES[case])
    rows = exp.run_experiment(cfg)
    assert [s.k for s in rows] == ([0, 1, 2, 3] if cfg.kind == "oracle-check" else [0, 2])
    for s in rows:
        alone_cfg = dataclasses.replace(cfg, kind="risk", k=s.k, compare_plugin=False)
        (alone,) = exp.run_risk_experiment(alone_cfg)
        fields = ("bias", "se_bias", "sd", "rmse", "d_k", "aborts")
        assert np.array_equal(
            [getattr(s, f) for f in fields], [getattr(alone, f) for f in fields], equal_nan=True
        )
    if case == "poisson_overflow_edge":
        assert rows[0].aborts == 0
        assert rows[1].aborts > 0.9 * cfg.replicates


def test_oracle_check_starts_one_pool_per_grid_point(monkeypatch):
    pools, passes = [], []

    class CountingPool(exp.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    batched = exp._batched_errors

    def counting_batched(*args, **kwargs):
        passes.append(1)
        return batched(*args, **kwargs)

    monkeypatch.setattr(exp, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(exp, "_batched_errors", counting_batched)
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(np.array([1.0, 0.0, 0.0])),
        theta=np.zeros(3),
        k=2,
        replicates=20,
        inner_chains=10,
        grid=exp.GridSpec(n_values=(50, 100), d_fixed=3),
    )
    rows = exp.run_oracle_check(cfg, threads=2)
    assert [s.k for s in rows] == [0, 1, 2, 0, 1, 2]
    assert len(pools) == 2 and len(passes) == 2
