import dataclasses
import hashlib
import math
from functools import partial

import numpy as np
import pytest

from bootchain import experiments as exp
from bootchain import bootstrap, functionals, gaussian, models

# SHA-256 of the error matrix of test_stream_contract_pin
STREAM_CONTRACT_DIGEST = "4b504dfa005f4610c173342cdebcc8cd426e5212772db4067f681b7b6a21e356"


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
    (s,) = exp.run_experiment(cfg)
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
    (s,) = exp.run_experiment(cfg)
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
    (s,) = exp.run_experiment(cfg)
    assert s.d == d
    assert abs(s.bias - d / n) <= 0.1 * d / n


def test_rmse_self_consistency():
    cfg = small_cfg(replicates=500)
    (s,) = exp.run_experiment(cfg)
    r = cfg.replicates - s.aborts
    assert s.rmse**2 == pytest.approx(s.bias**2 + s.sd**2 * (r - 1) / r, abs=1e-10)


def test_determinism_same_seed_and_thread_invariance():
    cfg = small_cfg(replicates=300, timing="none")
    first = exp.run_experiment(cfg)
    second = exp.run_experiment(cfg)
    pooled = exp.run_experiment(cfg, threads=2)
    for a, b in zip(first, second):
        assert (a.bias, a.sd, a.rmse, a.d_k) == (b.bias, b.sd, b.rmse, b.d_k)
    for a, b in zip(first, pooled):
        assert (a.bias, a.sd, a.rmse, a.d_k) == (b.bias, b.sd, b.rmse, b.d_k)


def test_compare_plugin_emits_k0_rows():
    cfg = small_cfg(compare_plugin=True, replicates=200)
    rows = exp.run_experiment(cfg)
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
    (s,) = exp.run_experiment(cfg)
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
    rows = exp.run_experiment(cfg)
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
    rows = exp.run_experiment(cfg)
    assert rows[-1].extra["w1"] < rows[0].extra["w1"]


@pytest.mark.parametrize("u", [[1.0, 0.0], [0.0, 1.0]], ids=["e1", "e2"])
@pytest.mark.parametrize(
    "kind, model, theta",
    [
        ("normality", models.ExponentialFamily(dim=2, family="poisson_product"), [1.0, -1.0]),
        ("clt", models.ExponentialFamily(dim=2, family="gaussian_mean", base=[4.0, 0.25]), [0.5, -1.0]),
    ],
    ids=["normality_poisson", "clt_gaussian_mean"],
)
def test_exponential_family_sigma_f_is_the_mle_scale(kind, model, theta, u):
    # sigma_f standardizes sqrt(n)(theta_hat - theta), not the mean-map scale
    cfg = small_cfg(
        kind=kind,
        model=model,
        functional=functionals.linear(u),
        theta=theta,
        k=0,
        inner_chains=1,
        replicates=20_000,
        grid=exp.GridSpec(n_values=(2000,), d_fixed=2),
        seed=3,
    )
    (s,) = exp.run_experiment(cfg)
    assert 0.9 <= s.sqrt_n_rmse / s.sigma_f <= 1.1
    assert s.d_k < 0.05


def test_clt_requires_linear_functional():
    cfg = small_cfg(kind="clt", functional=functionals.quadratic_form())
    with pytest.raises(exp.ConfigError):
        exp.run_experiment(cfg)


def test_normality_rejects_degenerate_sigma_f():
    cfg = small_cfg(
        kind="normality",
        model=models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=0.0)),
        replicates=400,
    )
    with pytest.raises(exp.ConfigError):
        exp.run_experiment(cfg)


def _shift_silent_above_d2(d):
    return models.GaussianShift(dim=d, noise_map=models.IdentityMap(scale=0.0 if d > 2 else 1.0))


def test_normality_checks_every_sigma_f_before_any_replicate(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("a replicate pass ran before the sigma_f floor check")

    monkeypatch.setattr(exp, "_batched_errors", no_pass)
    cfg = small_cfg(
        kind="normality",
        model=_shift_silent_above_d2,
        grid=exp.GridSpec(n_values=(4, 100), alpha=0.3),  # d = 2, then d = 4
    )
    with pytest.raises(exp.ConfigError, match="n=100, d=4"):
        exp.run_experiment(cfg)


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
    (s,) = exp.run_experiment(cfg)
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
    rows = exp.run_experiment(cfg)
    assert [s.k for s in rows] == [0, 1]
    for s in rows:
        assert s.extra["oracle_pass"]
        assert s.extra["oracle_bias_signed"] == (-1) ** s.k * s.extra["oracle_bias"]
    assert rows[0].extra["oracle_bias"] == pytest.approx(0.0050125208594010634, rel=1e-12)


def test_oracle_verdict_fails_a_wrong_target(monkeypatch):
    oracle = bootstrap.bias_oracle_exp
    monkeypatch.setattr(bootstrap, "bias_oracle_exp", lambda *args: 2.0 * oracle(*args))
    d = 5
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(np.eye(d)[0]),
        model=models.GaussianShift(dim=d),
        theta=np.zeros(d),
        k=0,
        replicates=20_000,
        inner_chains=1,
        grid=exp.GridSpec(n_values=(100,), d_fixed=d),
        seed=3,
    )
    (row,) = exp.run_experiment(cfg)
    assert row.failed and not row.extra["oracle_pass"]
    assert row.extra["oracle_z"] == (row.bias - row.extra["oracle_bias_signed"]) / row.se_bias
    assert row.extra["oracle_z"] < -4.0


def test_oracle_verdict_fails_a_zero_standard_error():
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(np.eye(3)[0]),
        model=models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=0.0)),
        theta=np.zeros(3),
        k=0,
        replicates=20,
    )
    (row,) = exp.run_experiment(cfg)
    assert row.se_bias == 0.0 and row.extra["oracle_bias"] == 0.0
    assert row.failed and not row.extra["oracle_pass"]
    assert math.isnan(row.extra["oracle_z"])


def test_oracle_check_rejects_wrong_setting():
    cfg = small_cfg(kind="oracle-check")
    with pytest.raises(exp.ConfigError):
        exp.run_experiment(cfg)
    cfg2 = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(exp.unit_sin_theta(3)),
        model=models.GaussianShift(dim=3, noise_map=models.ConstantMatrixMap(np.eye(3))),
    )
    with pytest.raises(exp.ConfigError):
        exp.run_experiment(cfg2)


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
        exp.run_experiment(cfg)
    clt = small_cfg(kind="clt", functional=functionals.linear(np.ones(3)), theta=np.zeros(4))
    with pytest.raises(exp.ConfigError):
        exp.run_experiment(clt)


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
    row0, row1 = exp.run_experiment(cfg)
    assert abs(row0.bias) > 5.0 * row0.se_bias
    assert abs(row1.bias) > 5.0 * row1.se_bias
    assert abs(row1.bias) < abs(row0.bias)


def _shift_step(model, n, use_tilde):
    if not use_tilde:
        return None
    theta = exp.unit_sin_theta(model.dim)
    return partial(gaussian.surrogate_step, delta=gaussian.default_delta(model, theta, n))


def _orders_passes(k):
    return sorted({(k,), (0, k), tuple(range(k + 1))})


@pytest.mark.parametrize("use_tilde", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "noise_map",
    [models.IdentityMap(scale=1.3), models.DiagTanhMap(a=np.full(4, 1.0), b=np.full(4, 0.5))],
    ids=["identity", "diag_tanh"],
)
def test_shift_replicate_stream_matches_sample_data_path(noise_map, k, use_tilde):
    # Stream contract (README "Determinism"): block b of B = max(1, 2^14 // (M d))
    # replicates draws its B theta_hat rows and then every step of all its
    # chains from derive_stream(seed, b, 0). Every order row of a pass that
    # folds several orders from one chain (top order k: (k,), (0, k) and
    # (0, ..., k)) must equal the single-order reference.
    model = models.GaussianShift(dim=4, noise_map=noise_map)
    f = functionals.quadratic_form()
    theta = exp.unit_sin_theta(4)
    f_true = float(functionals.value(f, theta))
    n, seed = 50, 11
    step = _shift_step(model, n, use_tilde)

    # B = 1 (M d > 2^14): a block is one replicate, and for the shift model its
    # one-row outer draw consumes the stream exactly as sample_data does, so
    # the errors are bit-identical to the data-based path computed inline
    m, reps = 4100, 3
    assert exp._block_size(m, 4) == 1
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
    for orders in _orders_passes(k):
        payload = (model, f, theta, f_true, orders, n, m, step, seed)
        got = exp._run_replicates(payload, 0, reps)
        assert got.shape == (len(orders), reps)
        for row, j in zip(got, orders):
            assert np.array_equal(row, expected[j])

    # B > 1, R not a multiple of B: an inline reference draws each block's
    # theta_hat rows one sample_data call at a time, then steps the rows'
    # chains in row order at every step, and folds each replicate's chains
    # on their own
    m, reps = 100, 90
    size = exp._block_size(m, 4)
    assert size == 40
    kernel = step or models.estimate_block
    expected = np.empty((k + 1, reps))
    for b, lo in enumerate(range(0, reps, size)):
        rng = exp.derive_stream(seed, b, 0)
        hats = [
            models.estimate(model, models.sample_data(model, theta, n, rng))
            for _ in range(min(size, reps - lo))
        ]
        chains = [[np.broadcast_to(h, (m, 4))] for h in hats]
        for _ in range(k):
            for chain in chains:
                chain.append(kernel(model, chain[-1], n, rng))
        for i, (h, chain) in enumerate(zip(hats, chains)):
            vals = functionals.value(f, np.stack(chain))
            expected[0, lo + i] = functionals.value(f, h) - f_true
            for j in range(1, k + 1):
                per_chain = np.array(bootstrap.collapsed_weights(j), dtype=float) @ vals[: j + 1]
                expected[j, lo + i] = per_chain.mean() - f_true
    for orders in _orders_passes(k):
        payload = (model, f, theta, f_true, orders, n, m, step, seed)
        got = exp._run_replicates(payload, 0, reps)
        for row, j in zip(got, orders):
            assert np.array_equal(row, expected[j])


def test_stream_contract_pin():
    # Pins the numbers one seed produces, so that a change of how they are
    # drawn cannot land unnoticed. Rounded to 1e-12, far above any last-bit
    # difference between BLAS kernels, far below any change of the draws.
    model = models.GaussianShift(dim=3)
    f = functionals.quadratic_form()
    theta = exp.unit_sin_theta(3)
    m, reps = 40, 300
    assert exp._block_size(m, 3) == 136  # B > 1, R not a multiple of B
    payload = (model, f, theta, float(functionals.value(f, theta)), (0, 2), 100, m, None, 2026)
    errs = exp._batched_errors(payload, reps, 1)
    digest = hashlib.sha256(np.round(errs, 12).tobytes()).hexdigest()
    assert digest == STREAM_CONTRACT_DIGEST, (
        "the numbers a seed produces changed: state the new stream contract in "
        'README "Determinism" and CHANGES.md, then update STREAM_CONTRACT_DIGEST'
    )


E1 = np.array([1.0, 0.0, 0.0])
ROW_FLOATS = ("bias", "se_bias", "sd", "rmse", "sqrt_n_rmse", "sigma_f", "d_k", "seconds")
# one small run of each kind; KIND_ROW_DIGESTS pins its rows
KIND_ROW_CASES = {
    # the Poisson overflow edge of ONE_PASS_CASES: the n = 100, k = 2 row fails
    "risk": dict(
        model=models.ExponentialFamily(dim=2, family="poisson_product"),
        theta=np.array([math.log(1e10 * (1 - 5e-7)), 0.0]),
        grid=exp.GridSpec(n_values=(50, 100), d_fixed=2),
        compare_plugin=True,
        k=2,
        replicates=300,
        inner_chains=30,
    ),
    "normality": dict(kind="normality", replicates=200, inner_chains=30),
    "sweep": dict(
        kind="sweep",
        model=models.GaussianShift,
        grid=exp.GridSpec(n_values=(50, 100, 200), alpha=0.3),  # d = 4, 4, 5
        compare_plugin=True,
        use_tilde=True,
        replicates=200,
        inner_chains=20,
    ),
    "clt": dict(
        kind="clt",
        model=models.IndependentComponents(dim=3, noise_dist="rademacher"),
        functional=functionals.linear(E1),
        k=0,
        inner_chains=1,
        grid=exp.GridSpec(n_values=(100, 400), d_fixed=3),
    ),
    "oracle-check": dict(
        kind="oracle-check",
        functional=functionals.exp_linear(E1),
        theta=np.zeros(3),
        k=2,
        replicates=300,
        inner_chains=30,
    ),
}
KIND_ROW_DIGESTS = {
    "risk": "0754dc2a94ae9f4d43bff1d946425cb2d1994871d8097697dc427a5d98fa8074",
    "normality": "a2d8d6d7dc9d4ab6992b62b7b36051ff0e57a3a9a3a0062081a0a4d194bc10ce",
    "sweep": "b99cf6b0f39deb222d40a089e70c000191ba2cdab68fa878b6815018c79f9a00",
    "clt": "df4bd2308708429136546dcf66603e5e132dddeec010a6fb0a4fd44a29823441",
    "oracle-check": "af349f2804e969dd0f5a1f6dfe8352e9bf72cf28f9ee66f3514cc087556ee7b7",
}


def _rows_digest(rows) -> str:
    h = hashlib.sha256()
    for s in rows:
        floats = [float(np.round(getattr(s, f), 12)) for f in ROW_FLOATS]
        extra = sorted(
            (key, float(np.round(v, 12)) if isinstance(v, float) else v)
            for key, v in s.extra.items()
        )
        h.update(repr(((s.n, s.d, s.k, s.aborts), bool(s.failed), floats, extra)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(KIND_ROW_CASES))
def test_kind_rows_pin(case):
    # Pins what each kind adds on top of the replicate pass: row order, the
    # oracle verdicts, the sweep's rate fit, clt W1/W2 and the failed flags.
    # Floats are rounded to 1e-12, as in test_stream_contract_pin.
    over = dict(grid=exp.GridSpec(n_values=(50, 100), d_fixed=3), timing="none")
    cfg = small_cfg(**{**over, **KIND_ROW_CASES[case]})
    assert cfg.replicates <= 400
    assert _rows_digest(exp.run_experiment(cfg)) == KIND_ROW_DIGESTS[case]


def test_each_grid_point_is_resolved_once(monkeypatch):
    calls = []
    grid_point = exp._grid_point

    def counting_grid_point(cfg, n, d):
        calls.append((n, d))
        return grid_point(cfg, n, d)

    monkeypatch.setattr(exp, "_grid_point", counting_grid_point)
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(E1),
        theta=np.zeros(3),
        k=2,
        replicates=20,
        grid=exp.GridSpec(n_values=(50, 100), d_fixed=3),
    )
    assert len(exp.run_experiment(cfg)) == 6
    assert calls == [(50, 3), (100, 3)]


def test_unknown_kind_rejected():
    with pytest.raises(exp.ConfigError, match="bogus"):
        small_cfg(kind="bogus")


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
        (alone,) = exp.run_experiment(alone_cfg)
        fields = ("bias", "se_bias", "sd", "rmse", "d_k", "aborts")
        assert np.array_equal(
            [getattr(s, f) for f in fields], [getattr(alone, f) for f in fields], equal_nan=True
        )
    if case == "poisson_overflow_edge":
        assert rows[0].aborts == 0
        assert rows[1].aborts > 0.9 * cfg.replicates


class SpyPool(exp.ProcessPoolExecutor):
    """A worker pool that records its constructions and the replicate
    ranges each split pass hands out."""

    starts = []
    splits = []

    def __init__(self, *args, **kwargs):
        SpyPool.starts.append(1)
        super().__init__(*args, **kwargs)

    def map(self, fn, payloads, los, his, **kwargs):
        los, his = list(los), list(his)
        SpyPool.splits.append(list(zip(los, his)))
        return super().map(fn, payloads, los, his, **kwargs)


def test_oracle_check_starts_one_pool_per_run(monkeypatch):
    passes = []
    batched = exp._batched_errors

    def counting_batched(*args, **kwargs):
        passes.append(1)
        return batched(*args, **kwargs)

    monkeypatch.setattr(SpyPool, "starts", [])
    monkeypatch.setattr(SpyPool, "splits", [])
    monkeypatch.setattr(exp, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(exp, "_batched_errors", counting_batched)
    cfg = small_cfg(
        kind="oracle-check",
        functional=functionals.exp_linear(np.array([1.0, 0.0, 0.0])),
        theta=np.zeros(3),
        k=2,
        replicates=20,
        inner_chains=2000,  # B = 2: 10 blocks, so both passes split
        grid=exp.GridSpec(n_values=(50, 100), d_fixed=3),
    )
    rows = exp.run_experiment(cfg, threads=2)
    assert [s.k for s in rows] == [0, 1, 2, 0, 1, 2]
    assert len(SpyPool.starts) == 1 and len(passes) == 2 and len(SpyPool.splits) == 2


def test_block_partition_is_thread_invariant(monkeypatch):
    monkeypatch.setattr(SpyPool, "starts", [])
    monkeypatch.setattr(SpyPool, "splits", [])
    model = models.GaussianShift(dim=3)
    f = functionals.quadratic_form()
    theta = exp.unit_sin_theta(3)
    m = 500
    size = exp._block_size(m, 3)
    reps = 7 * size + 5  # 8 blocks, the last one short
    payload = (model, f, theta, float(functionals.value(f, theta)), (0, 2), 100, m, None, 17)
    alone = exp._batched_errors(payload, reps, 1)
    assert alone.shape == (2, reps) and np.isfinite(alone).all()
    for threads in (2, 3):
        with SpyPool(max_workers=threads) as pool:
            split = exp._batched_errors(payload, reps, threads, pool)
        assert np.array_equal(split, alone)
        ranges = SpyPool.splits[-1]
        assert len(ranges) == threads and ranges[0][0] == 0 and ranges[-1][1] == reps
        assert all(lo % size == 0 for lo, _ in ranges)
        assert all(a[1] == b[0] for a, b in zip(ranges[:-1], ranges[1:]))


def test_poisson_block_folds_only_its_finite_rows(monkeypatch):
    # rows 1 and 3 have no fitted value: they start no chain and draw nothing,
    # so the finite rows are exactly the fold of a block made of them alone
    starts = []
    simulate = bootstrap.simulate_chain_block

    def spy(model, start, *args):
        starts.append(np.array(start))
        return simulate(model, start, *args)

    monkeypatch.setattr(bootstrap, "simulate_chain_block", spy)
    model = models.ExponentialFamily(dim=2, family="poisson_product")
    f = functionals.quadratic_form()
    ok = np.array([[-0.5, 0.3], [0.2, -1.0], [1.0, 0.0]])
    mixed = np.array([ok[0], [np.nan, 0.0], ok[1], [np.inf, 0.2], ok[2]])
    orders, n, m = (0, 1, 2), 100, 50
    got = bootstrap.fk_estimate_at(model, f, mixed, orders, n, m, exp.derive_stream(5, 0, 0))
    assert got.shape == (3, 5)
    assert np.isnan(got[:, [1, 3]]).all()
    assert np.isfinite(got[:, [0, 2, 4]]).all()
    assert len(starts) == 1 and np.array_equal(starts[0], ok)
    alone = bootstrap.fk_estimate_at(model, f, ok, orders, n, m, exp.derive_stream(5, 0, 0))
    assert np.array_equal(got[:, [0, 2, 4]], alone)
