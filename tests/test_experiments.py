import dataclasses
import hashlib
import math
from functools import partial

import numpy as np
import pytest
from raw_reference import raw_estimate

from bootchain import experiments as exp
from bootchain import bootstrap, functionals, models

# SHA-256 of the error matrix of test_stream_contract_pin; re-taken, with
# every digest pin below, when the block streams went from keyed Philox to
# SFC64, after the old digests passed with Philox patched back in
STREAM_CONTRACT_DIGEST = "87cff8e27612d330ecc6c6846742b9f01d4a6a9cdec2d25c904dc27f4fc0f718"
# SHA-256 of the exact bits of test_row_dot_pin_at_d10; first taken with
# np.sum from 8 coordinates up (5e26ecd52c5f36cc0582303a988e9ed5b7136d7e061494aa02477ace6acf3614),
# re-taken when functionals._row_dot moved to np.einsum there
ROW_DOT_D10_DIGEST = "bd145a8ebd25b195e13569418c4a4fe2dc2189ebb93c51f8bbafbaabff6cd2c2"
# frozen closed-form targets for the exp-linear bias oracle at
# a = sigma^2 ||u||^2 / (2n) = 1/200 (mpmath, 40 digits)
EXPM1_A = 0.0050125208594010634
EXPM1_A_SQ = 2.5125365365930775e-5


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


def test_derive_stream_keys_do_not_collide_through_padding():
    # SeedSequence pads an entropy list [seed, b, c] with zero words, which
    # would make these two tuples one stream; the spawn key form keeps the
    # seed's words apart from (b, c)
    a = exp.derive_stream(5, 1, 0).random(64)
    b = exp.derive_stream(5 + 2**32, 0, 0).random(64)
    assert not np.array_equal(a, b)


def test_derive_stream_validation():
    with pytest.raises(ValueError):
        exp.derive_stream(-1, 0, 0)
    with pytest.raises(ValueError):
        exp.derive_stream(0, 2**32, 0)
    with pytest.raises(ValueError):
        exp.derive_stream(0, 0, -3)
    # a fractional seed is refused, never truncated; numpy integers pass
    with pytest.raises(ValueError):
        exp.derive_stream(1.5, 0, 0)
    assert exp.derive_stream(np.uint64(1), 0, 0).random() == exp.derive_stream(1, 0, 0).random()


def test_derive_stream_refuses_what_it_would_truncate():
    # int() would turn each of these keys into the stream of (5, 1, 0)
    for key in ((5, 1.5, 0), (5, True, 0), (5, 1, 0.0), (True, 1, 0), (5.0, 1, 0), (5, np.float64(1.0), 0)):
        with pytest.raises(ValueError):
            exp.derive_stream(*key)
    want = exp.derive_stream(5, 1, 0).random(8)
    assert np.array_equal(exp.derive_stream(np.int64(5), np.uint32(1), np.int8(0)).random(8), want)


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
    # fractional n and d are refused, never truncated; numpy integers pass
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(100.7,), d_fixed=3)
    with pytest.raises(exp.ConfigError):
        exp.GridSpec(n_values=(100,), d_fixed=2.5)
    assert exp.GridSpec(n_values=(np.int64(100),), d_fixed=np.int64(3)).points() == [(100, 3)]


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
        k=0,
        inner_chains=1,
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
        k=0,
        inner_chains=1,
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
        k=0,
        inner_chains=1,
        replicates=8000,
        grid=exp.GridSpec(n_values=(100, 1600), d_fixed=3),
    )
    rows = exp.run_experiment(cfg)
    assert rows[-1].extra["w1"] < rows[0].extra["w1"]


@pytest.mark.parametrize("u", [[1.0, 0.0], [0.0, 1.0]], ids=["e1", "e2"])
@pytest.mark.parametrize(
    "kind, model, theta",
    [
        ("normality", models.ExponentialFamily(dim=2), [1.0, -1.0]),
        ("clt", models.gaussian_mean(2, [4.0, 0.25]), [0.5, -1.0]),
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
    cfg = small_cfg(kind="clt", functional=functionals.quadratic_form(), k=0, inner_chains=1)
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


def test_oracle_bias_values():
    def oracle(sigma, theta, k):
        model = models.GaussianShift(2, models.IdentityMap(sigma))
        return exp._oracle_bias(model, functionals.exp_linear([1.0, 0.0]), theta, 100, k)

    theta = np.zeros(2)
    assert oracle(0.0, theta, 3) == 0.0
    assert oracle(1.0, theta, 0) == pytest.approx(EXPM1_A, rel=1e-12)
    assert oracle(1.0, theta, 1) == pytest.approx(-EXPM1_A_SQ, rel=1e-12)  # sign (-1)^k
    # scaling by f(theta) = exp(<theta, u>)
    assert oracle(1.0, np.array([0.7, 0.0]), 0) == pytest.approx(math.exp(0.7) * EXPM1_A, rel=1e-12)


def test_oracle_verdict_fails_a_wrong_target(monkeypatch):
    oracle = exp._oracle_bias
    monkeypatch.setattr(exp, "_oracle_bias", lambda *args: 2.0 * oracle(*args))
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
    with pytest.raises(exp.ConfigError, match="oracle check needs the exp_linear functional"):
        exp.run_experiment(cfg)
    # Sigma = sigma^2 I only: neither a matrix nor a per-coordinate scale
    for noise in (models.ConstantMatrixMap(np.eye(3)), models.IdentityMap(np.array([1.0, 1.0, 2.0]))):
        cfg2 = small_cfg(
            kind="oracle-check",
            functional=functionals.exp_linear(exp.unit_sin_theta(3)),
            model=models.GaussianShift(dim=3, noise_map=noise),
        )
        with pytest.raises(exp.ConfigError, match=r"oracle check needs the shift model with Sigma = sigma\^2 I"):
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
    with pytest.raises(exp.ConfigError):
        small_cfg(seed=1.5)


def clt_cfg(**over):
    return small_cfg(**{"kind": "clt", "functional": functionals.linear(np.ones(3)), "k": 0, "inner_chains": 1, **over})


@pytest.mark.parametrize(
    "field, make",
    [
        pytest.param("k", lambda: clt_cfg(k=3), id="clt_k"),
        pytest.param("mc.M", lambda: clt_cfg(inner_chains=999), id="clt_M"),
        pytest.param("delta", lambda: clt_cfg(delta=0.5), id="clt_delta"),
        pytest.param("compare.tilde", lambda: clt_cfg(use_tilde=True), id="clt_tilde"),
        pytest.param("compare.plugin", lambda: clt_cfg(compare_plugin=True), id="clt_plugin"),
        pytest.param("delta", lambda: small_cfg(delta=1e-9), id="delta_without_tilde"),
        pytest.param("compare.tilde", lambda: small_cfg(k=0, use_tilde=True), id="tilde_at_k0"),
        pytest.param("compare.tilde", lambda: small_cfg(k=0, use_tilde=True, delta=0.5), id="tilde_delta_at_k0"),
        pytest.param("compare.plugin", lambda: small_cfg(k=0, compare_plugin=True), id="plugin_at_k0"),
        pytest.param(
            "compare.plugin",
            lambda: small_cfg(kind="oracle-check", functional=functionals.exp_linear(np.ones(3)), compare_plugin=True),
            id="plugin_in_oracle_check",
        ),
        pytest.param("k", lambda: small_cfg(k=1.5), id="k_fractional"),
        pytest.param("k", lambda: small_cfg(k=True), id="k_bool"),
        pytest.param("mc.M", lambda: small_cfg(inner_chains=2.5), id="M_fractional"),
        pytest.param("mc.R", lambda: small_cfg(replicates=50.5), id="R_fractional"),
        pytest.param("grid.d", lambda: exp.GridSpec(n_values=(100,), d_fixed=True), id="d_bool"),
        pytest.param("grid.alpha", lambda: exp.GridSpec(n_values=(10,), alpha="0.5"), id="alpha_string"),
        pytest.param("grid.alpha", lambda: exp.GridSpec(n_values=(10,), alpha=True), id="alpha_bool"),
        pytest.param("delta", lambda: small_cfg(use_tilde=True, delta="x"), id="delta_string"),
        pytest.param("delta", lambda: small_cfg(use_tilde=True, delta=True), id="delta_bool"),
        pytest.param("delta", lambda: small_cfg(use_tilde=True, delta=1j), id="delta_complex"),
        pytest.param("theta", lambda: exp.run_experiment(small_cfg(theta=[math.nan, 0.0, 0.0])), id="theta_nan"),
        pytest.param(
            "model", lambda: exp.run_experiment(small_cfg(grid=exp.GridSpec(n_values=(100,), d_fixed=5))),
            id="model_dim",
        ),
        pytest.param(
            "functional.u", lambda: exp.run_experiment(small_cfg(functional=functionals.exp_linear(np.ones(2)))),
            id="u_length",
        ),
        pytest.param(
            "functional.u", lambda: exp.run_experiment(clt_cfg(functional=functionals.linear(np.ones(2)))),
            id="clt_u_length",
        ),
        pytest.param(
            "functional.Q", lambda: exp.run_experiment(small_cfg(functional=functionals.quadratic_form(np.eye(2)))),
            id="Q_shape",
        ),
        pytest.param(
            "functional.u", lambda: exp.run_experiment(small_cfg(functional=functionals.linear([math.nan, 0.0, 0.0]))),
            id="u_nan",
        ),
        pytest.param(
            "functional.Q",
            lambda: exp.run_experiment(small_cfg(functional=functionals.quadratic_form(np.full((3, 3), math.inf)))),
            id="Q_inf",
        ),
        pytest.param("compare.tilde", lambda: small_cfg(use_tilde="no"), id="tilde_string"),
        pytest.param("compare.plugin", lambda: small_cfg(compare_plugin="no"), id="plugin_string"),
    ],
)
def test_experiment_config_rejects_fields_it_ignores(field, make):
    # the rules of a JSON config, named by its fields, hold from Python too
    with pytest.raises(exp.ConfigError) as err:
        make()
    assert str(err.value).startswith(f"{field}:")


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
    clt = small_cfg(kind="clt", functional=functionals.linear(np.ones(3)), theta=np.zeros(4), k=0, inner_chains=1)
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
    return partial(models.surrogate_step, delta=models.default_delta(model, theta, n))


class _PairedNormals:
    """Hands the (M, 1, d) standard normal draw of a kernel stepping M
    independent starts out in the paired layout: h = ceil(M/2) fresh rows,
    then the negations of the first M - h."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        m, *rest = size
        z = self.rng.standard_normal((-(-m // 2), *rest))
        return np.concatenate([z, -z[: m // 2]])


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
    # Stream contract (README "Determinism"): block b of B = max(1, 2^16 // (M d))
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

    # B = 1 (M d > 2^15): a block is one replicate, and for the shift model its
    # one-row outer draw consumes the stream exactly as the raw reference
    # does, so the errors are bit-identical to that path computed inline
    m, reps = 8200, 3
    assert exp._block_size(m, 4) == 1
    expected = np.empty((k + 1, reps))
    for j in range(k + 1):
        for r in range(reps):
            rng = exp.derive_stream(seed, r, 0)
            theta_hat = raw_estimate(model, theta, n, rng)
            est = bootstrap.fk_estimate_at(model, f, theta_hat[None], (j,), n, m, rng, step)[0, 0]
            expected[j, r] = est - f_true
    for orders in _orders_passes(k):
        payload = (model, f, theta, f_true, orders, n, m, step, seed)
        got = exp._run_replicates(payload, 0, reps)
        assert got.shape == (len(orders), reps)
        for row, j in zip(got, orders):
            assert np.array_equal(row, expected[j])

    # B > 1, R not a multiple of B: an inline reference draws each block's
    # theta_hat rows one raw_estimate call at a time, then steps the rows'
    # chains in row order at every step, each row's M chains from h = M/2
    # fresh normal rows and their negations, and folds each replicate's
    # chains on their own
    m, reps = 400, 90
    size = exp._block_size(m, 4)
    assert size == 40
    kernel = step or models.estimate_block
    expected = np.empty((k + 1, reps))
    for b, lo in enumerate(range(0, reps, size)):
        rng = exp.derive_stream(seed, b, 0)
        hats = [raw_estimate(model, theta, n, rng) for _ in range(min(size, reps - lo))]
        chains = [[np.broadcast_to(h, (m, 4))] for h in hats]
        for _ in range(k):
            for chain in chains:
                chain.append(kernel(model, chain[-1][:, None], n, _PairedNormals(rng))[:, 0])
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
    m, reps = 160, 300
    assert exp._block_size(m, 3) == 136  # B > 1, R not a multiple of B
    payload = (model, f, theta, float(functionals.value(f, theta)), (0, 2), 100, m, None, 2026)
    errs = exp._batched_errors(payload, reps, 1)
    digest = hashlib.sha256(np.round(errs, 12).tobytes()).hexdigest()
    assert digest == STREAM_CONTRACT_DIGEST, (
        "the numbers a seed produces changed: state the new stream contract in "
        'README "Determinism" and CHANGES.md, then update STREAM_CONTRACT_DIGEST'
    )


def test_row_dot_pin_at_d10():
    # Surrogate chains at d = 10, truncated so that about a third of the
    # draws are cut: pins the truncation's ||xi||^2 and the quadratic f's
    # row sums where functionals._row_dot runs np.einsum, which no digest
    # above reaches (their rows round to 1e-12, far above its ulps). Every
    # operation here is elementwise or a row sum, with no BLAS product, so
    # the exact bits are pinned.
    d, n, m = 10, 100, 9
    model, f = models.GaussianShift(dim=d), functionals.quadratic_form()
    starts = np.array([exp.unit_sin_theta(d) * (0.5 + 0.25 * i) for i in range(6)])
    step = partial(models.surrogate_step, delta=0.35)
    h, cut = hashlib.sha256(), []
    before = np.broadcast_to(starts[:, None], (6, m, d))
    for states in bootstrap.chain_steps(model, starts, 3, n, m, exp.derive_stream(2030, 0, 0), step):
        cut.append(np.all(states == before, axis=-1).mean())
        before = states
        h.update(states.tobytes())
        h.update(functionals.value(f, states).tobytes())
    assert 0.1 < min(cut) and max(cut) < 0.6
    assert h.hexdigest() == ROW_DOT_D10_DIGEST


E1 = np.array([1.0, 0.0, 0.0])
ROW_FLOATS = ("bias", "se_bias", "sd", "rmse", "sqrt_n_rmse", "sigma_f", "d_k", "seconds")
# one small run of each kind; KIND_ROW_DIGESTS pins its rows
KIND_ROW_CASES = {
    # the Poisson overflow edge of ONE_PASS_CASES: the n = 100, k = 2 row fails
    "risk": dict(
        model=models.ExponentialFamily(dim=2),
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
    "risk": "6b5bdba5ba3699acc5d533454376856fba29bb433858511e09aaf6460da06a1a",
    "normality": "f285e2ef611154567a0fce7b36e6b40399d0cf6b3dd910d2983a4523457834b5",
    "sweep": "3916c3ad72b2764b55bda113c93227eb2bf829915a5ccc3ce3d8fbae8879f940",
    "clt": "2bdbd707521634a4dbfa1652eb4afe135190b455a30141043149bedb1f02ab82",
    "oracle-check": "10992a0e25425a65947a8dfcc18ef2cc0cd352df00cc2de28402770418237728",
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


# Poisson counts and centered-exponential drivers have no symmetric law, so
# their chains stay plain: these digests were first taken before chains
# were paired. They were re-taken when the block budget went from 2^14 to
# 2^16 scalars (M = 31 -> 124 keeps B = 176) and when the block streams went
# from keyed Philox to SFC64, each time only after the old digests passed
# with the old rule patched back in; no other change may move the rows
# (mixed tags: one asymmetric tag keeps the whole model plain)
PLAIN_CHAIN_DIGESTS = {
    "poisson": (
        models.ExponentialFamily(dim=3),
        "bfae3031fa1c9123bdbd209505443863f6eb25f2fea56f12047fc45ebfc67b28",
    ),
    "ic_centered_exponential": (
        models.IndependentComponents(dim=3, noise_dist="centered_exponential"),
        "fe9a2a4d326d9f5af639561dc942751cac284cddb0d4c700fd0be3462b6a0889",
    ),
    "ic_mixed": (
        models.IndependentComponents(
            dim=3, noise_dist=("rademacher", "centered_exponential", "uniform")
        ),
        "79e628ef7bc3698696c1f9e38d4979afe45bd6e152611bcdebd63bb9abb7064c",
    ),
}


@pytest.mark.parametrize("case", list(PLAIN_CHAIN_DIGESTS))
def test_asymmetric_families_keep_plain_chains(case):
    model, digest = PLAIN_CHAIN_DIGESTS[case]
    cfg = small_cfg(
        model=model,
        k=2,
        compare_plugin=True,
        replicates=300,
        inner_chains=124,  # B = 176: two blocks
        grid=exp.GridSpec(n_values=(50, 100), d_fixed=3),
        timing="none",
    )
    assert exp._block_size(cfg.inner_chains, 3) == 176
    assert _rows_digest(exp.run_experiment(cfg)) == digest


# the families no digest above covers: (model, risk rows digest, clt rows
# digest), first taken when the kernels still took plain (rows, d) blocks
# beside chain blocks. The risk digests were re-taken when the block budget
# went from 2^14 to 2^16 scalars (B = 176 -> 704, one block per point; the
# clt digests draw no blocks and did not move), and both when the block
# streams went from keyed Philox to SFC64, each time only after the old
# digests passed with the old rule patched back in. No other change may
# move the rows
FAMILY_DIGESTS = {
    "laplace": (
        models.location(dim=3, noise_dist="laplace"),
        "0b89a4743315feecaf5084157c46aa2e97a345f4644ae899fc5f64feec2365be",
        "c3891d5438883439bd9a2245724adc9f7cda00f16eb8b122a4385fb7ea1cf23d",
    ),
    "logistic": (
        models.location(dim=3, noise_dist="logistic", scale=(0.5, 1.0, 2.0)),
        "f5c6270da5b574f219ab61543edb5a4456f5c0fa8b8e5bb538be15f88d0f8e1a",
        "e854ceab8e3993c7a64754545f19fe95808129d8b190f1a2bde25336de4296e7",
    ),
    "ic_uniform": (
        models.IndependentComponents(dim=3, noise_dist="uniform"),
        "467777aa40bfe53384376c98f4a2fb221d2a21444d93c464d296f44d191d78bf",
        "c132e7cc562ac35858cdd1131ce256a12d7371a73df9fd64679c893c5e6b4f46",
    ),
    "ic_gaussian": (
        models.IndependentComponents(dim=3, noise_dist="gaussian", directions=np.triu(np.ones((3, 3)))),
        "cd4f04d5b683d3a3c4533058a63f54e2443fbb765f45ccb9e423719b033ebfee",
        "eafe65b19a5bf099285c70dbfe6a1100f0b3b9d99d4b0f06a7aaaa292dc50060",
    ),
    "gaussian_mean": (
        models.gaussian_mean(3, (0.5, 2.0, 7.0)),
        "e9f570808f675add23e991ef481940e3f457a7f65f93d6b548742947894e581e",
        "2351141427cbffa161066f9c7d0b45e9d5e93295ea020b00b553cae2d59a5839",
    ),
    "shift_diag_tanh": (
        models.GaussianShift(dim=3, noise_map=models.DiagTanhMap(a=(1.0, 1.5, 2.0), b=(0.5, -1.0, 1.5))),
        "750ab4d9630e203a347d849a217377ca77f280e5b9b8d495533bd7d23c347136",
        "32672db76037751efe3214a47b42ed4abb7c22846247ca6598271d983b369133",
    ),
}


@pytest.mark.parametrize("case", list(FAMILY_DIGESTS))
def test_family_rows_pin(case):
    model, risk, clt = FAMILY_DIGESTS[case]
    grid = exp.GridSpec(n_values=(50, 100), d_fixed=3)
    risk_cfg = small_cfg(
        model=model, k=2, compare_plugin=True, replicates=300, inner_chains=31, grid=grid, timing="none"
    )
    clt_cfg = small_cfg(
        kind="clt", model=model, functional=functionals.linear(E1), k=0, inner_chains=1, grid=grid, timing="none"
    )
    assert _rows_digest(exp.run_experiment(risk_cfg)) == risk
    assert _rows_digest(exp.run_experiment(clt_cfg)) == clt


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
    model = models.ExponentialFamily(dim=2)
    f = functionals.quadratic_form()

    def no_chains(*args, **kwargs):
        raise AssertionError("chains started from a non-finite theta_hat")

    monkeypatch.setattr(bootstrap, "chain_steps", no_chains)
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
        model=models.ExponentialFamily(dim=2),
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
        # a k = 0 run steps no chains, so it takes no surrogate step
        chains = {} if s.k > 0 else {"use_tilde": False, "delta": None}
        alone_cfg = dataclasses.replace(cfg, kind="risk", k=s.k, compare_plugin=False, **chains)
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
        inner_chains=8000,  # B = 2: 10 blocks, so both passes split
        grid=exp.GridSpec(n_values=(50, 100), d_fixed=3),
    )
    rows = exp.run_experiment(cfg, threads=2)
    assert [s.k for s in rows] == [0, 1, 2, 0, 1, 2]
    assert len(SpyPool.starts) == 1 and len(passes) == 2 and len(SpyPool.splits) == 2


def test_block_size_at_the_shipped_shapes():
    assert exp._block_size(200, 5) == 65  # risk_quadratic, oracle_check
    assert exp._block_size(1000, 28) == 2  # rate_sweep's largest d
    assert exp._block_size(1000, 66) == 1  # M d > 2^16: one replicate a block


def test_allocator_prime_covers_a_block():
    # a step holds a block's (B, M, d) states and the new states it returns;
    # the primed threshold must stay above both, or they are mapped afresh
    assert 2 * 8 * exp._BLOCK_SCALARS <= exp._ALLOCATOR_PRIME_BYTES


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
    steps = bootstrap.chain_steps

    def spy(model, start, *args):
        starts.append(np.array(start))
        return steps(model, start, *args)

    monkeypatch.setattr(bootstrap, "chain_steps", spy)
    model = models.ExponentialFamily(dim=2)
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
