"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Monte Carlo criteria use fixed master seeds, so a
green suite is reproducible bit-for-bit.
"""

import dataclasses
import json
import math
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from law_gate import wasserstein1_bootstrap_se
from raw_reference import simulate_chain_block

from bootchain import bootstrap, cli, config, core, distances, functionals, models
from bootchain import experiments as exp

EXPM1_A = 0.0050125208594010634  # e^(1/200) - 1
EXPM1_A_SQ = 2.5125365365930775e-5


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_c1_weight_identities():
    with criterion("C1 weight identities"):
        for k in range(13):
            dw = bootstrap.difference_weights(k)
            cw = bootstrap.collapsed_weights(k)
            if k >= 1:
                assert sum(dw) == 0
            assert sum(cw) == 1
            for i in range(k + 1):
                assert cw[i] == sum(
                    (-1) ** i * math.comb(j, i) for j in range(i, k + 1)
                )


def test_c2_pauli_basis():
    with criterion("C2 pauli basis"):
        rng = np.random.default_rng(2)
        for l in (1, 2, 3):
            basis = core.pauli_basis(l)
            m = 2**l
            gram = np.array(
                [[core.hs_inner(a, b) for b in basis] for a in basis]
            )
            assert np.abs(gram - np.eye(4**l)).max() <= 1e-12
            for e in basis:
                assert np.linalg.norm(e, 2) <= 2 ** (-l / 2) + 1e-12
            raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            h = raw + raw.conj().T
            back = core.pauli_reconstruct(core.pauli_coefficients(h, basis), basis)
            assert np.abs(back - h).max() <= 1e-10


def _battery_cfg(functional, k, seed, **over):
    base = dict(
        kind="risk",
        model=models.GaussianShift(dim=5),
        functional=functional,
        theta=exp.unit_sin_theta(5),
        k=k,
        grid=exp.GridSpec(n_values=(100,), d_fixed=5),
        inner_chains=200,
        replicates=20_000,
        seed=seed,
        compare_plugin=True,
    )
    base.update(over)
    return exp.ExperimentConfig(**base)


def test_c3_exact_debiasing_battery():
    with criterion("C3 exact-debiasing battery"):
        u = exp.unit_sin_theta(5)

        plugin, quad = exp.run_experiment(
            _battery_cfg(functionals.quadratic_form(), 1, seed=1003)
        )
        assert abs(quad.bias) <= 4.0 * quad.se_bias  # quadratic, k=1
        assert abs(plugin.bias - 0.05) <= 0.1 * 0.05  # plug-in bias = d/n

        (cubic,) = exp.run_experiment(
            _battery_cfg(functionals.power(u, 3), 1, seed=1013, compare_plugin=False)
        )
        assert abs(cubic.bias) <= 4.0 * cubic.se_bias  # cubic, k=1

        (quartic,) = exp.run_experiment(
            _battery_cfg(functionals.power(u, 4), 2, seed=1023, compare_plugin=False)
        )
        assert abs(quartic.bias) <= 4.0 * quartic.se_bias  # quartic, k=2


def test_c4_exponential_bias_oracle():
    with criterion("C4 exponential-functional bias oracle"):
        d = 5
        u = np.zeros(d)
        u[0] = 1.0
        cfg = exp.ExperimentConfig(
            kind="oracle-check",
            model=models.GaussianShift(dim=d),
            functional=functionals.exp_linear(u),
            theta=np.zeros(d),
            k=1,
            grid=exp.GridSpec(n_values=(100,), d_fixed=d),
            inner_chains=200,
            replicates=100_000,
            seed=1004,
        )
        row0, row1 = exp.run_experiment(cfg)
        assert row0.extra["oracle_bias"] == pytest.approx(EXPM1_A, rel=1e-12)
        assert row1.extra["oracle_bias"] == pytest.approx(EXPM1_A_SQ, rel=1e-12)
        assert abs(row0.bias - EXPM1_A) <= 4.0 * row0.se_bias
        assert abs(row1.bias) <= max(4.0 * row1.se_bias, 2.0 * EXPM1_A_SQ)
        assert row0.extra["oracle_pass"] and row1.extra["oracle_pass"]


def test_c5_normal_approximation_at_desk_scale():
    with criterion("C5 normal approximation"):
        cfg = exp.ExperimentConfig(
            kind="normality",
            model=models.GaussianShift(dim=20),
            functional=functionals.quadratic_form(),
            theta=exp.unit_sin_theta(20),
            k=1,
            grid=exp.GridSpec(n_values=(2000,), d_fixed=20),
            inner_chains=1000,
            replicates=5000,
            seed=1005,
        )
        (s,) = exp.run_experiment(cfg)
        assert s.sigma_f == pytest.approx(2.0)
        assert s.d_k <= 0.05


SWEEP_DOC = {
    "kind": "sweep",
    "model": {"variant": "gaussian_shift"},
    "functional": {"variant": "quadratic_form"},
    "theta": {"rule": "unit_sin"},
    "k": 1,
    "grid": {"n": [250, 500, 1000, 2000, 4000], "alpha": 0.4},
    "mc": {"M": 1000, "R": 2000},
    "seed": 1006,
    "timing": "none",
    "outputs": {"csv": "sweep.csv", "json": "sweep.json"},
}


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg_path = out / "sweep.json.cfg"
    cfg_path.write_text(json.dumps(SWEEP_DOC))
    rc = cli.main(["run", str(cfg_path), "--out-dir", str(out), "--threads", "1"])
    assert rc == 0
    return out, cfg_path


def test_c6_rate_sweep(sweep_run):
    with criterion("C6 rate sweep"):
        out, _ = sweep_run
        rows = cli.read_results_csv(out / "sweep.csv")
        assert [r["n"] for r in rows] == [250.0, 500.0, 1000.0, 2000.0, 4000.0]
        slope, _, _ = exp.rate_fit([r["n"] for r in rows], [r["rmse"] for r in rows])
        assert -0.6 <= slope <= -0.4
        last = rows[-1]
        assert 0.8 <= last["sqrt_n_rmse"] / last["sigma_f"] <= 1.2


def test_c7_surrogate_equivalence():
    with criterion("C7 surrogate equivalence"):
        model = models.GaussianShift(dim=5)
        theta = exp.unit_sin_theta(5)
        f = functionals.quadratic_form()
        n, k, m = 100, 2, 20_000
        # m independent chains (m starts of one chain each): the bootstrap se
        # of W1 assumes i.i.d. samples, which antithetic twins are not
        starts = np.tile(theta, (m, 1))
        hat = simulate_chain_block(model, starts, k, n, 1, exp.derive_stream(1007, 0, 0))
        tilde = simulate_chain_block(
            model, starts, k, n, 1, exp.derive_stream(1007, 1, 0), models.surrogate_step
        )
        a = np.asarray(functionals.value(f, hat[k][:, 0]))
        b = np.asarray(functionals.value(f, tilde[k][:, 0]))
        w1 = distances.wasserstein1(a, b)
        se = wasserstein1_bootstrap_se(a, b, np.random.default_rng(7), n_boot=100)
        assert w1 <= 0.01 + 3.0 * se

        delta = models.default_delta(model, theta, n)
        states = simulate_chain_block(
            model, theta[None], 3, n, 10_000, exp.derive_stream(1007, 2, 0),
            partial(models.surrogate_step, delta=delta),
        )[:, 0]
        for j in range(4):
            assert np.all(np.linalg.norm(states[j] - theta, axis=1) <= j * delta)


def test_c8_homotopy_superposition():
    with criterion("C8 homotopy superposition"):
        model = models.GaussianShift(dim=5)
        theta = exp.unit_sin_theta(5)
        f = functionals.quadratic_form()
        n, m = 100, 20_000
        starts = np.tile(theta, (m, 1))  # i.i.d. samples, as in C7
        for idx in range(8):
            bits = tuple((idx >> b) & 1 for b in range(3))
            l = sum(bits)
            # the superposition from its definition: step j adds t_j xi_j / sqrt(n)
            rng, sup = exp.derive_stream(1008, idx, 0), starts[:, None]
            for t in bits:
                sup = sup + t * models._factor(model, sup, rng.standard_normal(sup.shape)) / math.sqrt(n)
            chain = simulate_chain_block(
                model, starts, l, n, 1, exp.derive_stream(1008, idx, 1), models.surrogate_step
            )
            a = np.asarray(functionals.value(f, sup[:, 0]))
            b = np.asarray(functionals.value(f, chain[l][:, 0]))
            w1 = distances.wasserstein1(a, b)
            se = wasserstein1_bootstrap_se(a, b, np.random.default_rng(idx), n_boot=60)
            assert w1 <= 0.01 + 3.0 * se, f"flags {bits}"


def test_c9_clt_diagnostics():
    with criterion("C9 CLT diagnostics"):
        d = 5
        u = np.zeros(d)
        u[0] = 1.0
        cfg = exp.ExperimentConfig(
            kind="clt",
            model=models.IndependentComponents(dim=d, noise_dist="rademacher"),
            functional=functionals.linear(u),
            theta=np.zeros(d),
            k=0,
            grid=exp.GridSpec(n_values=(100, 400, 1600), d_fixed=d),
            inner_chains=1,
            replicates=20_000,
            seed=1009,
        )
        rows = exp.run_experiment(cfg)
        w2 = [s.extra["w2"] for s in rows]
        inversions = sum(w2[i + 1] >= w2[i] for i in range(len(w2) - 1))
        assert inversions <= 1
        assert w2[-1] <= 0.06


def test_c10_determinism_across_worker_counts(sweep_run):
    with criterion("C10 determinism 1 vs 8 workers"):
        out, cfg_path = sweep_run
        out8 = out / "w8"
        rc = cli.main(["run", str(cfg_path), "--out-dir", str(out8), "--threads", "8"])
        assert rc == 0
        assert (out / "sweep.csv").read_bytes() == (out8 / "sweep.csv").read_bytes()


THRESHOLD_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "threshold_radial.json"


def test_c11_efficiency_threshold_gaussian_shift():
    # Along d = n^0.75 an analytic f has order-k bias O((d/n)^(k+1)), so
    # sqrt(n) bias -> 0 exactly when (k+1)(1 - alpha) > 1/2: the plug-in
    # (k=0) falls behind the sqrt(n) rate, k=1 sits on the threshold and
    # keeps a bias of order sigma_f / sqrt(n), and k=2 is efficient.
    with criterion("C11 efficiency threshold, Gaussian shift"):
        cfg, _ = config.load_config(THRESHOLD_CONFIG)
        cfg = dataclasses.replace(cfg, timing="none")
        rows = exp.run_experiment(cfg)
        # the negative control: k=1 at the largest n alone
        last = exp.GridSpec(n_values=cfg.grid.n_values[-1:], alpha=cfg.grid.alpha)
        (k1_last,) = exp.run_experiment(
            dataclasses.replace(cfg, k=1, compare_plugin=False, grid=last)
        )
        assert not any(s.failed for s in rows + [k1_last])
        ratio = {(s.n, s.k): s.sqrt_n_rmse / s.sigma_f for s in rows}
        scaled_bias = {(s.n, s.k): math.sqrt(s.n) * abs(s.bias) / s.sigma_f for s in rows}
        ns = cfg.grid.n_values
        slope = np.polyfit(np.log(ns), np.log([ratio[n, 0] for n in ns]), 1)[0]
        assert slope >= 0.15, f"k=0 slope {slope:.3f}"
        k1_bias = math.sqrt(k1_last.n) * abs(k1_last.bias) / k1_last.sigma_f
        assert k1_bias >= 0.25, f"k=1 scaled bias {k1_bias:.3f}"
        for n in ns:
            assert scaled_bias[n, 2] <= 0.2, f"k=2 scaled bias {scaled_bias[n, 2]:.3f} at n={n}"
            assert ratio[n, 2] <= 1.15, f"k=2 sqrt(n) rmse / sigma_f {ratio[n, 2]:.3f} at n={n}"
