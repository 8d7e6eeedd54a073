import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from law_gate import wasserstein1_bootstrap_se

from bootchain import distances as dist

# high-precision reference values (mpmath ncdf, 40 digits)
PHI_REFS = {
    0.0: 0.5,
    0.1: 0.53982783727702898,
    0.5: 0.6914624612740131,
    -0.5: 0.3085375387259869,
    1.0: 0.84134474606854295,
    -1.0: 0.15865525393145705,
    1.96: 0.97500210485177956,
    2.5: 0.99379033467422386,
    -2.5: 0.0062096653257761352,
    5.0: 0.99999971334842812,
    -5.0: 2.8665157187919391e-7,
    8.0: 0.99999999999999938,
    -8.0: 6.2209605742717841e-16,
}

# analytic sup_x |Phi(x - 1) - Phi(x)| = 2 Phi(1/2) - 1
SHIFTED_NORMAL_KS = 0.38292492254802621


def test_std_normal_cdf_against_reference():
    for x, ref in PHI_REFS.items():
        assert abs(dist.std_normal_cdf(x) - ref) <= 1e-12


def test_std_normal_cdf_against_mpmath_grid():
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(-6.0, 6.0, 241)
    got = dist.std_normal_cdf(xs)
    for x, g in zip(xs, got):
        assert abs(g - float(mpmath.ncdf(x))) <= 1e-12


def test_ks_exact_normal_sample_within_kolmogorov_band():
    rng = np.random.default_rng(2024)
    n = 10_000
    # 1.95/sqrt(N): ~95% quantile of the Kolmogorov distribution
    assert dist.kolmogorov_to_std_normal(rng.standard_normal(n)) <= 1.95 / math.sqrt(n)


def test_ks_degenerate_far_right():
    assert dist.kolmogorov_to_std_normal(np.full(50, 10.0)) >= 0.999


def test_ks_shifted_normal_matches_analytic_sup():
    rng = np.random.default_rng(7)
    sample = 1.0 + rng.standard_normal(10_000)
    assert dist.kolmogorov_to_std_normal(sample) == pytest.approx(SHIFTED_NORMAL_KS, abs=0.02)


def test_ks_invariant_under_input_order():
    rng = np.random.default_rng(40)
    s = rng.standard_normal(500)
    reference = dist.kolmogorov_to_std_normal(s)
    assert dist.kolmogorov_to_std_normal(s[::-1]) == reference
    assert dist.kolmogorov_to_std_normal(rng.permutation(s)) == reference


def test_w1_identity_and_shift():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(300)
    assert dist.wasserstein1(a, a) == 0.0
    assert dist.wasserstein1(a, a - 2.5) == pytest.approx(2.5, abs=1e-12)


def test_w1_uniform_scaling_quantile_integral():
    rng = np.random.default_rng(8)
    a = rng.uniform(0.0, 1.0, 100_000)
    b = rng.uniform(0.0, 2.0, 100_000)
    assert dist.wasserstein1(a, b) == pytest.approx(0.5, abs=0.01)


def test_w2_identity_shift_and_gaussian_scales():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(100_000)
    assert dist.wasserstein2(a, a) == 0.0
    assert dist.wasserstein2(a, a + 0.3) == pytest.approx(0.3, abs=1e-12)
    b = 2.0 * rng.standard_normal(100_000)
    assert dist.wasserstein2(a, b) == pytest.approx(1.0, abs=0.02)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_metric_axioms_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    a = rng.standard_normal(n)
    b = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
    c = rng.standard_normal(n) + rng.uniform(-1, 1)
    for w in (dist.wasserstein1, dist.wasserstein2):
        assert w(a, b) == w(b, a)
        assert w(a, c) <= w(a, b) + w(b, c) + 1e-12
    assert dist.wasserstein1(a, b) <= dist.wasserstein2(a, b) + 1e-12


def test_wasserstein_bootstrap_se_positive():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(500)
    b = rng.standard_normal(500)
    se = wasserstein1_bootstrap_se(a, b, np.random.default_rng(0), n_boot=50)
    assert 0.0 < se < 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        dist.wasserstein1(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        dist.wasserstein2(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        dist.kolmogorov_to_std_normal(np.array([1.0]))
    with pytest.raises(ValueError):
        dist.kolmogorov_to_std_normal(np.array([1.0, np.inf]))
