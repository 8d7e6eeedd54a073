import math

import numpy as np
import pytest
from raw_reference import raw_estimate, raw_gaussian_mean, sigma

from bootchain import models
from bootchain.experiments import derive_stream, unit_sin_theta


def test_gaussian_shift_clt_mean_bound():
    # MC oracle: the average of N draws of X - theta is N(0, I d/(n N)) exact,
    # so its norm stays under 4 sqrt(d/(n N)) with overwhelming probability
    d, n, reps = 3, 4, 100_000
    model = models.GaussianShift(dim=d)
    theta = unit_sin_theta(d)
    rng = derive_stream(101, 0, 0)
    acc = np.zeros(d)
    for _ in range(reps):
        acc += models.estimate_block(model, theta[None, None, :], n, rng)[0, 0] - theta
    assert np.linalg.norm(acc / reps) <= 4.0 * math.sqrt(d / (n * reps))


def test_rademacher_draws_have_pm1_support():
    model = models.IndependentComponents(dim=4, noise_dist="rademacher")
    rng = derive_stream(102, 0, 0)
    # a mean of n = 1 draws is the draw itself, on both sampling paths
    raw = [raw_estimate(model, np.zeros(4), 1, rng) for _ in range(16)]
    assert set(np.unique(raw)) == {-1.0, 1.0}
    block = models.estimate_block(model, np.zeros((64, 1, 4)), 1, rng)
    assert set(np.unique(block)) == {-1.0, 1.0}


def test_poisson_coordinate_means_near_one():
    # the raw counts the sum-law tests compare the Poisson kernel against
    model = models.ExponentialFamily(dim=2)
    rng = derive_stream(103, 0, 0)
    n = 100_000
    xbar = np.exp(raw_estimate(model, np.zeros(2), n, rng))  # the MLE is log(Xbar)
    se = math.sqrt(1.0 / n)  # Poisson variance e^0 = 1
    assert np.all(np.abs(xbar - 1.0) <= 3.0 * se)


def test_poisson_mle_and_fallback():
    got = models._mle_from_mean(np.zeros(2))
    assert np.allclose(got, np.log(1e-6))  # clamp rule

    xbar = np.array([1.0, math.e])
    assert np.allclose(models._mle_from_mean(xbar), [0.0, 1.0], atol=1e-15)


def test_block_poisson_mle_is_the_row_mle():
    # n e^theta = (0.25, 0.68): about 9 rows in 10 have a zero count
    model = models.ExponentialFamily(dim=2)
    n, thetas = 5, np.broadcast_to([-3.0, -2.0], (200, 2))
    block = models.estimate_block(model, thetas[:, None], n, derive_stream(114, 0, 0))[:, 0]
    xbars = derive_stream(114, 0, 0).poisson(n * np.exp(thetas)) / n
    assert 0.5 < np.mean(np.any(xbars == 0, axis=1)) < 1.0
    for got, xbar in zip(block, xbars):
        assert np.array_equal(got, models._mle_from_mean(xbar))


def test_sample_xi_identity_covariance():
    model = models.GaussianShift(dim=3)
    rng = derive_stream(105, 0, 0)
    xi = models._factor(model, np.zeros((100_000, 1, 3)), rng.standard_normal((100_000, 1, 3)))[:, 0]
    emp = xi.T @ xi / xi.shape[0]
    assert np.abs(emp - np.eye(3)).max() <= 0.05


def test_zero_noise_map_gives_zero_xi():
    model = models.GaussianShift(dim=3, noise_map=models.IdentityMap(scale=0.0))
    rng = derive_stream(106, 0, 0)
    z = rng.standard_normal((1, 1, 3))
    assert np.array_equal(models._factor(model, np.ones((1, 1, 3)), z), np.zeros((1, 1, 3)))


def test_poisson_surrogate_covariance_is_inverse_fisher():
    # the MLE log(Xbar) has Fisher information Psi'(theta) = diag(e^theta)
    model = models.ExponentialFamily(dim=3)
    theta = np.array([-0.5, 0.0, 1.0])
    assert np.allclose(sigma(model, theta), np.diag(np.exp(-theta)))
    # MC sanity on the sampler variance
    rng = derive_stream(107, 0, 0)
    xi = models._factor(model, np.broadcast_to(theta, (50_000, 1, 3)), rng.standard_normal((50_000, 1, 3)))[:, 0]
    emp_var = xi.var(axis=0)
    se = np.exp(-theta) * math.sqrt(2.0 / 50_000)
    assert np.all(np.abs(emp_var - np.exp(-theta)) <= 5.0 * se)


def test_sigma_examples():
    ic = models.IndependentComponents(dim=3, noise_dist="gaussian")
    assert np.allclose(sigma(ic, np.zeros(3)), np.eye(3))

    loc = models.location(dim=2, noise_dist="laplace", scale=[0.5, 2.0])
    assert np.allclose(sigma(loc, np.zeros(2)), np.diag([2 * 0.5**2, 2 * 2.0**2]))
    # each location noise's own variance at scale s: 2 s^2 for Laplace(s),
    # pi^2 s^2 / 3 for logistic(s), s^2 for normal(s)
    s = np.array([0.5, 2.0, 1.5])
    loc = models.location(dim=3, noise_dist=("laplace", "logistic", "gaussian"), scale=s)
    assert np.allclose(sigma(loc, np.zeros(3)), np.diag(np.array([2.0, math.pi**2 / 3, 1.0]) * s**2))

    dmap = models.DiagTanhMap(a=np.array([2.0, 3.0]), b=np.array([0.5, -1.0]))
    gs = models.GaussianShift(dim=2, noise_map=dmap)
    theta = np.array([0.3, -0.7])
    diag = dmap.a + dmap.b * np.tanh(theta)
    assert np.allclose(sigma(gs, theta), np.diag(diag**2))


def test_sigma_of_mixed_independent_components():
    # X = theta + A sum_j eta_j x_j with unit-variance eta_j and x_j the
    # columns of D: Cov = A D D^T A^T, for a D that is neither symmetric
    # nor orthogonal
    D = np.array([[1.0, 0.4, 0.0], [-0.3, 1.0, 0.7], [0.2, 0.0, 1.5]])
    A = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, -0.4], [0.3, 0.0, 0.8]])
    model = models.IndependentComponents(
        dim=3, noise_dist="rademacher", directions=D, noise_map=models.ConstantMatrixMap(A)
    )
    assert np.allclose(sigma(model, np.zeros(3)), A @ D @ D.T @ A.T)


@pytest.mark.parametrize(
    "model",
    [
        models.GaussianShift(dim=3),
        models.IndependentComponents(dim=3, noise_dist=("rademacher", "uniform", "centered_exponential")),
        models.ExponentialFamily(dim=3),
        models.location(dim=3, noise_dist=("laplace", "logistic", "gaussian")),
    ],
)
def test_estimator_consistency_median_decreasing(model):
    theta = unit_sin_theta(3) * 0.5
    reps = 200
    medians = []
    for i, n in enumerate((100, 400, 1600)):
        rng = derive_stream(108, i, 0)
        hats = models.estimate_block(model, np.broadcast_to(theta, (reps, 1, 3)), n, rng)[:, 0]
        medians.append(np.median(np.linalg.norm(hats - theta, axis=1)))
    inversions = sum(medians[i + 1] >= medians[i] for i in range(2))
    assert inversions <= 1


@pytest.mark.parametrize(
    "model, theta, n",
    [
        pytest.param(
            models.GaussianShift(
                dim=3,
                noise_map=models.DiagTanhMap(a=np.array([2.0, 3.0, 1.5]), b=np.array([0.5, -1.0, 0.2])),
            ),
            [0.3, -0.7, 0.1],
            50,
            id="shift_diag_tanh",
        ),
        pytest.param(
            models.GaussianShift(
                dim=3,
                noise_map=models.ConstantMatrixMap(
                    np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.3], [0.2, 0.0, 2.0]])
                ),
            ),
            [0.3, -0.7, 0.1],
            50,
            id="shift_constant",
        ),
        pytest.param(
            models.IndependentComponents(
                dim=3,
                noise_dist=("rademacher", "centered_exponential", "gaussian"),
                directions=np.array([[1.0, 0.0, 0.3], [0.2, 1.0, 0.0], [0.0, -0.4, 1.0]]).T,
                noise_map=models.DiagTanhMap(a=np.array([1.5, 2.0, 1.0]), b=np.array([0.5, -0.5, 0.0])),
            ),
            [0.2, -0.1, 0.4],
            50,
            id="ic",
        ),
        pytest.param(
            models.IndependentComponents(
                dim=3,
                noise_dist=("uniform", "rademacher", "uniform"),
                noise_map=models.DiagTanhMap(a=np.array([1.5, 2.0, 1.0]), b=np.array([0.5, -0.5, 0.0])),
            ),
            [0.2, -0.1, 0.4],
            50,
            id="ic_uniform",
        ),
        # n e^theta >= 1213: the delta-method error is well inside the band
        pytest.param(
            models.ExponentialFamily(dim=3), [-0.5, 0.0, 1.0], 2000, id="poisson"
        ),
        pytest.param(
            models.gaussian_mean(3, [0.5, 2.0, 4.0]),
            [1.0, -0.5, 0.2],
            50,
            id="gaussian_mean",
        ),
        pytest.param(
            models.location(dim=3, noise_dist=("laplace", "logistic", "gaussian"), scale=[0.5, 1.0, 2.0]),
            [0.2, -0.1, 0.4],
            50,
            id="location",
        ),
    ],
)
def test_estimator_covariance_matches_sigma(model, theta, n):
    # Sigma(theta) is the covariance of sqrt(n)(theta_hat - theta)
    theta = np.asarray(theta)
    reps = 10_000
    rng = derive_stream(109, 0, 0)
    hats = models.estimate_block(model, np.broadcast_to(theta, (reps, 1, 3)), n, rng)[:, 0]
    dev = math.sqrt(n) * (hats - theta)
    emp = dev.T @ dev / reps
    sig = sigma(model, theta)
    se = np.sqrt((np.outer(np.diag(sig), np.diag(sig)) + sig**2) / reps)
    assert np.all(np.abs(emp - sig) <= 5.0 * se)


def test_poisson_domain_errors():
    # a rate outside the sampling domain is a NaN row, and it draws nothing
    model = models.ExponentialFamily(dim=2)
    n = 100
    thetas = np.array(
        [
            [800.0, 0.0],  # e^theta overflows
            [25.0, 0.0],  # n e^theta > POISSON_LAM_MAX
            [0.5, -0.3],
        ]
    )
    out = models.estimate_block(model, thetas[:, None], n, derive_stream(110, 0, 0))[:, 0]
    assert np.isnan(out[:2]).all()
    alone = models.estimate_block(model, thetas[2:, None], n, derive_stream(110, 0, 0))[:, 0]
    assert np.isfinite(alone).all() and np.array_equal(out[2:], alone)


def test_estimate_block_marks_aborted_rows():
    model = models.ExponentialFamily(dim=1)
    rng = derive_stream(111, 0, 0)
    thetas = np.array([[0.0], [40.0]])
    out = models.estimate_block(model, thetas[:, None], 10, rng)[:, 0]
    assert np.isfinite(out[0, 0])
    assert np.isnan(out[1, 0])


@pytest.mark.parametrize(
    "model",
    [
        models.location(dim=3, noise_dist="logistic"),
        models.IndependentComponents(dim=3, noise_dist="uniform"),
    ],
    ids=["logistic", "ic_uniform"],
)
def test_estimate_block_does_not_depend_on_the_chunk_budget(model, monkeypatch):
    thetas = np.zeros((40, 1, 3))
    default = models.estimate_block(model, thetas, 50, derive_stream(120, 0, 0))
    monkeypatch.setattr(models, "_CHUNK_SCALARS", 7)  # one raw-draw row per chunk
    tiny = models.estimate_block(model, thetas, 50, derive_stream(120, 0, 0))
    assert np.array_equal(tiny, default)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        models.DiagTanhMap(a=np.array([1.0]), b=np.array([1.0]))  # needs a > |b|
    with pytest.raises(ValueError):
        models.IndependentComponents(dim=2, directions=np.ones((2, 2)))  # rank 1
    with pytest.raises(ValueError):
        models.IndependentComponents(dim=2, noise_dist=("rademacher",))
    with pytest.raises(ValueError):
        models.location(dim=2, noise_dist="laplace", scale=0.0)
    with pytest.raises(ValueError):
        models.location(dim=2, noise_dist="laplace", scale=math.inf)
    with pytest.raises(ValueError):
        models.location(dim=2, noise_dist="rademacher")  # not a log-concave location noise
    for base in (0.0, [-1.0, 1.0], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="base variances must be finite and positive"):
            models.gaussian_mean(2, base)
    with pytest.raises(ValueError):
        models.location(dim=2, noise_dist="cauchy")
    for scale in ([1.0, -0.5], [1.0, math.inf]):
        with pytest.raises(ValueError):
            models.IdentityMap(scale=np.array(scale))
    # the two builders check dim before they broadcast their parameters to it
    builders = (models.location, models.gaussian_mean)
    for build in (models.GaussianShift, models.IndependentComponents, models.ExponentialFamily, *builders):
        for dim in (True, 2.5, "3", 0):
            with pytest.raises(ValueError, match="dim must be an integer >= 1"):
                build(dim)
        assert type(build(np.int64(2)).dim) is int
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="directions must be finite"):
            models.IndependentComponents(dim=2, directions=np.array([[1.0, bad], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "noise_map",
    [
        models.IdentityMap(np.ones(2)),
        models.DiagTanhMap(a=np.full(2, 1.0), b=np.full(2, 0.5)),
        models.ConstantMatrixMap(np.eye(2)),
    ],
    ids=["identity", "diag_tanh", "constant"],
)
@pytest.mark.parametrize("family", [models.GaussianShift, models.IndependentComponents])
def test_noise_map_of_another_dimension_is_rejected(family, noise_map):
    with pytest.raises(ValueError, match=r"shape \(2,.*dim = 3 needs \(3,"):
        family(dim=3, noise_map=noise_map)
    family(dim=2, noise_map=noise_map)


def test_number_scales_fit_every_dimension():
    for noise_map in (models.IdentityMap(1.5), models.DiagTanhMap(a=1.0, b=0.5)):
        for dim in (1, 4):
            models.GaussianShift(dim=dim, noise_map=noise_map)
            models.IndependentComponents(dim=dim, noise_map=noise_map)


def test_gaussian_mean_family():
    # the shift that gaussian_mean builds has Sigma = diag(1/v), the inverse Fisher
    # information, and the raw-draw MLE the sum-law tests compare it with is consistent
    base = np.array([0.5, 2.0])
    model = models.gaussian_mean(2, base)
    theta = np.array([1.0, -0.5])
    assert np.allclose(sigma(model, theta), np.diag(1.0 / base))  # theta_hat = Xbar / v
    rng = derive_stream(113, 0, 0)
    hat = raw_gaussian_mean(base, theta, 4000, rng)
    assert np.linalg.norm(hat - theta) <= 0.2  # sd ~ sqrt(1/(v n)) per coord
