"""Step-0 fan-out of the chain kernels.

All M chains of a start begin at that start, so the chain driver hands the
kernel the B starts as a (B, 1, d) block and the kernel fans each out to its
M chains; later steps pass the (B, M, d) states. A paired kernel runs its
factor on the drawn half of a fan-out only and writes each twin as the
start minus its chain's increment. The chain states must be bit-identical
to a driver that materializes the M copies of each start and passes
(B, M, d) at step 0 too, for every kernel with an elementwise factor,
order, and parity of M; with a matrix factor they agree to a few ulps.
The bootstrap step of the Gaussian shift, Gaussian-mean included, is the
untruncated surrogate step on every block: starts with chains = 1 or M,
and states.
"""

import math
from functools import partial

import numpy as np
import pytest
from raw_reference import simulate_chain_block

from bootchain import bootstrap, functionals, models
from bootchain.experiments import derive_stream, unit_sin_theta

D = 3
WIDE = 33  # wide enough that BLAS rounds a row by the shape of the product it sits in
_MIX = np.eye(WIDE) + 0.1 * np.cos(np.add.outer(np.arange(WIDE), 2.0 * np.arange(WIDE)))
TRUNCATED = partial(models.surrogate_step, delta=1.5 / np.sqrt(50))  # cuts about half the draws

KERNELS = {
    "shift_identity": (
        models.GaussianShift(dim=D, noise_map=models.IdentityMap(scale=1.3)),
        None,
    ),
    "shift_constant_matrix": (
        models.GaussianShift(
            dim=WIDE, noise_map=models.ConstantMatrixMap(_MIX)
        ),
        None,
    ),
    "shift_diag_tanh": (
        models.GaussianShift(
            dim=D, noise_map=models.DiagTanhMap(a=np.full(D, 1.0), b=np.full(D, 0.5))
        ),
        None,
    ),
    "ic_rademacher": (models.IndependentComponents(dim=D, noise_dist="rademacher"), None),
    "ic_uniform": (models.IndependentComponents(dim=D, noise_dist="uniform"), None),
    "ic_centered_exponential": (
        models.IndependentComponents(dim=D, noise_dist="centered_exponential"),
        None,
    ),
    "ic_mixed": (
        models.IndependentComponents(
            dim=WIDE,
            noise_dist=("rademacher", "uniform", "gaussian") * 11,
            directions=_MIX,
        ),
        None,
    ),
    "ic_mixed_exponential": (
        models.IndependentComponents(
            dim=D, noise_dist=("rademacher", "centered_exponential", "uniform")
        ),
        None,
    ),
    "location_laplace": (models.location(dim=D, noise_dist="laplace", scale=0.7), None),
    "location_logistic": (models.location(dim=D, noise_dist="logistic"), None),
    "location_gaussian": (models.location(dim=D, noise_dist="gaussian", scale=1.5), None),
    "poisson": (models.ExponentialFamily(dim=D), None),
    "gaussian_mean": (models.gaussian_mean(D, 2.5), None),
    "surrogate_shift": (models.GaussianShift(dim=D), TRUNCATED),
    "surrogate_poisson": (models.ExponentialFamily(dim=D), TRUNCATED),
}


def materialized_chains(model, starts, k, n, m, rng, step):
    """The chain states of a driver that copies each start M times and
    passes the (B, M, d) copies at step 0 as well."""
    states = [np.repeat(starts[:, None, :], m, axis=1)]
    for _ in range(k):
        states.append(step(model, states[-1], n, rng, chains=m))
    return np.stack(states)


def _starts(b: int, d: int = D) -> np.ndarray:
    return np.array([unit_sin_theta(d) * (0.5 + 0.3 * i) for i in range(b)])


# BLAS rounds a row by the shape of the product it sits in, and the fan-out
# multiplies the (B h, d) drawn half where the materialized driver
# multiplies all (B M, d) drivers
MATRIX_FACTORS = ("shift_constant_matrix", "ic_mixed")
PLAIN_KERNELS = ("ic_centered_exponential", "ic_mixed_exponential", "poisson")


@pytest.mark.parametrize("m", [4, 7], ids=["even_M", "odd_M"])
@pytest.mark.parametrize("case", sorted(KERNELS))
def test_fan_out_matches_materialized_starts(case, m):
    model, step = KERNELS[case]
    step = step or models.estimate_block
    starts = _starts(3, model.dim)
    seed = 440 + sorted(KERNELS).index(case)
    for k in (1, 2, 3):
        got = simulate_chain_block(model, starts, k, 50, m, derive_stream(seed, k, 0), step)
        ref = materialized_chains(model, starts, k, 50, m, derive_stream(seed, k, 0), step)
        assert got.shape == (k + 1, 3, m, model.dim)
        if case not in MATRIX_FACTORS:
            assert np.array_equal(got, ref)
            continue
        # within a few ulps of each step's increment and state
        ulps = np.spacing(np.abs(ref[1:] - ref[:-1])) + np.spacing(np.abs(ref[1:]))
        assert np.array_equal(got[0], ref[0])
        assert np.all(np.abs(got[1:] - ref[1:]) <= 4.0 * ulps)


@pytest.mark.parametrize("m", [4, 7], ids=["even_M", "odd_M"])
@pytest.mark.parametrize("case", sorted(set(KERNELS) - set(PLAIN_KERNELS)))
def test_fan_out_twins_are_the_start_minus_the_drawn_increment(case, m, monkeypatch):
    # a paired kernel factors the drawn half of a (B, 1, d) fan-out only:
    # chain i < h is the start plus its increment and chain h+i the start
    # minus it, bit for bit, with a matrix factor too
    model, step = KERNELS[case]
    step = step or models.estimate_block
    seen, factor = [], models._factor

    def recording_factor(model, thetas, v):
        seen.append(factor(model, thetas, v))
        return seen[-1]  # the kernel finishes its increments in this array

    monkeypatch.setattr(models, "_factor", recording_factor)
    starts = _starts(3, model.dim)[:, None, :]
    got = step(model, starts, 50, derive_stream(467, m, 0), chains=m)
    (inc,) = seen
    h = (m + 1) // 2
    assert inc.shape == (3, h, model.dim)
    assert np.array_equal((starts + inc).view(np.int64), got[:, :h].view(np.int64))
    assert np.array_equal((starts - inc[:, : m // 2]).view(np.int64), got[:, h:].view(np.int64))


def test_zero_radius_freezes_the_twins_bit_for_bit():
    # delta = 0 cuts every draw, so each chain stays at its start. A twin is
    # the start minus +0.0, which keeps a -0.0 start coordinate; a drawn
    # chain is the start plus +0.0, which turns it into +0.0
    starts = _starts(3)
    starts[:, 1] = -0.0
    m, h = 7, 4
    model = KERNELS["shift_identity"][0]
    got = models.surrogate_step(model, starts[:, None], 50, derive_stream(468, 0, 0), 0.0, chains=m)
    frozen = np.repeat(starts[:, None], m, axis=1)
    assert np.array_equal(got, frozen)
    assert np.array_equal(got[:, h:].view(np.int64), frozen[:, h:].view(np.int64))
    assert not np.signbit(got[:, :h, 1]).any()


def test_truncation_fires_in_the_fan_out_cases():
    # the surrogate cases above cut some draws and keep others
    states = simulate_chain_block(
        models.GaussianShift(dim=D), _starts(3), 1, 50, 400, derive_stream(460, 0, 0), TRUNCATED
    )
    frozen = np.all(states[1] == states[0], axis=-1)
    assert 0.2 < frozen.mean() < 0.8


def test_poisson_overflowing_start_aborts_its_group_only():
    model = models.ExponentialFamily(dim=2)
    starts = np.array([[0.3, 0.1], [50.0, 0.0], [-0.2, 0.4]])
    m, n = 5, 20
    got = simulate_chain_block(model, starts, 2, n, m, derive_stream(461, 0, 0))
    assert np.isnan(got[1:, 1]).all()
    assert np.isfinite(got[:, [0, 2]]).all()
    # the aborted group draws nothing, so the others read as if it were absent
    alone = simulate_chain_block(model, starts[[0, 2]], 2, n, m, derive_stream(461, 0, 0))
    assert np.array_equal(got[:, [0, 2]], alone)


# the two step kernels as kernel(model, block, rng, chains)
STEP_KERNELS = (
    lambda model, block, rng, chains: models.estimate_block(model, block, 1, rng, chains),
    lambda model, block, rng, chains: models.surrogate_step(model, block, 1, rng, chains=chains),
)


def test_chain_blocks_only():
    # every kernel takes (B, 1, d) starts or (B, M, d) states with chains = M;
    # a (rows, d) block is refused at any chains, the shift (the surrogate
    # step) and the families that check their block in _chain_block alike
    rng = derive_stream(462, 0, 0)
    for case in ("shift_identity", "ic_rademacher", "poisson"):
        model = KERNELS[case][0]
        for kernel in STEP_KERNELS:
            for block, chains in ((np.zeros((10, D)), 1), (np.zeros((10, D)), 5), (np.zeros((2, 3, D)), 5)):
                with pytest.raises(ValueError, match="do not fit"):
                    kernel(model, block, rng, chains)
            assert kernel(model, np.zeros((10, 1, D)), rng, 1).shape == (10, 1, D)
            assert kernel(model, np.zeros((2, 1, D)), rng, 5).shape == (2, 5, D)


def test_chain_block_rounds_as_its_flat_rows():
    # a matrix factor multiplies the (B, M, d) drivers as one (B M, d)
    # product, the layout chain blocks had before they gained a chain axis
    model = KERNELS["shift_constant_matrix"][0]
    b, m, n = 3, 7, 50
    states = np.repeat(_starts(b, WIDE)[:, None, :], m, axis=1)
    got = models.estimate_block(model, states, n, derive_stream(465, 0, 0), chains=m)
    z = derive_stream(465, 0, 0).standard_normal((b, 4, WIDE))
    z = np.concatenate([z, -z[:, :3]], axis=1).reshape(-1, WIDE)
    flat = states.reshape(-1, WIDE) + (z @ _MIX.T) / np.sqrt(n)
    assert np.array_equal(got, flat.reshape(b, m, WIDE))


FUNCTIONALS = {
    "quadratic": functionals.quadratic_form(),
    "radial": functionals.radial("exp_neg"),
    "linear": functionals.linear(np.linspace(-1.1, 0.7, WIDE)),
    "exp_linear": functionals.exp_linear(np.linspace(-0.3, 0.2, WIDE)),
    "quadratic_matrix": functionals.quadratic_form(_MIX),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_fold_matches_materialized_chains(name):
    # f at a start serves order 0 and the fold's step-0 column for every
    # functional, and each later step is f on the materialized chain states:
    # every order has the bits of that fold
    f = FUNCTIONALS[name]
    model = models.GaussianShift(dim=WIDE)
    starts = _starts(3, WIDE)
    n, m, orders = 50, 7, (0, 1, 2, 3)
    got = bootstrap.fk_estimate_at(model, f, starts, orders, n, m, derive_stream(463, 0, 0))
    states = materialized_chains(
        model, starts, 3, n, m, derive_stream(463, 0, 0), models.estimate_block
    )
    vals = np.ascontiguousarray(functionals.value(f, states).swapaxes(0, 1))
    vals[:, 0] = functionals.value(f, starts)[:, None]
    assert np.array_equal(got[0], functionals.value(f, starts))
    for i, k in enumerate(orders[1:], start=1):
        per_chain = np.array(bootstrap.collapsed_weights(k), dtype=float) @ vals[:, : k + 1]
        assert np.array_equal(got[i], per_chain.mean(axis=1))


@pytest.mark.parametrize("d", [1, 2, 5, 8, 17, 63, 178, 503])
def test_row_local_values_ignore_the_batch(d):
    rng = derive_stream(464, d, 0)
    rows = rng.standard_normal((3, d))
    copies = np.ascontiguousarray(np.broadcast_to(rows[:, None, :], (3, 6, d)))
    # the variants summed by functionals._row_dot round a row alike in any batch
    for f in (
        functionals.quadratic_form(), functionals.radial("exp_neg"), functionals.radial("log1p")
    ):
        once = np.broadcast_to(functionals.value(f, rows)[:, None], (3, 6))
        assert np.array_equal(once, functionals.value(f, copies))


def _step_blocks(d: int):
    """A (B, 1, d) block of independent starts with chains = 1, a (B, 1, d)
    block of starts and a (B, M, d) block of states, each with its chains."""
    starts = _starts(3, d)
    states = np.repeat(starts[:, None, :], 5, axis=1)
    return (np.tile(starts, (2, 1))[:, None, :], 1), (starts[:, None, :], 4), (states, 5)


@pytest.mark.parametrize("case", ["shift_identity", "shift_constant_matrix", "shift_diag_tanh"])
def test_shift_bootstrap_step_is_the_untruncated_surrogate_step(case):
    # theta_hat ~ N(theta, Sigma(theta)/n) exactly: the same kernel, bit for bit
    model = KERNELS[case][0]
    for i, (block, m) in enumerate(_step_blocks(model.dim)):
        got = models.estimate_block(model, block, 50, derive_stream(465, i, 0), chains=m)
        want = models.surrogate_step(model, block, 50, derive_stream(465, i, 0), math.inf, chains=m)
        assert np.array_equal(got, want)


def test_gaussian_mean_step_is_theta_plus_z_over_sqrt_vn():
    base, n = np.array([0.5, 2.0, 7.0]), 50
    model = models.gaussian_mean(D, base)
    for i, (block, m) in enumerate(_step_blocks(D)):
        rng, ref = derive_stream(466, i, 0), derive_stream(466, i, 0)
        got = models.estimate_block(model, block, n, rng, chains=m)
        # the first ceil(M/2) chains draw, their twins take the negation
        half = ref.standard_normal((block.shape[0], (m + 1) // 2, D))
        z = np.concatenate([half, -half[:, : m // 2]], axis=1)
        assert rng.integers(2**62) == ref.integers(2**62)  # both streams drew as much
        # L z / sqrt(n) multiplies by 1/sqrt(v), then divides by sqrt(n): a few ulps off one sqrt(v n)
        step = z / np.sqrt(base * n)
        want = block + step
        ulps = np.spacing(np.abs(step)) + np.spacing(np.abs(want))
        assert np.all(np.abs(got - want) <= 4.0 * ulps)
