"""The streamed fold of fk_estimate_at against the stacked reference.

fk_estimate_at evaluates f on each step's states as bootstrap.chain_steps
draws them and keeps only the values. Its every order must carry the bits
of the stacked computation: all states from simulate_chain_block, f at the
starts for step 0 and on the stacked later states, then the collapsed-weight
fold. The digests of the stream contract round to 1e-12, so only
np.array_equal sees a last-bit drift.
"""

import math
from functools import partial

import numpy as np
import pytest
from raw_reference import simulate_chain_block

from bootchain import bootstrap, functionals, models
from bootchain.experiments import derive_stream, unit_sin_theta

N = 50


def stacked_fold(model, f, theta_hat, orders, n, m, rng, step=None):
    """Every order from the stacked states of the finite rows; NaN for the
    others and for an order that lost more than 1% of a row's chains."""
    rows = np.asarray(theta_hat, dtype=float)
    finite = np.isfinite(rows).all(axis=1)
    out = np.full((len(orders), rows.shape[0]), math.nan)
    top = max(orders)
    states = simulate_chain_block(model, rows[finite], top, n, m, rng, step)
    at_start = functionals.value(f, rows[finite])
    vals = np.ascontiguousarray(functionals.value(f, states).swapaxes(0, 1))
    vals[:, 0] = at_start[:, None]
    for i, k in enumerate(orders):
        if k == 0:
            out[i, finite] = at_start
        else:
            weights = np.array(bootstrap.collapsed_weights(k), dtype=float)
            out[i, finite] = bootstrap._survivor_mean(weights @ vals[:, : k + 1], m)
    return out


def variants(d: int) -> dict:
    u = np.linspace(-0.9, 0.6, d)
    q = np.eye(d) + 0.2 * np.sin(np.add.outer(np.arange(d), 3.0 * np.arange(d)))
    return {
        "linear": functionals.linear(u),
        "power": functionals.power(u, 3),
        "exp_linear": functionals.exp_linear(0.5 * u),
        "quadratic": functionals.quadratic_form(),
        "quadratic_matrix": functionals.quadratic_form(q),
        "radial_exp_neg": functionals.radial("exp_neg"),
        "radial_log1p": functionals.radial("log1p"),
    }


STEPS = {
    "bootstrap": (
        lambda d: models.GaussianShift(
            dim=d, noise_map=models.DiagTanhMap(a=np.full(d, 1.0), b=np.full(d, 0.4))
        ),
        None,
    ),
    "surrogate": (
        lambda d: models.IndependentComponents(dim=d, noise_dist="rademacher"),
        partial(models.surrogate_step, delta=1.2 / math.sqrt(N)),
    ),
}


@pytest.mark.parametrize("d", [3, 9])
@pytest.mark.parametrize("kernel", sorted(STEPS))
@pytest.mark.parametrize("name", sorted(variants(3)))
def test_streamed_fold_is_the_stacked_fold(name, kernel, d):
    make, step = STEPS[kernel]
    model, f = make(d), variants(d)[name]
    starts = np.array([unit_sin_theta(d) * (0.3 + 0.2 * i) for i in range(6)])
    seed = 470 + sorted(variants(3)).index(name)
    for top in (1, 2, 3):
        orders = tuple(range(top + 1))
        got = bootstrap.fk_estimate_at(model, f, starts, orders, N, 37, derive_stream(seed, top, 0), step)
        ref = stacked_fold(model, f, starts, orders, N, 37, derive_stream(seed, top, 0), step)
        assert np.isfinite(ref).all()
        assert np.array_equal(got, ref)


def test_streamed_fold_keeps_nan_rows_and_aborted_chains():
    # a Poisson chain whose rate passes models.POISSON_LAM_MAX aborts: the row
    # started at that edge loses about half its chains at step 2; the row
    # just below it loses 1% of them by step 2 (the limit at M = 200) and
    # more by step 3, so its order 2 folds the survivors and order 3 is NaN
    model = models.ExponentialFamily(dim=3)
    edge = math.log(models.POISSON_LAM_MAX / N)
    theta_hat = np.array(
        [
            [0.2, -0.1, 0.4],
            [math.nan, 0.0, 0.0],
            [edge - 1e-9, 0.0, 0.1],
            [edge - 2.6e-6, 0.3, 0.0],
            [math.inf, 0.2, 0.0],
            [-0.3, 0.5, 0.1],
        ]
    )
    f, orders, m = functionals.quadratic_form(), (0, 1, 2, 3), 200
    got = bootstrap.fk_estimate_at(model, f, theta_hat, orders, N, m, derive_stream(480, 0, 0))
    ref = stacked_fold(model, f, theta_hat, orders, N, m, derive_stream(480, 0, 0))
    assert np.array_equal(got, ref, equal_nan=True)
    finite = theta_hat[[0, 2, 3, 5]]
    states = simulate_chain_block(model, finite, 3, N, m, derive_stream(480, 0, 0))
    lost = np.isnan(states).any(axis=-1).sum(axis=-1)  # (step, row)
    assert lost[-1, 0] == lost[-1, 3] == 0 and lost[2, 1] > m // 4
    assert 0 < lost[2, 2] <= m // 100 < lost[3, 2]
    assert np.isnan(got[:, [1, 4]]).all() and np.isnan(got[2:, 2]).all()
    assert np.isfinite(got[:3, 3]).all() and np.isnan(got[3, 3])
    assert np.isfinite(got[:, [0, 5]]).all()
