"""Bootstrap Markov chains and higher-order bias correction.

The chain refits the estimator to data simulated from its own previous
state: state[j+1] = estimate(sample_data(state[j], n)). simulate_chain_block
is the one chain driver; its step argument swaps this bootstrap transition
(models.estimate_block) for another kernel with the same signature, such as
the Gaussian surrogate step gaussian.surrogate_step. Signed binomial
weights turn chain evaluations of f into Monte Carlo estimates of the
iterated bias operator applied to f, and the collapsed weights fold the
whole alternating partial sum of corrections into a single pass over one
chain. One length-k chain feeds every order j <= k through its prefixes:
fk_estimate_at returns all requested orders from one simulation, each equal
to what a run of that order alone computes from the same stream. Chain
reuse correlates orders within a replicate but leaves the corrected
estimator unbiased for the weighted sum of state expectations; the standard
errors reported by the Monte Carlo layer absorb the correlation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import functionals, models

MAX_ORDER = 12  # exact integer binomials; the interesting regime is small k


class EstimationError(RuntimeError):
    """Monte Carlo estimation failed (too many aborted chains)."""


ABORT_RATE_LIMIT = 0.01


def _check_order(k: int):
    if not (0 <= k <= MAX_ORDER):
        raise ValueError(f"order k must be in [0, {MAX_ORDER}], got {k}")


@lru_cache(maxsize=None)
def difference_weights(k: int) -> tuple[int, ...]:
    """w_j = (-1)^(k-j) C(k, j): k-th order difference along a chain."""
    _check_order(k)
    return tuple((-1) ** (k - j) * math.comb(k, j) for j in range(k + 1))


@lru_cache(maxsize=None)
def collapsed_weights(k: int) -> tuple[int, ...]:
    """v_i = (-1)^i C(k+1, i+1): one-pass weights summing all correction
    orders j <= k (hockey-stick collapse of the alternating double sum)."""
    _check_order(k)
    return tuple((-1) ** i * math.comb(k + 1, i + 1) for i in range(k + 1))


def simulate_chain_block(model, start, k: int, n: int, m: int, rng, step=None) -> np.ndarray:
    """M independent chains at once: returns states of shape (k+1, M, d).

    start may be a single (d,) vector (all chains share it) or an (M, d)
    block of starting points. step(model, states, n, rng) maps the (M, d)
    states to the next ones; None selects the bootstrap step
    models.estimate_block, looked up at call time. Aborted chains carry NaN
    from the step where their state left the model domain.
    """
    step = step or models.estimate_block
    start = np.asarray(start, dtype=float)
    if start.ndim == 1:
        start = np.broadcast_to(start, (m, start.shape[0]))
    if start.shape[0] != m:
        raise ValueError("start block size mismatch")
    states = np.empty((k + 1,) + start.shape)
    states[0] = start
    for j in range(k):
        states[j + 1] = step(model, states[j], n, rng)
    return states


def estimate_Bjf(model, f, theta, j: int, n: int, m: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of the j-times-iterated bias operator at theta.

    Averages the j-th order difference of f along M independent chains;
    returns (mean, standard error).
    """
    if j < 1:
        raise ValueError("order j must be >= 1")
    if m < 2:
        raise ValueError("need at least 2 chains for a standard error")
    w = np.array(difference_weights(j), dtype=float)
    states = simulate_chain_block(model, theta, j, n, m, rng)
    vals = w @ functionals.value(f, states)  # (M,)
    vals = vals[np.isfinite(vals)]
    if len(vals) < 2:
        raise EstimationError("fewer than 2 chains survived")
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def fk_from_states(f, states: np.ndarray) -> tuple[float, float, int]:
    """Collapsed-weight fold over simulated chains.

    Returns (mean, standard error, aborted-chain count) of the one-pass
    corrected value over the valid chains in states (shape (k+1, M, d)).
    """
    k = states.shape[0] - 1
    v = np.array(collapsed_weights(k), dtype=float)
    per_chain = v @ functionals.value(f, states)  # (M,)
    valid = np.isfinite(per_chain)
    aborted = int(per_chain.shape[0] - valid.sum())
    if not np.any(valid):
        raise EstimationError("all chains aborted")
    vals = per_chain[valid]
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se, aborted


def fk_estimate_at(model, f, theta_hat, orders, n: int, m: int, rng, step=None) -> np.ndarray:
    """Bias-corrected estimates of f(theta) of every requested order from the
    fitted value theta_hat, one entry per element of orders.

    Order 0 is the plain plug-in f(theta_hat). M chains of length
    max(orders) start at theta_hat (none when that maximum is 0), and order
    k >= 1 is the collapsed-weight fold over their first k steps: since the
    chains draw step by step, that prefix is exactly the chain a run of
    order k alone would simulate. step is the chains' transition kernel (see
    simulate_chain_block): bootstrap chains by default,
    gaussian.surrogate_step for surrogate chains. An order whose prefix lost
    more than 1% of its chains, or all of them, is NaN.
    """
    orders = tuple(orders)
    for k in orders:
        _check_order(k)
    theta_hat = np.asarray(theta_hat, dtype=float)
    out = np.empty(len(orders))
    top = max(orders)
    if top > 0:
        if m < 1:
            raise ValueError("need at least one chain when k >= 1")
        states = simulate_chain_block(model, theta_hat, top, n, m, rng, step)
    for i, k in enumerate(orders):
        if k == 0:
            out[i] = functionals.value(f, theta_hat)
            continue
        try:
            mean, _, aborted = fk_from_states(f, states[: k + 1])
        except EstimationError:  # every chain aborted
            mean, aborted = math.nan, m
        out[i] = mean if aborted <= ABORT_RATE_LIMIT * m else math.nan
    return out


def fk_estimate(model, f, data, k: int, n: int, m: int, rng) -> float:
    """Bias-corrected estimate of f(theta) from one observation set:
    fk_estimate_at started at theta_hat = estimate(model, data). Raises
    EstimationError when more than 1% of the chains abort."""
    est = float(fk_estimate_at(model, f, models.estimate(model, data), (k,), n, m, rng)[0])
    if k > 0 and math.isnan(est):
        raise EstimationError(f"more than {ABORT_RATE_LIMIT:.0%} of {m} chains aborted")
    return est


def bias_oracle_exp(theta, u, sigma2: float, n: int, k: int) -> float:
    """Exact bias magnitude of the order-k corrected estimator for
    f = exp(<., u>) under the constant-noise shift model with Sigma =
    sigma2 * I.

    There Tf = f * e^a with a = sigma2 ||u||^2 / (2n) (Gaussian MGF), so
    each application of the bias operator multiplies f by (e^a - 1) and the
    corrected estimator's bias is f(theta) (e^a - 1)^(k+1), with sign
    (-1)^k.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if sigma2 < 0:
        raise ValueError("noise variance must be >= 0")
    a = sigma2 * float(u @ u) / (2.0 * n)
    return float(np.exp(theta @ u) * math.expm1(a) ** (k + 1))
