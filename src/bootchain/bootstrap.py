"""Bootstrap Markov chains and higher-order bias correction.

The chain refits the estimator to data simulated from its own previous
state: state[j+1] = estimate(sample_data(state[j], n)). simulate_chain_block
is the one chain driver; its step argument swaps this bootstrap transition
(models.estimate_block) for another kernel with the same signature, such as
the Gaussian surrogate step gaussian.surrogate_step. Signed binomial
weights turn chain evaluations of f into Monte Carlo estimates of the
iterated bias operator applied to f, and the collapsed weights fold the
whole alternating partial sum of corrections into a single pass over one
chain: one length-k chain feeds every order j <= k through its prefixes.
Chain reuse correlates orders within a replicate but leaves the corrected
estimator unbiased for the weighted sum of state expectations; the standard
errors reported by the Monte Carlo layer absorb the correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals, models

MAX_ORDER = 12  # exact integer binomials; the interesting regime is small k


class EstimationError(RuntimeError):
    """Monte Carlo estimation failed (too many aborted chains)."""


ABORT_RATE_LIMIT = 0.01


@dataclass(frozen=True)
class DifferenceWeights:
    """w_j = (-1)^(k-j) C(k, j): k-th order difference along a chain."""

    order: int
    weights: tuple[int, ...]


@dataclass(frozen=True)
class CollapsedWeights:
    """v_i = (-1)^i C(k+1, i+1): one-pass weights summing all correction
    orders j <= k (hockey-stick collapse of the alternating double sum)."""

    order: int
    weights: tuple[int, ...]


def _check_order(k: int):
    if not (0 <= k <= MAX_ORDER):
        raise ValueError(f"order k must be in [0, {MAX_ORDER}], got {k}")


def difference_weights(k: int) -> DifferenceWeights:
    _check_order(k)
    w = tuple((-1) ** (k - j) * math.comb(k, j) for j in range(k + 1))
    return DifferenceWeights(order=k, weights=w)


def collapsed_weights(k: int) -> CollapsedWeights:
    _check_order(k)
    v = tuple((-1) ** i * math.comb(k + 1, i + 1) for i in range(k + 1))
    return CollapsedWeights(order=k, weights=v)


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
    w = np.array(difference_weights(j).weights, dtype=float)
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
    v = np.array(collapsed_weights(k).weights, dtype=float)
    per_chain = v @ functionals.value(f, states)  # (M,)
    valid = np.isfinite(per_chain)
    aborted = int(per_chain.shape[0] - valid.sum())
    if not np.any(valid):
        raise EstimationError("all chains aborted")
    vals = per_chain[valid]
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se, aborted


def fk_estimate_at(model, f, theta_hat, k: int, n: int, m: int, rng, step=None) -> float:
    """Bias-corrected estimate of f(theta) from the fitted value theta_hat.

    k = 0 is the plain plug-in f(theta_hat) and bypasses chain simulation;
    otherwise M chains of length k start at theta_hat and the collapsed
    weights realize the whole alternating correction sum in one pass.
    step is the chain's transition kernel (see simulate_chain_block):
    bootstrap chains by default, gaussian.surrogate_step for surrogate
    chains. Raises EstimationError when more than 1% of chains abort.
    """
    _check_order(k)
    theta_hat = np.asarray(theta_hat, dtype=float)
    if k == 0:
        return float(functionals.value(f, theta_hat))
    if m < 1:
        raise ValueError("need at least one chain when k >= 1")
    states = simulate_chain_block(model, theta_hat, k, n, m, rng, step)
    mean, _, aborted = fk_from_states(f, states)
    if aborted > ABORT_RATE_LIMIT * m:
        raise EstimationError(f"{aborted}/{m} chains aborted")
    return mean


def fk_estimate(model, f, data, k: int, n: int, m: int, rng) -> float:
    """Bias-corrected estimate of f(theta) from one observation set:
    fk_estimate_at started at theta_hat = estimate(model, data)."""
    return fk_estimate_at(model, f, models.estimate(model, data), k, n, m, rng)


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
