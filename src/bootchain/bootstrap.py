"""Bootstrap Markov chains and higher-order bias correction.

The chain refits the estimator to data simulated from its own previous
state: state[j+1] is theta_hat fitted to n observations drawn under
P_state[j]. chain_steps is the one stepping loop; its step argument swaps
this bootstrap transition (models.estimate_block) for another kernel with
the same signature, such as the Gaussian surrogate step
models.surrogate_step. Signed binomial weights turn chain evaluations of f
into Monte Carlo estimates of the iterated bias operator applied to f, and
the collapsed weights fold the whole alternating partial sum of
corrections into a single pass over one chain. One length-k chain feeds
every order j <= k through its prefixes: fk_estimate_at evaluates f once
on each step's states as chain_steps draws them, keeping only their
values, and folds each requested order from the leading rows of that value
array, each equal to what a run of that order alone computes from the same
stream. It takes a (B, d) block of fitted values: all chains of a block
step together through one kernel call per step, and each row is folded
exactly as a lone row's chains would be. Chain reuse correlates orders
within a replicate but leaves the corrected estimator unbiased for the
weighted sum of state expectations; the standard errors reported by the
Monte Carlo layer absorb the correlation. Chains that leave the model
domain abort: an order that lost more than 1% of a row's chains is NaN,
never an exception.

The kernels have a chain axis: chain_steps passes chains=M and a (B, 1, d)
block of starts at step 0, which the kernel fans out to the (B, M, d)
states of the M chains of each start, and the (B, M, d) states after that.
So the work that depends on the state alone runs once per start at step 0,
and f at the start, one value for any functional, serves both the plug-in
order and the fold's step-0 column. The M chains of one start are
antithetic: every kernel of the form theta + c L(theta) (symmetric driver
block) draws for the first h = ceil(M/2) chains and gives chain h+i the
negated draw of chain i (models._paired_step). Each chain keeps its law, so the
fold's expectation is unchanged, while the pair cancels the odd-order terms
of f(state) - f(start), the bulk of the fold's variance. Pairs never cross
starts, and the abort rule counts single chains.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import functionals, models

MAX_ORDER = 12  # exact integer binomials; the interesting regime is small k
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


def _as_block(model, rows, name: str) -> np.ndarray:
    """rows as a float (B, d) block, d = model.dim; else a ValueError."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValueError(f"{name} of shape {rows.shape}: expected a (B, d) block with d = {model.dim}")
    return rows


def chain_steps(model, starts, k: int, n: int, m: int, rng, step=None):
    """Step M chains from each row of a (B, d) block of starts k times,
    yielding the (B, M, d) states of steps 1, ..., k as they are drawn: the
    one stepping loop of the package. The next step reads the yielded
    array, so a consumer reads it and does not write to it.

    step(model, states, n, rng, chains=M) maps a (B, 1, d) or (B, M, d)
    block of states to the (B, M, d) states of the next step. Step 0 passes
    the B starts as (B, 1, d) and the kernel fans each out to its M chains,
    so the work that depends on the state alone runs once per start; every
    later step passes the (B, M, d) states. A symmetric kernel pairs each
    start's chains antithetically, and chains of different starts stay
    independent. None selects the bootstrap step models.estimate_block,
    looked up at call time. Aborted chains carry NaN from the step where
    their state left the model domain.
    """
    step = step or models.estimate_block
    states = starts[:, None, :]
    for _ in range(k):
        states = step(model, states, n, rng, chains=m)
        yield states


def _survivor_mean(per_chain: np.ndarray, m: int) -> np.ndarray:
    """Mean of each row's finite chains; NaN for a row that lost more than
    1% of its M chains, or all of them."""
    finite = np.isfinite(per_chain)
    if finite.all():
        return per_chain.mean(axis=1)
    out = np.full(per_chain.shape[0], math.nan)
    for i, keep in enumerate(finite):
        if m - keep.sum() <= ABORT_RATE_LIMIT * m:
            out[i] = per_chain[i, keep].mean()
    return out


def fk_estimate_at(model, f, theta_hat, orders, n: int, m: int, rng, step=None) -> np.ndarray:
    """Bias-corrected estimates of f(theta) of every requested order from a
    (B, d) block of fitted values theta_hat: shape (len(orders), B).

    Order 0 is the plain plug-in f(theta_hat). M chains of length
    max(orders) start at each finite row (none when that maximum is 0), f
    is evaluated once on each step's states as they are drawn (once per row
    at the start, which is also order 0), and order k >= 1 is the
    collapsed-weight fold of the values of their first k steps: since
    the chains draw step by step, that prefix is exactly the chain a run of
    order k alone would simulate. No array of all the states is kept.
    step is the chains' transition kernel (see chain_steps). Every order of
    a row with a non-finite theta_hat is NaN, and so is an order whose
    prefix lost more than 1% of that row's chains, or all of them.
    """
    orders = tuple(orders)
    for k in orders:
        _check_order(k)
    top = max(orders)
    if top > 0 and m < 1:
        raise ValueError("need at least one chain when k >= 1")
    theta_hat = _as_block(model, theta_hat, "theta_hat")
    finite = np.isfinite(theta_hat).all(axis=1)
    starts = theta_hat[finite]
    at_start = functionals.value(f, starts)
    # (starts, top+1, M), each start's values contiguous as for a lone chain;
    # step 0 is the start itself, and each later step is folded in as it is
    # drawn
    vals = np.empty((starts.shape[0], top + 1, m))
    if top > 0 and starts.shape[0]:
        vals[:, 0] = at_start[:, None]
        for j, states in enumerate(chain_steps(model, starts, top, n, m, rng, step), 1):
            vals[:, j] = functionals.value(f, states)
    out = np.full((len(orders), theta_hat.shape[0]), math.nan)
    for i, k in enumerate(orders):
        if k == 0:
            out[i, finite] = at_start
        else:
            out[i, finite] = _survivor_mean(np.array(collapsed_weights(k), dtype=float) @ vals[:, : k + 1], m)
    return out

