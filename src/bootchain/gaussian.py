"""Gaussian-surrogate chains, truncation, and the limiting standard deviation.

The surrogate chain replaces the bootstrap transition (resample data, refit)
by the additive Gaussian step state + xi(state)/sqrt(n): surrogate_step is
that transition kernel, and bootstrap.simulate_chain_block runs it through
the same chain driver as the bootstrap step; the corrected estimator on
surrogate chains is bootstrap.fk_estimate_at with
step=partial(surrogate_step, trunc=...). Truncation zeroes a drawn xi
when its norm reaches delta*sqrt(n), so each truncated step moves the state
by strictly less than delta and a chain started at theta stays within
k*delta of it after k steps.

Truncation here is per draw, on the norm of xi at the current state. An
alternative rule would condition on the sup of the noise process over all
states, but that sup is not observable for state-dependent noise; for
constant-noise models the two events coincide, and at the default delta the
truncation probability is negligible by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals, models


@dataclass(frozen=True)
class TruncationRule:
    """Zero a drawn xi(theta) when ||xi(theta)|| >= delta * sqrt(n)."""

    delta: float
    n: int

    def __post_init__(self):
        if not (self.delta > 0 and self.n >= 1):
            raise ValueError("need delta > 0 and n >= 1")

    @property
    def threshold(self) -> float:
        return self.delta * math.sqrt(self.n)


@dataclass(frozen=True)
class HomotopyFlags:
    """Binary time flags (t_1, ..., t_k) selecting which surrogate steps fire."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("flags must be binary")
        object.__setattr__(self, "bits", bits)


def default_delta(model, theta, n: int) -> float:
    """delta = 3 sqrt(tr Sigma(theta) / n): truncation probability ~ 0 at the
    configured scale (Gaussian norm concentration)."""
    tr = float(np.trace(models.sigma(model, theta)))
    return 3.0 * math.sqrt(tr / n)


def _truncate(xi: np.ndarray, trunc: TruncationRule | None) -> np.ndarray:
    if trunc is None:
        return xi
    norms = np.linalg.norm(xi, axis=-1)
    return np.where((norms >= trunc.threshold)[..., None], 0.0, xi)


def surrogate_step(model, states, n: int, rng, trunc: TruncationRule | None = None) -> np.ndarray:
    """One surrogate step for a block of states: states + trunc(xi(states))/sqrt(n)."""
    return states + _truncate(models.sample_xi_block(model, states, rng), trunc) / math.sqrt(n)


def sigma_f(model, f, theta) -> float:
    """Limiting standard deviation sqrt(<Sigma(theta) f'(theta), f'(theta)>),
    clamped at zero against rounding."""
    theta = np.asarray(theta, dtype=float)
    g = functionals.grad(f, theta)
    quad = float(g @ models.sigma(model, theta) @ g)
    return math.sqrt(max(quad, 0.0))


def superposition_block(model, theta, flags, n: int, m: int, rng) -> np.ndarray:
    """M independent draws of the flag superposition: the flagged surrogate
    steps G_j(.) = . + t_j xi_j(.)/sqrt(n) applied in turn, shape (M, d).
    Binary flags make this equal in law to skipping the steps with t_j = 0,
    which is how it is computed."""
    bits = flags.bits if isinstance(flags, HomotopyFlags) else HomotopyFlags(tuple(flags)).bits
    theta = np.asarray(theta, dtype=float)
    states = np.broadcast_to(theta, (m, theta.shape[0])).copy()
    for t in bits:
        if t:
            states = surrogate_step(model, states, n, rng)
    return states


def xi_squared_norm(model, theta, draws: int, rng) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of ||xi(theta)||^2; its target is
    tr Sigma(theta). This second moment is the computable complexity measure
    of the surrogate noise that the risk bounds are driven by."""
    theta = np.asarray(theta, dtype=float)
    xi = models.sample_xi_block(model, np.broadcast_to(theta, (draws, theta.shape[0])), rng)
    sq = np.sum(xi * xi, axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(draws))
