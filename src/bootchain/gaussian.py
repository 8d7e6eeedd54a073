"""Gaussian-surrogate chains, truncation, and the limiting standard deviation.

The surrogate chain replaces the bootstrap transition (resample data, refit)
by the additive Gaussian step state + xi(state)/sqrt(n): surrogate_step is
that transition kernel, and bootstrap.chain_steps runs it through the same
stepping loop as the bootstrap step; the corrected estimator on
surrogate chains is bootstrap.fk_estimate_at with
step=partial(surrogate_step, delta=...). The truncation radius delta is a
number: a drawn xi is zeroed when its norm reaches delta*sqrt(n), so each
step moves the state by strictly less than delta and a chain started at
theta stays within k*delta of it after k steps. delta = inf turns
truncation off; delta = 0 zeroes every draw and freezes the chain.

Truncation here is per draw, on the norm of xi at the current state. An
alternative rule would condition on the sup of the noise process over all
states, but that sup is not observable for state-dependent noise; for
constant-noise models the two events coincide, and at the default delta the
truncation probability is negligible by design.

The homotopy's flag superposition (steps state + t_j xi_j(state)/sqrt(n),
binary t_j) has no kernel here: C8 and the diagnostics script build it from
models.sample_xi_block by that definition, against surrogate chains.
"""

from __future__ import annotations

import math

import numpy as np

from . import functionals, models


def default_delta(model, theta, n: int) -> float:
    """delta = 3 sqrt(tr Sigma(theta) / n): truncation probability ~ 0 at the
    configured scale (Gaussian norm concentration)."""
    tr = float(np.trace(models.sigma(model, theta)))
    return 3.0 * math.sqrt(tr / n)


def surrogate_step(model, states, n: int, rng, delta: float = math.inf, chains: int = 1) -> np.ndarray:
    """One surrogate step for a block of states: states + xi(states)/sqrt(n),
    each xi zeroed where ||xi||^2 >= (delta sqrt(n))^2. delta = inf turns
    truncation off; delta = 0 zeroes every draw and so freezes the chain.
    The block and chains follow models.sample_xi_block: (rows, d) with
    chains = 1, or a chain block (B, 1, d) or (B, M, d) with chains = M,
    which returns (B, M, d) in antithetic pairs."""
    xi = models.sample_xi_block(model, states, rng, chains)
    if delta < math.inf:
        cut = functionals._row_dot(xi, xi) >= (delta * math.sqrt(n)) ** 2
        if cut.any():
            xi[cut] = 0.0
    xi /= math.sqrt(n)
    xi += states  # xi is the kernel's own new array, so it takes the sum
    return xi


def sigma_f(model, f, theta) -> float:
    """Limiting standard deviation sqrt(<Sigma(theta) f'(theta), f'(theta)>),
    clamped at zero against rounding."""
    theta = np.asarray(theta, dtype=float)
    g = functionals.grad(f, theta)
    quad = float(g @ models.sigma(model, theta) @ g)
    return math.sqrt(max(quad, 0.0))
