"""Truncation of Gaussian-surrogate chains, and the limiting standard deviation.

The surrogate chain replaces the bootstrap transition (resample data, refit)
by the Gaussian step state + xi(state)/sqrt(n), models.surrogate_step, run
through the same loop (bootstrap.chain_steps) as the bootstrap step: the
corrected estimator on surrogate chains is bootstrap.fk_estimate_at with
step=partial(models.surrogate_step, delta=...). The truncation radius delta
is a number: a drawn xi is zeroed when its norm reaches delta*sqrt(n), so
each step moves the state by strictly less than delta and a chain started
at theta stays within k*delta of it after k steps. delta = inf turns
truncation off; delta = 0 zeroes every draw and freezes the chain.
default_delta is the radius of a run whose config sets none.

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


def sigma_f(model, f, theta) -> float:
    """Limiting standard deviation sqrt(<Sigma(theta) f'(theta), f'(theta)>),
    clamped at zero against rounding."""
    theta = np.asarray(theta, dtype=float)
    g = functionals.grad(f, theta)
    quad = float(g @ models.sigma(model, theta) @ g)
    return math.sqrt(max(quad, 0.0))
