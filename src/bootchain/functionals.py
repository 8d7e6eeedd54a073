"""Smooth target functionals f with analytic gradients.

All built-ins are analytic; finite-smoothness worst cases are a research
problem and are emulated by the experiment design, not by non-smooth
functions. Every operation accepts parameter arrays with arbitrary leading
batch dimensions (the last axis is the coordinate axis), which the chain
machinery relies on.

Every built-in is a smooth profile phi of one scalar feature x of theta:
the ridge x = <u, theta> (linear, power, exp_linear) or the quadratic x =
theta^T Q theta (quadratic_form, radial). value computes x once and applies
phi; grad applies phi' and then the chain rule of the feature's shape.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

RADIAL_PROFILES = ("exp_neg", "log1p")

# each profile's value and derivative at the feature x; p is the power exponent
_PROFILES = {
    "identity": (lambda x, p: x, lambda x, p: np.ones_like(x)),
    "power": (lambda x, p: x**p, lambda x, p: p * x ** (p - 1)),
    "exp": (lambda x, p: np.exp(x), lambda x, p: np.exp(x)),
    "exp_neg": (lambda x, p: np.exp(-x), lambda x, p: -np.exp(-x)),
    "log1p": (lambda x, p: np.log1p(x), lambda x, p: 1.0 / (1.0 + x)),
}


@dataclass(frozen=True)
class Functional:
    """A target f: R^d -> R, a profile (a key of _PROFILES) of <u, theta>
    when u is given, else of theta^T Q theta. Q is None for the identity
    quadratic form (dimension-generic, usable in sweeps where d varies)."""

    profile: str
    u: np.ndarray | None = None
    Q: np.ndarray | None = None
    p: int | None = None


def linear(u) -> Functional:
    return Functional("identity", u=np.asarray(u, dtype=float))


def power(u, p: int) -> Functional:
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
        raise ValueError("power exponent must be a positive integer")
    return Functional("power", u=np.asarray(u, dtype=float), p=int(p))


def quadratic_form(Q=None) -> Functional:
    if Q is not None:
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
    return Functional("identity", Q=Q)


def exp_linear(u) -> Functional:
    return Functional("exp", u=np.asarray(u, dtype=float))


def radial(profile: str) -> Functional:
    if profile not in RADIAL_PROFILES:
        raise ValueError(f"unknown radial profile {profile!r}")
    return Functional(profile)


def _row_dot(a, b) -> np.ndarray:
    """The row sums of a * b, whose bits do not depend on the batch. Below
    8 coordinates numpy's pairwise sum is a left fold from its +0.0 identity,
    which column adds repeat bit for bit without a reduction call per row
    (einsum is slower there on many rows); from 8 up one np.einsum, 2-4x
    faster than np.sum(a * b, axis=-1) and a few ulps off it in many rows."""
    d = a.shape[-1]
    if not 0 < d < 8:
        return np.einsum("...i,...i->...", a, b)
    out = a[..., 0] * b[..., 0]
    out += 0.0  # the identity turns an all -0.0 row into +0.0
    for i in range(1, d):
        out += a[..., i] * b[..., i]
    return out


def _feature(f: Functional, t: np.ndarray):
    if f.u is not None:
        return t @ f.u
    return _row_dot(t, t) if f.Q is None else _row_dot(t @ f.Q, t)


def value(f: Functional, theta) -> float | np.ndarray:
    """Evaluate f at theta; theta may be (d,) or (..., d)."""
    t = np.asarray(theta, dtype=float)
    out = _PROFILES[f.profile][0](_feature(f, t), f.p)
    return float(out) if out.ndim == 0 else out


def grad(f: Functional, theta) -> np.ndarray:
    """Analytic gradient of f at theta; batches like value()."""
    t = np.asarray(theta, dtype=float)
    slope = _PROFILES[f.profile][1](_feature(f, t), f.p)[..., None]
    if f.u is not None:
        return slope * f.u
    return slope * (2.0 * t if f.Q is None else t @ (f.Q + f.Q.T))
