"""Smooth target functionals f with analytic gradients.

All built-ins are analytic; finite-smoothness worst cases are a research
problem and are emulated by the experiment design, not by non-smooth
functions. Every operation accepts parameter arrays with arbitrary leading
batch dimensions (the last axis is the coordinate axis), which the chain
machinery relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RADIAL_PROFILES = ("exp_neg", "log1p")


@dataclass(frozen=True)
class Functional:
    """A target f: R^d -> R. Q is None for the identity quadratic form
    (dimension-generic, usable in sweeps where d varies)."""

    variant: str
    u: np.ndarray | None = None
    p: int | None = None
    Q: np.ndarray | None = None
    profile: str | None = None


def linear(u) -> Functional:
    return Functional("linear", u=np.asarray(u, dtype=float))


def power(u, p: int) -> Functional:
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise ValueError("power exponent must be a positive integer")
    return Functional("power", u=np.asarray(u, dtype=float), p=p)


def quadratic_form(Q=None) -> Functional:
    if Q is not None:
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
    return Functional("quadratic_form", Q=Q)


def exp_linear(u) -> Functional:
    return Functional("exp_linear", u=np.asarray(u, dtype=float))


def radial(profile: str) -> Functional:
    if profile not in RADIAL_PROFILES:
        raise ValueError(f"unknown radial profile {profile!r}")
    return Functional("radial", profile=profile)


def _row_dot(a, b) -> np.ndarray:
    """np.sum(a * b, axis=-1), bit for bit. Below 8 coordinates numpy's
    pairwise sum is a left fold from its +0.0 identity, which column adds
    repeat without a reduction call per row; from 8 up its unrolled
    accumulators change the order, so np.sum itself runs there."""
    d = a.shape[-1]
    if not 0 < d < 8:
        return np.sum(a * b, axis=-1)
    out = a[..., 0] * b[..., 0]
    out += 0.0  # the identity turns an all -0.0 row into +0.0
    for i in range(1, d):
        out += a[..., i] * b[..., i]
    return out


def value(f: Functional, theta) -> float | np.ndarray:
    """Evaluate f at theta; theta may be (d,) or (..., d)."""
    t = np.asarray(theta, dtype=float)
    if f.variant == "linear":
        out = t @ f.u
    elif f.variant == "power":
        out = (t @ f.u) ** f.p
    elif f.variant == "quadratic_form":
        out = _row_dot(t, t) if f.Q is None else _row_dot(t @ f.Q, t)
    elif f.variant == "exp_linear":
        out = np.exp(t @ f.u)
    elif f.variant == "radial":
        r2 = _row_dot(t, t)
        out = np.exp(-r2) if f.profile == "exp_neg" else np.log1p(r2)
    else:
        raise ValueError(f"unknown functional variant {f.variant!r}")
    return float(out) if out.ndim == 0 else out


def grad(f: Functional, theta) -> np.ndarray:
    """Analytic gradient of f at theta; batches like value()."""
    t = np.asarray(theta, dtype=float)
    if f.variant == "linear":
        return np.broadcast_to(f.u, t.shape).copy()
    if f.variant == "power":
        s = (t @ f.u) ** (f.p - 1)
        return f.p * s[..., None] * f.u
    if f.variant == "quadratic_form":
        if f.Q is None:
            return 2.0 * t
        return t @ (f.Q + f.Q.T)
    if f.variant == "exp_linear":
        return np.exp(t @ f.u)[..., None] * f.u
    if f.variant == "radial":
        r2 = _row_dot(t, t)
        g1 = -np.exp(-r2) if f.profile == "exp_neg" else 1.0 / (1.0 + r2)
        return 2.0 * g1[..., None] * t
    raise ValueError(f"unknown functional variant {f.variant!r}")

