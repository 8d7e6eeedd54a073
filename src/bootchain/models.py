"""Statistical families P_theta with estimators and Gaussian surrogates.

Four model variants are provided:

  * GaussianShift          X = theta + A(theta) z / sqrt(n), single draw
  * IndependentComponents  X = theta + A(theta) sum_j eta_j x_j, n i.i.d.
  * ExponentialFamily      product Poisson / Gaussian-mean, MLE via the
                           closed-form inverse of the mean map
  * LogConcaveLocation     X = theta + eta, n i.i.d., sample-mean estimator

Every variant carries a Gaussian surrogate (a sampler for xi(theta) and the
exact covariance Sigma(theta)). For the exponential families the surrogate
lives on the mean-map scale: Sigma(theta) = Psi'(theta), which is the
covariance of sqrt(n)(Xbar - Psi(theta)).

Besides the per-replicate operations (sample_data / estimate / sigma) this
module exposes vectorized kernels, estimate_block and sample_xi_block, that
step many parameter rows at once; a single row is a block with one row.
Every estimator here sees the data only through its sample mean, so
estimate_block draws that mean from the exact law of a sum of n draws
wherever one exists: Binomial for Rademacher sums, Gamma for exponential
sums, a difference of two Gamma(n, 1) sums for Laplace noise
(Laplace(b) = b (E - E') with E, E' independent Exp(1)), Poisson
additivity, and exact normal means. Those kernels cost O(1) per cell and
are equal in law to drawing n raw observations per row and averaging.
Logistic location noise and uniform component drivers have no closed sum
law; they are the only kernels left that make n raw draws per cell. Rows
whose state left the sampling domain come back as NaN and are counted by
the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import as_param_vector

POISSON_LAM_MAX = 1e12  # per-coordinate total-count guard for the sampler
_CHUNK_SCALARS = 4_000_000  # raw-draw budget per chunk in block stepping

DEFAULT_MLE_CLAMP = 1e-6


class DomainError(ValueError):
    """Parameter left the model's valid domain."""


# ---------------------------------------------------------------------------
# scaling maps A(theta)


class ScalingMap:
    """theta-dependent linear map applied to noise vectors."""

    def apply(self, thetas: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def matrix_at(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(ScalingMap):
    """A(theta) = scale * I, any dimension."""

    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError("scale must be finite and nonnegative")

    def apply(self, thetas, vecs):
        return self.scale * vecs

    def matrix_at(self, theta):
        return self.scale * np.eye(len(theta))


@dataclass(frozen=True)
class ConstantMatrixMap(ScalingMap):
    matrix: np.ndarray = field(default=None)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("scaling matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("scaling matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    def apply(self, thetas, vecs):
        return vecs @ self.matrix.T

    def matrix_at(self, theta):
        return self.matrix


@dataclass(frozen=True)
class DiagTanhMap(ScalingMap):
    """A(theta) = diag(a_i + b_i * tanh(theta_i)).

    Smooth with bounded derivatives of all orders; a_i > |b_i| >= 0 keeps
    A(theta) nonsingular for every theta.
    """

    a: np.ndarray = field(default=None)
    b: np.ndarray = field(default=None)

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        a, b = np.broadcast_arrays(a, b)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("diag_tanh coefficients must be finite")
        if not np.all(a > np.abs(b)):
            raise ValueError("diag_tanh requires a_i > |b_i| >= 0")
        object.__setattr__(self, "a", a.copy())
        object.__setattr__(self, "b", b.copy())

    def _diag(self, thetas):
        return self.a + self.b * np.tanh(thetas)

    def apply(self, thetas, vecs):
        return self._diag(thetas) * vecs

    def matrix_at(self, theta):
        return np.diag(self._diag(np.asarray(theta, dtype=float)))


# ---------------------------------------------------------------------------
# noise registries

# independent-components drivers eta_j: closed-form mean 0, variance 1
IC_NOISE_TAGS = ("rademacher", "uniform", "centered_exponential", "gaussian")

_SQRT3 = math.sqrt(3.0)

# location-model noises: variance and documented Poincare constant per unit
# scale; the Poincare constants are informational metadata only (the logistic
# entry is the 1-D log-concave bound 12*Var)
LOCATION_NOISE_TAGS = ("laplace", "logistic", "gaussian")
LOCATION_VARIANCE = {
    "laplace": lambda b: 2.0 * b**2,
    "logistic": lambda s: (math.pi**2 / 3.0) * s**2,
    "gaussian": lambda s: s**2,
}
LOCATION_POINCARE = {
    "laplace": lambda b: 4.0 * b**2,
    "logistic": lambda s: 12.0 * (math.pi**2 / 3.0) * s**2,
    "gaussian": lambda s: s**2,
}


def _draw_ic_noise(tag: str, rng, size) -> np.ndarray:
    if tag == "rademacher":
        return 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0
    if tag == "uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size=size)
    if tag == "centered_exponential":
        return rng.standard_exponential(size=size) - 1.0
    if tag == "gaussian":
        return rng.standard_normal(size=size)
    raise ValueError(f"unknown component noise {tag!r}")


def _draw_ic_mean(tag: str, rng, n: int, size) -> np.ndarray:
    """Mean of n i.i.d. driver draws, via sum-closed families where they exist."""
    if tag == "rademacher":
        return (2.0 * rng.binomial(n, 0.5, size=size) - n) / n
    if tag == "centered_exponential":
        return rng.gamma(float(n), 1.0, size=size) / n - 1.0
    if tag == "gaussian":
        return rng.standard_normal(size=size) / math.sqrt(n)
    if tag == "uniform":
        return _chunked_raw_mean(lambda r, s: _draw_ic_noise("uniform", r, s), rng, n, size)
    raise ValueError(f"unknown component noise {tag!r}")


def _draw_location_noise(tag: str, scale: float, rng, size) -> np.ndarray:
    if tag == "laplace":
        return rng.laplace(0.0, scale, size=size)
    if tag == "logistic":
        return rng.logistic(0.0, scale, size=size)
    if tag == "gaussian":
        return scale * rng.standard_normal(size=size)
    raise ValueError(f"unknown location noise {tag!r}")


def _draw_location_mean(tag: str, scale: float, rng, n: int, size) -> np.ndarray:
    """Mean of n i.i.d. noise draws; logistic has no closed sum law."""
    if tag == "gaussian":
        return scale * rng.standard_normal(size=size) / math.sqrt(n)
    if tag == "laplace":
        g = rng.standard_gamma(float(n), size=(2,) + tuple(size))
        return scale * (g[0] - g[1]) / n
    return _chunked_raw_mean(lambda r, s: _draw_location_noise(tag, scale, r, s), rng, n, size)


def _chunked_raw_mean(draw, rng, n: int, size) -> np.ndarray:
    """Mean of n raw draws per output cell, chunked to bound memory."""
    size = tuple(size)
    flat = int(np.prod(size))
    out = np.empty(flat)
    step = max(1, _CHUNK_SCALARS // max(n, 1))
    for lo in range(0, flat, step):
        hi = min(lo + step, flat)
        out[lo:hi] = draw(rng, (hi - lo, n)).mean(axis=1)
    return out.reshape(size)


def _normalize_tags(tags, d: int, allowed) -> tuple[str, ...]:
    if isinstance(tags, str):
        tags = (tags,) * d
    tags = tuple(tags)
    if len(tags) != d:
        raise ValueError(f"need one noise tag per coordinate ({d}), got {len(tags)}")
    for t in tags:
        if t not in allowed:
            raise ValueError(f"unknown noise tag {t!r}")
    return tags


# ---------------------------------------------------------------------------
# model specs


@dataclass(frozen=True)
class GaussianShift:
    """X = theta + A(theta) z / sqrt(n), z standard normal; theta_hat = X."""

    dim: int
    noise_map: ScalingMap = IdentityMap()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class IndependentComponents:
    """X = theta + A(theta) sum_j eta_j x_j with independent unit-variance
    drivers eta_j; theta_hat is the sample mean of n i.i.d. copies.

    directions is a (d, d) matrix with x_j as columns, or None for the
    standard basis. The driver moments are validated against the closed-form
    registry, not by simulation.
    """

    dim: int
    noise_dist: tuple[str, ...] = "rademacher"
    directions: np.ndarray | None = None
    noise_map: ScalingMap = IdentityMap()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        tags = _normalize_tags(self.noise_dist, self.dim, IC_NOISE_TAGS)
        object.__setattr__(self, "noise_dist", tags)
        if self.directions is not None:
            dmat = np.asarray(self.directions, dtype=float)
            if dmat.shape != (self.dim, self.dim):
                raise ValueError("directions must be a (d, d) matrix of columns x_j")
            if np.linalg.matrix_rank(dmat) < self.dim:
                raise ValueError("directions must be linearly independent")
            object.__setattr__(self, "directions", dmat)


@dataclass(frozen=True)
class ExponentialFamily:
    """Product exponential family with closed-form mean map.

    poisson_product: coordinates Poisson(e^{theta_i}); Psi(theta) = e^theta.
    gaussian_mean:   X ~ N(v * theta, diag(v)) with base variances v;
                     Psi(theta) = v * theta, so Psi(T) = R^d and the MLE
                     fallback is unreachable (Poisson exercises it).

    theta0 is the fallback returned when Xbar leaves Psi(T); None selects
    the deterministic clamp rule Psi^{-1}(max(Xbar, 1e-6)).
    """

    dim: int
    family: str = "poisson_product"
    base: np.ndarray | None = None
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family not in ("poisson_product", "gaussian_mean"):
            raise ValueError(f"unknown exponential family {self.family!r}")
        if self.family == "gaussian_mean":
            base = self.base if self.base is not None else 1.0
            v = np.broadcast_to(np.atleast_1d(np.asarray(base, dtype=float)), (self.dim,)).copy()
            if not np.all(v > 0):
                raise ValueError("gaussian_mean base variances must be positive")
            object.__setattr__(self, "base", v)
        elif self.base is not None:
            raise ValueError("poisson_product takes no base parameters")
        if self.theta0 is not None:
            object.__setattr__(self, "theta0", as_param_vector(self.theta0))
            if len(self.theta0) != self.dim:
                raise ValueError("theta0 dimension mismatch")


@dataclass(frozen=True)
class LogConcaveLocation:
    """X = theta + eta with mean-zero log-concave noise; theta_hat = Xbar."""

    dim: int
    noise_dist: tuple[str, ...] = "laplace"
    scale: np.ndarray = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        tags = _normalize_tags(self.noise_dist, self.dim, LOCATION_NOISE_TAGS)
        object.__setattr__(self, "noise_dist", tags)
        s = np.broadcast_to(np.atleast_1d(np.asarray(self.scale, dtype=float)), (self.dim,)).copy()
        if not np.all(s > 0):
            raise ValueError("noise scales must be positive")
        object.__setattr__(self, "scale", s)

    def poincare_constants(self) -> np.ndarray:
        """Documented per-coordinate Poincare constants (metadata only)."""
        return np.array(
            [LOCATION_POINCARE[t](s) for t, s in zip(self.noise_dist, self.scale)]
        )


Model = GaussianShift | IndependentComponents | ExponentialFamily | LogConcaveLocation


@dataclass(frozen=True)
class Data:
    """Observation container: every estimator here reads only the mean."""

    n: int
    mean: np.ndarray


# ---------------------------------------------------------------------------
# maximum likelihood (exponential families)


def _mle_from_mean(model: ExponentialFamily, xbar: np.ndarray) -> np.ndarray:
    """Psi^{-1}(Xbar) per row of xbar, (d,) or (M, d). A Poisson row with a
    zero coordinate has no MLE; it falls back to theta0, or else to the clamp
    rule log(max(Xbar, 1e-6))."""
    if model.family == "gaussian_mean":
        return xbar / model.base
    fallback = model.theta0
    if fallback is None:
        fallback = np.log(np.maximum(xbar, DEFAULT_MLE_CLAMP))
    with np.errstate(divide="ignore"):
        return np.where(np.all(xbar > 0, axis=-1, keepdims=True), np.log(xbar), fallback)


# ---------------------------------------------------------------------------
# per-replicate operations


def sample_data(model: Model, theta, n: int, rng) -> Data:
    """Draw one observation set under P_theta^(n).

    GaussianShift yields the single vector X; the i.i.d. models draw n
    copies and keep their mean.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise ValueError("theta dimension mismatch")
    if n < 1:
        raise ValueError("sample size n must be >= 1")

    if isinstance(model, GaussianShift):
        z = rng.standard_normal(model.dim)
        x = theta + model.noise_map.apply(theta, z) / math.sqrt(n)
        return Data(n=n, mean=x)

    if isinstance(model, IndependentComponents):
        eta = np.empty((n, model.dim))
        for j, tag in enumerate(model.noise_dist):
            eta[:, j] = _draw_ic_noise(tag, rng, n)
        mix = eta if model.directions is None else eta @ model.directions.T
        draws = theta + model.noise_map.apply(theta, mix)
        return Data(n=n, mean=draws.mean(axis=0))

    if isinstance(model, ExponentialFamily):
        if model.family == "poisson_product":
            with np.errstate(over="ignore"):
                lam = np.exp(theta)
            if not np.all(np.isfinite(lam)) or np.any(lam * n > POISSON_LAM_MAX):
                raise DomainError("Poisson rate overflow: theta outside domain")
            draws = rng.poisson(lam, size=(n, model.dim)).astype(float)
        else:
            mu = model.base * theta
            draws = mu + np.sqrt(model.base) * rng.standard_normal((n, model.dim))
        return Data(n=n, mean=draws.mean(axis=0))

    if isinstance(model, LogConcaveLocation):
        eta = np.empty((n, model.dim))
        for j, (tag, s) in enumerate(zip(model.noise_dist, model.scale)):
            eta[:, j] = _draw_location_noise(tag, s, rng, n)
        draws = theta + eta
        return Data(n=n, mean=draws.mean(axis=0))

    raise TypeError(f"unknown model type {type(model).__name__}")


def estimate(model: Model, data: Data) -> np.ndarray:
    """theta_hat: identity for the shift model, Xbar for the mean models,
    Psi^{-1}(Xbar) with fallback for the exponential families."""
    if isinstance(model, ExponentialFamily):
        return _mle_from_mean(model, data.mean)
    return np.asarray(data.mean, dtype=float)


def sigma(model: Model, theta) -> np.ndarray:
    """Exact covariance Sigma(theta) of the surrogate xi(theta)."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(model, GaussianShift):
        a = model.noise_map.matrix_at(theta)
        return a @ a.T
    if isinstance(model, IndependentComponents):
        a = model.noise_map.matrix_at(theta)
        b = a if model.directions is None else a @ model.directions
        return b @ b.T
    if isinstance(model, ExponentialFamily):
        if model.family == "poisson_product":
            return np.diag(np.exp(theta))
        return np.diag(model.base)
    if isinstance(model, LogConcaveLocation):
        var = np.array(
            [LOCATION_VARIANCE[t](s) for t, s in zip(model.noise_dist, model.scale)]
        )
        return np.diag(var)
    raise TypeError(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# vectorized kernels


def estimate_block(model: Model, thetas: np.ndarray, n: int, rng) -> np.ndarray:
    """One bootstrap step for a block of parameter rows.

    Row m of the result is distributed as estimate(sample_data(model,
    thetas[m], n)), independently across rows. Rows outside the sampling
    domain (and NaN inputs) come back NaN.
    """
    thetas = np.asarray(thetas, dtype=float)
    m, d = thetas.shape
    if d != model.dim:
        raise ValueError("theta dimension mismatch")

    if isinstance(model, GaussianShift):
        z = rng.standard_normal((m, d))
        return thetas + model.noise_map.apply(thetas, z) / math.sqrt(n)

    if isinstance(model, IndependentComponents):
        etabar = np.empty((m, d))
        for j, tag in enumerate(model.noise_dist):
            etabar[:, j] = _draw_ic_mean(tag, rng, n, (m,))
        mix = etabar if model.directions is None else etabar @ model.directions.T
        return thetas + model.noise_map.apply(thetas, mix)

    if isinstance(model, ExponentialFamily):
        if model.family == "gaussian_mean":
            z = rng.standard_normal((m, d))
            return thetas + z / np.sqrt(model.base * n)
        with np.errstate(over="ignore", invalid="ignore"):
            lam = n * np.exp(thetas)
        bad = ~np.all(np.isfinite(lam) & (lam <= POISSON_LAM_MAX), axis=1)
        out = np.full((m, d), np.nan)
        ok = ~bad
        if np.any(ok):
            out[ok] = _mle_from_mean(model, rng.poisson(lam[ok]) / n)
        return out

    if isinstance(model, LogConcaveLocation):
        noise = np.empty((m, d))
        for j, (tag, s) in enumerate(zip(model.noise_dist, model.scale)):
            noise[:, j] = _draw_location_mean(tag, s, rng, n, (m,))
        return thetas + noise

    raise TypeError(f"unknown model type {type(model).__name__}")


def sample_xi_block(model: Model, thetas: np.ndarray, rng) -> np.ndarray:
    """Surrogate draws xi(thetas[m]) ~ N(0, Sigma(thetas[m])), one per row."""
    thetas = np.asarray(thetas, dtype=float)
    m, d = thetas.shape
    if d != model.dim:
        raise ValueError("theta dimension mismatch")
    z = rng.standard_normal((m, d))
    if isinstance(model, GaussianShift):
        return model.noise_map.apply(thetas, z)
    if isinstance(model, IndependentComponents):
        mix = z if model.directions is None else z @ model.directions.T
        return model.noise_map.apply(thetas, mix)
    if isinstance(model, ExponentialFamily):
        if model.family == "poisson_product":
            return np.exp(0.5 * thetas) * z
        return np.sqrt(model.base) * z
    if isinstance(model, LogConcaveLocation):
        var = np.array(
            [LOCATION_VARIANCE[t](s) for t, s in zip(model.noise_dist, model.scale)]
        )
        return np.sqrt(var) * z
    raise TypeError(f"unknown model type {type(model).__name__}")
