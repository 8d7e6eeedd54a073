"""Model families P_theta, their refitted estimator and Gaussian approximation.

Three model families are provided:

  * GaussianShift          X = theta + A(theta) z / sqrt(n), single draw
  * IndependentComponents  X = theta + A(theta) sum_j eta_j x_j, n i.i.d.
  * ExponentialFamily      product Poisson, MLE log(Xbar)

Two more models are built from these. Log-concave location, X = theta + eta
with sample-mean estimator: location() builds it as independent components
along the standard basis with the constant map A = diag(scale * sd), sd the
noise's standard deviation at unit scale. Gaussian-mean, X ~ N(v theta,
diag(v)) with MLE Xbar / v ~ N(theta, diag(1/v)/n): gaussian_mean() builds
it as the Gaussian shift with A = diag(1/sqrt(v)).

Every variant carries one Gaussian factor L(theta) (_factor): the surrogate
is xi(theta) = L(theta) z with z standard normal, and its covariance
Sigma(theta) = L(theta) L(theta)^T is the (limiting) covariance of
sqrt(n)(theta_hat - theta). For Poisson that is the inverse Fisher
information Psi'(theta)^{-1} = diag(e^{-theta}) (Psi the mean map), not
Psi'(theta) itself, the covariance of sqrt(n)(Xbar - Psi(theta)).

Every noise tag is one unit-variance driver in one table (_DRIVERS), and
independent components apply their factor to the driver means:
estimate_block returns theta + L(theta) (driver means).

The model API is two vectorized kernels that step many parameter rows at
once, estimate_block (theta_hat fitted to data drawn at each row) and
surrogate_step (theta + xi/sqrt(n), xi truncated at a radius delta), plus
sigma and the sigma_f and default_delta derived from it. For the Gaussian
shift theta_hat ~ N(theta, Sigma(theta)/n), so its estimate_block is the
untruncated surrogate_step. Every other estimator here sees the data only
through its sample mean, so estimate_block draws that mean from the exact
law of a sum of n draws wherever one exists: Binomial for Rademacher sums,
Gamma for exponential sums, a difference of two Gamma(n, 1) sums for
Laplace noise, Poisson additivity, and exact normal means. Those kernels
cost O(1) per cell and are equal in law to drawing n raw observations per
row and averaging. Logistic and uniform drivers have no closed sum law;
they are the only kernels left that make n raw draws per cell
(_chunked_raw_mean). Rows whose state left the sampling domain come back
as NaN and are counted by the callers.

Both kernels take one block shape, with a chain axis: (B, 1, d) starts
or (B, M, d) states with chains = M, stepped to (B, M, d). B independent
rows, such as the outer theta_hat draw, are B starts with chains = 1.
A (B, 1, d) block fans out, so the work that depends on the state alone,
L(theta) and the Poisson rate with its domain check, runs once per start;
the draws are those of the M copies of each start. Every step of the form
theta + c L(theta) (driver block) whose driver law is symmetric, which is
every one but Poisson counts and centered-exponential tags, draws its
driver block for the first h = ceil(M/2) chains of each start and negates
it for the rest (_paired_step): antithetic twins, each with its chain's law.
Negation covers the exact sum laws too: a Binomial count b mirrors to
n - b, and Laplace's Gamma difference to the swapped pair. At the fan-out,
where a start's chains share L(theta), the increments are mirrored instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import functionals

POISSON_LAM_MAX = 1e12  # per-coordinate total-count guard for the sampler
_CHUNK_SCALARS = 2**16  # raw-draw budget per chunk in block stepping: 0.5 MB, cache-sized

DEFAULT_MLE_CLAMP = 1e-6


# ---------------------------------------------------------------------------
# scaling maps A(theta)


@dataclass(frozen=True)
class IdentityMap:
    """A(theta) = diag(scale): scale * I in any dimension for a number, the
    diagonal itself for a (d,) vector."""

    scale: float | np.ndarray = 1.0

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=float)
        if not np.all(np.isfinite(scale) & (scale >= 0.0)):
            raise ValueError("scale must be finite and nonnegative")

    def apply(self, thetas, vecs):
        return self.scale * vecs


@dataclass(frozen=True)
class ConstantMatrixMap:
    matrix: np.ndarray = field(default=None)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("scaling matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("scaling matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    def apply(self, thetas, vecs):
        return _matmul_rows(vecs, self.matrix.T)


@dataclass(frozen=True)
class DiagTanhMap:
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

    def apply(self, thetas, vecs):
        return (self.a + self.b * np.tanh(thetas)) * vecs


# a theta-dependent linear map A(theta) applied to noise vectors
ScalingMap = IdentityMap | ConstantMatrixMap | DiagTanhMap


def _check_dim(model) -> None:
    """dim as an int; a bool, fractional or non-positive dim is refused."""
    if isinstance(model.dim, bool) or not isinstance(model.dim, numbers.Integral) or model.dim < 1:
        raise ValueError("dim must be an integer >= 1")
    object.__setattr__(model, "dim", int(model.dim))


def _check_map_dim(noise_map: ScalingMap, dim: int) -> None:
    """A map built for another dimension fails with the model, not at its
    first kernel call. A number scale, or a diag_tanh a and b of one entry
    each (numbers), fits every dimension."""
    if isinstance(noise_map, ConstantMatrixMap):
        shape, fits = noise_map.matrix.shape, [(dim, dim)]
    elif isinstance(noise_map, DiagTanhMap):
        shape, fits = noise_map.a.shape, [(1,), (dim,)]
    else:
        shape, fits = np.shape(noise_map.scale), [(), (dim,)]
    if shape not in fits:
        raise ValueError(f"noise_map has shape {shape}, dim = {dim} needs {fits[-1]}")


# ---------------------------------------------------------------------------
# noise drivers

_SQRT3 = math.sqrt(3.0)
_SQRT_HALF = math.sqrt(0.5)
_LOGISTIC_SCALE = _SQRT3 / math.pi  # logistic(s) has variance pi^2 s^2 / 3


def _laplace_mean(rng, n: int, size) -> np.ndarray:
    # Laplace(b) = b (E - E') with E, E' independent Exp(1), so a sum of n
    # is b (Gamma(n, 1) - Gamma(n, 1)')
    g = rng.standard_gamma(float(n), (2, *size))
    return (g[0] - g[1]) * (_SQRT_HALF / n)


# every noise tag -> (raw draw(rng, size), exact law of the mean of n draws
# (rng, n, size), or None where no closed sum law exists); every driver has
# mean 0 and variance 1, and each sum law is tested against n raw draws
_DRIVERS = {
    "rademacher": (
        lambda rng, size: 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0,
        lambda rng, n, size: (2.0 * rng.binomial(n, 0.5, size=size) - n) / n,
    ),
    "uniform": (lambda rng, size: rng.uniform(-_SQRT3, _SQRT3, size=size), None),
    "centered_exponential": (
        lambda rng, size: rng.standard_exponential(size=size) - 1.0,
        lambda rng, n, size: rng.gamma(float(n), 1.0, size=size) / n - 1.0,
    ),
    "gaussian": (
        lambda rng, size: rng.standard_normal(size=size),
        lambda rng, n, size: rng.standard_normal(size=size) / math.sqrt(n),
    ),
    "laplace": (lambda rng, size: rng.laplace(0.0, _SQRT_HALF, size=size), _laplace_mean),
    "logistic": (lambda rng, size: rng.logistic(0.0, _LOGISTIC_SCALE, size=size), None),
}

# the log-concave location noises: sd, their standard deviation at unit scale
_LOCATION_SD = {"laplace": math.sqrt(2.0), "logistic": math.pi / _SQRT3, "gaussian": 1.0}


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


def _matmul_rows(vecs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """vecs @ mat, a stacked (B, M, d) block as one (B M, d) product: BLAS
    rounds a row by the shape of the product it sits in, so this keeps a
    chain block's bits those of its flat (B M, d) form."""
    return (vecs.reshape(-1, vecs.shape[-1]) @ mat).reshape(vecs.shape[:-1] + mat.shape[1:])


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
        _check_dim(self)
        _check_map_dim(self.noise_map, self.dim)


@dataclass(frozen=True)
class IndependentComponents:
    """X = theta + A(theta) sum_j eta_j x_j with independent unit-variance
    drivers eta_j; theta_hat is the sample mean of n i.i.d. copies.

    noise_dist names a driver of _DRIVERS per coordinate, or one for all.
    directions is a (d, d) matrix with x_j as columns, or None for the
    standard basis. The driver moments are validated against the closed-form
    registry, not by simulation.
    """

    dim: int
    noise_dist: tuple[str, ...] = "rademacher"
    directions: np.ndarray | None = None
    noise_map: ScalingMap = IdentityMap()

    def __post_init__(self):
        _check_dim(self)
        tags = _normalize_tags(self.noise_dist, self.dim, _DRIVERS)
        object.__setattr__(self, "noise_dist", tags)
        _check_map_dim(self.noise_map, self.dim)
        if self.directions is not None:
            dmat = np.asarray(self.directions, dtype=float)
            if dmat.shape != (self.dim, self.dim):
                raise ValueError("directions must be a (d, d) matrix of columns x_j")
            if not np.all(np.isfinite(dmat)):
                raise ValueError("directions must be finite")
            if np.linalg.matrix_rank(dmat) < self.dim:
                raise ValueError("directions must be linearly independent")
            object.__setattr__(self, "directions", dmat)


@dataclass(frozen=True)
class ExponentialFamily:
    """Product Poisson: coordinates Poisson(e^{theta_i}), mean map Psi(theta) =
    e^theta, MLE theta_hat = log(Xbar). A row with a zero count has no MLE
    and takes the deterministic clamp rule log(max(Xbar, 1e-6))."""

    dim: int

    def __post_init__(self):
        _check_dim(self)


def location(dim: int, noise_dist="laplace", scale=1.0) -> IndependentComponents:
    """Log-concave location X = theta + eta, theta_hat = Xbar, with Laplace,
    logistic or Gaussian noise of the given scale per coordinate: independent
    components along the standard basis with A = diag(scale * sd)."""
    tags = _normalize_tags(noise_dist, dim, _LOCATION_SD)
    s = np.broadcast_to(np.asarray(scale, dtype=float), (dim,))
    if not np.all(np.isfinite(s) & (s > 0)):
        raise ValueError("noise scales must be finite and positive")
    sd = np.array([_LOCATION_SD[t] for t in tags])
    return IndependentComponents(dim, tags, noise_map=IdentityMap(s * sd))


def gaussian_mean(dim: int, base=1.0) -> GaussianShift:
    """Gaussian-mean X ~ N(v theta, diag(v)) with base variances v: the MLE
    Xbar / v ~ N(theta, diag(1/v)/n) exactly, so it is the Gaussian shift
    with A = diag(1/sqrt(v)), the root of the inverse Fisher information."""
    v = np.broadcast_to(np.asarray(base, dtype=float), (dim,))
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("gaussian_mean base variances must be finite and positive")
    return GaussianShift(dim, IdentityMap(1.0 / np.sqrt(v)))


Model = GaussianShift | IndependentComponents | ExponentialFamily


# ---------------------------------------------------------------------------
# maximum likelihood (Poisson)


def _mle_from_mean(xbar: np.ndarray) -> np.ndarray:
    """The Poisson MLE log(Xbar) per row of a (d,) or (rows, d) xbar; a row with
    a zero coordinate has none and takes the clamp rule log(max(Xbar, 1e-6))."""
    with np.errstate(divide="ignore"):
        fit = np.log(xbar)
    bad = ~np.all(xbar > 0, axis=-1)
    if bad.any():  # clamp only the rows without an MLE
        fit[bad] = np.log(np.maximum(xbar[bad], DEFAULT_MLE_CLAMP))
    return fit


# ---------------------------------------------------------------------------
# the Gaussian factor L(theta)


def _factor(model: Model, thetas: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L(theta) v row by row (thetas broadcast against v): the model's one
    Gaussian factor, with xi(theta) = L(theta) z and Sigma(theta) =
    L(theta) L(theta)^T the covariance of sqrt(n)(theta_hat - theta).
    Always a new array of v's shape, so the step kernels finish their
    states in it in place."""
    if isinstance(model, GaussianShift):
        return model.noise_map.apply(thetas, v)
    if isinstance(model, IndependentComponents):
        mix = v if model.directions is None else _matmul_rows(v, model.directions.T)
        return model.noise_map.apply(thetas, mix)
    if isinstance(model, ExponentialFamily):  # inverse Fisher information e^{-theta}
        return np.exp(-0.5 * thetas) * v
    raise TypeError(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# covariance and vectorized kernels


def sigma(model: Model, theta) -> np.ndarray:
    """Sigma(theta) = L(theta) L(theta)^T: the covariance of the surrogate
    xi(theta) and of the normal limit of sqrt(n)(theta_hat - theta)."""
    d = model.dim
    lt = _factor(model, np.broadcast_to(np.asarray(theta, dtype=float), (d, d)), np.eye(d))
    return lt.T @ lt


def sigma_f(model: Model, f, theta) -> float:
    """sqrt(<Sigma(theta) f'(theta), f'(theta)>), the efficient scale of f: the
    limiting sd of sqrt(n)(f(theta_hat) - f(theta)), clamped at 0 against rounding."""
    theta = np.asarray(theta, dtype=float)
    g = functionals.grad(f, theta)
    quad = float(g @ sigma(model, theta) @ g)
    return math.sqrt(max(quad, 0.0))


def default_delta(model: Model, theta, n: int) -> float:
    """delta = 3 sqrt(tr Sigma(theta) / n), the radius of a surrogate run whose
    config sets none: by Gaussian norm concentration, truncation ~ never fires."""
    tr = float(np.trace(sigma(model, theta)))
    return 3.0 * math.sqrt(tr / n)


def _chain_block(model: Model, thetas, chains: int) -> tuple[np.ndarray, tuple]:
    """thetas, a (B, 1, d) or (B, chains, d) block of chain states, as a
    float array, and the leading shape (B, chains) of a kernel's result."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 3 or thetas.shape[1] not in (1, chains) or thetas.shape[2] != model.dim:
        raise ValueError(f"states of shape {thetas.shape} do not fit chains={chains}, d={model.dim}")
    return thetas, (thetas.shape[0], chains)


def _paired_step(model: Model, thetas, chains: int, drivers, finish=None) -> np.ndarray:
    """thetas + finish(L(thetas) eta), finish scaling in place, for a (B, 1, d)
    or (B, M, d) block with chains = M: drivers((B, h)) draws the (B, h, d) eta
    of the first h = ceil(M/2) chains of each start, and chain h+i takes -eta_i
    (none for h-1 at odd M). The fan-out factors and finishes the drawn half
    alone, as L(theta) (-eta) = -L(theta) eta: chain h+i is start - increment i."""
    thetas, (groups, _) = _chain_block(model, thetas, chains)
    fan_out, h = thetas.shape[1] < chains, (chains + 1) // 2
    step = drivers((groups, h))  # eta; rebinding frees it before the fan-out allocates
    if not fan_out:
        step = np.concatenate([step, -step[:, : chains // 2]], axis=1)
    step = _factor(model, thetas, step)
    if finish is not None:
        finish(step)
    if not fan_out:
        step += thetas  # step is the factor's own new array, so it takes the sum
        return step
    start = np.repeat(thetas, h, axis=1)  # a broadcast (B, 1, d) would loop over d alone
    out = np.empty((groups, chains, model.dim))
    np.add(start, step, out=out[:, :h])
    np.subtract(start[:, : chains // 2], step[:, : chains // 2], out=out[:, h:])
    return out


def estimate_block(model: Model, thetas: np.ndarray, n: int, rng, chains: int = 1) -> np.ndarray:
    """One bootstrap step for a block of chain states: a (B, 1, d) block of
    starts, or the (B, M, d) states of a later step, with chains = M, to
    (B, M, d). Chain m of start b is the estimator refitted to n
    observations drawn under P_thetas[b, m], in law; the outer theta_hat
    draw is B starts with chains = 1. A (B, 1, d) block fans out, so the
    per-state work (L(theta), the Poisson rate and its domain check) runs
    once per start. Every family whose driver law is symmetric (all but
    Poisson counts and a centered-exponential tag) draws for half of each
    start's M chains and pairs the rest antithetically (_paired_step). Rows
    outside the sampling domain (and NaN inputs) come back NaN.
    """
    if isinstance(model, GaussianShift):
        # theta_hat ~ N(theta, Sigma(theta)/n): the untruncated surrogate step
        return surrogate_step(model, thetas, n, rng, chains=chains)
    thetas, lead = _chain_block(model, thetas, chains)
    d = model.dim

    if isinstance(model, IndependentComponents):
        def drivers(shape):  # driver means, one (rows, chains) column per coordinate
            etabar = np.empty(shape + (d,))
            for j, tag in enumerate(model.noise_dist):
                raw, mean = _DRIVERS[tag]
                etabar[..., j] = _chunked_raw_mean(raw, rng, n, shape) if mean is None else mean(rng, n, shape)
            return etabar
        if "centered_exponential" not in model.noise_dist:
            return _paired_step(model, thetas, chains, drivers)
        return _factor(model, thetas, drivers(lead)) + thetas  # plain: the stream order of B M rows

    if isinstance(model, ExponentialFamily):  # Poisson counts
        with np.errstate(over="ignore", invalid="ignore"):
            lam = n * np.exp(thetas)
        ok = np.broadcast_to(np.all(np.isfinite(lam) & (lam <= POISSON_LAM_MAX), axis=-1), lead)
        out = np.full(lead + (d,), np.nan)
        if np.any(ok):
            counts = rng.poisson(np.broadcast_to(lam, lead + (d,))[ok])
            out[ok] = _mle_from_mean(counts / n)
        return out

    raise TypeError(f"unknown model type {type(model).__name__}")


def surrogate_step(model: Model, states, n: int, rng, delta: float = math.inf, chains: int = 1) -> np.ndarray:
    """One Gaussian step for a block of states: states + xi(states)/sqrt(n)
    with xi(theta) = L(theta) z, z standard normal, each xi zeroed where
    ||xi||^2 >= (delta sqrt(n))^2, so k steps stay within k delta;
    delta = inf turns truncation off, delta = 0 freezes the chain.
    Truncation is per draw, at the current state: the sup of the noise over
    all states is not observable for state-dependent noise, and for constant
    noise the two rules coincide. The block and chains follow estimate_block:
    (B, 1, d) or (B, M, d) with chains = M, to (B, M, d) in pairs (_paired_step).
    Untruncated, it is the shift's bootstrap step."""
    def finish(xi):
        if delta < math.inf:
            cut = functionals._row_dot(xi, xi) >= (delta * math.sqrt(n)) ** 2
            if cut.any():
                xi[cut] = 0.0
        xi /= math.sqrt(n)

    return _paired_step(model, states, chains, lambda shape: rng.standard_normal(shape + (model.dim,)), finish)
