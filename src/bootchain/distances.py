"""Empirical metrics on one-dimensional samples.

Kolmogorov distance is taken against the standard normal CDF; Wasserstein
distances are between two equal-length samples via the sorted pairing,
which is the optimal coupling in one dimension. Unequal sample sizes would
need quantile interpolation and are rejected; the harness controls both
sample sizes.
"""

from __future__ import annotations

import math

import numpy as np

_ERFC = np.frompyfunc(math.erfc, 1, 1)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def std_normal_cdf(x):
    """Phi(x) via erfc; accurate to double precision (far below the 1e-10
    budget). Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return 0.5 * math.erfc(-float(x) * _INV_SQRT2)
    return (0.5 * _ERFC(-x * _INV_SQRT2)).astype(float)


def _check_sample(s) -> np.ndarray:
    a = np.asarray(s, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("sample must be 1-D with at least 2 values")
    if not np.all(np.isfinite(a)):
        raise ValueError("sample has non-finite values")
    return a


def kolmogorov_to_std_normal(sample) -> float:
    """sup_x |F_N(x) - Phi(x)| over the sorted sample points, checking the
    empirical CDF from both sides of each jump."""
    a = np.sort(_check_sample(sample))
    n = a.size
    phi = std_normal_cdf(a)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.maximum(np.abs(hi - phi), np.abs(lo - phi)).max())


def wasserstein1(a, b) -> float:
    """W1 between equal-length samples: mean absolute gap of sorted pairs."""
    x = np.sort(_check_sample(a))
    y = np.sort(_check_sample(b))
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return float(np.abs(x - y).mean())


def wasserstein2(a, b) -> float:
    """W2 between equal-length samples: root mean square gap of sorted pairs."""
    x = np.sort(_check_sample(a))
    y = np.sort(_check_sample(b))
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return float(math.sqrt(np.mean((x - y) ** 2)))

