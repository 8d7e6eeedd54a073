"""The Hilbert-Schmidt inner product and the Pauli basis of Hermitian matrices.

Parameters are plain 1-D float64 arrays throughout the package; Hermitian
matrices appear only here and are handed to the statistical machinery as
their real coefficient vectors in the Pauli basis (the Hilbert-Schmidt norm
is isometric to the Euclidean norm of the coefficients, so everything
downstream works on R^d unchanged). Complex dtype never leaves this module.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_PAULI_DIM = 32  # memory guard: m = 2^l

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_MATRICES = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Re tr(a^dagger b).

    For Hermitian inputs tr(a^dagger b) is real up to rounding; the
    imaginary part is discarded.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.real(np.vdot(a, b)))


def pauli_basis(l: int) -> list[np.ndarray]:
    """All l-fold tensor products of W_i = sigma_i / sqrt(2), i in {0,1,2,3}.

    Returns the 4^l matrices of size m = 2^l in lexicographic order of the
    index tuple (i_1, ..., i_l). The set is orthonormal and complete in the
    Hilbert-Schmidt inner product.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if 2**l > MAX_PAULI_DIM:
        raise ValueError(f"matrix dimension 2^{l} exceeds guard {MAX_PAULI_DIM}")
    w = [s / np.sqrt(2.0) for s in PAULI_MATRICES]
    basis = []
    for idx in itertools.product(range(4), repeat=l):
        mat = w[idx[0]]
        for i in idx[1:]:
            mat = np.kron(mat, w[i])
        basis.append(mat)
    return basis


def pauli_coefficients(h: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Real coefficient vector of a Hermitian matrix in an orthonormal basis."""
    return np.array([hs_inner(e, h) for e in basis])


def pauli_reconstruct(coeffs: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Inverse of pauli_coefficients: sum_j c_j E_j."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(basis),):
        raise ValueError("coefficient length does not match basis size")
    out = np.zeros_like(basis[0])
    for c, e in zip(coeffs, basis):
        out += c * e
    return out
