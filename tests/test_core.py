import numpy as np
import pytest

from bootchain import core


def brute_force_gram(basis):
    n = len(basis)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = core.hs_inner(basis[i], basis[j])
    return g


def test_pauli_l1_matches_sigma_over_sqrt2():
    basis = core.pauli_basis(1)
    assert len(basis) == 4
    expected = [s / np.sqrt(2.0) for s in core.PAULI_MATRICES]
    for got, want in zip(basis, expected):
        assert np.allclose(got, want, atol=0.0)


def test_pauli_l1_orthonormal():
    basis = core.pauli_basis(1)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert core.hs_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_pauli_l2_gram_is_identity():
    basis = core.pauli_basis(2)
    assert len(basis) == 16
    assert basis[0].shape == (4, 4)
    gram = brute_force_gram(basis)
    assert np.abs(gram - np.eye(16)).max() <= 1e-12


@pytest.mark.parametrize("l", [1, 2, 3])
def test_pauli_full_gram_and_operator_norm(l):
    basis = core.pauli_basis(l)
    m = 2**l
    assert len(basis) == 4**l
    gram = brute_force_gram(basis)
    assert np.abs(gram - np.eye(4**l)).max() <= 1e-12
    for e in basis:
        assert np.linalg.norm(e, 2) <= m**-0.5 + 1e-12


@pytest.mark.parametrize("l", [1, 2, 3])
def test_pauli_completeness_round_trip(l):
    rng = np.random.default_rng(11)
    m = 2**l
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = raw + raw.conj().T
    basis = core.pauli_basis(l)
    coeffs = core.pauli_coefficients(h, basis)
    assert np.abs(coeffs.imag).max() if np.iscomplexobj(coeffs) else True
    back = core.pauli_reconstruct(coeffs, basis)
    assert np.abs(back - h).max() <= 1e-10


def test_pauli_basis_guards():
    with pytest.raises(ValueError):
        core.pauli_basis(0)
    with pytest.raises(ValueError):
        core.pauli_basis(-2)
    with pytest.raises(ValueError):
        core.pauli_basis(6)  # 2^6 = 64 > 32


def test_hs_inner_values():
    i2 = np.eye(2, dtype=complex)
    assert core.hs_inner(i2 / np.sqrt(2), i2 / np.sqrt(2)) == pytest.approx(1.0, abs=1e-14)
    w = core.pauli_basis(1)
    assert core.hs_inner(w[1], w[2]) == pytest.approx(0.0, abs=1e-14)
    assert core.hs_inner(core.SIGMA_3, core.SIGMA_3) == pytest.approx(2.0, abs=1e-14)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        core.hs_inner(np.eye(2), np.eye(3))

