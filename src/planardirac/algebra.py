"""Exact 2x2 complex matrix algebra: Pauli matrices, the gamma matrices of the
planar (2+1-dimensional) Dirac operator, SO(2,1) boost generators, and the
closed-form matrix exponential used for per-mode time evolution.

All matrices are plain ``numpy`` arrays of shape (2, 2) and dtype complex128.
Entries of the generator tables are Gaussian integers or half-integers, so the
identity checks downstream hold exactly in floating point.
"""

from __future__ import annotations

import numpy as np

Matrix2c = np.ndarray  # 2x2 complex matrix, row-major

IDENTITY2 = np.eye(2, dtype=complex)

_PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}

HERMITICITY_TOL = 1e-12


def pauli(index: int) -> Matrix2c:
    """Return the Pauli matrix sigma_1, sigma_2 or sigma_3.

    The time-direction matrix of the planar Dirac operator (often written
    sigma_0) is an alias for sigma_3; use ``pauli(3)`` for it.
    """
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index!r}")
    return _PAULI[index].copy()


def gamma(mu: int) -> Matrix2c:
    """Gamma matrices of the covariant form of the planar Dirac operator:
    gamma_0 = -i*sigma_3, gamma_1 = sigma_1, gamma_2 = sigma_2.
    """
    if mu == 0:
        return -1j * _PAULI[3]
    if mu in (1, 2):
        return _PAULI[mu].copy()
    raise ValueError(f"gamma index must be 0, 1 or 2, got {mu!r}")


def k_generator(index: int) -> Matrix2c:
    """SO(2,1) generators: K1 = -i*sigma_2/2, K2 = i*sigma_1/2, K3 = sigma_3/2."""
    if index == 1:
        return -0.5j * _PAULI[2]
    if index == 2:
        return 0.5j * _PAULI[1]
    if index == 3:
        return 0.5 * _PAULI[3]
    raise ValueError(f"generator index must be 1, 2 or 3, got {index!r}")


# The two brackets serve any operands with @, += and -=: Fock operators too.
# Each accumulates into the fresh product a @ b, so at most two products are
# alive at once; the operands are not written.
def commutator(a: Matrix2c, b: Matrix2c) -> Matrix2c:
    out = a @ b
    out -= b @ a
    return out


def anticommutator(a: Matrix2c, b: Matrix2c) -> Matrix2c:
    out = a @ b
    out += b @ a
    return out


def pauli_components(h: Matrix2c) -> tuple[complex, np.ndarray]:
    """Decompose a 2x2 matrix as a0*I + a.sigma; returns (a0, [a1, a2, a3])."""
    h = np.asarray(h, dtype=complex)
    a0 = 0.5 * (h[0, 0] + h[1, 1])
    a1 = 0.5 * (h[0, 1] + h[1, 0])
    a2 = 0.5j * (h[0, 1] - h[1, 0])
    a3 = 0.5 * (h[0, 0] - h[1, 1])
    return a0, np.array([a1, a2, a3])


def matrix_exponential(h: Matrix2c, phase: float) -> Matrix2c:
    """exp(-i*phase*h) for a Hermitian 2x2 matrix, via the Pauli decomposition.

    Writing h = a0*I + a.sigma with real a0 and real vector a, the exponential
    is exp(-i*phase*a0) * (cos(phase*|a|) I - i sin(phase*|a|) a.sigma/|a|),
    which is exactly unitary for arbitrary phase (no series truncation).

    Raises ValueError if h is not Hermitian within 1e-12.
    """
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("matrix_exponential requires a Hermitian matrix")
    a0, a = pauli_components(h)
    a0 = a0.real
    a = a.real
    r = float(np.sqrt(a @ a))
    out = np.cos(phase * r) * IDENTITY2.astype(complex)
    if r > 0.0:
        n = a / r
        sigma_n = n[0] * _PAULI[1] + n[1] * _PAULI[2] + n[2] * _PAULI[3]
        out = out - 1j * np.sin(phase * r) * sigma_n
    return np.exp(-1j * phase * a0) * out
