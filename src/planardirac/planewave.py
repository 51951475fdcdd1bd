"""Closed-form plane-wave solutions of the planar two-component Dirac equation.

The positive branch is u(k) = (1, G1)^T exp[i(k.r - w t)] and the negative
branch v(k) = (G2, 1)^T exp[-i(k.r - w t)], with w the positive root of the
relativistic dispersion relation.  The representation is non-unitary, so
spinors are normalized against the indefinite metric sigma_3: positive-branch
spinors carry metric norm +1, negative-branch spinors -1, and the two branches
are metric-orthogonal at matched momentum.

Residual evaluators apply the Dirac and Klein-Gordon operators to the analytic
solutions in closed form (the plane-wave phase differentiates exactly); they
are the primary correctness oracles for everything downstream.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import IDENTITY2, pauli

Spinor2 = np.ndarray  # shape (2,), complex

NORM_EPS = 1e-12

_SIGMA1 = pauli(1)
_SIGMA2 = pauli(2)
_SIGMA3 = pauli(3)


class DegenerateNormalizationError(ValueError):
    """Metric norm too close to zero to normalize (ultra-relativistic limit)."""


class Branch(enum.Enum):
    POSITIVE = +1
    NEGATIVE = -1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, light speed, Planck constant and charge.  Natural units default.

    Massless particles are rejected: the metric norm 1 - |G|^2 of the spinors
    collapses as m -> 0 and the normalization of the branches degenerates.
    Scales whose c^2, m c^2 or m c/hbar is zero or subnormal raise
    FloatingPointError (and c^2 beyond the float range OverflowError).
    """

    m: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    e: float = 1.0

    def __post_init__(self):
        if not (self.m > 0 and self.c > 0 and self.hbar > 0):
            raise ValueError(
                f"require m, c, hbar > 0, got m={self.m}, c={self.c}, hbar={self.hbar}"
            )
        # A zero or subnormal scale has lost its precision, so rounding can
        # flip the sign of a metric norm downstream.
        for name, value in (("c^2", self.c**2), ("m c^2", self.rest_energy),
                            ("m c / hbar", self.compton_wavenumber)):
            if value < sys.float_info.min:
                raise FloatingPointError(f"{name} = {value:.3g} is zero or subnormal")

    @property
    def rest_energy(self) -> float:
        """m c^2"""
        return self.m * self.c**2

    @property
    def compton_wavenumber(self) -> float:
        """m c / hbar, the inverse (reduced) Compton wavelength."""
        return self.m * self.c / self.hbar


# The default of every params argument: frozen, so one instance is shared.
NATURAL_UNITS = PhysicalParams()


@dataclass(frozen=True)
class Momentum:
    """Wavevector (kx, ky) in inverse-length units."""

    kx: float
    ky: float

    def __post_init__(self):
        if not (np.isfinite(self.kx) and np.isfinite(self.ky)):
            raise ValueError("momentum components must be finite")

    @property
    def k_squared(self) -> float:
        return self.kx**2 + self.ky**2

    @property
    def magnitude(self) -> float:
        return float(np.hypot(self.kx, self.ky))

    def px(self, params: PhysicalParams) -> float:
        return params.hbar * self.kx

    def py(self, params: PhysicalParams) -> float:
        return params.hbar * self.ky


def dispersion_omega(k: Momentum, params: PhysicalParams) -> float:
    """Positive root w = sqrt(k^2 c^2 + (m c^2 / hbar)^2); w >= m c^2 / hbar."""
    rest = params.rest_energy / params.hbar
    return float(np.sqrt(k.k_squared * params.c**2 + rest**2))


def g1(k: Momentum, params: PhysicalParams) -> complex:
    """Lower amplitude of the positive branch: -i(px + i py)c / (E + mc^2)."""
    energy = params.hbar * dispersion_omega(k, params)
    return -1j * (k.px(params) + 1j * k.py(params)) * params.c / (energy + params.rest_energy)


def g2(k: Momentum, params: PhysicalParams) -> complex:
    """Upper amplitude of the negative branch: +i(px - i py)c / (E + mc^2)."""
    energy = params.hbar * dispersion_omega(k, params)
    return 1j * (k.px(params) - 1j * k.py(params)) * params.c / (energy + params.rest_energy)


def build_u(k: Momentum, params: PhysicalParams) -> Spinor2:
    """Un-normalized positive-branch spinor (1, G1)^T."""
    return np.array([1.0, g1(k, params)], dtype=complex)


def build_v(k: Momentum, params: PhysicalParams) -> Spinor2:
    """Un-normalized negative-branch spinor (G2, 1)^T."""
    return np.array([g2(k, params), 1.0], dtype=complex)


def metric_inner(a: Spinor2, b: Spinor2) -> complex:
    """Indefinite inner product a-bar sigma_3 b = conj(a1) b1 - conj(a2) b2."""
    return complex(np.conj(a[0]) * b[0] - np.conj(a[1]) * b[1])


def normalize(s: Spinor2, branch: Branch) -> Spinor2:
    """Rescale s so its metric norm is +1 (positive branch) or -1 (negative).

    The divisor is sqrt(|1 - |G|^2|) = sqrt(2 m c^2 / (E + m c^2)); it tends to
    zero in the ultra-relativistic limit, in which case a
    DegenerateNormalizationError is raised rather than returning a blown-up
    spinor.
    """
    norm = metric_inner(s, s).real
    if not math.isfinite(norm):
        raise FloatingPointError(f"metric norm is {norm}: the spinor amplitudes overflowed")
    if abs(norm) <= NORM_EPS:
        raise DegenerateNormalizationError(
            f"metric norm {norm:.3e} below {NORM_EPS:.0e}; cannot normalize"
        )
    if np.sign(norm) != branch.sign:
        raise ValueError(
            f"spinor has metric norm of sign {int(np.sign(norm))}, "
            f"incompatible with branch {branch.name}"
        )
    return np.asarray(s, dtype=complex) / np.sqrt(abs(norm))


@dataclass(frozen=True)
class PlaneWaveSolution:
    """A normalized plane-wave solution of one branch at fixed momentum."""

    branch: Branch
    momentum: Momentum
    omega: float
    spinor: Spinor2
    params: PhysicalParams = NATURAL_UNITS

    @property
    def energy(self) -> float:
        """E = hbar * omega (sign bookkeeping lives in the metric norm)."""
        return self.params.hbar * self.omega

    def phase(self, x: float, y: float, t: float) -> complex:
        arg = self.momentum.kx * x + self.momentum.ky * y - self.omega * t
        return complex(np.exp(1j * self.branch.sign * arg))

    def value(self, x: float, y: float, t: float) -> Spinor2:
        return self.spinor * self.phase(x, y, t)


def plane_wave(branch: Branch, k: Momentum, params: PhysicalParams) -> PlaneWaveSolution:
    """Construct the normalized plane-wave solution of the requested branch."""
    omega = dispersion_omega(k, params)
    raw = build_u(k, params) if branch is Branch.POSITIVE else build_v(k, params)
    return PlaneWaveSolution(branch, k, omega, normalize(raw, branch), params)


def dirac_operator_symbol(
    branch: Branch, k: Momentum, omega: float, params: PhysicalParams
) -> np.ndarray:
    """The 2x2 matrix the planar Dirac operator reduces to on a plane wave.

    For the positive branch the phase exp[i(k.r - w t)] turns the derivatives
    into -(w/c) sigma_3 + i kx sigma_1 + i ky sigma_2 + (mc/hbar) I; the
    negative branch flips the sign of every derivative.
    """
    s = branch.sign
    return (
        -s * (omega / params.c) * _SIGMA3
        + 1j * s * (k.kx * _SIGMA1 + k.ky * _SIGMA2)
        + params.compton_wavenumber * IDENTITY2
    )


def dirac_residual(
    sol: PlaneWaveSolution,
    params: PhysicalParams,
    samples,
) -> float:
    """Max 2-norm of the Dirac operator applied to the solution at the samples.

    Derivatives are applied analytically; a genuine solution gives a residual
    at rounding level, < 1e-12 * (mc/hbar).
    """
    symbol = dirac_operator_symbol(sol.branch, sol.momentum, sol.omega, params)
    worst = 0.0
    for (x, y, t) in samples:
        residual = symbol @ sol.value(x, y, t)
        worst = max(worst, float(np.linalg.norm(residual)))
    return worst


def klein_gordon_residual(sol: PlaneWaveSolution, params: PhysicalParams) -> float:
    """|k^2 + (mc/hbar)^2 - (w/c)^2| evaluated on the plane-wave phase."""
    return abs(
        sol.momentum.k_squared
        + params.compton_wavenumber**2
        - (sol.omega / params.c) ** 2
    )


def coefficient_matrix(
    branch: Branch, k: Momentum, omega: float, params: PhysicalParams
) -> np.ndarray:
    """The homogeneous-system matrix whose singularity is the on-shell condition.

    Obtained from the Dirac operator symbol by multiplying through by c; its
    determinant is (mc^2/hbar)^2 + k^2 c^2 - w^2 for either branch, vanishing
    exactly when w sits on the dispersion shell.
    """
    return params.c * dirac_operator_symbol(branch, k, omega, params)


def classical_energy(sol: PlaneWaveSolution, params: PhysicalParams) -> float:
    """Classical field energy of the plane wave on a periodic box.

    With the amplitude convention of one particle per box area the result is
    hbar*w times the metric norm of the spinor, whatever the box side: +hbar*w
    for the positive branch and -hbar*w for the negative one, whose phase
    exp(+i w t) oscillates at frequency -w.  The unbounded-below negative
    value is the pathology that second quantization repairs.
    """
    return params.hbar * sol.omega * metric_inner(sol.spinor, sol.spinor).real
