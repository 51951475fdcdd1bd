"""Spectral time evolution on a periodic grid and the non-relativistic limit.

Free evolution is exact at the represented Fourier modes: the planar Dirac
field advances each mode by the closed-form exponential of its 2x2 momentum-
space Hamiltonian H(k) = c*hbar*(ky sigma_1 - kx sigma_2) + m c^2 sigma_3,
and the Schrodinger field by the exact kinetic phase.  Finite differences
appear only inside validation oracles (the Klein-Gordon time check and the
Landau-level operator), never in the evolution path.

The gauge frame is the co-rotating frame with the rest-mass phase removed;
comparisons between Dirac and Schrodinger dynamics happen there.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .planewave import NATURAL_UNITS, Momentum, PhysicalParams


class GridResolutionError(ValueError):
    """Grid too coarse (or step too large) to resolve the requested physics."""


class FieldWindowError(GridResolutionError):
    """Magnetic length outside the window landau_levels solves at."""


class GaugeFrameError(ValueError):
    """Rest-mass phase already removed (or required and absent)."""


@dataclass(frozen=True)
class Grid2D:
    """Periodic square grid: n points per side (power of two), box side length."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if self.length <= 0:
            raise ValueError("box side must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def nyquist(self) -> float:
        return np.pi * self.n / self.length

    def axes(self):
        x = (np.arange(self.n) - self.n // 2) * self.spacing
        return x, x.copy()

    def meshes(self):
        x, y = self.axes()
        return np.meshgrid(x, y, indexing="ij")

    def wavenumber_axis(self) -> np.ndarray:
        """The n angular wavenumbers of one axis, in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def wavenumbers(self):
        k = self.wavenumber_axis()
        return np.meshgrid(k, k, indexing="ij")


@dataclass
class WaveField:
    """Complex field samples on a Grid2D: (n, n) scalar or (2, n, n) spinor."""

    grid: Grid2D
    data: np.ndarray
    gauge_frame: bool = False
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        shape = self.data.shape
        n = self.grid.n
        if shape not in ((n, n), (2, n, n)):
            raise ValueError(f"field shape {shape} incompatible with grid n={n}")

    @property
    def components(self) -> int:
        return 1 if self.data.ndim == 2 else 2

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2) * self.grid.spacing**2))

    def normalized(self) -> "WaveField":
        return replace(self, data=self.data / self.norm)

    def component(self, i: int) -> np.ndarray:
        return self.data if self.components == 1 else self.data[i]


def overlap(a: WaveField, b: WaveField) -> complex:
    if a.grid != b.grid or a.components != b.components:
        raise ValueError("overlap requires matching grids and component counts")
    return complex(np.sum(np.conj(a.data) * b.data) * a.grid.spacing**2)


# Rows per block wherever an (n, n) mesh is built or read a block at a time:
# 64 rows of n = 1024 complex samples are 1 MiB, small beside the mesh.
_ROW_BLOCK = 64


def _row_blocks(n: int):
    """Slices of _ROW_BLOCK rows that cover 0..n-1 in order."""
    return [slice(start, min(start + _ROW_BLOCK, n)) for start in range(0, n, _ROW_BLOCK)]


def edge_ratio(density: np.ndarray) -> float:
    """Peak of a real (n, n) density |psi|^2 on the outermost grid cells
    relative to its global peak: the boundary density of the field."""
    edge = max(density[0].max(), density[-1].max(), density[:, 0].max(), density[:, -1].max())
    return float(edge / density.max())


def _separable_boundary_density(fx: np.ndarray, fy: np.ndarray) -> float:
    """edge_ratio of |outer(fx, fy)|^2: each of its edge rows and columns,
    and its peak, is a product of the two 1-D |f|^2."""
    return float(max(max(d[0], d[-1]) / d.max() for d in (np.abs(fx) ** 2, np.abs(fy) ** 2)))


def _mode_terms(grid: Grid2D, params: PhysicalParams):
    """Per-mode terms of H(k) = [[m c^2, i conj(p)], [-i p, -m c^2]].

    Returns q = c*hbar*k on one axis, so that mode (j, l) has
    p = q[j] + i q[l] (see _momentum), and |p|^2 and
    E = hbar*w(k) = sqrt(|p|^2 + (m c^2)^2) on the modes j, l <= n/2 only.
    The FFT index n - j holds -k[j] exactly and both depend on kx^2 and ky^2
    alone, so _mirror gives any function of them on the full mesh, bit for
    bit, from a quarter of the work.
    """
    q = params.c * params.hbar * grid.wavenumber_axis()
    half = q[: grid.n // 2 + 1] ** 2
    p2 = np.add.outer(half, half)
    return q, p2, np.sqrt(p2 + params.rest_energy**2)


def _momentum(q: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """p = c*hbar*(kx + i ky) on the full mesh (its rows `rows` only), from q
    of _mode_terms."""
    return np.add.outer(q[rows], 1j * q)


def _fold(n: int) -> np.ndarray:
    """min(j, n - j) for the n FFT indices j: fftfreq gives k[n - j] = -k[j]
    exactly, so index j holds the same k^2 as its fold <= n/2."""
    j = np.arange(n)
    return np.minimum(j, n - j)


def _mirror(quadrant: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """The full (n, n) mesh (its rows `rows` only) of a per-mode quantity even
    in kx and in ky, given on the (n/2 + 1)^2 modes with j, l <= n/2."""
    index = _fold(2 * (quadrant.shape[0] - 1))
    return quadrant.take(index[rows], axis=0).take(index, axis=1)


def _spinor_weights(grid: Grid2D, params: PhysicalParams):
    """G1 = -i p / (E + m c^2) and the metric divisor sqrt(1-|G1|^2) per mode."""
    q, _, energy = _mode_terms(grid, params)
    g1 = -1j * _momentum(q) / _mirror(energy + params.rest_energy)
    return g1, np.sqrt(1.0 - np.abs(g1) ** 2)


def _gaussian_factors(grid: Grid2D, center, k0: Momentum, sigma: float):
    """The x and y factors of exp(-|r - center|^2 / 4 sigma^2 + i k0.r).

    The envelope is their outer product, and its unitary 2-D DFT is the outer
    product of their unitary 1-D DFTs.
    """
    if sigma < 4.0 * grid.spacing:
        raise GridResolutionError(
            f"sigma={sigma:.4g} must be at least 4 grid spacings ({4 * grid.spacing:.4g})"
        )
    if k0.magnitude + 4.0 / sigma > grid.nyquist:
        raise GridResolutionError(
            f"spectral support |k0|+4/sigma = {k0.magnitude + 4 / sigma:.4g} "
            f"exceeds the Nyquist wavenumber {grid.nyquist:.4g}"
        )
    width = 4.0 * sigma**2
    x, y = grid.axes()
    return (np.exp(-((x - center[0]) ** 2) / width + 1j * k0.kx * x),
            np.exp(-((y - center[1]) ** 2) / width + 1j * k0.ky * y))


def _folded_weights(spectra):
    """|f|^2 of each 1-D spectrum f with index n - j added onto j <= n/2 (_fold)."""
    fold = _fold(len(spectra[0]))
    return [np.bincount(fold, np.abs(f) ** 2) for f in spectra]


def _closure_ratio(params: PhysicalParams, p2: np.ndarray, energy: np.ndarray,
                   weights) -> float | None:
    """The small-component closure error of a positive-branch packet over
    its mean (hbar |k| / m c)^2, or None when it has no lower component.

    S is the outer product of the packet's 1-D spectra, weights their
    _folded_weights, and p2 = |p|^2 and energy = E the quadrant terms of
    _mode_terms.  The packet is (S, G1 S) / divisor per mode, and the closure
    error is ||(G1 - s) S / divisor|| / ||G1 S / divisor|| for the estimate
    s = -i p / (2 m c^2).  Per mode |G1 / divisor|^2 =
    |p|^2 / (2 m c^2 (E + m c^2)) and |G1 - s| / |G1| = (E - m c^2) / (2 m c^2),
    with E - m c^2 = |p|^2 / (E + m c^2) free of cancellation.  Both depend
    on kx^2 and ky^2 alone and |S|^2 separates, so the sums run over the
    quadrant.
    """
    wx, wy = weights
    weight = np.multiply.outer(wx / np.sum(wx), wy / np.sum(wy))
    excess = p2 / (energy + params.rest_energy)  # E - m c^2
    lower = weight * excess  # proportional to |G1 S / divisor|^2
    lower_sum = np.sum(lower)
    if lower_sum == 0.0:
        return None
    # In units of the largest excess: the sums stay finite wherever |p|^2 is.
    top = excess.max()
    closure = (top * np.sqrt(np.sum(lower * (excess / top) ** 2) / lower_sum)
               / (2.0 * params.rest_energy))
    mean_vc2 = np.sum(weight * p2) / params.rest_energy**2
    return float(closure / mean_vc2)


def build_gaussian(grid: Grid2D, center, k0: Momentum, sigma: float,
                   components: int = 1,
                   params: PhysicalParams = NATURAL_UNITS) -> WaveField:
    """Normalized Gaussian packet of width sigma carrying mean momentum k0.

    |psi|^2 has per-axis variance sigma^2.  The 2-component variant projects
    every Fourier mode onto the positive-branch spinor u_N(k), so the packet
    is free of negative-branch weight.
    """
    factors = _gaussian_factors(grid, center, k0, sigma)
    if components == 1:
        return WaveField(grid, np.multiply.outer(*factors)).normalized()
    if components != 2:
        raise ValueError("components must be 1 or 2")
    g1, divisor = _spinor_weights(grid, params)
    spectrum = np.multiply.outer(*(np.fft.fft(f, norm="ortho") for f in factors)) / divisor
    data = np.fft.ifft2(np.stack([spectrum, g1 * spectrum]), norm="ortho")
    return WaveField(grid, data).normalized()


def negative_branch_weight(f: WaveField, params: PhysicalParams = NATURAL_UNITS) -> float:
    """Fraction of the norm carried by negative-branch modes (metric projection)."""
    if f.components != 2:
        raise ValueError("negative_branch_weight expects a 2-component field")
    g1, divisor = _spinor_weights(f.grid, params)
    up, low = np.fft.fft2(f.data, norm="ortho")
    # For psi-hat = c_u u_N + c_v v_N the metric projection gives
    # v_N-bar sigma_3 psi-hat = -c_v, with v_N = (conj(G1), 1)/divisor.
    c_v = (low - g1 * up) / divisor
    total = np.sum(np.abs(up) ** 2 + np.abs(low) ** 2)
    return float(np.sqrt(np.sum(np.abs(c_v) ** 2) / total))


def _rest_phase(params: PhysicalParams, t: float) -> complex:
    """exp(+i m c^2 t / hbar)."""
    return np.exp(1j * params.rest_energy * t / params.hbar)


def evolve_dirac(f: WaveField, t: float, params: PhysicalParams = NATURAL_UNITS) -> WaveField:
    """Advance a 2-component field by exp(-i t H(k)/hbar) mode-by-mode."""
    if f.components != 2:
        raise ValueError("evolve_dirac expects a 2-component field")
    if f.gauge_frame:
        raise GaugeFrameError("evolve_dirac expects a lab-frame field")
    q, p2, energy = _mode_terms(f.grid, params)
    diag, sin_t, _ = _packet_coefficients(f.grid, params, p2, energy, t)
    # U(t) = [[diag, conj(off)], [-off, conj(diag)]] on the full mesh.
    diag, off = _mirror(diag), _mirror(sin_t) * _momentum(q)
    up, low = np.fft.fft2(f.data, norm="ortho")
    data = np.fft.ifft2(np.stack([diag * up + np.conj(off) * low,
                                  np.conj(diag) * low - off * up]), norm="ortho")
    return WaveField(f.grid, data, gauge_frame=False, time=f.time + t)


def remove_rest_phase(f: WaveField, t: float, params: PhysicalParams = NATURAL_UNITS) -> WaveField:
    """Multiply by exp(+i m c^2 t / hbar), moving to the co-rotating frame."""
    if f.gauge_frame:
        raise GaugeFrameError("rest-mass phase already removed from this field")
    return replace(f, data=f.data * _rest_phase(params, t), gauge_frame=True)


def _kinetic_phase(grid: Grid2D, params: PhysicalParams, dt: float) -> np.ndarray:
    """exp(-i hbar k^2 dt / 2m) on the n FFT indices of one axis.  The phase
    of |k|^2 = kx^2 + ky^2 factors, so that of mode (j, l) is the outer
    product of this with itself: n exponentials, not n^2."""
    k = grid.wavenumber_axis()
    return np.exp(-1j * (params.hbar * k**2 / (2.0 * params.m)) * dt)


def evolve_schrodinger(f: WaveField, t: float, params: PhysicalParams = NATURAL_UNITS,
                       a0=None, steps: int = None) -> WaveField:
    """Advance a scalar field under the planar Schrodinger equation.

    Strang splitting alternating the exact kinetic phase
    exp(-i hbar k^2 dt / 2m) with the real-space phase exp(-i e c a0 dt / hbar)
    of the scalar potential a0, a real number or (n, n) array of samples;
    second order in the step size, 200 steps unless steps is given.  Without
    a potential this is one step, exact at every mode.  Spatially varying
    vector potentials are the business of the stationary Landau solver.
    """
    if f.components != 1:
        raise ValueError("evolve_schrodinger expects a scalar field")
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    if a0 is None:
        a0, steps = 0.0, 1
    if np.iscomplexobj(a0):
        raise ValueError("a0 must be real-valued")
    a0 = np.asarray(a0, dtype=float)
    if a0.ndim == 2:
        rng = a0.max() - a0.min()
        step = max(
            np.abs(np.diff(a0, axis=0)).max(initial=0.0),
            np.abs(np.diff(a0, axis=1)).max(initial=0.0),
        )
        if rng > 0 and step > 0.5 * rng:
            warnings.warn(
                f"potential a0 changes by {step:.3g} between neighboring "
                f"samples (range {rng:.3g}); evolution may be under-resolved",
                stacklevel=2,
            )
    if t == 0.0:
        return replace(f, data=f.data.copy())
    if steps is None:
        steps = 200
    dt = t / steps
    scalar = params.e * params.c * a0 / params.hbar
    if np.abs(scalar).max() * abs(dt) > np.pi:
        raise GridResolutionError(
            "potential phase per step exceeds pi; increase steps"
        )
    phase = _kinetic_phase(f.grid, params, dt)
    kin_phase = np.multiply.outer(phase, phase)
    half_pot = np.exp(-0.5j * scalar * dt)
    data = f.data * half_pot
    for step in range(steps):
        data = np.fft.ifft2(np.fft.fft2(data, norm="ortho") * kin_phase, norm="ortho")
        if step < steps - 1:
            data = data * (half_pot * half_pot)
    data = data * half_pot
    return replace(f, data=data, time=f.time + t)


def _relative_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / ||b|| for (n, n) arrays; the same on unitary spectra (Parseval).
    einsum sums re^2 + im^2 with no complex hypot and no temporary but a - b."""
    sq = [np.einsum("ij,ij->", x.real, x.real) + np.einsum("ij,ij->", x.imag, x.imag)
          for x in (a - b, b)]
    return float(np.sqrt(sq[0] / sq[1]))


def _packet_coefficients(grid: Grid2D, params: PhysicalParams, p2: np.ndarray,
                         energy: np.ndarray, t: float, steps: int = 1):
    """U(dt) and the kinetic phase K(dt), dt = t/steps, applied steps times to
    the packet (S, 0), mode by mode, on the quadrant terms of _mode_terms.

    H(k) is Hermitian with H(k)^2 = E^2, so U(dt) = cos(w dt) - i sin(w dt)
    H(k)/E is exactly unitary for any dt: [[diag, conj(p) sin_t],
    [-p sin_t, conj(diag)]], sin_t = sin(w dt)/E, diag = cos(w dt) - i m c^2
    sin_t.  Every U keeps each mode in the form (upper S, -p lower S), with
    upper' = diag upper - sin_t |p|^2 lower and
    lower' = conj(diag) lower + sin_t upper, from upper = diag and
    lower = sin_t after the first step.  Returns upper, lower and
    K(dt)^steps on the n indices of one axis.
    """
    dt = t / steps
    theta = energy * dt / params.hbar  # = w(k) dt
    sin_t = np.sin(theta) / energy
    # cos into theta's buffer: one quadrant array fewer at the peak
    diag = np.cos(theta, out=theta) - 1j * sin_t * params.rest_energy
    upper, lower = diag, sin_t
    kinetic = phase = _kinetic_phase(grid, params, dt)
    sin_p2 = sin_t * p2 if steps > 1 else None  # read past the first step only
    for _ in range(steps - 1):
        upper, lower = diag * upper - sin_p2 * lower, np.conj(diag) * lower + sin_t * upper
        kinetic = kinetic * phase
    return upper, lower, kinetic


def _limit_distance(params: PhysicalParams, weights, upper: np.ndarray,
                    kinetic: np.ndarray, t: float) -> float:
    """The gauge-frame distance of the Dirac upper component from the
    Schrodinger field at time t, both started from S, the outer product of
    the 1-D spectra; weights are their _folded_weights, and upper and
    kinetic those of _packet_coefficients.

    The upper component is upper S exp(i m c^2 t/hbar) against S K_x K_y,
    so the squared distance is the |S|^2-weighted mean of
    |upper exp(i m c^2 t/hbar) - K_x K_y|^2.  That depends on kx^2 and ky^2
    alone, so the sums run over the quadrant, bit for bit.
    """
    phase = kinetic[: len(upper)]
    gap = upper * _rest_phase(params, t) - np.multiply.outer(phase, phase)
    weight = np.multiply.outer(*weights)
    return float(np.sqrt(np.sum(weight * (gap.real**2 + gap.imag**2)) / np.sum(weight)))


def compare_limit(dirac_field: WaveField, schrod_field: WaveField) -> float:
    """Relative L2 distance between the Dirac upper component and the
    Schrodinger field."""
    if dirac_field.grid != schrod_field.grid:
        raise ValueError("compare_limit requires matching grids")
    if dirac_field.components != 2 or schrod_field.components != 1:
        raise ValueError("expected a 2-component Dirac field and a scalar field")
    if not dirac_field.gauge_frame:
        raise GaugeFrameError("Dirac field must be in the gauge frame for comparison")
    return _relative_distance(dirac_field.data[0], schrod_field.data)


def _packet(k0: Momentum, n: int, sigma: float = None, box: float = None):
    """A limit run's packet with the defaults filled in: sigma = 4/|k0| (box/24
    at k0 = 0), box = 24*sigma.  Returns (grid, sigma, spectra), spectra the
    unitary DFTs of the packet's x and y factors."""
    if sigma is None:
        if k0.magnitude == 0.0:
            if box is None:
                raise ValueError("k0 = 0 needs an explicit sigma or box")
            sigma = box / 24.0
        else:
            sigma = 4.0 / k0.magnitude
    grid = Grid2D(n, 24.0 * sigma if box is None else box)
    return grid, sigma, [np.fft.fft(f, norm="ortho")
                         for f in _gaussian_factors(grid, (0.0, 0.0), k0, sigma)]


def run_limit_comparison(k0x: float, k0y: float = 0.0, n: int = 128,
                         t_final: float = 10.0,
                         params: PhysicalParams = NATURAL_UNITS,
                         sigma: float = None, box: float = None,
                         steps: int = None, keep_fields: bool = False) -> dict:
    """Evolve the same initial upper component under both dynamics and compare.

    The Dirac run starts from (psi_0, 0): the Gaussian in the upper component
    and nothing in the lower one, which is literally the Schrodinger initial
    condition.  The small negative-branch admixture this carries is the
    O((v/c)^2) physics the comparison measures.

    Geometry defaults scale with the packet (_packet), keeping the relative
    momentum spread fixed across scaling runs; "sigma" and "box" report the
    values used.  The run stays on unitary spectra: _packet_coefficients
    applies U(dt) and K(dt), dt = t_final/steps, steps times on the
    quadrant (free evolution is step-count independent; this exercises the
    group property), and "distance" (_limit_distance) and "closure"
    (_closure_ratio) are sums there.  The boundary density needs only
    |psi|^2, so the spinor is built one component at a time in one complex
    n^2 buffer: a block of rows at a time straight from the quadrant
    coefficients, inverse-transformed along its rows while the block is in
    cache, then along its columns in place, and its |psi|^2 added into one
    real n^2 density.  The memory peak is that buffer, the density, the
    lower quadrant coefficient and one block (1.77 complex n^2 arrays at
    n = 1024).  Only keep_fields allocates the whole spinor, and then each
    component is transformed in its own slice.  The Schrodinger field stays
    two 1-D factors unless keep_fields needs the mesh.  Only the final
    fields return to real space.
    """
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    steps = steps or 1
    k0 = Momentum(k0x, k0y)
    grid, sigma, spectra = _packet(k0, n, sigma, box)
    q, p2, energy = _mode_terms(grid, params)
    weights = _folded_weights(spectra)
    upper, lower, kinetic = _packet_coefficients(grid, params, p2, energy, t_final, steps)
    # Quadrant sums before any n^2 array exists; only the coefficients outlive them.
    out = {"vc_scale": params.hbar * k0.magnitude / (params.m * params.c),
           "sigma": sigma, "box": grid.length,
           "closure": _closure_ratio(params, p2, energy, weights),
           "distance": _limit_distance(params, weights, upper, kinetic, t_final)}
    del p2, energy, weights

    # The Schrodinger spectrum; unitary DFTs keep the norm, and an outer
    # product's is its factors' product.
    schrod = [f / np.sqrt(np.sum(np.abs(f) ** 2) * grid.spacing) for f in spectra]
    # The spinor (upper S, -(lower p) S) exp(i m c^2 t/hbar), one component at
    # a time: built a block of rows at a time from the quadrant and
    # inverse-transformed along its rows while the block is in cache, then
    # along its columns in place, and its |psi|^2 added into the density.
    # Without keep_fields both components share one buffer.
    # Not ifft2(psi, out=psi): under numpy 2.4 that returns wrong values.
    rest = _rest_phase(params, t_final)
    dirac = np.empty((2, n, n), dtype=complex) if keep_fields else None
    components = dirac if keep_fields else [np.empty((n, n), dtype=complex)] * 2
    for c, psi in enumerate(components):
        for rows in _row_blocks(n):
            block = psi[rows]
            np.multiply.outer(schrod[0][rows], schrod[1], out=block)
            if c == 0:
                np.multiply(_mirror(upper, rows), block, out=block)
            else:
                off = _momentum(q, rows)
                np.multiply(_mirror(lower, rows), off, out=off)
                np.negative(np.multiply(off, block, out=block), out=block)
            block *= rest
            np.fft.ifft(block, axis=-1, norm="ortho", out=block)
        np.fft.ifft(psi, axis=-2, norm="ortho", out=psi)
        if c == 0:
            upper = None  # component 0 was its only reader: free it before the density
            density = np.zeros((n, n))
        for rows in _row_blocks(n):
            density[rows] += np.abs(psi[rows]) ** 2
    schrod = [np.fft.ifft(f * kinetic, norm="ortho") for f in schrod]
    out["boundary_density"] = max(edge_ratio(density), _separable_boundary_density(*schrod))
    del density  # before keep_fields builds the Schrodinger mesh
    if keep_fields:
        out["dirac_field"] = WaveField(grid, dirac, gauge_frame=True, time=t_final)
        out["schrodinger_field"] = WaveField(grid, np.multiply.outer(*schrod), time=t_final)
    return out


def limit_scaling_study(k0_values, n: int = 128, t_final: float = 10.0,
                        params: PhysicalParams = NATURAL_UNITS) -> dict:
    """"vc_scales" and "distances" at each |k0|, in ascending order.

    Each |k0| value runs at k0 = (|k0|, 0), the default geometry (sigma =
    4/|k0|, box = 24 sigma) and one step, and only its distance is read:
    _limit_distance of the coefficients run_limit_comparison uses, so no run
    builds an n^2 array.  A GridResolutionError names the study point and
    its geometry, since neither is the caller's own.
    """
    k0s = [Momentum(k, 0.0) for k in sorted(k0_values)]
    distances = []
    for k0 in k0s:
        sigma = 4.0 / k0.magnitude
        try:
            grid, _, spectra = _packet(k0, n, sigma)
        except GridResolutionError as exc:
            raise GridResolutionError(
                f"scaling study at |k0| = {k0.magnitude:.4g} (sigma = 4/|k0| = {sigma:.4g}, "
                f"box = 24 sigma = {24.0 * sigma:.4g}): {exc}") from exc
        _, p2, energy = _mode_terms(grid, params)
        upper, _, kinetic = _packet_coefficients(grid, params, p2, energy, t_final)
        distances.append(_limit_distance(params, _folded_weights(spectra), upper, kinetic,
                                         t_final))
    return {"vc_scales": [params.hbar * k0.magnitude / (params.m * params.c) for k0 in k0s],
            "distances": distances}


# Landau filtering: a state is bulk when its mean radius is at most this
# fraction of the box side, and neighbouring bulk eigenvalues closer than this
# relative gap belong to one level.
COMPACT_RADIUS_FRACTION = 0.25
CLUSTER_REL_GAP = 2e-2
# landau_levels solves at magnetic lengths in [3h, L/6], grid spacing h, box side L.
MAGNETIC_LENGTH_SPACINGS = 3.0
MAGNETIC_LENGTH_BOX_DIVISOR = 6.0


def _cell_centers(grid: Grid2D) -> np.ndarray:
    # Cell-centered coordinates keep the symmetric gauge centered on the box.
    # The half-integer offsets are exact and rounding is sign-symmetric, so
    # x[n-1-j] == -x[j] bit for bit at any box side.
    return (np.arange(grid.n) - (grid.n - 1) / 2.0) * grid.spacing


def _landau_hamiltonian(b_field: float, grid: Grid2D,
                        params: PhysicalParams) -> sparse.csr_matrix:
    """(1/2m)(P + eA)^2 in the symmetric gauge A = (B/2)(-y, x), 5-point
    stencils, Dirichlet box, as three Kronecker terms in diag(a), a = (B/2) x.
    px and Ax act on different tensor factors and commute, as do py and Ay,
    so the cross term is (e/m)(px Ax + py Ay)."""
    n = grid.n
    h = grid.spacing
    a = sparse.diags(0.5 * b_field * _cell_centers(grid))
    off = np.ones(n - 1)
    d2 = sparse.diags([off, -2.0 * np.ones(n), off], [-1, 0, 1]) / h**2
    d1 = sparse.diags([-off, off], [-1, 1]) / (2.0 * h)
    hbar, e, m = params.hbar, params.e, params.m
    return (
        (-hbar**2 / (2 * m)) * sparse.kronsum(d2, d2)
        + (-1j * hbar * e / m) * (sparse.kron(a, d1) - sparse.kron(d1, a))
        + (e**2 / (2 * m)) * sparse.kronsum(a @ a, a @ a)
    ).tocsr()


def _rotation_orbits(n: int) -> np.ndarray:
    """Flat indices (i*n + j) of the orbits of the 90-degree rotation
    R: (i, j) -> (n-1-j, i) on an even n x n grid, shape (4, n*n/4).

    Row r is R^r applied to the lower-left quadrant, so column q holds the
    orbit of quadrant cell q: four distinct cells at one distance from the
    centre, and every cell of the grid lies in exactly one orbit.  R^r (i, j)
    is cell (i, j) of the index grid rotated clockwise r times.
    """
    cells = np.arange(n * n).reshape(n, n)
    return np.array([np.rot90(cells, -r)[:n // 2, :n // 2].ravel() for r in range(4)])


def _symmetry_defects(ham: sparse.csr_matrix, orbits: np.ndarray) -> tuple:
    """(max|R H - H R|, max|T H - H T|) / max|H| for the rotation R e_c = e_{Rc}
    and the antiunitary T = K D, complex conjugation times the reflection
    D e_(i,j) = e_(j,i).

    R H - H R = R (H - R^T H R) and (R^T H R)[c, c'] = H[Rc, Rc'], so the
    first compares H with itself re-indexed by the rotation; the second
    compares conj H with H re-indexed by D, as (T^-1 H T)[c, c'] = conj H[Dc, Dc'].
    """
    n = math.isqrt(orbits.size)
    rotate = np.empty(orbits.size, dtype=int)
    rotate[orbits] = np.roll(orbits, -1, axis=0)
    mirror = np.arange(orbits.size).reshape(n, n).T.ravel()
    scale = np.abs(ham.data).max()
    return tuple(float(np.abs((ham[p][:, p] - b).data).max(initial=0.0) / scale)
                 for p, b in ((rotate, ham), (mirror, ham.conj())))


def _sector_blocks(ham: sparse.csr_matrix, orbits: np.ndarray) -> list:
    """The blocks H_m = V_m^H ham V_m, m = 0..3, where column q of V_m is
    (1/2) sum_r i^(-m r) e_{R^r c_q}.  As R commutes with ham,
    ham[R^r c, R^s c'] = ham[c, R^(s-r) c'], so the four r terms are equal
    and H_m = sum_s i^(-m s) ham[orbits[0], orbits[s]]: no product is formed."""
    rows = ham[orbits[0]]
    slices = [rows[:, orbit] for orbit in orbits]
    phases = np.array([1.0, -1j, -1.0, 1j])  # i^(-s)
    return [sum(phases[(m * s) % 4] * block for s, block in enumerate(slices)).tocsr()
            for m in range(4)]


def _reflection_basis(half: int) -> sparse.csr_matrix:
    """W, the basis in which T = K D makes every C4 block real symmetric.

    D maps quadrant cell q = (i, j), flat index i*half + j, to Dq = (j, i);
    D R D = R^-1, so T gives T V_m e_q = V_m e_Dq.  W's columns are
    (e_q + e_Dq)/sqrt2, or e_q when q = Dq, for each q with i >= j, then
    i(e_q - e_Dq)/sqrt2 for each q with i > j: each is fixed by T, so
    W^H H_m W is real when T commutes with H.
    """
    i, j = np.divmod(np.arange(half * half), half)
    mirror = j * half + i
    even, odd = np.flatnonzero(i >= j), np.flatnonzero(i > j)
    symmetric = np.searchsorted(even, odd)
    antisymmetric = even.size + np.arange(odd.size)
    s = np.sqrt(0.5)
    rows = np.concatenate([even, mirror[odd], odd, mirror[odd]])
    columns = np.concatenate([np.arange(even.size), symmetric, antisymmetric, antisymmetric])
    values = np.concatenate([np.where(i[even] == j[even], 1.0, s), np.full(odd.size, s),
                             np.full(odd.size, 1j * s), np.full(odd.size, -1j * s)])
    return sparse.csr_matrix((values, (rows, columns)), shape=(half * half, half * half))


def _sector_cap(n: int) -> int:
    """The most pairs _sector_lowest asks of one C4 block of an n x n grid,
    two fewer than its dimension n*n/4."""
    return n * n // 4 - 2


def _lowest_eigenpairs(ham: sparse.csr_matrix, k: int):
    """The k eigenpairs of Hermitian or real symmetric ham nearest 0: its k
    lowest when it is positive definite, which the returned below_shift == 0
    proves.

    Shift-invert at sigma = 0: ham is factored once and ARPACK iterates with
    its inverse, so it converges fastest to the eigenvalues nearest 0.  Those
    are the k lowest when no eigenvalue lies at or below 0, and the factor
    tells whether one does: when SuperLU keeps its pivots on the diagonal (perm_r ==
    perm_c), P ham P^T = L D L^H, and by Sylvester's law of inertia the
    number of pivots with Re D <= 0 is the number of eigenvalues <= 0.
    Returns (values ascending, vectors, below_shift); below_shift is that
    count, or None when SuperLU pivoted off the diagonal and it is unknown.

    ARPACK starts from one real fixed-seed Gaussian vector, so repeated
    solves agree bit for bit.  The Landau solve calls this once per C4
    rotation sector (_sector_lowest), each block holding one eigenvalue i^m
    of the rotation, so no start vector has to reach across sectors.
    """
    lu = splu(ham.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    below_shift = None
    if np.array_equal(lu.perm_r, lu.perm_c):
        below_shift = int(np.count_nonzero(lu.U.diagonal().real <= 0.0))
    inverse = LinearOperator(ham.shape, matvec=lu.solve, dtype=ham.dtype)
    start = np.random.default_rng(0).standard_normal(ham.shape[0])
    values, vectors = eigsh(ham, k=k, sigma=0.0, which="LM", OPinv=inverse, v0=start)
    order = np.argsort(values)
    return values[order], vectors[:, order], below_shift


def _sector_lowest(ham: sparse.csr_matrix, orbits: np.ndarray, k: int,
                   k_sector: int):
    """The k lowest eigenvalues of ham, which commutes with the rotation R
    and with T = K D, solved as four real symmetric blocks W^H V_m^H ham V_m W
    of dimension n*n/4 (_sector_blocks, _reflection_basis).

    Each block gives its k_sector lowest pairs (_lowest_eigenpairs).  With
    tau the smallest of the four blocks' largest returned values, every
    eigenvalue of ham below tau has been returned, so the k lowest of the
    union are certified once at least k of them lie below tau.  Until then
    k_sector doubles, up to _sector_cap; at that cap the values below tau are
    returned, fewer than k.  They are at most 4 cap - 1, as the block whose
    largest value is tau returns at most cap - 1 below it.

    Returns (values ascending, weights, below_shift).  weights[q, i] is
    |c_q|^2 for the i-th vector's amplitude c_q on orbit q, so the mean of
    a function constant on orbits is (its quadrant values) @ weights.  For a
    real block eigenvector u, c = W u and these are |W|^2 @ u^2.
    below_shift sums the four blocks' inertia counts, or is None when one
    is unknown.
    """
    basis = _reflection_basis(math.isqrt(orbits.shape[1]))
    # .real views the complex data with a stride; splu takes contiguous data.
    blocks = [(basis.conj().T @ block @ basis).real.copy()
              for block in _sector_blocks(ham, orbits)]
    cap = _sector_cap(math.isqrt(orbits.size))
    k_sector = min(k_sector, cap)
    while True:
        solves = [_lowest_eigenpairs(block, k_sector) for block in blocks]
        tau = min(values[-1] for values, _, _ in solves)
        values = np.concatenate([values for values, _, _ in solves])
        order = np.argsort(values, kind="stable")
        certified = order[values[order] < tau][:k]
        if certified.size == k or k_sector == cap:
            break
        k_sector = min(2 * k_sector, cap)
    weights = abs(basis).power(2) @ np.hstack([vectors for _, vectors, _ in solves]) ** 2
    counts = [count for _, _, count in solves]
    below_shift = None if None in counts else sum(counts)
    return values[certified], weights[:, certified], below_shift


def landau_levels(b_field: float, grid: Grid2D, params: PhysicalParams = NATURAL_UNITS,
                  n_levels: int = 3) -> dict:
    """Lowest Landau levels of the minimally coupled Schrodinger Hamiltonian.

    Assembles (1/2m)((-i hbar d_x + e Ax)^2 + (-i hbar d_y + e Ay)^2) in the
    symmetric gauge with 5-point stencils on a Dirichlet box.  The wall smears
    each level into a drift ladder, so only compact eigenstates (mean radius
    at most COMPACT_RADIUS_FRACTION * L) are gap-clustered into levels, each
    reported at its most compact member.

    Returns "magnetic_length", "commutator" and "reflection" (max|R H - H R|
    and max|T H - H T| over max|H|, for the 90-degree rotation R and
    T = K D, conjugation times the diagonal reflection), "levels" (the
    n_levels level energies, ascending) and "below_shift" (the eigenvalues
    at or below the solve's shift; 0 proves the lowest states were found,
    None when a factorization cannot tell).  The C4 sectors are solved as
    real blocks (_sector_lowest) only when both symmetry defects are 0;
    otherwise the last two are None.

    Raises FieldWindowError, before any assembly, when the magnetic length
    sqrt(hbar/(e B)) lies outside [MAGNETIC_LENGTH_SPACINGS * h,
    L / MAGNETIC_LENGTH_BOX_DIVISOR], grid spacing h and box side L; a
    caller tries a field by calling this.  Raises GridResolutionError when
    n_levels needs more eigenpairs than the sector solve certifies (refused
    before any solve) or fewer bulk levels are found.
    """
    if b_field <= 0:
        raise ValueError("magnetic field strength must be positive")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    magnetic_length = np.sqrt(params.hbar / (params.e * b_field))
    h = grid.spacing
    lowest = MAGNETIC_LENGTH_SPACINGS * h
    highest = grid.length / MAGNETIC_LENGTH_BOX_DIVISOR
    if magnetic_length < lowest or magnetic_length > highest:
        raise FieldWindowError(
            f"magnetic length {magnetic_length:.4g} outside "
            f"[{MAGNETIC_LENGTH_SPACINGS:g}h = {lowest:.4g}, "
            f"L/{MAGNETIC_LENGTH_BOX_DIVISOR:g} = {highest:.4g}]"
        )
    n = grid.n
    degeneracy = grid.length**2 / (2.0 * np.pi * magnetic_length**2)
    k = int(np.ceil(n_levels * degeneracy + 3 * n_levels + 10))
    certifiable = 4 * _sector_cap(n) - 1
    if k > certifiable:
        raise GridResolutionError(
            f"{n_levels} levels need k = {k} eigenpairs, more than the n^2 - 9 = "
            f"{certifiable} the sector solve of a {n}x{n} grid certifies; lower n_levels")
    ham = _landau_hamiltonian(b_field, grid, params)
    orbits = _rotation_orbits(n)
    commutator, reflection = _symmetry_defects(ham, orbits)
    out = {
        "magnetic_length": float(magnetic_length),
        "commutator": commutator,
        "reflection": reflection,
    }
    if commutator != 0.0 or reflection != 0.0:
        return out | {"levels": None, "below_shift": None}

    values, weights, below_shift = _sector_lowest(ham, orbits, k, -(-k // 4) + 6)

    # Orbit q lies at the radius of its quadrant cell (i, j), i and j < n/2.
    squares = _cell_centers(grid)[:n // 2] ** 2
    radius = np.sqrt(np.add.outer(squares, squares)).ravel()
    levels = _bulk_levels(values, radius @ weights, grid.length, n_levels)
    if len(levels) < n_levels:
        raise GridResolutionError(
            f"found only {len(levels)} bulk level clusters among {values.size} eigenvalues "
            f"at magnetic length {magnetic_length:.4g}, grid spacing h = {h:.4g} and box "
            f"side L = {grid.length:.4g}")
    return out | {"levels": levels, "below_shift": below_shift}


def _bulk_levels(values: np.ndarray, mean_radius: np.ndarray, length: float,
                 n_levels: int) -> list:
    """The n_levels lowest bulk levels (fewer when fewer are found) among
    ascending eigenvalues whose states have the given mean radii, each at its
    most compact member."""
    compact = mean_radius <= COMPACT_RADIUS_FRACTION * length
    bulk_values = values[compact]
    bulk_radii = mean_radius[compact]
    if bulk_values.size == 0:
        raise GridResolutionError(
            "no compact eigenstates found; enlarge the box relative to the "
            "magnetic length"
        )
    cuts = np.flatnonzero(
        np.diff(bulk_values) > CLUSTER_REL_GAP * np.abs(bulk_values[1:])) + 1
    return [float(v[np.argmin(r)]) for v, r in
            zip(np.split(bulk_values, cuts)[:n_levels], np.split(bulk_radii, cuts))]


def export_csv(f: WaveField, path) -> None:
    """Write samples as CSV: x, y, re(psi1), im(psi1), re(psi2), im(psi2).

    Scalar fields leave the psi2 columns zero.  Rows are written one block
    of grid rows at a time, so no (n^2, 6) table is built.
    """
    x, y = f.grid.axes()
    with open(path, "w") as fh:
        fh.write("x,y,re_psi1,im_psi1,re_psi2,im_psi2\n")
        for rows in _row_blocks(f.grid.n):
            xs, ys = np.meshgrid(x[rows], y, indexing="ij")
            first = f.component(0)[rows]
            second = f.data[1, rows] if f.components == 2 else np.zeros_like(first)
            table = np.column_stack([
                xs.ravel(), ys.ravel(),
                first.real.ravel(), first.imag.ravel(),
                second.real.ravel(), second.imag.ravel(),
            ])
            np.savetxt(fh, table, delimiter=",")


def export_raw(f: WaveField, path) -> None:
    """Write raw little-endian float64 blocks plus a JSON sidecar.

    Layout: per component, row-major (n, n) samples with the real part and the
    imaginary part interleaved as the trailing axis, i.e. shape
    (components, n, n, 2) in C order.  The sidecar <path>.json records the
    grid and frame metadata.
    """
    path = str(path)
    # A complex sample is its real part then its imaginary part: "<c16" is
    # the layout above, with no copy on a little-endian machine.
    f.data.astype("<c16", copy=False).tofile(path)
    sidecar = {
        "grid_n": f.grid.n,
        "box_side": f.grid.length,
        "components": f.components,
        "time": f.time,
        "gauge_frame": f.gauge_frame,
        "dtype": "<f8",
        "layout": "(components, n, n, re/im), C order",
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_raw(path) -> WaveField:
    """Read a field written by export_raw."""
    path = str(path)
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    n = sidecar["grid_n"]
    comps = sidecar["components"]
    block = np.fromfile(path, dtype="<f8").reshape(comps, n, n, 2)
    data = block[..., 0] + 1j * block[..., 1]
    if comps == 1:
        data = data[0]
    return WaveField(Grid2D(n, sidecar["box_side"]), data,
                     gauge_frame=sidecar["gauge_frame"], time=sidecar["time"])
