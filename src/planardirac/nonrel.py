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

from .planewave import NATURAL_UNITS, Momentum, PhysicalParams


def eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported on the first call.

    Only perfbench/tracing.py names it, and no suite calls it, so the traced
    nonrel.eigsh_* metrics read 0; ROADMAP 1b deletes it.  Importing scipy's
    eigsh here, not at module load, keeps scipy.linalg and its OpenBLAS out
    of every CLI process."""
    from scipy.sparse.linalg import eigsh as scipy_eigsh

    return scipy_eigsh(*args, **kwargs)


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


# landau_levels solves at magnetic lengths of at least 3 grid spacings.
MAGNETIC_LENGTH_SPACINGS = 3.0
# The five-point second derivative (B. Fornberg, Math. Comp. 51, 699, 1988), times 12 h^2.
_D4_WEIGHTS = (-1.0, 16.0, -30.0, 16.0, -1.0)


def _cell_centers(grid: Grid2D) -> np.ndarray:
    # The half-integer offsets are exact and rounding is sign-symmetric, so
    # x[n-1-j] == -x[j] bit for bit at any box side.
    return (np.arange(grid.n) - (grid.n - 1) / 2.0) * grid.spacing


def _wall_margin(n_levels: int) -> float:
    """The distance, in magnetic lengths, from a guiding centre to the wall
    at which level j = n_levels - 1 clears it: sqrt(2j + 8), its classical
    turning point sqrt(2j + 1) with 7 more under the root.  A Dirichlet wall
    that far from the centre lifts level j of the oscillator by 0.88e-3 to
    1.17e-3 of its energy for every j in 0..15, and lower levels by less
    (the half-oscillator on [-12, d], second-order stencil, h = 0.004)."""
    return math.sqrt(2 * n_levels + 6)


def _stencil_spacings(n_levels: int) -> float:
    """The magnetic length, in grid spacings, above which the five-point
    stencil holds level j = n_levels - 1 within 0.02 of hbar w_c (j + 1/2),
    the bound of cli's level check.  D4's symbol is k^2 - h^4 k^6 / 90 + ...,
    so to leading order it lowers level j by (hbar^2 / 2m) h^4 <k^6> / 90,
    and the oscillator's <k^6> = (5/8)(4j^3 + 6j^2 + 8j + 3) / l_B^6 makes
    that (5/8)(4j^3 + 6j^2 + 8j + 3) / (180 (j + 1/2)) (h / l_B)^4 of the
    level.  The leading term overstates the error, so at this edge the
    levels err by at most 0.0177; it is below MAGNETIC_LENGTH_SPACINGS for
    n_levels <= 11 and grows as sqrt(n_levels) beyond."""
    j = n_levels - 1
    error_at_unit_length = 5.0 * (4 * j**3 + 6 * j**2 + 8 * j + 3) / (8.0 * 180.0 * (j + 0.5))
    return (error_at_unit_length / 0.02) ** 0.25


def _landau_blocks(b_field: float, grid: Grid2D, params: PhysicalParams,
                   k_y: np.ndarray) -> np.ndarray:
    """H(k_y) = -(hbar^2/2m) D4 + diag((hbar k_y + e B x)^2)/2m for each k_y,
    shape (k_y.size, n, n): (1/2m)(P + eA)^2 in the Landau gauge A = (0, Bx)
    on one Fourier mode e^(i k_y y) of the periodic y axis.  D4 is the
    five-point stencil in x on the cell centres, Dirichlet beyond them.

    Both terms are exactly even under x -> -x, k_y -> -k_y: the cell centres
    are antisymmetric bit for bit and IEEE rounding is sign-symmetric, so
    H(-k_y) is H(k_y) with its rows and columns reversed, bit for bit."""
    n = grid.n
    scale = -params.hbar**2 / (2.0 * params.m * 12.0 * grid.spacing**2)
    kinetic = sum(np.diag(np.full(n - abs(offset), scale * weight), offset)
                  for offset, weight in zip(range(-2, 3), _D4_WEIGHTS))
    momentum = params.hbar * k_y[:, np.newaxis] + (params.e * b_field) * _cell_centers(grid)
    blocks = np.repeat(kinetic[np.newaxis], k_y.size, axis=0)
    diagonal = np.arange(n)
    blocks[:, diagonal, diagonal] += momentum**2 / (2.0 * params.m)
    return blocks


def landau_levels(b_field: float, grid: Grid2D, params: PhysicalParams = NATURAL_UNITS,
                  n_levels: int = 3) -> dict:
    """Lowest Landau levels of the minimally coupled Schrodinger Hamiltonian
    (1/2m)(P + eA)^2 on a cylinder: the Landau gauge A = (0, Bx) (L. Landau,
    Z. Phys. 64, 629, 1930), y periodic with period L and x a Dirichlet wall
    beyond the grid's cell centres.

    Each k_y = 2 pi j / L is exact, and H(k_y) is a real symmetric n x n
    problem (_landau_blocks) whose states sit at the guiding centre
    x0 = -hbar k_y / (e B) = -j 2 pi l_B^2 / L, magnetic length
    l_B = sqrt(hbar/(e B)).  Centres at least _wall_margin(n_levels)
    magnetic lengths from the wall at x = +-(n + 1) h / 2 are kept.  Three
    are solved, in one batched np.linalg.eigvalsh: the axis centre j = 0
    and the outermost kept pair j = +-J (J = 1 when the axis alone is kept).
    The wall lifts a level more the nearer its centre lies, so the spread
    over the three is, to rounding, the spread over every kept centre.

    Returns "magnetic_length"; "levels", the n_levels lowest eigenvalues at
    the axis centre, ascending; "outermost_centre", |x0| at j = J when it is
    kept, else None; "spread", per level, (max - min) over the three
    centres over the axis value, or None when the axis alone is kept; and
    "mirror", max|spectrum(k_y) - spectrum(-k_y)| at j = J, two spectra
    that x -> -x makes equal, over the axis spectrum's largest |eigenvalue|.

    Raises FieldWindowError, before any assembly, when l_B lies outside
    [MAGNETIC_LENGTH_SPACINGS * h, (n + 1) h / (2 _wall_margin(n_levels))],
    grid spacing h, or below _stencil_spacings(n_levels) * h: below, the
    stencil does not resolve the levels; above, level n_levels - 1 at the
    axis centre does not clear the wall.  A caller tries a field by calling
    this.
    """
    if b_field <= 0:
        raise ValueError("magnetic field strength must be positive")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    magnetic_length = np.sqrt(params.hbar / (params.e * b_field))
    h = grid.spacing
    wall = 0.5 * (grid.n + 1) * h
    margin = _wall_margin(n_levels)
    lowest = MAGNETIC_LENGTH_SPACINGS * h
    highest = wall / margin
    if magnetic_length < lowest or magnetic_length > highest:
        raise FieldWindowError(
            f"magnetic length {magnetic_length:.4g} outside "
            f"[{MAGNETIC_LENGTH_SPACINGS:g}h = {lowest:.4g}, "
            f"wall/sqrt(2*{n_levels}+6) = {highest:.4g}]: {n_levels} levels need the "
            f"wall (n+1)h/2 = {wall:.4g} at least {margin:.4g} magnetic lengths away"
        )
    resolved = _stencil_spacings(n_levels)
    if magnetic_length < resolved * h:
        raise FieldWindowError(
            f"magnetic length {magnetic_length:.4g} below {resolved:.4g}h = {resolved * h:.4g}: "
            f"the five-point stencil holds level {n_levels - 1} within 0.02 of "
            f"hbar*w_c*(n+1/2) only above it"
        )
    step = 2.0 * np.pi * magnetic_length**2 / grid.length  # between neighbouring centres
    outermost = int((wall - margin * magnetic_length) // step)
    j = np.array([-1, 0, 1]) * max(outermost, 1)
    spectra = np.linalg.eigvalsh(
        _landau_blocks(b_field, grid, params, 2.0 * np.pi * j / grid.length))
    low, axis, high = spectra
    levels = axis[:n_levels]
    spread = None
    if outermost:
        spread = (np.ptp(spectra[:, :n_levels], axis=0) / levels).tolist()
    return {
        "magnetic_length": float(magnetic_length),
        "levels": levels.tolist(),
        "outermost_centre": float(outermost * step) if outermost else None,
        "spread": spread,
        "mirror": float(np.abs(high - low).max() / np.abs(axis).max()),
    }


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
