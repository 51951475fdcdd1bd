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
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .planewave import Momentum, PhysicalParams


class GridResolutionError(ValueError):
    """Grid too coarse (or step too large) to resolve the requested physics."""


class GaugeFrameError(RuntimeError):
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

    def wavenumbers(self):
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
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


def boundary_density(f: WaveField) -> float:
    """Peak |psi|^2 on the outermost grid cells relative to the global peak."""
    dens = np.abs(f.data) ** 2
    if f.components == 2:
        dens = dens.sum(axis=0)
    edge = max(dens[0, :].max(), dens[-1, :].max(), dens[:, 0].max(), dens[:, -1].max())
    return float(edge / dens.max())


def _mode_terms(grid: Grid2D, params: PhysicalParams):
    """Per-mode terms of H(k) on the full wavenumber mesh.

    Returns p = c*hbar*(kx + i ky) and hbar*w(k) = sqrt(|p|^2 + (m c^2)^2);
    in these terms H(k) = [[m c^2, i conj(p)], [-i p, -m c^2]].
    """
    kx, ky = grid.wavenumbers()
    p = params.c * params.hbar * (kx + 1j * ky)
    energy = np.sqrt(p.real**2 + p.imag**2 + params.rest_energy**2)
    return p, energy


def _spinor_weights(grid: Grid2D, params: PhysicalParams):
    """G1 = -i p / (E + m c^2) and the metric divisor sqrt(1-|G1|^2) per mode."""
    p, energy = _mode_terms(grid, params)
    g1 = -1j * p / (energy + params.rest_energy)
    return g1, np.sqrt(1.0 - np.abs(g1) ** 2)


def build_gaussian(grid: Grid2D, center, k0: Momentum, sigma: float,
                   components: int = 1,
                   params: PhysicalParams = None) -> WaveField:
    """Normalized Gaussian packet of width sigma carrying mean momentum k0.

    |psi|^2 has per-axis variance sigma^2.  The 2-component variant projects
    every Fourier mode onto the positive-branch spinor u_N(k), so the packet
    is free of negative-branch weight.
    """
    params = params or PhysicalParams()
    if sigma < 4.0 * grid.spacing:
        raise GridResolutionError(
            f"sigma={sigma:.4g} must be at least 4 grid spacings ({4 * grid.spacing:.4g})"
        )
    if k0.magnitude + 4.0 / sigma > grid.nyquist:
        raise GridResolutionError(
            f"spectral support |k0|+4/sigma = {k0.magnitude + 4 / sigma:.4g} "
            f"exceeds the Nyquist wavenumber {grid.nyquist:.4g}"
        )
    width = 4.0 * sigma**2  # before the mesh arithmetic, so an overflow raises here
    x, y = grid.meshes()
    envelope = np.exp(
        -((x - center[0]) ** 2 + (y - center[1]) ** 2) / width
        + 1j * (k0.kx * x + k0.ky * y)
    )
    if components == 1:
        return WaveField(grid, envelope).normalized()
    if components != 2:
        raise ValueError("components must be 1 or 2")
    g1, divisor = _spinor_weights(grid, params)
    spectrum = np.fft.fft2(envelope, norm="ortho") / divisor
    data = np.fft.ifft2(np.stack([spectrum, g1 * spectrum]), norm="ortho")
    return WaveField(grid, data).normalized()


def negative_branch_weight(f: WaveField, params: PhysicalParams = None) -> float:
    """Fraction of the norm carried by negative-branch modes (metric projection)."""
    params = params or PhysicalParams()
    if f.components != 2:
        raise ValueError("negative_branch_weight expects a 2-component field")
    g1, divisor = _spinor_weights(f.grid, params)
    up, low = np.fft.fft2(f.data, norm="ortho")
    # For psi-hat = c_u u_N + c_v v_N the metric projection gives
    # v_N-bar sigma_3 psi-hat = -c_v, with v_N = (conj(G1), 1)/divisor.
    c_v = (low - g1 * up) / divisor
    total = np.sum(np.abs(up) ** 2 + np.abs(low) ** 2)
    return float(np.sqrt(np.sum(np.abs(c_v) ** 2) / total))


def evolve_dirac(f: WaveField, t: float, params: PhysicalParams = None) -> WaveField:
    """Advance a 2-component field by exp(-i t H(k)/hbar) mode-by-mode.

    H(k) is Hermitian with H(k)^2 = E^2, E = hbar*w(k), so the propagator is
    cos(w t) - i sin(w t) H(k)/E: exactly unitary for any t.
    """
    params = params or PhysicalParams()
    if f.components != 2:
        raise ValueError("evolve_dirac expects a 2-component field")
    if f.gauge_frame:
        raise GaugeFrameError("evolve_dirac expects a lab-frame field")
    p, energy = _mode_terms(f.grid, params)
    theta = energy * t / params.hbar  # = w(k) t
    sin_t = np.sin(theta) / energy
    diag = np.cos(theta) - 1j * sin_t * params.rest_energy
    off = sin_t * p
    up, low = np.fft.fft2(f.data, norm="ortho")
    spectrum = np.empty_like(f.data)  # U = cos(w t) - i sin_t H(k), row by row
    spectrum[0] = diag * up + np.conj(off) * low
    spectrum[1] = np.conj(diag) * low - off * up
    data = np.fft.ifft2(spectrum, norm="ortho")
    return WaveField(f.grid, data, gauge_frame=False, time=f.time + t)


def remove_rest_phase(f: WaveField, t: float, params: PhysicalParams = None) -> WaveField:
    """Multiply by exp(+i m c^2 t / hbar), moving to the co-rotating frame."""
    params = params or PhysicalParams()
    if f.gauge_frame:
        raise GaugeFrameError("rest-mass phase already removed from this field")
    phase = np.exp(1j * params.rest_energy * t / params.hbar)
    return replace(f, data=f.data * phase, gauge_frame=True)


def small_component(f: WaveField, params: PhysicalParams = None) -> WaveField:
    """Closure estimate of the lower component from the upper one.

    In the co-rotating frame the lower component is slaved to the upper:
    psi_low ~= -(hbar / 2mc) (d_x + i d_y) psi_up, accurate to O((v/c)^2);
    per mode that is -i p / (2 m c^2) times the upper amplitude.
    """
    params = params or PhysicalParams()
    if f.components != 2:
        raise ValueError("small_component expects a 2-component field")
    if not f.gauge_frame:
        raise GaugeFrameError("small_component expects a gauge-frame field")
    p, _ = _mode_terms(f.grid, params)
    spectrum = np.fft.fft2(f.data[0], norm="ortho") * (-1j * p / (2.0 * params.rest_energy))
    return WaveField(f.grid, np.fft.ifft2(spectrum, norm="ortho"),
                     gauge_frame=True, time=f.time)


@dataclass(frozen=True)
class PotentialConfig:
    """Electromagnetic potentials sampled on the grid.

    a0 is the scalar potential (enters the Hamiltonian as e*c*a0), ax/ay the
    vector potential (enters as (-i hbar grad + e A)^2 / 2m).  Split-step
    evolution supports arbitrary a0 but only uniform ax/ay; spatially varying
    vector potentials are the business of the stationary Landau solver.
    """

    a0: object = 0.0
    ax: object = 0.0
    ay: object = 0.0

    def __post_init__(self):
        for name in ("a0", "ax", "ay"):
            value = getattr(self, name)
            if np.iscomplexobj(value):
                raise ValueError(f"{name} must be real-valued")
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 2:
                rng = arr.max() - arr.min()
                step = max(
                    np.abs(np.diff(arr, axis=0)).max(initial=0.0),
                    np.abs(np.diff(arr, axis=1)).max(initial=0.0),
                )
                if rng > 0 and step > 0.5 * rng:
                    warnings.warn(
                        f"potential {name} changes by {step:.3g} between neighboring "
                        f"samples (range {rng:.3g}); evolution may be under-resolved",
                        stacklevel=2,
                    )

    def uniform_vector(self) -> tuple[float, float] | None:
        """(Ax, Ay) if the vector potential is uniform, else None."""
        values = []
        for value in (self.ax, self.ay):
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                values.append(float(arr))
            elif np.ptp(arr) == 0.0:
                values.append(float(arr.flat[0]))
            else:
                return None
        return values[0], values[1]

    @classmethod
    def uniform_field(cls, grid: Grid2D, b: float) -> "PotentialConfig":
        """Symmetric gauge for a uniform perpendicular magnetic field B."""
        x, y = grid.meshes()
        return cls(a0=0.0, ax=-0.5 * b * y, ay=0.5 * b * x)


def evolve_schrodinger(f: WaveField, t: float, params: PhysicalParams = None,
                       pot: PotentialConfig = None, steps: int = None) -> WaveField:
    """Advance a scalar field under the planar Schrodinger equation.

    Strang splitting alternating the exact kinetic phase
    exp(-i hbar k^2 dt / 2m) (momenta shifted by e*A/hbar for uniform A) with
    the real-space scalar phase exp(-i e c a0 dt / hbar); second order in the
    step size.  Without a potential this is one step, exact at every mode.
    """
    params = params or PhysicalParams()
    if f.components != 1:
        raise ValueError("evolve_schrodinger expects a scalar field")
    if t == 0.0:
        return replace(f, data=f.data.copy())
    if pot is None:
        pot, steps = PotentialConfig(), 1
    uniform = pot.uniform_vector()
    if uniform is None:
        raise ValueError(
            "split-step evolution supports only a uniform vector potential; "
            "use landau_levels for spatially varying A"
        )
    if steps is None:
        steps = 200
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = t / steps
    ax, ay = uniform
    kx, ky = f.grid.wavenumbers()
    shift_x = params.e * ax / params.hbar
    shift_y = params.e * ay / params.hbar
    kinetic = params.hbar * ((kx + shift_x) ** 2 + (ky + shift_y) ** 2) / (2.0 * params.m)
    scalar = params.e * params.c * np.asarray(pot.a0, dtype=float) / params.hbar
    if np.abs(scalar).max() * abs(dt) > np.pi:
        raise GridResolutionError(
            "potential phase per step exceeds pi; increase steps"
        )
    kin_phase = np.exp(-1j * kinetic * dt)
    half_pot = np.exp(-0.5j * scalar * dt)
    data = f.data * half_pot
    for step in range(steps):
        data = np.fft.ifft2(np.fft.fft2(data, norm="ortho") * kin_phase, norm="ortho")
        if step < steps - 1:
            data = data * (half_pot * half_pot)
    data = data * half_pot
    return replace(f, data=data, time=f.time + t)


def mean_momentum(f: WaveField) -> tuple[float, float]:
    kx, ky = f.grid.wavenumbers()
    spectrum = np.abs(np.fft.fft2(f.component(0), norm="ortho")) ** 2
    weight = spectrum.sum()
    return (float((kx * spectrum).sum() / weight), float((ky * spectrum).sum() / weight))


def compare_limit(dirac_field: WaveField, schrod_field: WaveField) -> float:
    """Relative L2 distance between the Dirac upper component and the
    Schrodinger field."""
    if dirac_field.grid != schrod_field.grid:
        raise ValueError("compare_limit requires matching grids")
    if dirac_field.components != 2 or schrod_field.components != 1:
        raise ValueError("expected a 2-component Dirac field and a scalar field")
    if not dirac_field.gauge_frame:
        raise GaugeFrameError("Dirac field must be in the gauge frame for comparison")
    diff = dirac_field.data[0] - schrod_field.data
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) / np.sum(np.abs(schrod_field.data) ** 2)))


def run_limit_comparison(k0x: float, k0y: float = 0.0, n: int = 128,
                         t_final: float = 10.0,
                         params: PhysicalParams = None,
                         sigma: float = None, box: float = None,
                         steps: int = None, keep_fields: bool = False) -> dict:
    """Evolve the same initial upper component under both dynamics and compare.

    The Dirac run starts from (psi_0, 0): the Gaussian in the upper component
    and nothing in the lower one, which is literally the Schrodinger initial
    condition.  The small negative-branch admixture this carries is the
    O((v/c)^2) physics the comparison measures.

    Geometry defaults scale with the packet: sigma = 4/|k0| and box = 24*sigma,
    keeping the relative momentum spread fixed across scaling runs.  steps
    splits the evolution into sequential applications (free evolution is
    step-count independent; this exercises the group property).
    """
    params = params or PhysicalParams()
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    k0 = Momentum(k0x, k0y)
    if sigma is None:
        if k0.magnitude == 0.0:
            if box is None:
                raise ValueError("k0 = 0 needs an explicit sigma or box")
            sigma = box / 24.0
        else:
            sigma = 4.0 / k0.magnitude
    if box is None:
        box = 24.0 * sigma
    grid = Grid2D(n, box)
    scalar = build_gaussian(grid, (0.0, 0.0), k0, sigma, components=1, params=params)
    dirac_t = WaveField(grid, np.stack([scalar.data, np.zeros_like(scalar.data)]))
    schrod_t = scalar

    chunks = steps or 1
    for _ in range(chunks):
        dirac_t = evolve_dirac(dirac_t, t_final / chunks, params)
        schrod_t = evolve_schrodinger(schrod_t, t_final / chunks, params)
    dirac_t = remove_rest_phase(dirac_t, t_final, params)
    out = {
        "distance": compare_limit(dirac_t, schrod_t),
        "vc_scale": params.hbar * k0.magnitude / (params.m * params.c),
        "sigma": sigma,
        "box": box,
        "boundary_density": max(boundary_density(dirac_t), boundary_density(schrod_t)),
    }
    if keep_fields:
        out["dirac_field"] = dirac_t
        out["schrodinger_field"] = schrod_t
    return out


def limit_scaling_study(k0_values, n: int = 128, t_final: float = 10.0,
                        params: PhysicalParams = None) -> dict:
    """Distances at several velocity scales plus the fitted log-log slope.

    When a distance is exactly 0 (the fields never moved apart, as at a
    subnormal t_final) there is nothing to fit: "slope" and
    "halving_ratios" are then None.
    """
    runs = [run_limit_comparison(k, 0.0, n=n, t_final=t_final, params=params)
            for k in sorted(k0_values)]
    vcs = np.array([r["vc_scale"] for r in runs])
    distances = np.array([r["distance"] for r in runs])
    slope = ratios = None
    if distances.all():
        slope = float(np.polyfit(np.log(vcs), np.log(distances), 1)[0])
        ratios = [float(distances[i + 1] / distances[i]) for i in range(len(runs) - 1)]
    return {"vc_scales": vcs.tolist(), "distances": distances.tolist(),
            "slope": slope, "halving_ratios": ratios}


# Landau filtering: a state is bulk when its mean radius is at most this
# fraction of the box side, and neighbouring bulk eigenvalues closer than this
# relative gap belong to one level.
COMPACT_RADIUS_FRACTION = 0.25
CLUSTER_REL_GAP = 2e-2


def _cell_centers(grid: Grid2D) -> np.ndarray:
    # Cell-centered coordinates keep the symmetric gauge centered on the box.
    return (np.arange(grid.n) + 0.5) * grid.spacing - grid.length / 2.0


def _landau_hamiltonian(b_field: float, grid: Grid2D,
                        params: PhysicalParams) -> sparse.csr_matrix:
    """(1/2m)(P + eA)^2 in the symmetric gauge, 5-point stencils, Dirichlet box."""
    n = grid.n
    h = grid.spacing
    x = _cell_centers(grid)
    eye = sparse.identity(n, format="csr")
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    d2 = sparse.diags([off, main, off], [-1, 0, 1], format="csr") / h**2
    d1 = sparse.diags([-off, off], [-1, 1], format="csr") / (2.0 * h)

    lap = sparse.kron(d2, eye) + sparse.kron(eye, d2)
    px = -1j * params.hbar * sparse.kron(d1, eye)
    py = -1j * params.hbar * sparse.kron(eye, d1)
    ax = sparse.kron(eye, sparse.diags(-0.5 * b_field * x))  # -B y / 2
    ay = sparse.kron(sparse.diags(0.5 * b_field * x), eye)   # +B x / 2

    e = params.e
    m = params.m
    return (
        (-params.hbar**2 / (2 * m)) * lap
        + (e / (2 * m)) * (px @ ax + ax @ px + py @ ay + ay @ py)
        + (e**2 / (2 * m)) * (ax @ ax + ay @ ay)
    ).tocsr()


def _lowest_eigenpairs(ham: sparse.csr_matrix, k: int):
    """The k eigenpairs of Hermitian ham nearest 0: its k lowest when it is
    positive definite, which the returned below_shift == 0 proves.

    Shift-invert at sigma = 0: ham is factored once and ARPACK iterates with
    its inverse, so it converges fastest to the eigenvalues nearest 0.  Those
    are the k lowest when no eigenvalue lies at or below 0, and the factor
    tells whether one does: when SuperLU keeps its pivots on the diagonal (perm_r ==
    perm_c), P ham P^T = L D L^H, and by Sylvester's law of inertia the
    number of pivots with Re D <= 0 is the number of eigenvalues <= 0.
    Returns (values ascending, vectors, below_shift); below_shift is that
    count, or None when SuperLU pivoted off the diagonal and it is unknown.

    ARPACK starts from a fixed-seed complex Gaussian, so repeated solves agree
    bit for bit.  A structured start (all ones) would not do: it is C4-symmetric
    on the symmetric-gauge square box, and its Krylov space would miss the
    other symmetry sectors.
    """
    lu = splu(ham.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    below_shift = None
    if np.array_equal(lu.perm_r, lu.perm_c):
        below_shift = int(np.count_nonzero(lu.U.diagonal().real <= 0.0))
    inverse = LinearOperator(ham.shape, matvec=lu.solve, dtype=ham.dtype)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(ham.shape[0]) + 1j * rng.standard_normal(ham.shape[0])
    values, vectors = eigsh(ham, k=k, sigma=0.0, which="LM", OPinv=inverse, v0=start)
    order = np.argsort(values)
    return values[order], vectors[:, order], below_shift


def landau_levels(b_field: float, grid: Grid2D, params: PhysicalParams = None,
                  n_levels: int = 3) -> dict:
    """Lowest Landau levels of the minimally coupled Schrodinger Hamiltonian.

    Assembles (1/2m)((-i hbar d_x + e Ax)^2 + (-i hbar d_y + e Ay)^2) in the
    symmetric gauge with 5-point stencils on a Dirichlet box.  The Dirichlet
    wall smears each degenerate level into a drift ladder of boundary-squeezed
    states, so eigenstates are first filtered by compactness (mean radius
    below COMPACT_RADIUS_FRACTION * L); the compact survivors bunch tightly at
    each level and are gap-clustered.  Each level is reported at its most
    compact member, the state least touched by the wall and the lattice.
    Bulk levels should match hbar*w_c*(n + 1/2) with w_c = e B / m.

    The operator is non-negative with its lowest level at hbar*w_c/2, so the
    eigensolve shifts and inverts at 0, below the spectrum in any units.
    "below_shift" is the number of eigenvalues at or below that shift, read
    off the factorization (0 proves the solve returned the lowest states; see
    _lowest_eigenpairs), or None when the factorization cannot tell.
    """
    params = params or PhysicalParams()
    if b_field <= 0:
        raise ValueError("magnetic field strength must be positive")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    magnetic_length = np.sqrt(params.hbar / (params.e * b_field))
    h = grid.spacing
    if magnetic_length < 3.0 * h or magnetic_length > grid.length / 6.0:
        raise GridResolutionError(
            f"magnetic length {magnetic_length:.4g} outside "
            f"[3h = {3 * h:.4g}, L/6 = {grid.length / 6:.4g}]"
        )
    n = grid.n
    ham = _landau_hamiltonian(b_field, grid, params)

    degeneracy = grid.length**2 / (2.0 * np.pi * magnetic_length**2)
    k = min(int(np.ceil(n_levels * degeneracy + 3 * n_levels + 10)), n * n - 2)
    values, vectors, below_shift = _lowest_eigenpairs(ham, k)

    x = _cell_centers(grid)
    grid_x, grid_y = np.meshgrid(x, x, indexing="ij")
    radius = np.sqrt(grid_x**2 + grid_y**2).ravel()
    mean_radius = radius @ (np.abs(vectors) ** 2)
    compact = mean_radius <= COMPACT_RADIUS_FRACTION * grid.length
    bulk_values = values[compact]
    bulk_radii = mean_radius[compact]
    if bulk_values.size == 0:
        raise GridResolutionError(
            "no compact eigenstates found; enlarge the box relative to the "
            "magnetic length"
        )

    clusters = [[0]]
    for i in range(1, bulk_values.size):
        if bulk_values[i] - bulk_values[i - 1] <= CLUSTER_REL_GAP * abs(bulk_values[i]):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) < n_levels:
        raise GridResolutionError(
            f"found only {len(clusters)} bulk level clusters among {k} eigenvalues; "
            "enlarge the grid or lower n_levels"
        )

    cyclotron = params.e * b_field / params.m
    levels = [float(bulk_values[min(cluster, key=lambda i: bulk_radii[i])])
              for cluster in clusters[:n_levels]]
    expected = [params.hbar * cyclotron * (j + 0.5) for j in range(n_levels)]
    return {
        "levels": levels,
        "expected": expected,
        "magnetic_length": float(magnetic_length),
        "relative_errors": [abs(l / e0 - 1.0) for l, e0 in zip(levels, expected)],
        "below_shift": below_shift,
    }


def export_csv(f: WaveField, path) -> None:
    """Write samples as CSV: x, y, re(psi1), im(psi1), re(psi2), im(psi2).

    Scalar fields leave the psi2 columns zero.
    """
    x, y = f.grid.meshes()
    first = f.component(0)
    second = f.data[1] if f.components == 2 else np.zeros_like(first)
    table = np.column_stack([
        x.ravel(), y.ravel(),
        first.real.ravel(), first.imag.ravel(),
        second.real.ravel(), second.imag.ravel(),
    ])
    np.savetxt(path, table, delimiter=",",
               header="x,y,re_psi1,im_psi1,re_psi2,im_psi2", comments="")


def export_raw(f: WaveField, path) -> None:
    """Write raw little-endian float64 blocks plus a JSON sidecar.

    Layout: per component, row-major (n, n) samples with the real part and the
    imaginary part interleaved as the trailing axis, i.e. shape
    (components, n, n, 2) in C order.  The sidecar <path>.json records the
    grid and frame metadata.
    """
    path = str(path)
    data = f.data if f.components == 2 else f.data[np.newaxis]
    block = np.stack([data.real, data.imag], axis=-1).astype("<f8")
    block.tofile(path)
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
