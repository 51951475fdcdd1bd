"""Spectral evolution, the Schrodinger reduction, minimal coupling, and the
field snapshot formats."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from planardirac import nonrel as nr
from planardirac.algebra import matrix_exponential, pauli
from planardirac.planewave import Momentum, PhysicalParams
from planardirac.planewave import g1 as g1_amplitude

NATURAL = PhysicalParams()
SCALED = PhysicalParams(m=2.0, c=3.0, hbar=0.7, e=1.3)


def single_mode_field(kx, n=16, gauge_frame=False):
    """Exact positive-branch plane wave at an on-grid wavenumber."""
    grid = nr.Grid2D(n, 2.0 * np.pi * 4 / kx)  # kx sits on grid mode 4
    x, _ = grid.meshes()
    envelope = np.exp(1j * kx * x)
    lower = g1_amplitude(Momentum(kx, 0.0), NATURAL) * envelope
    field = nr.WaveField(grid, np.stack([envelope, lower]), gauge_frame=gauge_frame)
    return field.normalized()


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            nr.Grid2D(48, 1.0)

    def test_rejects_small_or_degenerate(self):
        with pytest.raises(ValueError):
            nr.Grid2D(4, 1.0)
        with pytest.raises(ValueError):
            nr.Grid2D(16, 0.0)

    def test_wavenumbers_span_nyquist(self):
        grid = nr.Grid2D(16, 8.0)
        kx, _ = grid.wavenumbers()
        assert kx.max() == pytest.approx(grid.nyquist - 2 * np.pi / grid.length)
        assert kx.min() == pytest.approx(-grid.nyquist)

    def test_wavenumber_mesh_is_built_from_the_axis(self):
        grid = nr.Grid2D(16, 8.0)
        k = grid.wavenumber_axis()
        kx, ky = grid.wavenumbers()
        assert np.array_equal(kx, np.broadcast_to(k[:, None], (16, 16)))
        assert np.array_equal(ky, np.broadcast_to(k[None, :], (16, 16)))


class TestWaveField:
    def test_shape_validation(self):
        grid = nr.Grid2D(8, 1.0)
        with pytest.raises(ValueError):
            nr.WaveField(grid, np.zeros((4, 4)))

    def test_norm_includes_cell_area(self):
        grid = nr.Grid2D(8, 2.0)
        f = nr.WaveField(grid, np.ones((8, 8)))
        assert f.norm == pytest.approx(2.0)  # sqrt(64 * (0.25)^2)


class TestGaussianPacket:
    def test_normalized(self):
        grid = nr.Grid2D(64, 40.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.3, 0.1), 3.0)
        assert f.norm == pytest.approx(1.0, abs=1e-12)

    def test_zero_momentum_packet_is_symmetric(self):
        grid = nr.Grid2D(64, 40.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0, 0), 3.0)
        weight = np.abs(np.fft.fft2(f.data, norm="ortho")) ** 2
        for k in grid.wavenumbers():
            assert abs(np.sum(k * weight) / np.sum(weight)) < 1e-10

    def test_spinor_packet_is_pure_positive_branch(self):
        grid = nr.Grid2D(64, 160.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.1, -0.05), 20.0,
                              components=2, params=NATURAL)
        assert f.norm == pytest.approx(1.0, abs=1e-12)
        assert nr.negative_branch_weight(f, NATURAL) < 1e-12

    def test_matches_exponential_mesh(self):
        """The separable packet equals the n^2 complex exponential of the
        full envelope, normalized, off centre and with k0 off axis."""
        grid = nr.Grid2D(64, 40.0)
        center, k0, sigma = (1.5, -2.25), Momentum(0.3, -0.2), 3.0
        f = nr.build_gaussian(grid, center, k0, sigma)
        x, y = grid.meshes()
        envelope = np.exp(-((x - center[0]) ** 2 + (y - center[1]) ** 2) / (4.0 * sigma**2)
                          + 1j * (k0.kx * x + k0.ky * y))
        reference = envelope / (np.sqrt(np.sum(np.abs(envelope) ** 2)) * grid.spacing)
        assert np.abs(f.data - reference).max() < 1e-14 * np.abs(reference).max()

    def test_rejects_unresolvable_width(self):
        grid = nr.Grid2D(16, 16.0)
        with pytest.raises(nr.GridResolutionError, match="sigma"):
            nr.build_gaussian(grid, (0, 0), Momentum(0, 0), 1.0)

    def test_rejects_spectral_support_beyond_nyquist(self):
        grid = nr.Grid2D(16, 16.0)
        with pytest.raises(nr.GridResolutionError, match="Nyquist"):
            nr.build_gaussian(grid, (0, 0), Momentum(3.0, 0.0), 4.5)


class TestDiracEvolution:
    def test_rest_mode_phases(self):
        """A uniform (1,0) spinor rotates as exp(-i m c^2 t / hbar); (0,1) as
        the opposite phase."""
        grid = nr.Grid2D(8, 5.0)
        ones = np.ones((8, 8), dtype=complex)
        zeros = np.zeros((8, 8), dtype=complex)
        t = 0.73
        up = nr.evolve_dirac(nr.WaveField(grid, np.stack([ones, zeros])), t, NATURAL)
        down = nr.evolve_dirac(nr.WaveField(grid, np.stack([zeros, ones])), t, NATURAL)
        assert np.abs(up.data[0] - ones * np.exp(-1j * t)).max() < 1e-14
        assert np.abs(up.data[1]).max() == 0.0
        assert np.abs(down.data[1] - ones * np.exp(+1j * t)).max() < 1e-14

    @pytest.mark.parametrize("n,length", [(8, 3.0), (64, 17.3), (256, 1920.0)])
    def test_mode_terms_equal_the_mesh_formulas(self, n, length):
        """p from the axis momenta, and |p|^2 and hbar w(k) from one quadrant
        mirrored by index, equal c hbar (kx + i ky), its squared modulus and
        sqrt(|p|^2 + (m c^2)^2) on the full mesh bit for bit."""
        grid = nr.Grid2D(n, length)
        params = PhysicalParams(m=2.0, c=3.0, hbar=0.5)
        q, p2, energy = nr._mode_terms(grid, params)
        kx, ky = grid.wavenumbers()
        p = params.c * params.hbar * (kx + 1j * ky)
        assert np.array_equal(nr._momentum(q), p)
        assert np.array_equal(nr._mirror(p2), p.real**2 + p.imag**2)
        assert np.array_equal(nr._mirror(energy),
                              np.sqrt(p.real**2 + p.imag**2 + params.rest_energy**2))

    def test_group_property(self):
        grid = nr.Grid2D(32, 80.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.1, 0.0), 10.0,
                              components=2, params=NATURAL)
        split = nr.evolve_dirac(nr.evolve_dirac(f, 1.3, NATURAL), 2.4, NATURAL)
        direct = nr.evolve_dirac(f, 3.7, NATURAL)
        assert np.abs(split.data - direct.data).max() < 1e-12

    def test_norm_conserved(self):
        grid = nr.Grid2D(32, 64.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.2, 0.1), 8.0,
                              components=2, params=NATURAL)
        assert abs(nr.evolve_dirac(f, 57.0, NATURAL).norm - 1.0) < 1e-12

    def test_matches_per_mode_matrix_exponential(self):
        """The vectorized propagator equals exp(-i t H(k)/hbar) applied with
        the scalar closed-form exponential, mode by mode."""
        grid = nr.Grid2D(8, 5.0)
        rng = np.random.default_rng(19)
        data = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
        f = nr.WaveField(grid, data)
        t = 0.9
        evolved = nr.evolve_dirac(f, t, NATURAL)
        kx, ky = grid.wavenumbers()
        up = np.fft.fft2(f.data[0], norm="ortho")
        low = np.fft.fft2(f.data[1], norm="ortho")
        ref_up = np.empty_like(up)
        ref_low = np.empty_like(low)
        for i in range(8):
            for j in range(8):
                h = (ky[i, j] * pauli(1) - kx[i, j] * pauli(2)) + pauli(3)
                u = matrix_exponential(h, t)
                vec = u @ np.array([up[i, j], low[i, j]])
                ref_up[i, j], ref_low[i, j] = vec
        ref = np.stack([np.fft.ifft2(ref_up, norm="ortho"),
                        np.fft.ifft2(ref_low, norm="ortho")])
        assert np.abs(evolved.data - ref).max() < 1e-13

    def test_dispersion_phase(self):
        """A single positive-branch mode acquires exactly exp(-i w(k) t)."""
        kx = 0.5
        f = single_mode_field(kx)
        t = 2.0
        evolved = nr.evolve_dirac(f, t, NATURAL)
        omega = np.sqrt(1.0 + kx**2)
        overlap = np.vdot(f.data, evolved.data) / np.vdot(f.data, f.data)
        assert abs(overlap - np.exp(-1j * omega * t)) < 1e-10

    def test_klein_gordon_time_consistency(self):
        """Second time difference of the evolved mode satisfies the squared
        wave equation with Richardson-verified order 2."""
        kx = 0.7
        f = single_mode_field(kx)
        kg_factor = kx**2 + 1.0

        def residual(dt):
            plus = nr.evolve_dirac(f, dt, NATURAL)
            minus = nr.evolve_dirac(f, -dt, NATURAL)
            fd2 = (plus.data - 2.0 * f.data + minus.data) / dt**2
            return float(np.abs(fd2 + kg_factor * f.data).max())

        order = np.log2(residual(0.02) / residual(0.01))
        assert abs(order - 2.0) < 0.1

    @pytest.mark.parametrize("params", [NATURAL, PhysicalParams(m=2.0, c=3.0, hbar=0.5)])
    @pytest.mark.parametrize("t", [0.0, 10.0, 57.0, -3.0])
    def test_evolution_stays_on_positive_branch(self, params, t):
        """The propagator and the branch projection share one H(k): evolving
        a positive-branch packet leaves no negative-branch weight."""
        grid = nr.Grid2D(64, 160.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.1, -0.05), 20.0,
                              components=2, params=params)
        assert nr.negative_branch_weight(nr.evolve_dirac(f, t, params), params) < 1e-12

    def test_requires_two_components_and_lab_frame(self):
        grid = nr.Grid2D(8, 5.0)
        scalar = nr.WaveField(grid, np.ones((8, 8)))
        with pytest.raises(ValueError):
            nr.evolve_dirac(scalar, 1.0, NATURAL)
        gauged = nr.WaveField(grid, np.ones((2, 8, 8)), gauge_frame=True)
        with pytest.raises(nr.GaugeFrameError):
            nr.evolve_dirac(gauged, 1.0, NATURAL)


class TestRestPhase:
    def test_zero_time_is_identity(self):
        f = single_mode_field(0.3)
        out = nr.remove_rest_phase(f, 0.0, NATURAL)
        assert np.abs(out.data - f.data).max() == 0.0
        assert out.gauge_frame

    def test_double_application_rejected(self):
        f = single_mode_field(0.3)
        once = nr.remove_rest_phase(f, 1.0, NATURAL)
        with pytest.raises(nr.GaugeFrameError):
            nr.remove_rest_phase(once, 1.0, NATURAL)

    def test_norm_unchanged(self):
        f = single_mode_field(0.3)
        assert nr.remove_rest_phase(f, 2.2, NATURAL).norm == pytest.approx(f.norm)

    def test_rest_frame_solution_becomes_static(self):
        """The k = 0 positive-branch wave is time-independent in the gauge frame."""
        grid = nr.Grid2D(8, 5.0)
        ones = np.ones((8, 8), dtype=complex)
        f = nr.WaveField(grid, np.stack([ones, np.zeros_like(ones)])).normalized()
        t = 1.7
        evolved = nr.remove_rest_phase(nr.evolve_dirac(f, t, NATURAL), t, NATURAL)
        assert np.abs(evolved.data - f.data).max() < 1e-13


def full_mesh_closure(grid, k0, sigma, params):
    """(closure error, mean (hbar |k| / m c)^2) of the positive-branch packet,
    on the full mesh: the closure estimate s = -i p / (2 m c^2) of the lower
    component against the lower component itself, and the mean over the
    scalar packet's |spectrum|^2."""
    kx, ky = grid.wavenumbers()
    p = params.c * params.hbar * (kx + 1j * ky)
    spinor = nr.build_gaussian(grid, (0, 0), k0, sigma, components=2, params=params)
    up, low = np.fft.fft2(spinor.data, norm="ortho")
    estimate = -1j * p / (2.0 * params.rest_energy) * up
    closure = np.sqrt(np.sum(np.abs(estimate - low) ** 2) / np.sum(np.abs(low) ** 2))
    scalar = nr.build_gaussian(grid, (0, 0), k0, sigma)
    weight = np.abs(np.fft.fft2(scalar.data, norm="ortho")) ** 2
    mean_vc2 = np.sum(weight * np.abs(p) ** 2) / np.sum(weight) / params.rest_energy**2
    return closure, mean_vc2


class TestSmallComponent:
    @pytest.mark.parametrize("n,k0,sigma,box,params", [
        (128, (0.025, 0.0), None, None, NATURAL),
        (128, (0.05, 0.0), None, None, NATURAL),
        (256, (0.1, 0.0), None, None, NATURAL),
        (128, (0.2, 0.0), None, None, NATURAL),
        (128, (0.03, 0.04), None, None, NATURAL),
        (128, (0.0, 0.0), 5.0, 120.0, NATURAL),
        (128, (0.05, 0.0), 4.0 * 1920.0 / 128, 1920.0, NATURAL),
        (256, (0.2, 0.0), 4.0 * 480.0 / 256, 480.0, NATURAL),
        # hbar k0 / m c = 0.2
        (256, (0.2 * 2.0 * 3.0 / 0.7, 0.0), None, None, PhysicalParams(m=2.0, c=3.0, hbar=0.7)),
    ])
    def test_quadrant_closure_matches_full_mesh(self, n, k0, sigma, box, params):
        """The reported closure, folded onto the (n/2 + 1)^2 quadrant, is the
        full-mesh closure error over the mean (hbar |k| / m c)^2."""
        run = nr.run_limit_comparison(*k0, n=n, t_final=0.0, params=params,
                                      sigma=sigma, box=box)
        grid = nr.Grid2D(n, run["box"])
        closure, mean_vc2 = full_mesh_closure(grid, Momentum(*k0), run["sigma"], params)
        assert run["closure"] == pytest.approx(closure / mean_vc2, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("kx", [0.1, 0.05])
    def test_single_mode_ratio(self, kx):
        """Component ratio approaches hbar k / (2 m c), and the closure
        estimate deviates from the true lower component by O((v/c)^2); the
        exact amplitude is G1 = -i(sqrt(1+kappa^2)-1)/kappa and the exact
        closure error (sqrt(1+kappa^2)-1)/2."""
        f = single_mode_field(kx, gauge_frame=True)
        lower = f.data[1]
        upper_norm = np.sqrt(np.sum(np.abs(f.data[0]) ** 2))
        ratio = np.sqrt(np.sum(np.abs(lower) ** 2)) / upper_norm
        exact = (np.sqrt(1.0 + kx**2) - 1.0) / kx
        assert ratio == pytest.approx(exact, rel=1e-12)
        assert abs(ratio / (kx / 2.0) - 1.0) < kx**2
        for n in (16, 8):  # kx on mode 4; at n = 8 that is the Nyquist mode n/2
            grid = single_mode_field(kx, n).grid
            x, _ = grid.axes()
            spectra = [np.fft.fft(np.exp(1j * kx * x), norm="ortho"),
                       np.fft.fft(np.ones(n), norm="ortho")]
            _, p2, energy = nr._mode_terms(grid, NATURAL)
            weights = nr._folded_weights(spectra)
            closure_error = nr._closure_ratio(NATURAL, p2, energy, weights) * kx**2
            assert closure_error == pytest.approx((np.sqrt(1.0 + kx**2) - 1.0) / 2.0,
                                                  rel=1e-12)
            assert closure_error < kx**2

    def test_closure_error_scales_quadratically(self):
        """Halving the wavenumber quarters the closure deviation."""
        def deviation(k0):
            run = nr.run_limit_comparison(k0, n=128, t_final=0.0)
            grid = nr.Grid2D(128, run["box"])
            return run["closure"] * full_mesh_closure(grid, Momentum(k0, 0.0),
                                                      run["sigma"], NATURAL)[1]

        ratio = deviation(0.1) / deviation(0.05)
        assert 3.5 < ratio < 4.5

    def test_symmetric_packet_has_small_lower_norm(self):
        """At k0 = 0 the positive-branch packet's lower component is small,
        and its closure sits near the Gaussian limit sqrt(6)/4."""
        grid = nr.Grid2D(64, 160.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0, 0), 10.0,
                              components=2, params=NATURAL)
        upper_norm = np.sqrt(np.sum(np.abs(f.data[0]) ** 2))
        assert np.sqrt(np.sum(np.abs(f.data[1]) ** 2)) < 0.05 * upper_norm
        run = nr.run_limit_comparison(0.0, n=64, t_final=0.0, sigma=10.0, box=160.0)
        assert run["closure"] == pytest.approx(np.sqrt(6.0) / 4.0, rel=0.01)

    def test_ultrarelativistic_grid_stays_finite(self):
        """The sums stay finite on a grid whose modes reach hbar |k| / m c of
        1e152, where |p|^3 alone would overflow."""
        with np.errstate(over="raise", invalid="raise"):
            run = nr.run_limit_comparison(0.0, n=128, t_final=0.0, sigma=4e-152, box=1e-150)
        assert 0.0 < run["closure"] < 1.0


class TestSchrodingerEvolution:
    def test_zero_time_identity(self):
        grid = nr.Grid2D(32, 16.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.3, 0), 2.0)
        out = nr.evolve_schrodinger(f, 0.0, NATURAL)
        assert np.abs(out.data - f.data).max() == 0.0

    def test_free_packet_spreading_oracle(self):
        """width^2(t) = sigma^2 (1 + (hbar t / 2 m sigma^2)^2), to 1e-6."""
        grid = nr.Grid2D(128, 40.0)
        sigma, t = 2.0, 4.0
        f = nr.evolve_schrodinger(
            nr.build_gaussian(grid, (0, 0), Momentum(0, 0), sigma), t, NATURAL)
        x, _ = grid.meshes()
        density = np.abs(f.data) ** 2
        density /= density.sum()
        variance = float((x**2 * density).sum() - ((x * density).sum()) ** 2)
        expected = sigma**2 * (1.0 + (t / (2.0 * sigma**2)) ** 2)
        assert variance == pytest.approx(expected, rel=1e-6)

    def test_norm_conserved_with_potential(self):
        grid = nr.Grid2D(32, 16.0)
        x, y = grid.meshes()
        a0 = 0.4 * np.cos(2 * np.pi * x / grid.length)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.4, 0), 2.0)
        out = nr.evolve_schrodinger(f, 3.0, NATURAL, a0, steps=60)
        assert abs(out.norm - 1.0) < 1e-10

    def test_constant_scalar_potential_is_global_phase(self):
        """Uniform A0 multiplies the free evolution by exp(-i e c A0 t / hbar)."""
        grid = nr.Grid2D(32, 16.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.4, 0.1), 2.0)
        t, a0 = 2.0, 0.7
        free = nr.evolve_schrodinger(f, t, NATURAL)
        coupled = nr.evolve_schrodinger(f, t, NATURAL, a0, steps=40)
        assert np.abs(coupled.data * np.exp(1j * a0 * t) - free.data).max() < 1e-12
        assert abs(abs(nr.overlap(free, coupled)) - 1.0) < 1e-10

    def test_gauge_shift_changes_only_global_phase(self):
        grid = nr.Grid2D(32, 16.0)
        x, _ = grid.meshes()
        base = 0.3 * np.cos(2 * np.pi * x / grid.length)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.3, 0), 2.0)
        a = nr.evolve_schrodinger(f, 2.0, NATURAL, base, steps=50)
        b = nr.evolve_schrodinger(f, 2.0, NATURAL, base + 1.3, steps=50)
        assert abs(abs(nr.overlap(a, b)) - 1.0) < 1e-10

    def test_strang_splitting_is_second_order(self):
        """Halving the step cuts the error by ~4 against an 8x-finer reference."""
        grid = nr.Grid2D(64, 40.0)
        x, y = grid.meshes()
        a0 = 0.3 * np.cos(2 * np.pi * x / grid.length) * np.cos(2 * np.pi * y / grid.length)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0.3, 0.2), 3.0)
        reference = nr.evolve_schrodinger(f, 2.0, NATURAL, a0, steps=512)
        coarse = nr.evolve_schrodinger(f, 2.0, NATURAL, a0, steps=64)
        fine = nr.evolve_schrodinger(f, 2.0, NATURAL, a0, steps=128)
        err_coarse = np.sqrt(np.sum(np.abs(coarse.data - reference.data) ** 2))
        err_fine = np.sqrt(np.sum(np.abs(fine.data - reference.data) ** 2))
        assert 3.5 < err_coarse / err_fine < 4.5

    @pytest.mark.parametrize("params,n,length,dt", [
        (NATURAL, 64, 30.0, 0.7),
        (NATURAL, 128, 1920.0, 10.0),
        (PhysicalParams(m=2.0, c=3.0, hbar=0.5, e=-1.5), 128, 5.0, 37.0),
    ])
    def test_kinetic_phase_factors_by_axis(self, params, n, length, dt):
        """The per-axis outer product equals exp(-i phi) with phi on the n^2
        mesh.  Each phase carries a few roundings of relative size eps, so the
        two differ by at most 4 eps (1 + max |phi|) per mode."""
        grid = nr.Grid2D(n, length)
        kx, ky = grid.wavenumbers()
        phi = params.hbar * (kx**2 + ky**2) / (2.0 * params.m) * dt
        phase = nr._kinetic_phase(grid, params, dt)
        separable = np.multiply.outer(phase, phase)
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.abs(phi).max())
        assert np.abs(separable - np.exp(-1j * phi)).max() <= bound

    def test_coarse_step_diagnosed(self):
        grid = nr.Grid2D(32, 16.0)
        f = nr.build_gaussian(grid, (0, 0), Momentum(0, 0), 2.0)
        with pytest.raises(nr.GridResolutionError, match="steps"):
            nr.evolve_schrodinger(f, 100.0, NATURAL, 1.0, steps=2)

    def test_rough_potential_warns(self):
        grid = nr.Grid2D(32, 20.0)
        rough = np.zeros((32, 32))
        rough[10, 10] = 5.0
        f = nr.build_gaussian(grid, (0, 0), Momentum(0, 0), 3.0)
        with pytest.warns(UserWarning, match="under-resolved"):
            nr.evolve_schrodinger(f, 1.0, NATURAL, rough, steps=20)

    def test_complex_potential_rejected(self):
        f = nr.WaveField(nr.Grid2D(8, 5.0), np.ones((8, 8)))
        with pytest.raises(ValueError, match="real-valued"):
            nr.evolve_schrodinger(f, 1.0, NATURAL, np.full((8, 8), 1j))

    @pytest.mark.parametrize("a0", [None, 0.0])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_nonpositive_steps_rejected(self, a0, steps):
        """steps < 1 is refused with or without a potential: the free
        default (a0 None, one step) must not overwrite it."""
        f = nr.WaveField(nr.Grid2D(8, 5.0), np.ones((8, 8)))
        with pytest.raises(ValueError, match="steps must be >= 1"):
            nr.evolve_schrodinger(f, 1.0, NATURAL, a0, steps=steps)


class TestCompareLimit:
    def test_rejects_mismatched_grids(self):
        a = nr.WaveField(nr.Grid2D(8, 5.0), np.ones((2, 8, 8)), gauge_frame=True)
        b = nr.WaveField(nr.Grid2D(16, 5.0), np.ones((16, 16)))
        with pytest.raises(ValueError, match="grids"):
            nr.compare_limit(a, b)

    def test_requires_gauge_frame(self):
        grid = nr.Grid2D(8, 5.0)
        a = nr.WaveField(grid, np.ones((2, 8, 8)))
        b = nr.WaveField(grid, np.ones((8, 8)))
        with pytest.raises(nr.GaugeFrameError):
            nr.compare_limit(a, b)

    def test_uniform_field_reduces_to_rest_phase(self):
        """At k0 = 0 with no spatial structure both dynamics are a pure rest
        phase and the distance vanishes."""
        grid = nr.Grid2D(16, 10.0)
        ones = np.ones((16, 16), dtype=complex)
        scalar = nr.WaveField(grid, ones).normalized()
        dirac = nr.WaveField(grid, np.stack([scalar.data, np.zeros_like(ones)]))
        t = 3.0
        dirac_t = nr.remove_rest_phase(nr.evolve_dirac(dirac, t, NATURAL), t, NATURAL)
        schrod_t = nr.evolve_schrodinger(scalar, t, NATURAL)
        assert nr.compare_limit(dirac_t, schrod_t) < 1e-10

    def test_zero_time_distance_vanishes(self):
        run = nr.run_limit_comparison(0.05, n=128, t_final=0.0)
        assert run["distance"] < 1e-12

    def test_comparison_and_halving_ratio(self):
        """The packet comparison lands in the quadratic (v/c) regime: halving
        k0 cuts the distance by a factor close to 4."""
        coarse = nr.run_limit_comparison(0.1, n=128, t_final=10.0)
        fine = nr.run_limit_comparison(0.05, n=128, t_final=10.0)
        assert coarse["distance"] < 1e-2
        assert 3.0 < coarse["distance"] / fine["distance"] < 5.0

    def test_steps_do_not_change_the_answer(self):
        single = nr.run_limit_comparison(0.05, n=128, t_final=4.0)
        chunked = nr.run_limit_comparison(0.05, n=128, t_final=4.0, steps=4)
        assert single["distance"] == pytest.approx(chunked["distance"], abs=1e-10)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_spectral_path_matches_public_api(self, steps):
        """The suite's Fourier-space run gives the distance that the public
        real-space calls give: build_gaussian, chunked evolve_dirac and
        evolve_schrodinger, remove_rest_phase, compare_limit."""
        n, t = 128, 10.0
        k0_values = [0.05, 0.1]
        reference = []
        for k0 in k0_values:
            sigma = 4.0 / k0
            grid = nr.Grid2D(n, 24.0 * sigma)
            schrod = nr.build_gaussian(grid, (0.0, 0.0), Momentum(k0, 0.0), sigma)
            dirac = nr.WaveField(grid, np.stack([schrod.data, np.zeros_like(schrod.data)]))
            for _ in range(steps):
                dirac = nr.evolve_dirac(dirac, t / steps, NATURAL)
                schrod = nr.evolve_schrodinger(schrod, t / steps, NATURAL)
            dirac = nr.remove_rest_phase(dirac, t, NATURAL)
            reference.append(nr.compare_limit(dirac, schrod))
        fast = [nr.run_limit_comparison(k0, n=n, t_final=t, steps=steps)["distance"]
                for k0 in k0_values]
        if steps == 1:
            fast += nr.limit_scaling_study(k0_values, n=n, t_final=t)["distances"]
            reference += reference
        assert fast == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k0,sigma,box,n,t,params", [
        ((0.05, 0.0), None, None, 128, 10.0, NATURAL),
        ((0.03, 0.0), None, None, 128, 25.0, NATURAL),
        ((0.03, 0.04), None, None, 128, 10.0, NATURAL),
        ((0.0, 0.0), 5.0, 120.0, 128, 10.0, NATURAL),
        ((0.2, 0.0), None, None, 256, 3.7, NATURAL),
        # hbar k0 / m c = 0.1
        ((0.1 * 2.0 * 3.0 / 0.7, 0.0), None, None, 128, 10.0 * 0.7 / 18.0, SCALED),
    ])
    @pytest.mark.parametrize("steps", [1, 4, 64])
    def test_limit_distance_matches_full_mesh(self, k0, sigma, box, n, t, params, steps):
        """The quadrant sum is the distance of the Dirac upper component,
        rest-mass phase removed, from the Schrodinger spectrum, both formed
        on the n^2 mesh by applying U(dt) and K(dt), dt = t/steps, steps
        times to (psi, 0) and psi.  Each step past the first rounds the two
        unit-norm computations apart by about eps, which is visible relative
        to a small distance: at k0 = 0.03, t = 25 (near a zero of
        sin(m c^2 t / hbar), distance 5.4e-5) and 64 steps, an extended-
        precision run puts the two 6e-12 and 1.2e-11 relative from the exact
        value.  So the bound adds (steps - 1) eps in absolute terms."""
        grid, sigma, spectra = nr._packet(Momentum(*k0), n, sigma, box)
        packet = nr.build_gaussian(grid, (0.0, 0.0), Momentum(*k0), sigma)
        psi = np.fft.fft2(packet.data, norm="ortho")
        kx, ky = grid.wavenumbers()
        k2 = kx**2 + ky**2
        energy = np.sqrt((params.c * params.hbar) ** 2 * k2 + params.rest_energy**2)
        dt = t / steps
        theta = energy * dt / params.hbar
        diag = np.cos(theta) - 1j * np.sin(theta) * params.rest_energy / energy
        off = np.sin(theta) / energy * params.c * params.hbar * (kx + 1j * ky)
        kinetic = np.exp(-1j * params.hbar * k2 * dt / (2.0 * params.m))
        upper, lower, schrod = psi, np.zeros_like(psi), psi
        for _ in range(steps):
            upper, lower = diag * upper + np.conj(off) * lower, np.conj(diag) * lower - off * upper
            schrod = schrod * kinetic
        upper = upper * np.exp(1j * params.rest_energy * t / params.hbar)
        _, p2, quadrant_energy = nr._mode_terms(grid, params)
        coefficient, _, phase = nr._packet_coefficients(grid, params, p2, quadrant_energy,
                                                        t, steps)
        weights = nr._folded_weights(spectra)
        assert nr._limit_distance(params, weights, coefficient, phase, t) == pytest.approx(
            nr._relative_distance(upper, schrod), rel=1e-12,
            abs=(steps - 1) * np.finfo(float).eps)

    def test_scaling_study_builds_no_mesh_array(self):
        """The scaling study at n = 512 peaks below two complex n^2 arrays:
        it reads only quadrant sums."""
        n = 512
        tracemalloc.start()
        try:
            nr.limit_scaling_study([0.025, 0.05, 0.1], n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * n * n

    @staticmethod
    def _traced_peak(**kwargs):
        tracemalloc.start()
        try:
            nr.run_limit_comparison(0.05, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_main_run_peak(self):
        """A one-step main run at n = 512 peaks below 2.05 complex n^2 arrays
        (1.953 measured; the margin is 0.1 array): one component buffer, the
        real density (half an array), the real lower quadrant coefficient
        (1/8 of an array) and the temporaries of one 64-row block (1/8 of
        the rows at n = 512).  Each spinor component is built and
        inverse-transformed along its rows one block at a time straight from
        the quadrant, its columns are transformed in place, and its |psi|^2
        is added into the density a block at a time.  The upper coefficient
        is freed before the density exists.  The distance is a quadrant sum
        taken before any n^2 array exists, and the Schrodinger field stays
        two 1-D factors."""
        n = 512
        assert self._traced_peak(n=n) < 2.05 * 16 * n * n

    def test_main_run_holds_one_complex_mesh(self):
        """At n = 1024, where a row block is 1/16 of the rows, the main run
        peaks below two complex n^2 arrays (1.773 measured): it never holds
        the whole spinor, only one component buffer and the real density."""
        n = 1024
        assert self._traced_peak(n=n) < 2.0 * 16 * n * n

    def test_stepped_run_peak(self):
        """A two-step main run at n = 512 peaks below 2.2 complex n^2 arrays
        (2.079 measured; the margin is 0.12 array), where a one-step run
        does: one component buffer, the density, the lower quadrant
        coefficient and one row block.  The steps run on the quadrant, and
        the only addition is that the quadrant's lower coefficient is
        complex (a quarter array) instead of real, and so is its block."""
        n = 512
        assert self._traced_peak(n=n, steps=2) < 2.2 * 16 * n * n

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("k0", [(0.05, 0.0), (0.03, 0.04)])
    def test_kept_fields_change_no_measurement(self, k0, steps, monkeypatch):
        """keep_fields transforms each component in its own slice of the kept
        spinor, the default run both in one buffer: "distance", "closure"
        and "boundary_density" agree bit for bit.  The boundary density is
        the full-array edge-over-peak ratio of the kept Dirac field, or the
        separable Schrodinger value where that is larger (at k0 = (0.03,
        0.04) and three steps)."""
        separable = []
        measure = nr._separable_boundary_density
        monkeypatch.setattr(nr, "_separable_boundary_density",
                            lambda fx, fy: separable.append(measure(fx, fy)) or separable[-1])
        default, kept = (nr.run_limit_comparison(*k0, n=128, steps=steps, keep_fields=keep)
                         for keep in (False, True))
        for key in ("distance", "closure", "boundary_density"):
            assert kept[key] == default[key]
        assert separable[0] == separable[1]
        spinor = kept["dirac_field"].data
        dens = np.abs(spinor[0]) ** 2 + np.abs(spinor[1]) ** 2
        edge = max(dens[0, :].max(), dens[-1, :].max(), dens[:, 0].max(), dens[:, -1].max())
        assert kept["boundary_density"] == max(float(edge / dens.max()), separable[1])

    def test_main_run_calls_no_ifft2(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ifft2 called")
        monkeypatch.setattr(np.fft, "ifft2", refuse)
        for steps in (1, 3):
            nr.run_limit_comparison(0.05, n=128, steps=steps, keep_fields=True)

    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("k0", [(0.05, 0.0), (0.03, 0.04)])
    def test_kept_fields_match_public_api(self, k0, steps):
        """keep_fields returns the real-space fields that the public calls
        give: build_gaussian, chunked evolve_dirac and evolve_schrodinger,
        remove_rest_phase."""
        n, t = 128, 10.0
        run = nr.run_limit_comparison(*k0, n=n, t_final=t, steps=steps, keep_fields=True)
        sigma = 4.0 / Momentum(*k0).magnitude
        grid = nr.Grid2D(n, 24.0 * sigma)
        schrod = nr.build_gaussian(grid, (0.0, 0.0), Momentum(*k0), sigma)
        dirac = nr.WaveField(grid, np.stack([schrod.data, np.zeros_like(schrod.data)]))
        for _ in range(steps):
            dirac = nr.evolve_dirac(dirac, t / steps, NATURAL)
            schrod = nr.evolve_schrodinger(schrod, t / steps, NATURAL)
        dirac = nr.remove_rest_phase(dirac, t, NATURAL)
        for kept, public in ((run["dirac_field"], dirac), (run["schrodinger_field"], schrod)):
            assert kept.grid == grid and kept.gauge_frame == public.gauge_frame
            assert kept.time == pytest.approx(public.time, rel=1e-15)
            peak = np.abs(public.data).max()
            assert np.abs(kept.data - public.data).max() <= 1e-12 * peak

    @pytest.mark.parametrize("center", [(0.0, 0.0), (9.5, 0.0), (-3.0, 11.0)])
    def test_separable_boundary_density(self, center):
        """The boundary density read from two 1-D factors is that of their
        outer product, for a centred packet and for shifted ones whose tails
        wrap across the box edge."""
        grid = nr.Grid2D(64, 24.0)
        fx, fy = nr._gaussian_factors(grid, center, Momentum(0.3, -0.2), 1.5)
        mesh = nr.edge_ratio(np.abs(np.multiply.outer(fx, fy)) ** 2)
        assert (mesh < 1e-8) == (center == (0.0, 0.0))
        assert nr._separable_boundary_density(fx, fy) == pytest.approx(mesh, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_per_axis_inverse_fft_in_place(self, n):
        """The main run's inverse transform, one 1-D ifft per axis written back
        into the spinor, is ifft2 bit for bit: axis -1 of the whole spinor,
        or of one row block at a time (_row_blocks) as the main run does,
        then the whole of axis -2."""
        rng = np.random.default_rng(n)
        spinor = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        reference = np.fft.ifft2(spinor, norm="ortho")
        whole, blocked = spinor, spinor.copy()
        for block in [whole] + [blocked[:, rows] for rows in nr._row_blocks(n)]:
            assert np.fft.ifft(block, axis=-1, norm="ortho", out=block) is block
        for result in (whole, blocked):
            assert np.fft.ifft(result, axis=-2, norm="ortho", out=result) is result
            assert np.array_equal(result, reference)

    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("n", [8, 128])
    def test_boundary_density_matches_full_array(self, n, components):
        """edge_ratio of the density summed one component and one row block
        at a time, as the main run sums it, is the full-array formula bit for
        bit: at n = 8 the field is one partial block, and at n = 128 the
        edge maximum is on the last row, in the last block."""
        rng = np.random.default_rng(n + components)
        shape = (n, n) if components == 1 else (2, n, n)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data[..., -1, n // 3] *= 8.0
        data[..., n // 2, n // 2] *= 16.0
        dens = np.abs(data) ** 2
        if components == 2:
            dens = dens.sum(axis=0)
        edge = max(dens[0, :].max(), dens[-1, :].max(), dens[:, 0].max(), dens[:, -1].max())
        assert edge == dens[-1, n // 3]
        blocked = np.zeros((n, n))
        for component in data.reshape(-1, n, n):
            for rows in nr._row_blocks(n):
                blocked[rows] += np.abs(component[rows]) ** 2
        assert nr.edge_ratio(blocked) == float(edge / dens.max())

    def test_distance_is_dimensionless(self):
        """The same v/c and the same time in rest-energy units must give the
        same distance whatever the values of m, c, hbar."""
        natural = nr.run_limit_comparison(0.05, n=128, t_final=10.0)
        params = PhysicalParams(m=2.0, c=3.0, hbar=0.5)
        k0 = 0.05 * params.m * params.c / params.hbar
        t_unit = params.hbar / params.rest_energy
        scaled = nr.run_limit_comparison(k0, n=128, t_final=10.0 * t_unit,
                                         params=params)
        assert scaled["vc_scale"] == pytest.approx(0.05, rel=1e-12)
        assert scaled["distance"] == pytest.approx(natural["distance"], rel=1e-9)


def level_errors(result, b_field, params=NATURAL):
    """|E_j / (hbar w_c (j + 1/2)) - 1|, w_c = e B / m, of each reported level."""
    cyclotron = params.e * b_field / params.m
    return [abs(level / (params.hbar * cyclotron * (j + 0.5)) - 1.0)
            for j, level in enumerate(result["levels"])]


def cylinder_operator(b_field, grid, params):
    """The independent reference for the Landau-gauge solve, sparse: the 2-D
    operator (1/2m)[px^2 + (py + e B x)^2] on the n x n grid, row i_x n +
    i_y, px^2 the five-point Dirichlet stencil in x on the cell centres and
    py = -i hbar F^-1 diag(i k) F the spectral derivative on the periodic y
    axis, y_j = j h."""
    n = grid.n
    eye = sparse.identity(n, format="csr")
    d4 = sparse.diags([np.full(n - abs(o), w) for o, w in zip(range(-2, 3),
                                                                (-1.0, 16.0, -30.0, 16.0, -1.0))],
                      range(-2, 3))
    dft = np.fft.fft(np.eye(n), axis=0)
    py = -1j * params.hbar * (np.linalg.inv(dft) @ np.diag(1j * grid.wavenumber_axis()) @ dft)
    coupled = sparse.kron(eye, py) + params.e * b_field * sparse.kron(
        sparse.diags(nr._cell_centers(grid)), eye)
    kinetic = -params.hbar**2 / (12.0 * grid.spacing**2) * sparse.kron(d4, eye)
    return ((kinetic + coupled @ coupled) / (2 * params.m)).tocsc()


def plane_wave_basis(grid, k_y):
    """Columns e_i (x) e^(i k_y y)/sqrt(n), i over the cell centres: the k_y
    sector of cylinder_operator."""
    wave = np.exp(1j * k_y * np.arange(grid.n) * grid.spacing) / np.sqrt(grid.n)
    return np.kron(np.eye(grid.n), wave[:, np.newaxis])


class TestLandauLevels:
    def test_small_grid_levels(self):
        """N = 32 box with magnetic length 3.2 cells: two levels inside 2%."""
        result = nr.landau_levels(1.0, nr.Grid2D(32, 10.0), NATURAL, n_levels=2)
        errors = level_errors(result, 1.0)
        assert len(errors) == 2 and all(err < 0.02 for err in errors)

    def test_magnetic_length_preconditions(self):
        grid = nr.Grid2D(32, 10.0)
        with pytest.raises(nr.GridResolutionError):
            nr.landau_levels(0.05, grid, NATURAL)  # level 2 does not clear the wall
        with pytest.raises(nr.GridResolutionError):
            nr.landau_levels(4.0, grid, NATURAL)  # l_B < 3h

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            nr.landau_levels(0.0, nr.Grid2D(32, 10.0), NATURAL)

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 5])
    def test_window_top_is_where_the_top_level_clears_the_wall(self, n_levels,
                                                                monkeypatch):
        """The largest magnetic length solved is the wall distance (n + 1) h / 2
        over _wall_margin(n_levels) = sqrt(2 n_levels + 6): just inside, the
        field is solved, and one level fewer is solved just outside too; just
        outside, it is refused before any block is assembled."""
        grid = nr.Grid2D(64, 20.0)
        top = 0.5 * 65 * grid.spacing / np.sqrt(2 * n_levels + 6)
        edge = NATURAL.hbar / (NATURAL.e * top**2)
        assert len(nr.landau_levels(edge * (1 + 1e-9), grid, n_levels=n_levels)["levels"]) == (
            n_levels)
        if n_levels > 1:
            nr.landau_levels(edge * (1 - 1e-9), grid, n_levels=n_levels - 1)
        monkeypatch.setattr(nr, "_landau_blocks", lambda *a: pytest.fail("assembled"))
        with pytest.raises(nr.FieldWindowError,
                           match=rf"wall/sqrt\(2\*{n_levels}\+6\) = {top:.4g}\]"):
            nr.landau_levels(edge * (1 - 1e-9), grid, n_levels=n_levels)

    @staticmethod
    def _half_oscillator(wall, count, h=0.004):
        """The count lowest levels of -u''/2 + x^2 u/2 on [-12, wall],
        Dirichlet, second-order stencil at spacing h."""
        x = np.arange(-12.0 + h, wall - h / 2, h)
        return eigh_tridiagonal(1.0 / h**2 + 0.5 * x**2, np.full(x.size - 1, -0.5 / h**2),
                                select="i", select_range=(0, count - 1))[0]

    @pytest.mark.parametrize("n_levels", range(1, 17))
    def test_wall_margin_clears_the_wall(self, n_levels):
        """_wall_margin's derivation, redone: on the half-oscillator, the wall
        at d = sqrt(2j + 8) lifts level j = n_levels - 1 by 0.88e-3 to
        1.17e-3 of its energy, and every lower level by less.  The lift is
        taken against the same stencil with the wall at 14."""
        far = self._half_oscillator(14.0, n_levels)
        lift = self._half_oscillator(nr._wall_margin(n_levels), n_levels) / far - 1.0
        assert 0.88e-3 <= lift[-1] <= 1.17e-3
        assert np.all(lift[:-1] < lift[-1])

    @pytest.mark.parametrize("params", [NATURAL, SCALED], ids=["natural", "scaled"])
    def test_three_centres_in_one_batch(self, params, monkeypatch):
        """One eigvalsh call solves j = -J, 0, J, the axis and the outermost
        centres at least _wall_margin magnetic lengths from the wall: the
        levels are the axis block's lowest, the spread is over the three, and
        the mirror compares the outer pair.  At grid 64, box 20, magnetic
        length 1, 3 levels: J = 21, as 21 steps of 2 pi l_B^2 / L lie within
        (n + 1) h / 2 - sqrt(12) l_B and 22 do not."""
        grid = nr.Grid2D(64, 20.0)
        b_field = params.hbar / params.e  # magnetic length 1
        batches = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda blocks: batches.append(blocks.copy()) or eigvalsh(blocks))
        result = nr.landau_levels(b_field, grid, params)
        step = 2.0 * np.pi / grid.length
        inner = 0.5 * 65 * grid.spacing - np.sqrt(12.0)
        assert 21 * step <= inner < 22 * step
        assert len(batches) == 1
        expected = nr._landau_blocks(b_field, grid, params,
                                     2.0 * np.pi * np.array([-21.0, 0.0, 21.0]) / grid.length)
        assert np.array_equal(batches[0], expected)
        low, axis, high = eigvalsh(expected)
        assert result["levels"] == axis[:3].tolist()
        assert result["outermost_centre"] == pytest.approx(21 * step, rel=1e-15)
        ends = np.stack([low, axis, high])[:, :3]
        assert result["spread"] == ((ends.max(axis=0) - ends.min(axis=0)) / axis[:3]).tolist()
        assert result["mirror"] == np.abs(high - low).max() / np.abs(axis).max()

    def test_axis_alone_kept_near_the_window_top(self):
        """Just inside the window's top, no centre but the axis lies far
        enough from the wall: the levels are reported without a spread, and
        the mirror still compares j = +-1."""
        grid = nr.Grid2D(32, 20.0)
        result = nr.landau_levels(0.12, grid, NATURAL)
        assert result["outermost_centre"] is None and result["spread"] is None
        assert len(result["levels"]) == 3
        assert result["mirror"] <= 1e-12

    @pytest.mark.parametrize("params", [NATURAL, SCALED], ids=["natural", "scaled"])
    @pytest.mark.parametrize("n, box, b_field", [(16, 4.0, 1.0), (32, 20.0, 0.25),
                                                 (32, 17.3, 0.3)])
    def test_hamiltonian_is_the_product_form(self, n, box, b_field, params):
        """Each block equals (1/2m)[px^2 + (hbar k_y + e Ay)^2], Ay = B x, with
        px^2 = -hbar^2 D4 from the five-point weights (-1, 16, -30, 16,
        -1)/12h^2 and the square formed as a sparse product: entry for entry
        in natural units, and within a few ulp of max|H| at other constants."""
        grid = nr.Grid2D(n, box)
        k_y = 2.0 * np.pi * np.array([-3.0, 0.0, 1.0, 5.0]) / box
        weights = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * grid.spacing**2)
        d4 = sparse.diags([np.full(n - abs(o), w) for o, w in zip(range(-2, 3), weights)],
                          range(-2, 3))
        blocks = nr._landau_blocks(b_field, grid, params, k_y)
        for block, k in zip(blocks, k_y):
            momentum = sparse.diags(params.hbar * k + params.e * b_field * nr._cell_centers(grid))
            reference = ((-params.hbar**2 * d4 + momentum @ momentum) / (2 * params.m)).toarray()
            if params is NATURAL:
                assert np.array_equal(block, reference)
            else:
                assert np.abs(block - reference).max() <= 4 * np.finfo(float).eps * np.abs(
                    reference).max()
                assert np.array_equal(block != 0, reference != 0)

    @pytest.mark.parametrize("params", [NATURAL, SCALED], ids=["natural", "scaled"])
    @pytest.mark.parametrize("n, box, b_field", [(8, 4.0, 1.0), (8, 17.3, 0.3),
                                                 (16, 6.0, 0.7)])
    def test_block_spectra_are_the_2d_spectrum(self, n, box, b_field, params):
        """The independent reference: the 2-D Landau-gauge operator
        (cylinder_operator), solved densely, has as its spectrum the sorted
        union of the blocks' spectra over the n wavenumbers k_y = 2 pi j / L."""
        grid = nr.Grid2D(n, box)
        k = grid.wavenumber_axis()
        dense = np.linalg.eigvalsh(cylinder_operator(b_field, grid, params).toarray())
        union = np.sort(np.linalg.eigvalsh(nr._landau_blocks(b_field, grid, params, k)).ravel())
        assert np.abs(dense - union).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("box", [0.1, 17.3, 1e-3 / 3.0, 2e5 / 7.0])
    def test_rotation_commutes_exactly_at_any_box(self, n, box):
        """The rotation by pi, (x, y) -> (-x, -y), leaves the Landau gauge
        A = (0, Bx) as it is (A -> -A(-r) = A), so it commutes with H; on the
        cylinder it takes the cell centre x_i to x_(n-1-i) and k_y to -k_y.
        Cell centres are antisymmetric bit for bit also where (j + 1/2) h
        rounds, so H(-k_y) is H(k_y) reversed in x bit for bit at any box
        side, and the two spectra differ only by rounding."""
        grid = nr.Grid2D(n, box)
        x = nr._cell_centers(grid)
        assert np.array_equal(x[::-1], -x)
        b_field = NATURAL.hbar / (NATURAL.e * (box / 10.0) ** 2)
        k_y = 2.0 * np.pi * np.array([1.0, 3.0, 7.0]) / box
        plus = nr._landau_blocks(b_field, grid, NATURAL, k_y)
        assert np.array_equal(nr._landau_blocks(b_field, grid, NATURAL, -k_y),
                              plus[:, ::-1, ::-1])
        assert nr.landau_levels(b_field, grid, NATURAL)["mirror"] <= 1e-12

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_levels_depend_on_lengths_alone(self, n):
        """The cylinder's levels in units of hbar w_c depend only on l_B, h
        and L: at other m, hbar and e, the same magnetic length gives the
        same levels and spreads, to syevd's rounding of a few eps times the
        largest eigenvalue, some 400 hbar w_c at grid 128 (measured 1.1e-13
        and 2.3e-13 over four OpenBLAS kernels)."""
        grid = nr.Grid2D(n, 20.0)
        b_scaled = 0.25 * SCALED.hbar / SCALED.e  # magnetic length 2, as B = 0.25 in NATURAL
        natural = nr.landau_levels(0.25, grid, NATURAL)
        scaled = nr.landau_levels(b_scaled, grid, SCALED)
        quantum = SCALED.hbar * SCALED.e * b_scaled / SCALED.m
        assert np.abs(np.array(scaled["levels"]) / quantum
                      - np.array(natural["levels"]) / 0.25).max() <= 1e-11
        assert np.abs(np.array(scaled["spread"]) - natural["spread"]).max() <= 1e-11

    @pytest.mark.parametrize("n", [8, 16])
    def test_sector_blocks_are_projections(self, n):
        """Each block _landau_blocks assembles is V_k^H H V_k, H the 2-D
        cylinder operator and V_k its k_y sector (plane_wave_basis), and H
        couples no two sectors: in the basis of all n sectors it is block
        diagonal to rounding."""
        grid = nr.Grid2D(n, 4.0)
        k = grid.wavenumber_axis()
        dense = cylinder_operator(1.0, grid, NATURAL).toarray()
        basis = np.hstack([plane_wave_basis(grid, k_y) for k_y in k])
        projected = basis.conj().T @ dense @ basis
        bound = 8 * np.finfo(float).eps * np.abs(dense).max()
        in_sector = np.kron(np.eye(n), np.ones((n, n))) == 1
        assert np.abs(projected[~in_sector]).max() <= bound
        blocks = nr._landau_blocks(1.0, grid, NATURAL, k)
        for m, block in enumerate(blocks):
            rows = slice(m * n, (m + 1) * n)
            assert np.abs(projected[rows, rows] - block).max() <= bound

    @pytest.mark.parametrize("params", [NATURAL, SCALED], ids=["natural", "scaled"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_real_blocks_are_reflection_projections(self, n, params):
        """The 2-D operator commutes with T = K D_y, complex conjugation
        times the reflection y -> -y, which fixes each plane wave e^(i k_y
        y); so the projection onto each k_y sector, the Nyquist one too, has
        an imaginary part at rounding, and the block the solve takes is
        its real part: float64 and symmetric bit for bit."""
        grid = nr.Grid2D(n, 4.0)
        dense = cylinder_operator(1.0, grid, params).toarray()
        reflect = np.kron(np.eye(n), np.eye(n)[-np.arange(n) % n])
        bound = 8 * np.finfo(float).eps * np.abs(dense).max()
        assert np.abs(reflect @ dense.conj() @ reflect - dense).max() <= bound
        k = grid.wavenumber_axis()
        for k_y, block in zip(k, nr._landau_blocks(1.0, grid, params, k)):
            basis = plane_wave_basis(grid, k_y)
            projected = basis.conj().T @ dense @ basis
            assert np.abs(projected.imag).max() <= bound
            assert np.abs(projected.real - block).max() <= bound
            assert block.dtype == np.float64 and np.array_equal(block, block.T)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("b_field, n_levels, k", [(0.25, 3, 67), (0.5, 2, 80)])
    def test_sector_solve_matches_full_solve(self, n, b_field, n_levels, k):
        """The k_y sectors are the whole cylinder: the k lowest eigenvalues of
        the 2-D operator at box 20, solved as one sparse problem by ARPACK
        shift-invert about 0 from a fixed start vector, are the k lowest of
        the union of the n sector blocks' spectra, and every level that
        landau_levels reports is one of them (the k-th lies at 4.5 and 2.5
        hbar w_c, above the top level solved)."""
        grid = nr.Grid2D(n, 20.0)
        start = np.random.default_rng(0).standard_normal(n * n)
        full = np.sort(eigsh(cylinder_operator(b_field, grid, NATURAL), k, sigma=0.0,
                             v0=start, return_eigenvectors=False))
        union = np.sort(np.linalg.eigvalsh(
            nr._landau_blocks(b_field, grid, NATURAL, grid.wavenumber_axis())).ravel())
        cyclotron_quantum = NATURAL.hbar * NATURAL.e * b_field / NATURAL.m
        assert np.abs(full - union[:k]).max() <= 1e-12 * full[-1]
        if np.sqrt(NATURAL.hbar / (NATURAL.e * b_field)) < 3.0 * grid.spacing:
            return  # magnetic length below 3 cells: landau_levels refuses the grid
        assert full[-1] >= 2.5 * cyclotron_quantum
        for level in nr.landau_levels(b_field, grid, NATURAL, n_levels)["levels"]:
            assert np.abs(full - level).min() <= 1e-12 * full[-1]

    @pytest.mark.parametrize("real", [False, True], ids=["complex-full", "real-block"])
    def test_repeated_solves_agree_bit_for_bit(self, real):
        """Two solves agree bit for bit: landau_levels' batched eigvalsh of
        the real blocks, which the golden files record, and the dense
        eigvalsh of the complex 2-D operator that the tests take as their
        reference."""
        grid = nr.Grid2D(32 if real else 16, 20.0)
        if real:
            blocks = nr._landau_blocks(0.25, grid, NATURAL, np.array([-1.0, 0.0, 1.0]))
            assert blocks.dtype == np.float64
            first, second = (nr.landau_levels(0.25, grid, NATURAL) for _ in range(2))
            assert first == second
        else:
            dense = cylinder_operator(1.0, grid, NATURAL).toarray()
            assert dense.dtype == np.complex128
            assert np.array_equal(np.linalg.eigvalsh(dense), np.linalg.eigvalsh(dense))

    @staticmethod
    def _loop_bulk_levels(b_field, grid, params, n_levels):
        """The reference: every guiding centre j whose gap to the wall,
        wall - |j| 2 pi l_B^2 / L, is at least _wall_margin magnetic lengths,
        each solved in its own eigvalsh call.  Returns the kept j, the axis
        levels and, where more than the axis is kept, the spread (max - min
        over every kept centre) over the axis levels."""
        magnetic_length = np.sqrt(params.hbar / (params.e * b_field))
        wall = 0.5 * (grid.n + 1) * grid.spacing
        step = 2.0 * np.pi * magnetic_length**2 / grid.length
        bound = nr._wall_margin(n_levels) * magnetic_length
        reach = int(wall / step) + 1
        kept = [j for j in range(-reach, reach + 1) if wall - abs(j) * step >= bound]
        levels = np.array([
            np.linalg.eigvalsh(nr._landau_blocks(
                b_field, grid, params, np.array([2.0 * np.pi * j / grid.length])))[0, :n_levels]
            for j in kept])
        axis = levels[kept.index(0)]
        spread = np.ptp(levels, axis=0) / axis if len(kept) > 1 else None
        return kept, axis, spread

    def _assert_bulk_levels_match_the_loop(self, b_field, grid, n_levels):
        """landau_levels solves the axis and the outermost kept pair only:
        its levels are the loop's bit for bit, and its spread the loop's over
        every kept centre to the levels' rounding (measured at most 4.5e-13
        over fields at grids 32 to 128), as the wall lifts a level more the
        nearer its centre lies."""
        kept, axis, spread = self._loop_bulk_levels(b_field, grid, NATURAL, n_levels)
        result = nr.landau_levels(b_field, grid, NATURAL, n_levels)
        assert result["levels"] == axis.tolist()
        if spread is None:
            assert result["spread"] is None and result["outermost_centre"] is None
            return kept
        step = 2.0 * np.pi * result["magnetic_length"]**2 / grid.length
        assert result["outermost_centre"] == pytest.approx(max(kept) * step, rel=1e-15)
        assert np.abs(np.array(result["spread"]) - spread).max() <= 1e-12
        return kept

    @pytest.mark.parametrize("where", ["single", "ties", "gap-at-bound", "gap-above-bound"])
    @pytest.mark.parametrize("n_levels", [1, 2, 3])
    def test_bulk_levels_match_the_loop(self, where, n_levels):
        """Grid 64, box 20, at four fields: "single", the window's top, where
        the axis alone is kept; "ties", its bottom l_B = 3h, where most kept
        centres' level 0 ties with the axis's to 1e-12; "gap-at-bound",
        where centre 2's gap to the wall is the margin (plus 1e-9 of a
        step), and "gap-above-bound", half a step more."""
        grid = nr.Grid2D(64, 20.0)
        wall = 0.5 * 65 * grid.spacing
        margin = nr._wall_margin(n_levels)
        if where in ("single", "ties"):
            magnetic_length = (wall / margin * (1.0 - 1e-9) if where == "single"
                               else 3.0 * grid.spacing * (1.0 + 1e-9))
        else:  # margin l + centres 2 pi l^2 / L = wall, solved for l
            curvature = 2.0 * np.pi * (2.0 + (1e-9 if where == "gap-at-bound" else 0.5)) / 20.0
            magnetic_length = (np.sqrt(margin**2 + 4.0 * curvature * wall) - margin) / (
                2.0 * curvature)
        b_field = 1.0 / magnetic_length**2
        kept = self._assert_bulk_levels_match_the_loop(b_field, grid, n_levels)
        if where != "ties":
            assert max(kept) == (0 if where == "single" else 2)
            return
        lowest = np.linalg.eigvalsh(nr._landau_blocks(
            b_field, grid, NATURAL, 2.0 * np.pi * np.array(kept) / 20.0))[:, 0]
        ties = np.abs(lowest / lowest[kept.index(0)] - 1.0) <= 1e-12
        assert np.count_nonzero(ties) > len(kept) / 2

    def test_bulk_levels_match_the_loop_on_random_spectra(self):
        """Magnetic lengths drawn across the window at grids 32, 64 and 128,
        one to five levels."""
        rng = np.random.default_rng(16)
        for _ in range(40):
            n, n_levels = int(rng.choice([32, 64, 128])), int(rng.integers(1, 6))
            grid = nr.Grid2D(n, 20.0)
            top = 0.5 * (n + 1) * grid.spacing / nr._wall_margin(n_levels)
            if top < 3.0 * grid.spacing:
                continue
            magnetic_length = rng.uniform(3.0 * grid.spacing, top)
            self._assert_bulk_levels_match_the_loop(1.0 / magnetic_length**2, grid, n_levels)

    def test_discretization_is_fourth_order(self):
        """The five-point-stencil levels converge to hbar*w_c*(n+1/2) as h^4:
        log-log slope of relative error vs h over grids 32/64/128 at box 20
        and the CLI default B (magnetic length box/10)."""
        box = 20.0
        b_field = NATURAL.hbar / (NATURAL.e * (box / 10.0) ** 2)
        grids = [nr.Grid2D(n, box) for n in (32, 64, 128)]
        runs = [nr.landau_levels(b_field, grid, NATURAL) for grid in grids]
        spacings = np.log([grid.spacing for grid in grids])
        for level in range(3):
            errors = np.log([level_errors(run, b_field)[level] for run in runs])
            slope = np.polyfit(spacings, errors, 1)[0]
            assert slope == pytest.approx(4.0, abs=0.3), (level, slope)


def reference_export_csv(f, path):
    """export_csv written from the full (n^2, 6) table at once: the byte
    reference for the row-block writer."""
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


def reference_export_raw(f, path):
    """export_raw's sample file written through a stacked (..., 2) float copy:
    the byte reference for the copy-free writer."""
    data = f.data if f.components == 2 else f.data[np.newaxis]
    np.stack([data.real, data.imag], axis=-1).astype("<f8").tofile(path)


class TestSnapshots:
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("n", [8, 128])
    def test_writers_match_reference_bytes(self, tmp_path, n, components):
        """The CSV (one row block at a time) and the raw samples (no stacked
        copy) are byte for byte what the whole-array writers give, signed
        zeros and NaN included."""
        rng = np.random.default_rng(n)
        shape = (n, n) if components == 1 else (2, n, n)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data[..., 0, 0] = complex(-0.0, np.nan)
        f = nr.WaveField(nr.Grid2D(n, 4.0), data, gauge_frame=True, time=1.5)
        for write, reference in ((nr.export_csv, reference_export_csv),
                                 (nr.export_raw, reference_export_raw)):
            write(f, tmp_path / "field")
            reference(f, tmp_path / "reference")
            assert (tmp_path / "field").read_bytes() == (tmp_path / "reference").read_bytes()

    def test_csv_schema(self, tmp_path):
        grid = nr.Grid2D(8, 4.0)
        f = nr.WaveField(grid, np.ones((2, 8, 8)) * (1 + 2j))
        path = tmp_path / "field.csv"
        nr.export_csv(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,re_psi1,im_psi1,re_psi2,im_psi2"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.shape == (64, 6)
        assert np.allclose(table[:, 2], 1.0) and np.allclose(table[:, 3], 2.0)

    def test_scalar_csv_zero_second_component(self, tmp_path):
        grid = nr.Grid2D(8, 4.0)
        f = nr.WaveField(grid, np.ones((8, 8)))
        path = tmp_path / "scalar.csv"
        nr.export_csv(f, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(table[:, 4] == 0.0) and np.all(table[:, 5] == 0.0)

    @pytest.mark.parametrize("components", [1, 2])
    def test_raw_roundtrip(self, tmp_path, components):
        grid = nr.Grid2D(8, 4.0)
        rng = np.random.default_rng(31)
        shape = (8, 8) if components == 1 else (2, 8, 8)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        f = nr.WaveField(grid, data, gauge_frame=True, time=1.5)
        path = tmp_path / "field.f64"
        nr.export_raw(f, path)
        loaded = nr.load_raw(path)
        assert np.array_equal(loaded.data, f.data)
        assert loaded.gauge_frame and loaded.time == 1.5
        assert loaded.grid == grid

    def test_boundary_density_detects_wraparound(self):
        grid = nr.Grid2D(64, 24.0)
        centered = nr.build_gaussian(grid, (0, 0), Momentum(0, 0), 1.5)
        assert nr.edge_ratio(np.abs(centered.data) ** 2) < 1e-8
        shifted = nr.build_gaussian(grid, (9.5, 0), Momentum(0, 0), 1.5)
        assert nr.edge_ratio(np.abs(shifted.data) ** 2) > 1e-3
