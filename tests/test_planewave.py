"""Plane-wave solutions: dispersion, spinor amplitudes, metric normalization,
and the closed-form residual oracles."""

import numpy as np
import pytest

from planardirac import planewave as pw
from planardirac.planewave import Branch, Momentum, PhysicalParams

NATURAL = PhysicalParams()
SQRT2 = np.sqrt(2.0)


def random_momenta(count, seed, kmax=10.0):
    rng = np.random.default_rng(seed)
    radius = kmax * rng.random(count)
    angle = 2.0 * np.pi * rng.random(count)
    return [Momentum(r * np.cos(a), r * np.sin(a)) for r, a in zip(radius, angle)]


class TestParams:
    def test_natural_defaults(self):
        assert (NATURAL.m, NATURAL.c, NATURAL.hbar, NATURAL.e) == (1, 1, 1, 1)

    @pytest.mark.parametrize("bad", [dict(m=0.0), dict(m=-1.0), dict(c=0.0),
                                     dict(hbar=-2.0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            PhysicalParams(**bad)

    @pytest.mark.parametrize("scales", [dict(c=8.98938662189238e-158), dict(m=2.2e-311),
                                        dict(m=1e-300, c=1e-10)])
    def test_rejects_subnormal_scales(self, scales):
        with pytest.raises(FloatingPointError, match="subnormal"):
            PhysicalParams(**scales)

    def test_momentum_accessors(self):
        p = PhysicalParams(hbar=2.0)
        k = Momentum(3.0, -4.0)
        assert k.px(p) == 6.0 and k.py(p) == -8.0
        assert k.magnitude == 5.0

    def test_momentum_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Momentum(np.inf, 0.0)


class TestDispersion:
    def test_rest_frame(self):
        """k = 0 gives hbar*w = m c^2."""
        assert pw.dispersion_omega(Momentum(0, 0), NATURAL) == 1.0

    def test_known_value(self):
        assert pw.dispersion_omega(Momentum(3, 4), NATURAL) == pytest.approx(
            np.sqrt(26.0), rel=1e-15)

    def test_defining_identity_sweep(self):
        for k in random_momenta(1000, seed=101):
            w = pw.dispersion_omega(k, NATURAL)
            assert abs(w * w - (k.k_squared + 1.0)) / (w * w) < 1e-12

    def test_dimensional_form(self):
        p = PhysicalParams(m=2.0, c=3.0, hbar=0.5)
        k = Momentum(1.0, -2.0)
        w = pw.dispersion_omega(k, p)
        rest = p.m * p.c**2 / p.hbar
        assert w == pytest.approx(np.sqrt(k.k_squared * p.c**2 + rest**2), rel=1e-15)
        assert w >= rest


class TestSpinorAmplitudes:
    def test_rest_frame_amplitudes_vanish(self):
        assert pw.g1(Momentum(0, 0), NATURAL) == 0
        assert pw.g2(Momentum(0, 0), NATURAL) == 0

    def test_g1_exact_surd(self):
        """At k = (1,0) the energy is sqrt(2) and G1 = -i/(sqrt(2)+1) = -i(sqrt(2)-1)."""
        assert pw.g1(Momentum(1, 0), NATURAL) == pytest.approx(
            -1j * (SQRT2 - 1.0), abs=1e-15)

    def test_conjugation_property_sweep(self):
        for k in random_momenta(1000, seed=23):
            assert abs(pw.g2(k, NATURAL) - np.conj(pw.g1(k, NATURAL))) < 1e-14

    def test_magnitude_closed_form(self):
        """|G1|^2 = (E - mc^2)/(E + mc^2) < 1 for every finite momentum."""
        for k in random_momenta(300, seed=29):
            energy = pw.dispersion_omega(k, NATURAL)
            expected = (energy - 1.0) / (energy + 1.0)
            assert abs(pw.g1(k, NATURAL)) ** 2 == pytest.approx(expected, rel=1e-12)
            assert abs(pw.g1(k, NATURAL)) < 1.0

    def test_unnormalized_spinors(self):
        assert np.array_equal(pw.build_u(Momentum(0, 0), NATURAL), [1.0, 0.0])
        assert np.array_equal(pw.build_v(Momentum(0, 0), NATURAL), [0.0, 1.0])
        u = pw.build_u(Momentum(1, 0), NATURAL)
        assert u[0] == 1.0
        assert u[1] == pytest.approx(-1j * (SQRT2 - 1.0), abs=1e-15)


class TestMetric:
    def test_unnormalized_norms(self):
        k = Momentum(1, 0)
        u = pw.build_u(k, NATURAL)
        v = pw.build_v(k, NATURAL)
        g1 = pw.g1(k, NATURAL)
        assert pw.metric_inner(u, u) == pytest.approx(1.0 - abs(g1) ** 2, rel=1e-14)
        assert pw.metric_inner(v, v) == pytest.approx(-(1.0 - abs(g1) ** 2), rel=1e-14)
        assert abs(pw.metric_inner(u, v)) < 1e-15

    def test_normalization_divisor(self):
        """1 - |G1|^2 = 2 m c^2 / (E + m c^2); at k = (1,0) this is 2(sqrt(2)-1)."""
        u = pw.build_u(Momentum(1, 0), NATURAL)
        assert pw.metric_inner(u, u).real == pytest.approx(2.0 * (SQRT2 - 1.0), rel=1e-14)

    def test_normalize_rest_frame_is_identity(self):
        out = pw.normalize(np.array([1.0, 0.0], dtype=complex), Branch.POSITIVE)
        assert np.array_equal(out, [1.0, 0.0])

    def test_normalize_branch_signs(self):
        k = Momentum(0.7, -1.3)
        u = pw.normalize(pw.build_u(k, NATURAL), Branch.POSITIVE)
        v = pw.normalize(pw.build_v(k, NATURAL), Branch.NEGATIVE)
        assert pw.metric_inner(u, u).real == pytest.approx(1.0, abs=1e-12)
        assert pw.metric_inner(v, v).real == pytest.approx(-1.0, abs=1e-12)

    def test_normalize_rejects_null_spinor(self):
        null = np.array([1.0, 1.0], dtype=complex)  # metric norm exactly zero
        with pytest.raises(pw.DegenerateNormalizationError):
            pw.normalize(null, Branch.POSITIVE)

    def test_normalize_rejects_wrong_sign(self):
        v = pw.build_v(Momentum(1, 0), NATURAL)
        with pytest.raises(ValueError):
            pw.normalize(v, Branch.POSITIVE)

    @pytest.mark.parametrize("component", [np.inf, np.nan])
    def test_normalize_rejects_overflowed_spinor(self, component):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            pw.normalize(np.array([component, 1.0], dtype=complex), Branch.POSITIVE)

    def test_orthonormalization_sweep(self):
        """u-bar s0 u = 1, v-bar s0 v = -1, cross products vanish, to 1e-12."""
        for k in random_momenta(1000, seed=37):
            u = pw.plane_wave(Branch.POSITIVE, k, NATURAL).spinor
            v = pw.plane_wave(Branch.NEGATIVE, k, NATURAL).spinor
            assert abs(pw.metric_inner(u, u) - 1.0) < 1e-12
            assert abs(pw.metric_inner(v, v) + 1.0) < 1e-12
            assert abs(pw.metric_inner(u, v)) < 1e-12
            assert abs(pw.metric_inner(v, u)) < 1e-12


class TestResiduals:
    SAMPLES = [(0.0, 0.0, 0.0), (1.0, -2.0, 0.5), (-0.3, 0.9, 10.0),
               (5.0, 5.0, -5.0)]

    def test_rest_frame_solution_is_exact(self):
        sol = pw.plane_wave(Branch.POSITIVE, Momentum(0, 0), NATURAL)
        assert pw.dirac_residual(sol, NATURAL, self.SAMPLES) == 0.0

    @pytest.mark.parametrize("branch", [Branch.POSITIVE, Branch.NEGATIVE])
    def test_residual_sweep(self, branch):
        for k in random_momenta(1000, seed=41):
            sol = pw.plane_wave(branch, k, NATURAL)
            assert pw.dirac_residual(sol, NATURAL, self.SAMPLES) < 1e-12
            assert pw.klein_gordon_residual(sol, NATURAL) < 1e-12

    def test_corrupted_spinor_is_detected(self):
        """Shifting G1 by 0.1 must push the residual far above the pass level."""
        k = Momentum(1.0, 0.5)
        sol = pw.plane_wave(Branch.POSITIVE, k, NATURAL)
        corrupted = pw.PlaneWaveSolution(
            Branch.POSITIVE, k, sol.omega, sol.spinor + np.array([0.0, 0.1]), NATURAL)
        assert pw.dirac_residual(corrupted, NATURAL, self.SAMPLES) > 1e-3

    def test_klein_gordon_detects_off_shell_frequency(self):
        """Replacing w by w + 0.1 leaves residual 0.2 w + 0.01 exactly."""
        k = Momentum(0.8, -0.6)
        sol = pw.plane_wave(Branch.POSITIVE, k, NATURAL)
        shifted = pw.PlaneWaveSolution(Branch.POSITIVE, k, sol.omega + 0.1,
                                       sol.spinor, NATURAL)
        expected = 0.2 * sol.omega + 0.01
        assert pw.klein_gordon_residual(shifted, NATURAL) == pytest.approx(
            expected, rel=1e-12)

    def test_dimensional_residual_scale(self):
        p = PhysicalParams(m=2.0, c=3.0, hbar=0.5)
        sol = pw.plane_wave(Branch.NEGATIVE, Momentum(2.0, 1.0), p)
        assert pw.dirac_residual(sol, p, self.SAMPLES) < 1e-12 * p.compton_wavenumber


class TestDeterminantCondition:
    @pytest.mark.parametrize("branch", [Branch.POSITIVE, Branch.NEGATIVE])
    def test_singular_on_shell_only(self, branch):
        """The homogeneous-system matrix is singular exactly on the shell."""
        for k in random_momenta(100, seed=43):
            w = pw.dispersion_omega(k, NATURAL)
            on = pw.coefficient_matrix(branch, k, w, NATURAL)
            off = pw.coefficient_matrix(branch, k, 1.01 * w, NATURAL)
            assert abs(np.linalg.det(on)) < 1e-12
            assert abs(np.linalg.det(off)) > 1e-3


class TestClassicalEnergy:
    def test_rest_frame_branch_energies(self):
        plus = pw.plane_wave(Branch.POSITIVE, Momentum(0, 0), NATURAL)
        minus = pw.plane_wave(Branch.NEGATIVE, Momentum(0, 0), NATURAL)
        assert pw.classical_energy(plus, NATURAL) == pytest.approx(1.0, abs=1e-14)
        assert pw.classical_energy(minus, NATURAL) == pytest.approx(-1.0, abs=1e-14)

    def test_branches_cancel_at_matched_momentum(self):
        k = Momentum(2.0, -1.0)
        plus = pw.plane_wave(Branch.POSITIVE, k, NATURAL)
        minus = pw.plane_wave(Branch.NEGATIVE, k, NATURAL)
        total = (pw.classical_energy(plus, NATURAL)
                 + pw.classical_energy(minus, NATURAL))
        assert abs(total) < 1e-12

    def test_magnitude_is_hbar_omega(self):
        k = Momentum(1.5, 0.5)
        sol = pw.plane_wave(Branch.NEGATIVE, k, NATURAL)
        assert pw.classical_energy(sol, NATURAL) == pytest.approx(
            -sol.omega, rel=1e-12)


class TestSolutionObject:
    def test_energy_accessor(self):
        p = PhysicalParams(hbar=3.0)
        sol = pw.plane_wave(Branch.POSITIVE, Momentum(1, 1), p)
        assert sol.energy == pytest.approx(3.0 * sol.omega, rel=1e-15)

    def test_phase_conventions(self):
        k = Momentum(0.4, 0.0)
        plus = pw.plane_wave(Branch.POSITIVE, k, NATURAL)
        minus = pw.plane_wave(Branch.NEGATIVE, k, NATURAL)
        # positive branch rotates as exp(-i w t), negative as exp(+i w t)
        assert plus.phase(0, 0, 1.0) == pytest.approx(np.exp(-1j * plus.omega))
        assert minus.phase(0, 0, 1.0) == pytest.approx(np.exp(+1j * minus.omega))
