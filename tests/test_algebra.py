"""Exactness checks for the 2x2 matrix algebra layer."""

import argparse

import numpy as np
import pytest
from scipy.linalg import expm

from planardirac import algebra, cli
from planardirac.reporting import RunReport


class TestPauli:
    def test_explicit_matrices(self):
        assert np.array_equal(algebra.pauli(1), [[0, 1], [1, 0]])
        assert np.array_equal(algebra.pauli(2), [[0, -1j], [1j, 0]])
        assert np.array_equal(algebra.pauli(3), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_hermitian_traceless_det(self, index):
        s = algebra.pauli(index)
        assert np.array_equal(s, s.conj().T)
        assert s.trace() == 0
        assert np.linalg.det(s) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_involution(self, index):
        s = algebra.pauli(index)
        assert np.array_equal(s @ s, np.eye(2))

    def test_product_rule(self):
        assert np.array_equal(algebra.pauli(1) @ algebra.pauli(2),
                              1j * algebra.pauli(3))

    @pytest.mark.parametrize("index", [0, 4, -1])
    def test_bad_index(self, index):
        with pytest.raises(ValueError):
            algebra.pauli(index)

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_clifford_relation_exact(self, i, j):
        """{sigma_i, sigma_j} = 2 delta_ij I with zero floating-point error."""
        ac = algebra.anticommutator(algebra.pauli(i), algebra.pauli(j))
        expected = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
        assert np.abs(ac - expected).max() == 0.0


class TestGamma:
    def test_definitions(self):
        assert np.array_equal(algebra.gamma(0), -1j * algebra.pauli(3))
        assert np.array_equal(algebra.gamma(1), algebra.pauli(1))
        assert np.array_equal(algebra.gamma(2), algebra.pauli(2))

    def test_gamma0_squares_to_minus_identity(self):
        g0 = algebra.gamma(0)
        assert np.array_equal(g0 @ g0, -np.eye(2))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            algebra.gamma(3)

    def test_wave_operator_two_spellings(self):
        """The Pauli form and the gamma form of the wave operator coincide for
        arbitrary derivative placeholders."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            a0, a1, a2 = rng.normal(size=3) + 1j * rng.normal(size=3)
            pauli_form = (-1j * algebra.pauli(3) * a0 + algebra.pauli(1) * a1
                          + algebra.pauli(2) * a2 + algebra.IDENTITY2)
            gamma_form = (algebra.gamma(0) * a0 + algebra.gamma(1) * a1
                          + algebra.gamma(2) * a2 + algebra.IDENTITY2)
            assert np.abs(pauli_form - gamma_form).max() == 0.0


class TestGenerators:
    def test_definitions(self):
        assert np.array_equal(algebra.k_generator(1), -0.5j * algebra.pauli(2))
        assert np.array_equal(algebra.k_generator(2), 0.5j * algebra.pauli(1))
        assert np.array_equal(algebra.k_generator(3), np.diag([0.5, -0.5]))

    def test_so21_commutation_table_exact(self):
        """[K1,K2] = -iK3, [K3,K1] = iK2, [K2,K3] = iK1, all exact."""
        k = {i: algebra.k_generator(i) for i in (1, 2, 3)}
        assert np.abs(algebra.commutator(k[1], k[2]) + 1j * k[3]).max() == 0.0
        assert np.abs(algebra.commutator(k[3], k[1]) - 1j * k[2]).max() == 0.0
        assert np.abs(algebra.commutator(k[2], k[3]) - 1j * k[1]).max() == 0.0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            algebra.k_generator(0)


class TestMatrixCarrier:
    def test_ring_axioms_on_samples(self):
        """Associativity and distributivity of the 2x2 matrix operations."""
        rng = np.random.default_rng(23)
        draw = lambda: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for _ in range(10):
            a, b, c = draw(), draw(), draw()
            assert np.abs((a @ b) @ c - a @ (b @ c)).max() < 1e-13
            assert np.abs(a @ (b + c) - (a @ b + a @ c)).max() < 1e-13
            assert np.abs((a + b) - (b + a)).max() == 0.0

    def test_conjugate_transpose_is_involution(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(a.conj().T.conj().T, a)


class TestCommutators:
    def test_identity_commutes(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs(algebra.commutator(np.eye(2), a)).max() == 0.0

    def test_distinct_paulis_anticommute(self):
        assert np.abs(algebra.anticommutator(algebra.pauli(1), algebra.pauli(2))).max() == 0.0

    def test_pauli_self_anticommutator(self):
        ac = algebra.anticommutator(algebra.pauli(1), algebra.pauli(1))
        assert np.array_equal(ac, 2.0 * np.eye(2))


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(
            algebra.matrix_exponential(np.zeros((2, 2)), 0.37), np.eye(2))

    def test_diagonal_phase(self):
        out = algebra.matrix_exponential(algebra.pauli(3), np.pi)
        assert np.abs(out + np.eye(2)).max() < 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            algebra.matrix_exponential(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_unitarity_and_oracle(self):
        """Closed-form exponential agrees with scipy's scaling-and-squaring."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            draw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = draw + draw.conj().T
            phase = rng.normal() * 5.0
            u = algebra.matrix_exponential(h, phase)
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-13
            assert np.abs(u - expm(-1j * phase * h)).max() < 1e-13

    @staticmethod
    def _algebra_draws(seed):
        """The (h, t1) pairs that `algebra --seed <seed>` exponentiates, drawn
        in run_algebra's order after its ten wave-operator symbols."""
        rng = np.random.default_rng(seed)
        rng.normal(size=60)  # the symbols' coefficients, 3 complex per draw
        for _ in range(10):
            draw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            t1, _ = rng.normal(size=2)
            yield draw + draw.conj().T, t1

    def test_spectral_oracle_agrees_with_expm(self):
        """The CLI's oracle, the eigendecomposition exponential, agrees with
        scipy's scaling-and-squaring within the check's 1e-13 on the draws of
        `algebra --seed <seed>` at seeds 0..199; the report's oracle value is
        the closed form's largest deviation from it on those draws, bit for
        bit, so these are the draws the suite makes."""
        for seed in range(200):
            report = RunReport("algebra", {})
            cli.run_algebra(report, argparse.Namespace(seed=seed))
            reported = next(c.measured for c in report.checks
                            if c.name == "matrix exponential vs eigendecomposition")
            worst = 0.0
            for h, t in self._algebra_draws(seed):
                spectral = cli._spectral_exponential(h, t)
                assert np.abs(spectral - expm(-1j * t * h)).max() < 1e-13, seed
                worst = max(worst, float(np.abs(
                    algebra.matrix_exponential(h, t) - spectral).max()))
            assert reported == worst, seed

    def test_group_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            draw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = draw + draw.conj().T
            t1, t2 = rng.normal(size=2)
            combined = algebra.matrix_exponential(h, t1) @ algebra.matrix_exponential(h, t2)
            direct = algebra.matrix_exponential(h, t1 + t2)
            assert np.abs(combined - direct).max() < 1e-12

    def test_pauli_components_roundtrip(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a0, a = algebra.pauli_components(m)
        rebuilt = a0 * np.eye(2) + sum(a[i] * algebra.pauli(i + 1) for i in range(3))
        assert np.abs(rebuilt - m).max() < 1e-15
