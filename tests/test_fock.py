"""Finite-mode second quantization: anti-commutators, spectra, field operators
and the bosonic pair algebra, all on exact Jordan-Wigner matrices."""

import functools
import gc
import itertools

import numpy as np
import pytest
from scipy import sparse

from planardirac import cli, fock
from planardirac.fock import ELECTRON, POSITRON
from planardirac.reporting import bound_check
from planardirac.planewave import (
    Branch, DegenerateNormalizationError, build_u, build_v, normalize)


@pytest.fixture(scope="module")
def space1():
    return fock.build_space(fock.default_symmetric_modes(1))


@pytest.fixture(scope="module")
def space2():
    return fock.build_space(fock.default_symmetric_modes(2))


@pytest.fixture(scope="module")
def space4():
    return fock.build_space(fock.default_symmetric_modes(4))


class TestModeSet:
    def test_dimensions(self):
        assert fock.build_space(fock.default_symmetric_modes(1)).dim == 4
        assert fock.build_space(fock.default_symmetric_modes(2)).dim == 16

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            fock.ModeSet(((1, 0), (1, 0)), 1.0)

    def test_rejects_empty_and_bad_box(self):
        with pytest.raises(ValueError):
            fock.ModeSet((), 1.0)
        with pytest.raises(ValueError):
            fock.ModeSet(((0, 0),), 0.0)

    def test_capacity_error(self):
        pairs = [(i, 0) for i in range(7)]
        modes = fock.ModeSet(pairs, 2 * np.pi)
        with pytest.raises(fock.CapacityError):
            fock.build_space(modes)

    def test_partner_lookup(self):
        modes = fock.default_symmetric_modes(2)
        assert modes.partner_index(0) == 1
        assert modes.partner_index(1) == 0
        lone = fock.ModeSet([(1, 0)], 2 * np.pi)
        with pytest.raises(ValueError, match="partner"):
            lone.partner_index(0)

    def test_rejects_non_integer_wave_vectors(self):
        """Modes live on the box lattice k = 2*pi*n/L, so the field integral's
        discrete plane waves are orthogonal; off-lattice input is refused."""
        with pytest.raises(ValueError, match="integer"):
            fock.ModeSet(((0.3, 0.7),), 2 * np.pi)
        with pytest.raises(ValueError, match="integer"):
            fock.ModeSet(((1.0, 0),), 2 * np.pi)

    def test_momenta_follow_wave_vectors(self):
        modes = fock.ModeSet(((1, -2), (0, 3)), 4.0)
        assert [(k.kx, k.ky) for k in modes.momenta] == [
            (2 * np.pi / 4.0 * 1, 2 * np.pi / 4.0 * -2), (0.0, 2 * np.pi / 4.0 * 3)]

    def test_zero_momentum_partners_itself(self):
        modes = fock.default_symmetric_modes(1)
        assert modes.partner_index(0) == 0

    def test_integer_mode_frequencies(self):
        modes = fock.default_symmetric_modes(2, box_side=2 * np.pi)
        assert modes.omega(0) == pytest.approx(np.sqrt(2.0), rel=1e-15)


class TestOperatorBasics:
    def test_annihilation_kills_vacuum(self, space2):
        vac = space2.vacuum()
        for species in (ELECTRON, POSITRON):
            for i in range(2):
                assert np.abs(space2.annihilation(species, i).apply(vac)).max() == 0.0

    def test_creation_sets_one_bit(self, space2):
        vac = space2.vacuum()
        state = space2.creation(ELECTRON, 1).apply(vac)
        index = int(np.flatnonzero(np.abs(state))[0])
        assert space2.occupations(index) == ((0, 1), (0, 0))

    def test_number_eigenvalues(self, space2):
        n_op = space2.number(POSITRON, 0)
        eigs = np.sort(n_op.eigenvalues())
        assert set(np.round(eigs, 12)) == {0.0, 1.0}

    def test_bad_species_and_index(self, space1):
        with pytest.raises(ValueError):
            space1.annihilation("muon", 0)
        with pytest.raises(ValueError):
            space1.annihilation(ELECTRON, 1)

    def test_cannot_mix_spaces(self, space1, space2):
        with pytest.raises(ValueError, match="different FockSpaces"):
            _ = space1.identity() + space2.identity()

    def test_basis_index_roundtrip(self, space2):
        for index in range(space2.dim):
            elec, pos = space2.occupations(index)
            assert space2.basis_index(elec, pos) == index

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
    def test_lowering_matches_kronecker_reference(self, n_modes):
        """Every annihilator equals sigma_z^(x)j (x) |0><1| (x) I^(x)rest at
        chain position j, entry for entry."""
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        zstr = sparse.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
        lower = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        eye = sparse.identity(2, dtype=complex, format="csr")
        for species, offset in ((ELECTRON, 0), (POSITRON, n_modes)):
            for i in range(n_modes):
                j = offset + i
                factors = [zstr] * j + [lower] + [eye] * (2 * n_modes - j - 1)
                reference = functools.reduce(
                    lambda a, b: sparse.kron(a, b, format="csr"), factors)
                op = space.annihilation(species, i).matrix
                assert op.nnz == reference.nnz == space.dim // 2
                assert (op != reference).nnz == 0, (species, i)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
    def test_creation_is_the_adjoint_of_annihilation(self, n_modes):
        """The cached creators equal the annihilators' adjoints entry for entry."""
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        for species in (ELECTRON, POSITRON):
            for i in range(n_modes):
                creator = space.creation(species, i).matrix
                adjoint = space.annihilation(species, i).dagger().matrix
                assert creator.nnz == adjoint.nnz
                assert (creator != adjoint).nnz == 0, (species, i)

    def test_csr_storage_at_every_mode_count(self):
        for n_modes, index in ((1, 0), (5, 3)):
            space = fock.build_space(fock.default_symmetric_modes(n_modes))
            assert space.dim == 4**n_modes
            creator = space.creation(ELECTRON, index)
            for op in (space.annihilation(ELECTRON, index), creator,
                       space.identity(), space.zero()):
                assert op.matrix.format == "csr"
            state = creator.apply(space.vacuum())
            assert np.linalg.norm(state) == 1.0


class TestAnticommutationRelations:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_all_families_exact(self, n_modes):
        """Every anti-commutator family holds with literally zero deviation."""
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        deviations = fock.verify_ccr(space)
        assert set(deviations) == {
            ("b", "b"), ("d", "d"), ("b", "d"), ("b+", "b+"), ("d+", "d+"),
            ("b+", "d+"), ("b", "d+"), ("d", "b+"), ("b", "b+"), ("d", "d+")}
        for family, deviation in deviations.items():
            assert deviation == 0.0, family

    def test_single_mode_identity(self, space1):
        b = space1.annihilation(ELECTRON, 0)
        ac = fock.anticommutator(b, b.dagger())
        assert (ac - space1.identity()).max_abs() == 0.0

    def test_off_diagonal_delta(self, space2):
        b0 = space2.annihilation(ELECTRON, 0)
        b1 = space2.annihilation(ELECTRON, 1)
        assert fock.anticommutator(b0, b1.dagger()).max_abs() == 0.0

    def test_cross_species(self, space2):
        b = space2.annihilation(ELECTRON, 0)
        d_dag = space2.creation(POSITRON, 1)
        assert fock.anticommutator(b, d_dag).max_abs() == 0.0

    def test_report_serializes(self, space1):
        name, family = next(iter(cli._CCR_CHECKS.items()))
        doc = bound_check(name, fock.verify_ccr(space1)[family], 1e-14).to_dict()
        assert set(doc) == {"name", "measured", "expected", "tolerance", "passed"}
        assert doc["passed"] is True


class TestHamiltonian:
    def test_single_mode_spectrum_unbounded_below(self, space1):
        """H = hw (b'b - d d') has eigenvalues {-1, 0, 0, 1} in natural units."""
        eigs = np.sort(fock.hamiltonian(space1).eigenvalues())
        assert np.allclose(eigs, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_hermiticity(self, space2):
        assert fock.hamiltonian(space2).hermiticity_defect() == 0.0

    def test_normal_ordering_shift(self, space2):
        """H and H' differ by the c-number sum of mode frequencies."""
        modes = space2.modes
        shift = sum(modes.omega(i) for i in range(2))
        rebuilt = fock.normal_ordered_hamiltonian(space2) - shift * space2.identity()
        assert (fock.hamiltonian(space2) - rebuilt).max_abs() < 1e-15

    def test_normal_ordered_single_mode_spectrum(self, space1):
        eigs = np.sort(fock.normal_ordered_hamiltonian(space1).eigenvalues())
        assert np.allclose(eigs, [0.0, 1.0, 1.0, 2.0], atol=1e-14)

    def test_nonnegative_with_zero_ground_state(self, space4):
        diag = fock.normal_ordered_hamiltonian(space4).diagonal().real
        assert diag.min() == 0.0

    def test_spectrum_is_subset_sum_enumeration(self):
        """M=2 with frequencies (1, sqrt(26)): spectrum = all subset sums of
        {1, 1, sqrt(26), sqrt(26)} (occupation-number oracle)."""
        modes = fock.ModeSet(((0, 0), (3, 4)), 2 * np.pi)
        space = fock.build_space(modes)
        diag = np.sort(fock.normal_ordered_hamiltonian(space).diagonal().real)
        pool = [1.0, 1.0, np.sqrt(26.0), np.sqrt(26.0)]
        sums = sorted(sum(combo) for r in range(5)
                      for combo in itertools.combinations(pool, r))
        assert np.allclose(diag, sums, atol=1e-12)

    @pytest.mark.parametrize("n_modes, h, h_prime, from_field", [
        (1, 2, 3, 2), (2, 10, 15, 60), (3, 52, 63, 507), (4, 186, 255, 3804),
        (5, 884, 1023, 23515), (6, 3676, 4095, 137153)])
    def test_stored_entries_do_not_grow(self, n_modes, h, h_prime, from_field):
        """Upper bounds on the stored CSR entries of H, H' and the
        field-integral H at the fock suite's default modes, at their measured
        values.  H' is diagonal with one zero, the vacuum: 4^M - 1 entries.
        H = H' - sum(hbar w) I is diagonal too and stores its nonzero
        energies: 2, 10, 52, 186, 884, 3676.  hamiltonian_from_field stores
        2, 60, 507, 3804, 23515, 137153: besides the diagonal, the rounding
        residue of cross terms that cancel in exact arithmetic, 37 times H's
        count at M = 6.  A build that stores more shows here."""
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        assert fock.hamiltonian(space).matrix.nnz <= h
        assert fock.normal_ordered_hamiltonian(space).matrix.nnz <= h_prime
        assert fock.hamiltonian_from_field(space).matrix.nnz <= from_field

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
    def test_enumeration_matches_diagonal(self, n_modes):
        """In basis order, the enumeration equals a per-index sum over
        occupation numbers bit for bit, and the diagonal of H'."""
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        omegas = [space.modes.omega(i) for i in range(n_modes)]
        reference = np.array([
            space.params.hbar * sum(w * (ne + np_) for w, ne, np_
                                    in zip(omegas, *space.occupations(index)))
            for index in range(space.dim)])
        enumerated = fock.occupation_spectrum(space)
        assert np.array_equal(enumerated, reference)
        diag = fock.normal_ordered_hamiltonian(space).diagonal()
        assert np.abs(diag - enumerated).max() < 1e-12


def _field_reference(space, r, t, time_derivative):
    """The field operator built term by term with FockOperator * and +, from
    spinors normalized here rather than taken from the space."""
    x, y = r
    length = space.modes.box_side
    upper, lower = space.zero(), space.zero()
    for i in range(space.n_modes):
        k = space.modes.momenta[i]
        w = space.modes.omega(i)
        phase = np.exp(1j * (k.kx * x + k.ky * y - w * t)) / length
        if time_derivative:
            phase *= -1j * w
        u = normalize(build_u(k, space.params), Branch.POSITIVE)
        v = normalize(build_v(k, space.params), Branch.NEGATIVE)
        b = space.annihilation(ELECTRON, i)
        d_dag = space.annihilation(POSITRON, i).dagger()
        upper = upper + (phase * u[0]) * b + (phase * v[0]) * d_dag
        lower = lower + (phase * u[1]) * b + (phase * v[1]) * d_dag
    return upper, lower


def _sum_references(space):
    """H, H', total pair number and charge, each summed term by term."""
    hbar = space.params.hbar
    ham, ham_prime, pairs, charge = space.zero(), space.zero(), space.zero(), space.zero()
    for i in range(space.n_modes):
        energy = hbar * space.modes.omega(i)
        b = space.annihilation(ELECTRON, i)
        d = space.annihilation(POSITRON, i)
        n_b = b.dagger() @ b
        n_d = d.dagger() @ d
        ham = ham + energy * (n_b - d @ d.dagger())
        ham_prime = ham_prime + energy * (n_b + n_d)
        pairs = pairs + fock.pair_number_operator(space, i)
        charge = charge + n_b - n_d
    return {"H": ham, "H'": ham_prime, "pairs": pairs, "charge": charge}


def _identical(op, reference):
    """Same stored entries with the same values (explicit zeros count)."""
    return op.matrix.nnz == reference.matrix.nnz and (op.matrix != reference.matrix).nnz == 0


class TestOneBuildSums:
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("time_derivative", [False, True])
    def test_field_operator_equals_term_by_term(self, n_modes, time_derivative):
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        length = space.modes.box_side
        for r, t in (((0.0, 0.0), 0.0), ((0.3 * length, -0.45 * length), 0.7),
                     ((0.81 * length, 0.12 * length), -2.5)):
            built = fock.field_operator(space, r, t, time_derivative=time_derivative)
            reference = _field_reference(space, r, t, time_derivative)
            for component, expected in zip(built, reference):
                assert _identical(component, expected), (r, t)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_operator_sums_equal_term_by_term(self, n_modes):
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        built = {"H": fock.hamiltonian(space), "H'": fock.normal_ordered_hamiltonian(space),
                 "pairs": fock.total_pair_number(space), "charge": fock.charge_operator(space)}
        for name, reference in _sum_references(space).items():
            assert _identical(built[name], reference), name

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
    def test_normal_ordered_diagonal_is_the_enumeration_bit_for_bit(self, n_modes):
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        assert np.array_equal(fock.normal_ordered_hamiltonian(space).diagonal().real,
                              fock.occupation_spectrum(space))


class TestFieldOperator:
    def test_rest_mode_components(self, space1):
        """At k = 0 and t = 0 the field is b/L in the upper slot, d'/L in the lower."""
        length = space1.modes.box_side
        upper, lower = fock.field_operator(space1, (0.0, 0.0), 0.0)
        assert (upper - (1.0 / length) * space1.annihilation(ELECTRON, 0)).max_abs() < 1e-15
        assert (lower - (1.0 / length) * space1.creation(POSITRON, 0)).max_abs() < 1e-15

    def test_vacuum_fluctuation(self, space2):
        """<vac| Psi-dagger Psi |vac> = sum_k |v_N(k)|^2 / L^2."""
        length = space2.modes.box_side
        upper, lower = fock.field_operator(space2, (0.3, -0.1), 0.2)
        measured = (upper.dagger() @ upper + lower.dagger() @ lower).expectation(
            space2.vacuum()).real
        expected = sum(
            float(np.sum(np.abs(space2.spinor(Branch.NEGATIVE, i)) ** 2))
            for i in range(2)) / length**2
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_spinors_are_computed_once_and_degenerate_ones_raise_on_use(self):
        """A box so small that mode (1, 0) is ultra-relativistic: its spinor
        raises at every request and the field operator raises, while the
        rest mode's spinor is computed once and reused."""
        space = fock.build_space(fock.ModeSet(((0, 0), (1, 0)), 1e-12))
        rest = space.spinor(Branch.POSITIVE, 0)
        assert space.spinor(Branch.POSITIVE, 0) is rest
        for _ in range(2):
            with pytest.raises(DegenerateNormalizationError):
                space.spinor(Branch.POSITIVE, 1)
        with pytest.raises(DegenerateNormalizationError):
            fock.field_operator(space, (0.0, 0.0), 0.0)

    def test_space_is_freed_by_reference_counting(self):
        """The field pattern a space keeps holds no reference back to it, so
        the space dies at its last reference, without a garbage collection."""
        freed = []

        class RecordedSpace(fock.FockSpace):
            def __del__(self):
                freed.append(True)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            space = RecordedSpace(fock.default_symmetric_modes(3))
            fock.field_operator(space, (0.3, -0.1), 0.2)
            del space
            assert freed
        finally:
            if was_enabled:
                gc.enable()

    def test_hamiltonian_from_field_integral(self):
        """Spatial integration of the field bilinear reproduces the
        momentum-space Hamiltonian: the cross terms cancel by metric
        orthogonality."""
        for n_modes in (1, 2, 3):
            space = fock.build_space(fock.default_symmetric_modes(n_modes))
            assembled = fock.hamiltonian_from_field(space)
            assert (assembled - fock.hamiltonian(space)).max_abs() < 1e-12


class TestFieldAnticommutator:
    def test_rest_mode_kernel_is_metric(self, space1):
        """Coincident points, single k = 0 mode: kernel = sigma_3 / L^2, not
        the identity; the indefinite metric survives quantization."""
        length = space1.modes.box_side
        report = fock.field_anticommutator(space1, (0.0, 0.0), (0.0, 0.0), 0.0)
        expected = np.diag([1.0, -1.0]) / length**2
        assert np.abs(report.kernel - expected).max() < 1e-15
        assert report.max_scalar_deviation < 1e-15
        assert report.max_plain_deviation == 0.0

    def test_mode_sum_self_consistency(self, space2):
        rng = np.random.default_rng(5)
        length = space2.modes.box_side
        for _ in range(100):
            r = tuple(rng.uniform(0, length, size=2))
            rp = tuple(rng.uniform(0, length, size=2))
            report = fock.field_anticommutator(space2, r, rp, rng.uniform(0, 2.0))
            assert report.max_kernel_mismatch < 1e-13
            assert report.max_scalar_deviation < 1e-13
            assert report.max_plain_deviation < 1e-13

    def test_separated_points_sum_phases(self, space2):
        """At r != r' the kernel is the finite sum of mode phase factors."""
        length = space2.modes.box_side
        dx = 0.37 * length
        report = fock.field_anticommutator(space2, (dx, 0.0), (0.0, 0.0), 0.0)
        explicit = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            k = space2.modes.momenta[i]
            u = space2.spinor(Branch.POSITIVE, i)
            v = space2.spinor(Branch.NEGATIVE, i)
            metric = np.diag([1.0, -1.0])
            explicit += (np.exp(1j * k.kx * dx) / length**2
                         * (np.outer(u, u.conj()) + np.outer(v, v.conj())) @ metric)
        assert np.abs(report.kernel - explicit).max() < 1e-14


class TestPairOperators:
    def test_hermitian(self, space2):
        assert fock.pair_operator(space2, 0).hermiticity_defect() == 0.0

    def test_pair_creation_from_vacuum(self, space2):
        """The pair operator acting on vacuum creates exactly the one-pair
        state (electron at k, positron at -k), with unit amplitude."""
        vac = space2.vacuum()
        created = fock.pair_operator(space2, 0).apply(vac)
        expected = fock.pair_lowering(space2, 0).dagger().apply(vac)
        assert np.abs(created - expected).max() == 0.0
        occupied = np.flatnonzero(np.abs(created))
        assert len(occupied) == 1
        elec, pos = space2.occupations(int(occupied[0]))
        assert elec == (1, 0) and pos == (0, 1)
        assert abs(abs(created[occupied[0]]) - 1.0) < 1e-15

    def test_pair_created_then_annihilated(self, space2):
        """O^2 on the vacuum returns the vacuum: the creation branch is killed
        by Pauli exclusion, the annihilation branch undoes the creation."""
        vac = space2.vacuum()
        pair = fock.pair_operator(space2, 0)
        assert np.abs((pair @ pair).apply(vac) - vac).max() == 0.0

    def test_missing_partner_raises(self):
        modes = fock.ModeSet([(1, 0), (0, 1)], 2 * np.pi)
        space = fock.build_space(modes)
        with pytest.raises(ValueError, match="partner"):
            fock.pair_operator(space, 0)

    def test_exact_commutator_identity(self, space2):
        """[P, P'] = I - n_b(k) - n_d(-k), entry-wise exact."""
        p = fock.pair_lowering(space2, 0)
        comm = fock.commutator(p, p.dagger())
        partner = space2.modes.partner_index(0)
        exact = (space2.identity() - space2.number(ELECTRON, 0)
                 - space2.number(POSITRON, partner))
        assert (comm - exact).max_abs() == 0.0

    def test_vacuum_expectation_is_kronecker_delta(self, space2):
        vac = space2.vacuum()
        same = fock.commutator(fock.pair_lowering(space2, 0),
                               fock.pair_lowering(space2, 0).dagger())
        cross = fock.commutator(fock.pair_lowering(space2, 0),
                                fock.pair_lowering(space2, 1).dagger())
        assert same.expectation(vac) == pytest.approx(1.0, abs=1e-15)
        assert cross.max_abs() == 0.0

    def test_pair_family_commutes(self, space4):
        for i, j in itertools.combinations(range(4), 2):
            comm = fock.commutator(fock.pair_lowering(space4, i),
                                   fock.pair_lowering(space4, j))
            assert comm.max_abs() == 0.0, (i, j)

    def test_hardcore_exclusion_same_momentum(self, space2):
        creator = fock.pair_lowering(space2, 0).dagger()
        assert np.abs((creator @ creator).apply(space2.vacuum())).max() == 0.0

    def test_distinct_momenta_stack_without_exclusion(self, space4):
        vac = space4.vacuum()
        two_pair = fock.pair_lowering(space4, 2).dagger().apply(
            fock.pair_lowering(space4, 0).dagger().apply(vac))
        assert np.linalg.norm(two_pair) == pytest.approx(1.0, abs=1e-15)


class TestPairNumber:
    def test_annihilates_vacuum(self, space2):
        assert np.abs(fock.pair_number_operator(space2, 0).apply(space2.vacuum())).max() == 0.0

    def test_counts_one_pair(self, space2):
        one_pair = fock.pair_lowering(space2, 0).dagger().apply(space2.vacuum())
        assert fock.pair_number_operator(space2, 0).expectation(one_pair) == \
            pytest.approx(1.0, abs=1e-15)

    def test_eigenvalues_zero_or_one(self, space2):
        eigs = np.round(np.sort(fock.pair_number_operator(space2, 0).eigenvalues()), 12)
        assert set(eigs) == {0.0, 1.0}

    def test_total_counts_two_pairs(self, space4):
        vac = space4.vacuum()
        two_pair = fock.pair_lowering(space4, 2).dagger().apply(
            fock.pair_lowering(space4, 0).dagger().apply(vac))
        total = fock.total_pair_number(space4)
        assert total.expectation(two_pair) == pytest.approx(2.0, abs=1e-14)

    def test_commutes_with_energy_and_charge(self, space4):
        ham_prime = fock.normal_ordered_hamiltonian(space4)
        assert fock.commutator(ham_prime, fock.total_pair_number(space4)).max_abs() == 0.0
        assert fock.commutator(ham_prime, fock.charge_operator(space4)).max_abs() == 0.0

    def test_literal_printed_ordering_differs_by_sign(self, space2):
        """The printed creation-first ordering picks up one fermionic swap and
        equals minus the positive-semidefinite pair counter."""
        default = fock.pair_number_operator(space2, 0)
        literal = fock.pair_number_operator(space2, 0, literal=True)
        assert (literal + default).max_abs() == 0.0
