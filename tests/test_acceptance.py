"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ACCEPTANCE line (visible with `pytest -s` or in
captured output) before asserting, so a red criterion still reports itself.
All suites run at desk scale; the stated runtime budgets are asserted too.
"""

import itertools
import time

import numpy as np

from planardirac import fock, nonrel, planewave
from planardirac.algebra import anticommutator, commutator, k_generator, pauli
from planardirac.fock import ELECTRON, POSITRON
from planardirac.planewave import Branch, Momentum, PhysicalParams

NATURAL = PhysicalParams()


def verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def sample_momenta(count, seed, kmax=10.0):
    rng = np.random.default_rng(seed)
    radius = kmax * rng.random(count)
    angle = 2.0 * np.pi * rng.random(count)
    return [Momentum(r * np.cos(a), r * np.sin(a)) for r, a in zip(radius, angle)]


def test_criterion_1_algebra_suite():
    """Clifford anticommutators and SO(2,1) commutators, exact; < 1 s."""
    start = time.perf_counter()
    failures = []
    for i in range(1, 4):
        for j in range(1, 4):
            measured = anticommutator(pauli(i), pauli(j))
            expected = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
            dev = float(np.abs(measured - expected).max())
            if dev > 1e-14:
                failures.append(f"{{s{i},s{j}}} deviation {dev:.2e}")
    k = {i: k_generator(i) for i in (1, 2, 3)}
    table = [((1, 2), -1j * k[3]), ((3, 1), 1j * k[2]), ((2, 3), 1j * k[1])]
    for (i, j), expected in table:
        dev = float(np.abs(commutator(k[i], k[j]) - expected).max())
        if dev > 1e-14:
            failures.append(f"[K{i},K{j}] deviation {dev:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    verdict(1, "algebra suite", failures)


def test_criterion_2_solution_suite():
    """1000 random momenta with hbar|k|/(mc) in [0, 10]: dispersion, Dirac and
    Klein-Gordon residuals < 1e-12, orthonormalization < 1e-12, conjugation
    < 1e-14; < 2 s."""
    start = time.perf_counter()
    failures = []
    samples = [(0.0, 0.0, 0.0), (1.3, -0.4, 0.8), (-2.0, 3.0, 5.0)]
    worst = dict(dispersion=0.0, dirac=0.0, kg=0.0, ortho=0.0, conj=0.0)
    for k in sample_momenta(1000, seed=2024):
        omega = planewave.dispersion_omega(k, NATURAL)
        worst["dispersion"] = max(worst["dispersion"],
                                  abs(omega**2 - (k.k_squared + 1.0)) / omega**2)
        plus = planewave.plane_wave(Branch.POSITIVE, k, NATURAL)
        minus = planewave.plane_wave(Branch.NEGATIVE, k, NATURAL)
        worst["dirac"] = max(worst["dirac"],
                             planewave.dirac_residual(plus, NATURAL, samples),
                             planewave.dirac_residual(minus, NATURAL, samples))
        worst["kg"] = max(worst["kg"],
                          planewave.klein_gordon_residual(plus, NATURAL),
                          planewave.klein_gordon_residual(minus, NATURAL))
        u, v = plus.spinor, minus.spinor
        worst["ortho"] = max(
            worst["ortho"],
            abs(planewave.metric_inner(u, u) - 1.0),
            abs(planewave.metric_inner(v, v) + 1.0),
            abs(planewave.metric_inner(u, v)),
            abs(planewave.metric_inner(v, u)))
        worst["conj"] = max(worst["conj"],
                            abs(planewave.g2(k, NATURAL) - np.conj(planewave.g1(k, NATURAL))))
    for name, bound in (("dispersion", 1e-12), ("dirac", 1e-12), ("kg", 1e-12),
                        ("ortho", 1e-12), ("conj", 1e-14)):
        if worst[name] > bound:
            failures.append(f"{name} worst {worst[name]:.2e} > {bound:g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s >= 2s")
    verdict(2, "solution suite", failures)


def test_criterion_3_determinant_condition():
    """Coefficient matrices singular on-shell (< 1e-12) and non-singular 1%
    off-shell (> 1e-3) for 100 random momenta."""
    failures = []
    for k in sample_momenta(100, seed=303):
        omega = planewave.dispersion_omega(k, NATURAL)
        for branch in (Branch.POSITIVE, Branch.NEGATIVE):
            on = abs(np.linalg.det(planewave.coefficient_matrix(branch, k, omega, NATURAL)))
            off = abs(np.linalg.det(
                planewave.coefficient_matrix(branch, k, 1.01 * omega, NATURAL)))
            if on > 1e-12:
                failures.append(f"on-shell det {on:.2e} at |k|={k.magnitude:.2f}")
            if off < 1e-3:
                failures.append(f"off-shell det {off:.2e} at |k|={k.magnitude:.2f}")
    verdict(3, "determinant condition", failures)


def test_criterion_4_fock_suite():
    """M = 1..4: anti-commutators exact; H' minimum eigenvalue 0; spectrum
    equals the occupation enumeration to 1e-12; M=1 spectrum {0,1,1,2};
    < 10 s at M = 4."""
    failures = []
    start = time.perf_counter()
    for n_modes in (1, 2, 3, 4):
        t_modes = time.perf_counter()
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        for name, deviation in fock.verify_ccr(space).items():
            if not deviation <= 1e-14:
                failures.append(f"M={n_modes} {name}: {deviation:.2e}")
        diag = np.sort(fock.normal_ordered_hamiltonian(space).diagonal().real)
        enum = np.sort(fock.occupation_spectrum(space))
        if np.abs(diag - enum).max() > 1e-12:
            failures.append(f"M={n_modes} spectrum vs enumeration")
        if abs(diag[0]) > 1e-12:
            failures.append(f"M={n_modes} ground state {diag[0]:.2e} != 0")
        if n_modes == 4 and (time.perf_counter() - t_modes) >= 10.0:
            failures.append("M=4 runtime >= 10s")
    space1 = fock.build_space(fock.default_symmetric_modes(1))
    eigs = np.sort(fock.normal_ordered_hamiltonian(space1).eigenvalues())
    if np.abs(eigs - np.array([0.0, 1.0, 1.0, 2.0])).max() > 1e-12:
        failures.append(f"M=1 spectrum {np.round(eigs, 6)} != {{0,1,1,2}}")
    del start
    verdict(4, "fock suite", failures)


def test_criterion_5_pair_bosonization():
    """Exact [P,P'] identity, Kronecker vacuum expectation, conservation of
    the total pair number, and unrestricted stacking at distinct momenta."""
    failures = []
    space = fock.build_space(fock.default_symmetric_modes(4))
    vac = space.vacuum()

    for i in range(4):
        p = fock.pair_lowering(space, i)
        partner = space.modes.partner_index(i)
        exact = (space.identity() - space.number(ELECTRON, i)
                 - space.number(POSITRON, partner))
        dev = (fock.commutator(p, p.dagger()) - exact).max_abs()
        if dev != 0.0:
            failures.append(f"[P,P+] identity deviation {dev:.2e} at mode {i}")
    for i, j in itertools.product(range(4), repeat=2):
        comm = fock.commutator(fock.pair_lowering(space, i),
                               fock.pair_lowering(space, j).dagger())
        expectation = comm.expectation(vac)
        expected = 1.0 if i == j else 0.0
        if abs(expectation - expected) > 1e-14:
            failures.append(f"<vac|[P({i}),P+({j})]|vac> = {expectation}")
    ham_prime = fock.normal_ordered_hamiltonian(space)
    if fock.commutator(ham_prime, fock.total_pair_number(space)).max_abs() != 0.0:
        failures.append("[H', total pair number] != 0")
    two_pair = fock.pair_lowering(space, 2).dagger().apply(
        fock.pair_lowering(space, 0).dagger().apply(vac))
    norm = float(np.linalg.norm(two_pair))
    if abs(norm - 1.0) > 1e-14:
        failures.append(f"two-pair state norm {norm}")
    count = fock.total_pair_number(space).expectation(two_pair / norm).real
    if abs(count - 2.0) > 1e-12:
        failures.append(f"two-pair count {count} != 2")
    verdict(5, "pair bosonization", failures)


def test_criterion_6_nonrelativistic_limit():
    """hbar k0/(mc) = 0.05, N = 128, T = 10: relative distance < 1e-2; the
    log-log slope over {0.025, 0.05, 0.1} is 2.0 +- 0.3; < 20 s."""
    start = time.perf_counter()
    failures = []
    study = nonrel.limit_scaling_study([0.025, 0.05, 0.1], n=128, t_final=10.0)
    central = study["distances"][study["vc_scales"].index(0.05)]
    if central >= 1e-2:
        failures.append(f"distance {central:.3e} >= 1e-2 at v/c = 0.05")
    if abs(study["slope"] - 2.0) > 0.3:
        failures.append(f"slope {study['slope']:.3f} outside 2.0 +- 0.3")
    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f}s >= 20s")
    verdict(6, "non-relativistic limit", failures)


def test_criterion_7_small_component_closure():
    """Single-mode component ratio matches hbar k/(2mc) with relative error
    below (hbar k / m c)^2 for hbar k/(mc) <= 0.1."""
    failures = []
    for kappa in (0.1, 0.05, 0.025):
        grid = nonrel.Grid2D(16, 2.0 * np.pi * 4 / kappa)
        x, _ = grid.meshes()
        envelope = np.exp(1j * kappa * x)
        lower = planewave.g1(Momentum(kappa, 0.0), NATURAL) * envelope
        field = nonrel.WaveField(grid, np.stack([envelope, lower]),
                                 gauge_frame=True).normalized()
        ratio = (np.sqrt(np.sum(np.abs(field.data[1]) ** 2))
                 / np.sqrt(np.sum(np.abs(field.data[0]) ** 2)))
        rel_error = abs(ratio / (kappa / 2.0) - 1.0)
        if rel_error >= kappa**2:
            failures.append(f"kappa={kappa}: ratio error {rel_error:.2e} >= {kappa**2:.1e}")
        estimate = nonrel.small_component(field, NATURAL)
        closure = float(np.sqrt(np.sum(np.abs(estimate.data - field.data[1]) ** 2)
                                / np.sum(np.abs(field.data[1]) ** 2)))
        if closure >= kappa**2:
            failures.append(f"kappa={kappa}: closure error {closure:.2e} >= {kappa**2:.1e}")
    verdict(7, "small-component closure", failures)


def test_criterion_8_minimal_coupling():
    """Constant-A0 run overlaps the free run to 1e-10; Landau levels match
    hbar w_c (n + 1/2) to 2% for n = 0, 1, 2; < 30 s at N = 64."""
    start = time.perf_counter()
    failures = []

    grid = nonrel.Grid2D(64, 32.0)
    packet = nonrel.build_gaussian(grid, (0, 0), Momentum(0.3, 0.1), 2.5)
    t, a0 = 3.0, 0.8
    free = nonrel.evolve_schrodinger(packet, t, NATURAL)
    coupled = nonrel.evolve_schrodinger(packet, t, NATURAL,
                                        nonrel.PotentialConfig(a0=a0), steps=100)
    dephased = nonrel.WaveField(grid, coupled.data * np.exp(1j * a0 * t), time=t)
    overlap = abs(nonrel.overlap(free, dephased))
    if abs(overlap - 1.0) > 1e-10:
        failures.append(f"constant-A0 overlap {overlap:.12f} != 1")

    landau_grid = nonrel.Grid2D(64, 20.0)
    result = nonrel.landau_levels(0.25, landau_grid, NATURAL, n_levels=3)
    for level_index, err in enumerate(result["relative_errors"]):
        if err > 0.02:
            failures.append(f"level {level_index} error {err:.3%} > 2%")
    doubled = nonrel.landau_levels(0.5, landau_grid, NATURAL, n_levels=2)
    ratio = ((doubled["levels"][1] - doubled["levels"][0])
             / (result["levels"][1] - result["levels"][0]))
    if abs(ratio - 2.0) > 0.08:
        failures.append(f"spacing ratio {ratio:.3f} != 2 on B doubling")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    verdict(8, "minimal coupling", failures)


def test_criterion_9_classical_energy_pathology():
    """Classical branch energies are +hbar w and -hbar w (unbounded below),
    while the normal-ordered quantum spectrum is non-negative."""
    failures = []
    for k in (Momentum(0, 0), Momentum(1.0, -2.0), Momentum(0.3, 0.4)):
        plus = planewave.plane_wave(Branch.POSITIVE, k, NATURAL)
        minus = planewave.plane_wave(Branch.NEGATIVE, k, NATURAL)
        e_plus = planewave.classical_energy(plus, 10.0, NATURAL)
        e_minus = planewave.classical_energy(minus, 10.0, NATURAL)
        if abs(e_plus - plus.omega) > 1e-12:
            failures.append(f"positive-branch energy {e_plus} != {plus.omega}")
        if abs(e_minus + minus.omega) > 1e-12:
            failures.append(f"negative-branch energy {e_minus} != {-minus.omega}")
        if e_minus >= 0:
            failures.append("negative branch not below zero")
    for n_modes in (1, 2, 3):
        space = fock.build_space(fock.default_symmetric_modes(n_modes))
        ground = float(fock.normal_ordered_hamiltonian(space).diagonal().real.min())
        if ground < -1e-14 or abs(ground) > 1e-12:
            failures.append(f"M={n_modes} quantum ground state {ground:.2e}")
    verdict(9, "classical energy pathology vs quantum positivity", failures)
