"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion runs the CLI suite a user runs (`planardirac --json ...`) at
the criterion's inputs and reads its named checks: each must be reported and
pass, its reported tolerance must equal the criterion's stated one (so a
bound loosened in `cli` fails here), and a check the criterion calls exact
must measure 0.0.  Statements no suite reports stay library assertions, each
with the reason.

Each test prints a single ACCEPTANCE line (visible with `pytest -s` or in
captured output) before asserting, so a red criterion still reports itself.
The stated runtime budgets are asserted too.
"""

import contextlib
import io
import itertools
import json
import time

import numpy as np

from planardirac import cli, fock, nonrel, planewave
from planardirac.planewave import Branch, Momentum, PhysicalParams

NATURAL = PhysicalParams()


def verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def read_checks(argv, stated, exact=(), inputs=None):
    """Failures of one run of `planardirac --json *argv`.

    `stated` maps each check name to its stated tolerance, or to
    (expected, tolerance) for a check against a target value.  The run must
    exit 0; each named check must be reported, pass and carry the stated
    tolerance (and expected value); a name in `exact` must measure 0.0; and
    the report's parameters must hold each of `inputs`.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    label = " ".join(argv)
    if not out.getvalue():
        return [f"{label}: exit {code} with no report"]
    report = json.loads(out.getvalue())
    failures = [] if code == 0 else [f"{label}: exit {code}"]
    for key, value in (inputs or {}).items():
        if report["parameters"].get(key) != value:
            failures.append(f"{label}: {key} = {report['parameters'].get(key)!r} != {value!r}")
    checks = {check["name"]: check for check in report["checks"]}
    for name, statement in stated.items():
        expected, tolerance = statement if isinstance(statement, tuple) else (None, statement)
        check = checks.get(name)
        if check is None:
            failures.append(f"{label}: no check {name!r}")
            continue
        if not check["passed"]:
            failures.append(f"{label}: {name!r} failed, measured {check['measured']!r}")
        if check["tolerance"] != tolerance:
            failures.append(f"{label}: {name!r} tolerance {check['tolerance']!r} "
                            f"!= stated {tolerance!r}")
        if expected is not None and check["expected"] != expected:
            failures.append(f"{label}: {name!r} expected {check['expected']!r} "
                            f"!= stated {expected!r}")
        if name in exact and check["measured"] != 0.0:
            failures.append(f"{label}: {name!r} measured {check['measured']!r}, not exact")
    return failures


def read_spinor_checks(count, seed, stated, kmax=10.0):
    """read_checks of `spinor` at `count` random momenta with |k| < kmax."""
    rng = np.random.default_rng(seed)
    radius = kmax * rng.random(count)
    angle = 2.0 * np.pi * rng.random(count)
    failures = []
    for kx, ky in zip(radius * np.cos(angle), radius * np.sin(angle)):
        failures += read_checks(["spinor", f"--kx={float(kx)!r}", f"--ky={float(ky)!r}"],
                                stated)
    return failures


def test_criterion_1_algebra_suite():
    """Clifford anticommutators and SO(2,1) commutators, exact; < 1 s."""
    start = time.perf_counter()
    stated = {f"anticommutator sigma{i},sigma{j}": 1e-14
              for i, j in itertools.product((1, 2, 3), repeat=2)}
    stated |= {f"commutator K{i},K{j}": 1e-14
               for i, j in itertools.product((1, 2, 3), repeat=2)}
    failures = read_checks(["algebra"], stated, exact=stated)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    verdict(1, "algebra suite", failures)


def test_criterion_2_solution_suite():
    """1000 random momenta with hbar|k|/(mc) in [0, 10]: dispersion, Dirac and
    Klein-Gordon residuals < 1e-12, orthonormalization < 1e-12, conjugation
    < 1e-14; < 2 s."""
    start = time.perf_counter()
    stated = {"dispersion identity": 1e-12, "G2 = conj(G1)": 1e-14,
              "metric norm of u": (1.0, 1e-12), "metric norm of v": (-1.0, 1e-12),
              "metric orthogonality u,v": 1e-12, "metric orthogonality v,u": 1e-12}
    for label in ("u", "v"):
        stated[f"dirac residual ({label} branch)"] = 1e-12
        stated[f"klein-gordon residual ({label} branch)"] = 1e-12
    failures = read_spinor_checks(1000, 2024, stated)
    elapsed = time.perf_counter() - start
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s >= 2s")
    verdict(2, "solution suite", failures)


def test_criterion_3_determinant_condition():
    """Coefficient matrices singular on-shell (< 1e-12) and non-singular 1%
    off-shell (> 1e-3) for 100 random momenta."""
    stated = {}
    for label in ("u", "v"):
        stated[f"determinant on-shell ({label})"] = 1e-12
        stated[f"determinant 1% off-shell ({label})"] = 1e-3
    failures = read_spinor_checks(100, 303, stated)
    verdict(3, "determinant condition", failures)


CCR_CHECKS = ["{b,b} = 0", "{d,d} = 0", "{b,d} = 0", "{b+,b+} = 0", "{d+,d+} = 0",
              "{b+,d+} = 0", "{b,d+} = 0", "{d,b+} = 0", "{b,b+} = delta",
              "{d,d+} = delta"]


def test_criterion_4_fock_suite():
    """M = 1..4: anti-commutators exact; H' minimum eigenvalue 0; spectrum
    equals the occupation enumeration to 1e-12; M=1 spectrum {0,1,1,2};
    < 10 s at M = 4."""
    failures = []
    for n_modes in (1, 2, 3, 4):
        stated = dict.fromkeys(CCR_CHECKS, 1e-14)
        stated["H' spectrum = occupation enumeration"] = 1e-12
        stated["H' minimum eigenvalue = 0"] = 1e-12
        if n_modes == 1:
            stated["single-mode H' spectrum {0,1,1,2}*hbar*w"] = 1e-12
        start = time.perf_counter()
        failures += read_checks(["fock", "--modes", str(n_modes)], stated,
                                exact=CCR_CHECKS)
        if n_modes == 4 and (time.perf_counter() - start) >= 10.0:
            failures.append("M=4 runtime >= 10s")
    verdict(4, "fock suite", failures)


def test_criterion_5_pair_bosonization():
    """Exact [P,P'] identity, Kronecker vacuum expectation, conservation of
    the total pair number, and unrestricted stacking at distinct momenta."""
    exact = [f"mode {i}: [P,P+] = I - n_b - n_d (exact identity)" for i in range(4)]
    exact += ["modes 0,1: [P(k),P+(k')] = 0 for k != k'", "[H', total pair number] = 0"]
    stated = dict.fromkeys(exact, 1e-14)
    stated |= {f"mode {i}: <vac|[P,P+]|vac> = 1": 1e-14 for i in range(4)}
    stated["modes 0,1: <vac|[P(k),P+(k')]|vac> = 0"] = 1e-14
    stated["two-pair state at distinct momenta has unit norm"] = (1.0, 1e-14)
    stated["total pair number on two-pair state"] = (2.0, 1e-12)
    failures = read_checks(["fock", "--modes", "4"], stated, exact=exact)

    # The suite reads the vacuum expectation at (i, i) and (0, 1) only.
    space = fock.build_space(fock.default_symmetric_modes(4))
    vac = space.vacuum()
    for i, j in itertools.permutations(range(4), 2):
        if (i, j) == (0, 1):
            continue
        expectation = fock.commutator(fock.pair_lowering(space, i),
                                      fock.pair_lowering(space, j).dagger()).expectation(vac)
        if abs(expectation) > 1e-14:
            failures.append(f"<vac|[P({i}),P+({j})]|vac> = {expectation}")
    verdict(5, "pair bosonization", failures)


def test_criterion_6_nonrelativistic_limit():
    """hbar k0/(mc) = 0.05, N = 128, T = 10: relative distance < 1e-2; the
    log-log slope over {0.025, 0.05, 0.1} is 2.0 +- 0.3; < 20 s."""
    start = time.perf_counter()
    failures = read_checks(["evolve"], {
        "dirac vs schrodinger relative distance": 1e-2,
        "log-log slope of distance vs v/c": (2.0, 0.3),
    }, inputs={"vc_scale": 0.05, "grid": 128, "time": 10.0,
               "scaling_vc": [0.025, 0.05, 0.1]})
    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f}s >= 20s")
    verdict(6, "non-relativistic limit", failures)


def test_criterion_7_small_component_closure():
    """Single-mode component ratio matches hbar k/(2mc) with relative error
    below (hbar k / m c)^2 for hbar k/(mc) <= 0.1."""
    # `evolve` reports the closure error over the packet's mean (hbar k/mc)^2,
    # a literal bound of 1; --time 0 because the closure does not depend on
    # time.  The single-mode ratio |G1| is a plane-wave amplitude no suite
    # reports.
    failures = []
    for kappa in (0.1, 0.05, 0.025):
        failures += read_checks(["evolve", "--k0x", str(kappa), "--time", "0"],
                                {"small-component closure / <(hbar k/mc)^2>": 1.0})
        ratio = abs(planewave.g1(Momentum(kappa, 0.0), NATURAL))
        rel_error = abs(ratio / (kappa / 2.0) - 1.0)
        if rel_error >= kappa**2:
            failures.append(f"kappa={kappa}: ratio error {rel_error:.2e} >= {kappa**2:.1e}")
    verdict(7, "small-component closure", failures)


def test_criterion_8_minimal_coupling():
    """Constant-A0 run overlaps the free run to 1e-10; Landau levels match
    hbar w_c (n + 1/2) to 2% for n = 0, 1, 2; < 30 s at N = 64."""
    start = time.perf_counter()
    # No suite evolves under a potential: 100 Strang steps cost 200 FFTs at
    # `evolve` grids up to 1024.
    failures = []
    grid = nonrel.Grid2D(64, 32.0)
    packet = nonrel.build_gaussian(grid, (0, 0), Momentum(0.3, 0.1), 2.5)
    t, a0 = 3.0, 0.8
    free = nonrel.evolve_schrodinger(packet, t, NATURAL)
    coupled = nonrel.evolve_schrodinger(packet, t, NATURAL, a0, steps=100)
    dephased = nonrel.WaveField(grid, coupled.data * np.exp(1j * a0 * t), time=t)
    overlap = abs(nonrel.overlap(free, dephased))
    if abs(overlap - 1.0) > 1e-10:
        failures.append(f"constant-A0 overlap {overlap:.12f} != 1")

    stated = {f"level {j} vs hbar*w_c*(n+1/2)": 0.02 for j in range(3)}
    stated |= {f"level {j} vs hbar*w_c*(n+1/2), B doubled": 0.02 for j in range(2)}
    stated["spacing ratio when B doubles"] = (2.0, 0.08)
    failures += read_checks(["landau"], stated, inputs={"grid": 64, "box": 20.0, "B": 0.25})

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    verdict(8, "minimal coupling", failures)


def test_criterion_9_classical_energy_pathology():
    """Classical branch energies are +hbar w and -hbar w (unbounded below),
    while the normal-ordered quantum spectrum is non-negative."""
    # No suite reports +-hbar w: a 1e-12 spinor check of it fails at large
    # hbar|k|/(mc) for the rounding reason "metric norm of u" does, and the
    # benchmark's `oracles` workload would count that as unexpected.
    failures = []
    for k in (Momentum(0, 0), Momentum(1.0, -2.0), Momentum(0.3, 0.4)):
        plus = planewave.plane_wave(Branch.POSITIVE, k, NATURAL)
        minus = planewave.plane_wave(Branch.NEGATIVE, k, NATURAL)
        e_plus = planewave.classical_energy(plus, NATURAL)
        e_minus = planewave.classical_energy(minus, NATURAL)
        if abs(e_plus - plus.omega) > 1e-12:
            failures.append(f"positive-branch energy {e_plus} != {plus.omega}")
        if abs(e_minus + minus.omega) > 1e-12:
            failures.append(f"negative-branch energy {e_minus} != {-minus.omega}")
        if e_minus >= 0:
            failures.append("negative branch not below zero")
    # H' is diagonal and its lowest diagonal entry is |min| = 0.0 exactly, so
    # its spectrum is non-negative.
    stated = {"H' is diagonal in the occupation basis": 1e-14,
              "H' minimum eigenvalue = 0": 1e-12}
    for n_modes in (1, 2, 3):
        failures += read_checks(["fock", "--modes", str(n_modes)], stated, exact=stated)
    verdict(9, "classical energy pathology vs quantum positivity", failures)
