"""Command-line front end: one subcommand per verification suite.

Each subparser binds its suite as ``run_<suite>(report, args)``, so the parser
alone declares each flag and its default.  ``main`` echoes every parsed flag
into the report and times the suite, which adds checks and derived values.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
precondition error (a non-finite float flag, or inputs whose arithmetic
overflows, count as misuse).  Human-readable tables go to stderr; with --json
a single JSON document (the RunReport) is printed on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import algebra, fock, nonrel, planewave
from .planewave import (
    Branch,
    DegenerateNormalizationError,
    Momentum,
    PhysicalParams,
)
from .reporting import (
    Check,
    RunReport,
    bound_check,
    failed_check,
    floor_check,
    value_check,
)

_K_COMMUTATOR_TABLE = {
    (1, 2): (-1j, 3), (2, 1): (1j, 3),
    (2, 3): (1j, 1), (3, 2): (-1j, 1),
    (3, 1): (1j, 2), (1, 3): (-1j, 2),
    (1, 1): None, (2, 2): None, (3, 3): None,
}


def run_algebra(report: RunReport, args: argparse.Namespace) -> None:
    tol_scale = args.tol_scale
    exact = 1e-14 * tol_scale
    float_tol = 1e-13 * tol_scale

    for i in range(1, 4):
        for j in range(1, 4):
            measured = algebra.anticommutator(algebra.pauli(i), algebra.pauli(j))
            expected = 2.0 * algebra.IDENTITY2 if i == j else np.zeros((2, 2))
            report.add(bound_check(
                f"anticommutator sigma{i},sigma{j}",
                np.abs(measured - expected).max(), exact))

    ks = {i: algebra.k_generator(i) for i in (1, 2, 3)}
    for (i, j), entry in sorted(_K_COMMUTATOR_TABLE.items()):
        measured = algebra.commutator(ks[i], ks[j])
        expected = np.zeros((2, 2)) if entry is None else entry[0] * ks[entry[1]]
        report.add(bound_check(
            f"commutator K{i},K{j}", np.abs(measured - expected).max(), exact))

    report.add(bound_check(
        "gamma0 = -i sigma3",
        np.abs(algebra.gamma(0) + 1j * algebra.pauli(3)).max(), exact))
    for mu in (1, 2):
        report.add(bound_check(
            f"gamma{mu} = sigma{mu}",
            np.abs(algebra.gamma(mu) - algebra.pauli(mu)).max(), exact))
    report.add(bound_check(
        "gamma0^2 = -I",
        np.abs(algebra.gamma(0) @ algebra.gamma(0) + algebra.IDENTITY2).max(), exact))

    # Operator symbol assembled from Pauli matrices vs from gamma matrices:
    # both spellings of the wave operator must agree for arbitrary derivative
    # placeholders.
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(10):
        a0, a1, a2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        pauli_form = (-1j * algebra.pauli(3) * a0
                      + algebra.pauli(1) * a1 + algebra.pauli(2) * a2
                      + algebra.IDENTITY2)
        gamma_form = (algebra.gamma(0) * a0 + algebra.gamma(1) * a1
                      + algebra.gamma(2) * a2 + algebra.IDENTITY2)
        worst = max(worst, float(np.abs(pauli_form - gamma_form).max()))
    report.add(bound_check("wave operator symbol, two spellings", worst, exact))

    report.add(bound_check(
        "exp of zero matrix = I",
        np.abs(algebra.matrix_exponential(np.zeros((2, 2)), 1.0)
               - algebra.IDENTITY2).max(), exact))
    report.add(bound_check(
        "exp(-i pi sigma3) = -I",
        np.abs(algebra.matrix_exponential(algebra.pauli(3), np.pi)
               + algebra.IDENTITY2).max(), float_tol))
    unitarity = group = oracle = 0.0
    for _ in range(10):
        draw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = draw + draw.conj().T
        t1, t2 = rng.normal(size=2)
        u = algebra.matrix_exponential(h, t1)
        unitarity = max(unitarity, float(np.abs(u @ u.conj().T - algebra.IDENTITY2).max()))
        group = max(group, float(np.abs(
            u @ algebra.matrix_exponential(h, t2)
            - algebra.matrix_exponential(h, t1 + t2)).max()))
        oracle = max(oracle, float(np.abs(u - expm(-1j * t1 * h)).max()))
    report.add(bound_check("matrix exponential unitarity", unitarity, float_tol))
    report.add(bound_check("matrix exponential group property", group, 1e-12 * tol_scale))
    report.add(bound_check("matrix exponential vs scaling-and-squaring", oracle, float_tol))


def _spinor_to_json(s: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in s]


def run_spinor(report: RunReport, args: argparse.Namespace) -> None:
    params = PhysicalParams(m=args.m, c=args.c, hbar=args.hbar)
    k = Momentum(args.kx, args.ky)
    tol_scale = args.tol_scale
    tol = 1e-12 * tol_scale

    omega = planewave.dispersion_omega(k, params)
    g1 = planewave.g1(k, params)
    g2 = planewave.g2(k, params)
    report.parameters.update({
        "omega": omega,
        "g1": [g1.real, g1.imag],
        "g2": [g2.real, g2.imag],
    })

    rest = params.rest_energy / params.hbar
    report.add(bound_check(
        "dispersion identity",
        abs(omega**2 - (k.k_squared * params.c**2 + rest**2)) / omega**2, tol))
    report.add(bound_check("G2 = conj(G1)", abs(g2 - np.conj(g1)), 1e-14 * tol_scale))
    report.add(bound_check("|G1| < 1", abs(g1), 1.0))

    samples = [(0.0, 0.0, 0.0), (0.8, -0.4, 0.25), (-2.5, 1.75, 3.0),
               (10.0, 10.0, -7.0), (0.1, 0.2, 0.3)]
    try:
        for branch, label, sign in ((Branch.POSITIVE, "u", 1.0), (Branch.NEGATIVE, "v", -1.0)):
            sol = planewave.plane_wave(branch, k, params)
            report.parameters[f"spinor_{label}"] = _spinor_to_json(sol.spinor)
            report.add(value_check(
                f"metric norm of {label}",
                planewave.metric_inner(sol.spinor, sol.spinor).real, sign, tol))
            report.add(bound_check(
                f"dirac residual ({label} branch)",
                planewave.dirac_residual(sol, params, samples),
                tol * params.compton_wavenumber))
            report.add(bound_check(
                f"klein-gordon residual ({label} branch)",
                planewave.klein_gordon_residual(sol, params), tol))
            det_on = abs(np.linalg.det(
                planewave.coefficient_matrix(branch, k, sol.omega, params)))
            report.add(bound_check(f"determinant on-shell ({label})", det_on, tol))
            det_off = abs(np.linalg.det(
                planewave.coefficient_matrix(branch, k, sol.omega * 1.01, params)))
            report.add(floor_check(f"determinant 1% off-shell ({label})", det_off, 1e-3))
        u = planewave.plane_wave(Branch.POSITIVE, k, params).spinor
        v = planewave.plane_wave(Branch.NEGATIVE, k, params).spinor
        report.add(bound_check(
            "metric orthogonality u,v", abs(planewave.metric_inner(u, v)), tol))
        report.add(bound_check(
            "metric orthogonality v,u", abs(planewave.metric_inner(v, u)), tol))
    except DegenerateNormalizationError as exc:
        report.add(failed_check("normalization", f"degenerate: {exc}"))


def run_fock(report: RunReport, args: argparse.Namespace) -> None:
    n_modes = args.modes
    tol_scale = args.tol_scale
    exact = 1e-14 * tol_scale
    tol = 1e-12 * tol_scale

    modes = fock.default_symmetric_modes(n_modes, args.box)
    space = fock.build_space(modes)

    report.extend(fock.verify_ccr(space, tol=exact))

    ham = fock.hamiltonian(space)
    ham_prime = fock.normal_ordered_hamiltonian(space)
    report.add(bound_check("H hermiticity", ham.hermiticity_defect(), exact,
                           dimension=space.dim))
    total_omega = sum(modes.omega(i) for i in range(n_modes)) * modes.params.hbar
    report.add(bound_check(
        "H = H' - sum(hbar w) I",
        (ham - (ham_prime - total_omega * space.identity())).max_abs(), exact,
        dimension=space.dim))

    energies = ham_prime.diagonal()
    enumerated = fock.occupation_spectrum(space)
    diag = np.sort(energies.real)
    report.add(bound_check("H' spectrum = occupation enumeration",
                           float(np.abs(diag - np.sort(enumerated)).max()), tol,
                           dimension=space.dim))
    report.add(bound_check("H' minimum eigenvalue = 0", abs(float(diag[0])), tol,
                           dimension=space.dim))
    # Together these two prove the spectrum equals the enumeration state by state.
    report.add(bound_check("H' is diagonal in the occupation basis",
                           ham_prime.off_diagonal().max_abs(), exact, dimension=space.dim))
    report.add(bound_check("H' diagonal = occupation enumeration (basis order)",
                           float(np.abs(energies - enumerated).max()), tol,
                           dimension=space.dim))
    if n_modes == 1:
        report.add(bound_check(
            "single-mode H' spectrum {0,1,1,2}*hbar*w",
            float(np.abs(diag - modes.params.hbar * modes.omega(0)
                         * np.array([0.0, 1.0, 1.0, 2.0])).max()), tol, dimension=space.dim))

    length = modes.box_side
    anticomm = fock.field_anticommutator(
        space, (0.15 * length, -0.2 * length), (0.4 * length, 0.1 * length), 0.3)
    report.extend(anticomm.to_records(space.dim, tol=1e-13 * tol_scale))

    report.add(bound_check(
        "H assembled from field integral",
        (fock.hamiltonian_from_field(space) - ham).max_abs(), 1e-12 * tol_scale,
        dimension=space.dim))

    vac = space.vacuum()
    for i in range(n_modes):
        report.extend(dataclasses.replace(c, name=f"mode {i}: {c.name}")
                      for c in fock.pair_commutator_check(space, i, i, tol=exact))
    if n_modes >= 2:
        report.extend(dataclasses.replace(c, name=f"modes 0,1: {c.name}")
                      for c in fock.pair_commutator_check(space, 0, 1, tol=exact))
        report.add(bound_check(
            "[P(k),P(k')] = 0",
            algebra.commutator(fock.pair_lowering(space, 0),
                               fock.pair_lowering(space, 1)).max_abs(), exact,
            dimension=space.dim))

    pair = fock.pair_operator(space, 0)
    report.add(bound_check("pair operator hermiticity", pair.hermiticity_defect(),
                           exact, dimension=space.dim))
    one_pair = fock.pair_lowering(space, 0).dagger().apply(vac)
    report.add(value_check("one-pair state norm", float(np.linalg.norm(one_pair)),
                           1.0, exact, dimension=space.dim))
    report.add(bound_check(
        "pair created then annihilated returns vacuum",
        float(np.abs((pair @ pair).apply(vac) - vac).max()), exact, dimension=space.dim))
    report.add(bound_check(
        "double pair creation at one momentum vanishes",
        float(np.abs(fock.pair_lowering(space, 0).dagger().apply(one_pair)).max()),
        exact, dimension=space.dim))

    number = fock.pair_number_operator(space, 0)
    report.add(bound_check("pair number annihilates vacuum",
                           float(np.abs(number.apply(vac)).max()), exact,
                           dimension=space.dim))
    report.add(value_check("pair number counts one pair",
                           number.expectation(one_pair).real, 1.0, exact,
                           dimension=space.dim))
    total = fock.total_pair_number(space)
    report.add(bound_check("[H', total pair number] = 0",
                           algebra.commutator(ham_prime, total).max_abs(), exact,
                           dimension=space.dim))
    report.add(bound_check("[H', charge] = 0",
                           algebra.commutator(ham_prime, fock.charge_operator(space)).max_abs(),
                           exact, dimension=space.dim))
    if n_modes >= 2:
        two_pair = fock.pair_lowering(space, 1).dagger().apply(one_pair)
        norm = float(np.linalg.norm(two_pair))
        report.add(floor_check("two-pair state at distinct momenta is nonzero",
                               norm, 0.5, dimension=space.dim))
        report.add(value_check("total pair number on two-pair state",
                               total.expectation(two_pair / norm).real, 2.0, tol,
                               dimension=space.dim))

    if args.literal_68:
        literal = fock.pair_number_operator(space, 0, literal=True)
        report.add(bound_check(
            "literal printed ordering equals minus the pair counter",
            (literal + number).max_abs(), exact, dimension=space.dim))


def run_evolve(report: RunReport, args: argparse.Namespace) -> None:
    tol_scale = args.tol_scale
    run = nonrel.run_limit_comparison(args.k0x, args.k0y, n=args.grid, t_final=args.time,
                                      sigma=args.sigma, box=args.box, steps=args.steps,
                                      keep_fields=args.out is not None)
    report.parameters.update(sigma=run["sigma"], box=run["box"], vc_scale=run["vc_scale"])
    distance_bound = (1e-12 if args.time == 0.0 else 1e-2) * tol_scale
    report.add(bound_check("dirac vs schrodinger relative distance",
                           run["distance"], distance_bound))
    report.add(bound_check("boundary density", run["boundary_density"],
                           1e-8 * tol_scale))

    k0_mag = float(np.hypot(args.k0x, args.k0y))
    if args.time > 0.0 and k0_mag > 0.0:
        study = nonrel.limit_scaling_study(
            [0.5 * k0_mag, k0_mag, 2.0 * k0_mag], n=args.grid, t_final=args.time)
        report.parameters["scaling_distances"] = study["distances"]
        report.parameters["scaling_vc"] = study["vc_scales"]
        ratio_names = [f"distance ratio on halving k0 (pair {i})"
                       for i in range(len(study["distances"]) - 1)]
        slope_name = "log-log slope of distance vs v/c"
        if study["slope"] is None:
            reason = f"distances vanish at t={args.time!r}; no ratio or slope to fit"
            report.extend(failed_check(name, reason) for name in ratio_names + [slope_name])
        else:
            for name, ratio in zip(ratio_names, study["halving_ratios"]):
                report.add(Check(name, ratio, "in [3, 5]", 1.0 * tol_scale,
                                 3.0 <= ratio <= 5.0))
            report.add(value_check(slope_name, study["slope"], 2.0, 0.3 * tol_scale))

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, field in (("dirac", run["dirac_field"]),
                             ("schrodinger", run["schrodinger_field"])):
            nonrel.export_csv(field, out_dir / f"{label}.csv")
            nonrel.export_raw(field, out_dir / f"{label}.f64")


_INERTIA = "eigenvalues below the shift (Sylvester inertia)"


def _inertia_check(name: str, result: dict, exact: float) -> Check:
    if result["below_shift"] is None:
        return failed_check(name, "SuperLU pivoted off the diagonal: inertia unknown")
    return bound_check(name, result["below_shift"], exact)


def run_landau(report: RunReport, args: argparse.Namespace) -> None:
    params = PhysicalParams()
    b_field = args.B
    if b_field is None:
        # default: magnetic length = box/10
        b_field = params.hbar / (params.e * (args.box / 10.0) ** 2)
    exact = 1e-14 * args.tol_scale
    grid = nonrel.Grid2D(args.grid, args.box)
    result = nonrel.landau_levels(b_field, grid, params, n_levels=args.levels)
    report.parameters.update(B=b_field, magnetic_length=result["magnetic_length"],
                             level_energies=result["levels"], expected=result["expected"])
    report.add(_inertia_check(_INERTIA, result, exact))
    for j, err in enumerate(result["relative_errors"]):
        report.add(bound_check(f"level {j} vs hbar*w_c*(n+1/2)", err, 0.02 * args.tol_scale))

    doubled_length = result["magnetic_length"] / np.sqrt(2.0)
    if doubled_length >= 3.0 * grid.spacing and args.levels >= 2:
        doubled = nonrel.landau_levels(2.0 * b_field, grid, params, n_levels=2)
        report.add(_inertia_check(f"{_INERTIA}, B doubled", doubled, exact))
        ratio = ((doubled["levels"][1] - doubled["levels"][0])
                 / (result["levels"][1] - result["levels"][0]))
        report.add(value_check("spacing ratio when B doubles", ratio, 2.0,
                               0.08 * args.tol_scale))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planardirac",
        description="Verification suites for the planar two-component Dirac equation",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the run report as JSON on stdout")
    parser.add_argument("--seed", type=int, default=1234,
                        help="seed for randomized property sweeps")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="scale factor applied to every tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algebra", help="Pauli/gamma/SO(2,1) identity checks").set_defaults(
        run=run_algebra)

    p_spinor = sub.add_parser("spinor", help="plane-wave solution checks at one momentum")
    p_spinor.add_argument("--kx", type=float, default=0.0)
    p_spinor.add_argument("--ky", type=float, default=0.0)
    p_spinor.add_argument("--m", type=float, default=1.0)
    p_spinor.add_argument("--c", type=float, default=1.0)
    p_spinor.add_argument("--hbar", type=float, default=1.0)
    p_spinor.set_defaults(run=run_spinor)

    p_fock = sub.add_parser("fock", help="second-quantization checks on 4^M states")
    p_fock.add_argument("--modes", type=int, default=2, metavar="M")
    p_fock.add_argument("--box", type=float, default=2.0 * np.pi)
    p_fock.add_argument("--literal-68", action="store_true",
                        help="also check the literal printed pair-number ordering")
    p_fock.set_defaults(run=run_fock)

    p_evolve = sub.add_parser("evolve", help="Dirac vs Schrodinger comparison")
    p_evolve.add_argument("--grid", type=int, default=128)
    p_evolve.add_argument("--box", type=float, default=None)
    p_evolve.add_argument("--sigma", type=float, default=None)
    p_evolve.add_argument("--k0x", type=float, default=0.05)
    p_evolve.add_argument("--k0y", type=float, default=0.0)
    p_evolve.add_argument("--time", type=float, default=10.0)
    p_evolve.add_argument("--steps", type=int, default=None,
                          help="split the evolution into this many applications")
    p_evolve.add_argument("--out", type=str, default=None,
                          help="directory for CSV and raw field snapshots")
    p_evolve.set_defaults(run=run_evolve)

    p_landau = sub.add_parser("landau", help="Landau-level validation of minimal coupling")
    p_landau.add_argument("--B", type=float, default=None,
                          help="field strength (default: magnetic length = box/10)")
    p_landau.add_argument("--grid", type=int, default=64)
    p_landau.add_argument("--box", type=float, default=20.0)
    p_landau.add_argument("--levels", type=int, default=3)
    p_landau.set_defaults(run=run_landau)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {dest: value for dest, value in vars(args).items()
             if dest not in ("json", "command", "run")}
    try:
        for dest, value in flags.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {value}")
        if args.tol_scale <= 0:
            raise ValueError(f"--tol-scale must be finite and > 0, got {args.tol_scale}")
        report = RunReport(args.command, flags)
        start = time.perf_counter()
        args.run(report, args)
        report.wall_seconds = time.perf_counter() - start
    except (ValueError, nonrel.GaugeFrameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"error: inputs out of floating-point range ({exc})", file=sys.stderr)
        return 2

    report.print_table()
    if args.json:
        print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
