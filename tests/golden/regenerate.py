"""Regenerate the golden report corpus next to this script.

Each argv in ARGV gets one JSON file holding the argv, the exit code and the
--json report with wall_seconds dropped.  tests/test_golden.py runs every
file's argv in-process and requires the same report, floats bit for bit, so
a change that moves a reported value must show as a diff of this corpus.

Only values that pass through BLAS or LAPACK get a stated relative bound,
because OpenBLAS picks its kernels by CPU.  Measured on one machine over
OPENBLAS_CORETYPE settings from Katmai, Prescott and Core2 to Haswell, Zen,
SkylakeX and SapphireRapids (18 for `spinor`, 20 for `landau`, 23 for
`algebra`):

- the Landau solve, LAPACK syevd on each k_y block through numpy's
  eigvalsh, has an absolute eigenvalue error of a few eps times the block's
  largest eigenvalue, so every value it feeds moves by a share of the
  largest eigenvalue, not of itself.  Over 20 OPENBLAS_CORETYPE settings,
  each at the default thread count, 1 and 2 threads, the level energies
  moved by up to 8.5e-14 relative, and the dimensionless check values (level
  errors about 1e-5 to 1e-3, degeneracy spreads about 1e-6 to 1e-3, the
  mirror residual about 2e-15, the spacing ratio about 2) by up to 1.8e-13
  absolute, which is up to 3e-9 of a level error and 0.9 of the mirror
  residual.  Every `landau` parameter has relative bound 1e-12, and every
  `landau` check value moves by at most 1e-12 * max(|value|, 1);
- the rounding-level residuals formed by 2x2 matrix products (numpy's
  matmul calls BLAS) and the Dirac residuals of `spinor` (up to 0.053)
  moved by a sizeable fraction of themselves, since one ulp of an operand
  is comparable to the residual: bound 0.5.  The three matrix-exponential
  checks of `algebra` are such residuals, and the oracle of "matrix
  exponential vs eigendecomposition" also runs LAPACK's 2x2 eigh.  Over 23
  OPENBLAS_CORETYPE settings, Katmai to SapphireRapids and Opteron to Zen,
  each at the default thread count, 1 and 2 threads, that check read
  1.355e-15 or, under Haswell and Zen, 1.422e-15 (a move of 0.049), and the
  unitarity and group-property checks moved by up to 0.0046 and 0.061.

Every other value, including every `evolve` value, the `spinor` determinants
(LAPACK getrf) and the `fock` state norms (BLAS dot), stayed bit-identical
under those kernels and with numpy's AVX-512 paths disabled.  With numpy's
AVX2 paths disabled too, as on a CPU without AVX2, numpy's own sin, cos and
exp loops round differently and the `evolve` reports do not reproduce.

A file is rewritten only when its stored report no longer matches a fresh
run within those bounds (or it is missing), and deleted only when its argv
left ARGV, so a run rewrites just the files whose reports moved.

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from planardirac import cli

CORPUS = Path(__file__).resolve().parent

ARGV = [
    ["algebra"],
    ["spinor", "--kx", "1"],
    ["spinor", "--kx", "1", "--ky", "0.5"],
    ["spinor", "--kx", "1e5"],
    *(["fock", "--modes", str(m)] for m in range(1, 7)),
    ["fock", "--modes", "2", "--literal-68"],
    ["fock", "--modes", "3", "--box", "3"],
    ["evolve"],
    ["evolve", "--grid", "256"],
    ["evolve", "--grid", "256", "--steps", "4"],
    ["evolve", "--grid", "256", "--steps", "64"],
    ["evolve", "--steps", "1"],
    ["evolve", "--sigma", "80"],
    ["evolve", "--box", "1920"],
    ["evolve", "--k0x=-0.05"],
    ["evolve", "--k0y", "0.01"],
    ["evolve", "--time", "0"],
    ["evolve", "--time", "1e-320"],
    ["evolve", "--k0x", "0.1"],
    ["evolve", "--grid", "128", "--k0y", "0.02", "--steps", "4"],
    ["evolve", "--k0x", "0", "--sigma", "5"],
    ["landau", "--grid", "32"],
    ["landau", "--grid", "64"],
    ["landau", "--grid", "64", "--B", "0.5"],
]


LANDAU_BOUND = 1e-12
RESIDUAL_RELATIVE_BOUND = 0.5
# (command, check name) -> relative bound; all other values are bit for bit.
CHECK_RELATIVE_BOUNDS = dict.fromkeys([
    ("algebra", "matrix exponential unitarity"),
    ("algebra", "matrix exponential group property"),
    ("algebra", "matrix exponential vs eigendecomposition"),
    ("spinor", "dirac residual (u branch)"),
    ("spinor", "dirac residual (v branch)")], RESIDUAL_RELATIVE_BOUND)


def _bound(command: str, group: tuple) -> float:
    if command == "landau":
        return LANDAU_BOUND
    if group[0] != "checks":
        return 0.0
    return CHECK_RELATIVE_BOUNDS.get((command, group[1]), 0.0)


def _leaves(value, path=()):
    """(path, leaf) pairs of a report; checks are keyed by name, not position."""
    if path == ("checks",):
        value = {c["name"]: {k: v for k, v in c.items() if k != "name"} for c in value}
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        yield path, value


def _relative_move(old, new, floor: float = 0.0) -> float:
    """|new - old| / max(|old|, floor), or inf unless both are finite floats
    and that denominator is not 0."""
    if (not all(isinstance(v, float) and math.isfinite(v) for v in (old, new))
            or not max(abs(old), floor)):
        return math.inf
    return abs(new - old) / max(abs(old), floor)


def _moves(old: dict, new: dict) -> dict:
    """Largest relative move per check or parameter (("checks", name) or
    ("parameters", key)) over the leaves whose JSON text differs.  A `landau`
    check value moves relative to max(|value|, 1)."""
    floor = 1.0 if old["command"] == "landau" else 0.0
    before, after = dict(_leaves(old)), dict(_leaves(new))
    moves = {}
    for path in before.keys() | after.keys():
        a, b = before.get(path), after.get(path)
        if path in before and path in after and json.dumps(a) == json.dumps(b):
            continue
        group = path[:2]
        moves[group] = max(moves.get(group, 0.0),
                           _relative_move(a, b, floor if group[0] == "checks" else 0.0))
    return moves


def moves_past_bound(stored: dict, fresh: dict) -> dict:
    """_moves of fresh's report from stored's when any exceeds its _bound,
    else {}."""
    moves = _moves(stored["report"], fresh["report"])
    command = stored["report"]["command"]
    if any(move > _bound(command, group) for group, move in moves.items()):
        return moves
    return {}


def file_name(argv: list) -> str:
    """evolve --k0x=-0.05 -> evolve_k0x_-0.05.json"""
    return "_".join(a.lstrip("-").replace("=", "_") for a in argv) + ".json"


def record(argv: list) -> dict:
    """Run one argv in-process: its exit code and report without wall_seconds."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    report = json.loads(stdout.getvalue())
    del report["wall_seconds"]
    return {"argv": argv, "exit_code": code, "report": report}


def main() -> None:
    names = {file_name(argv) for argv in ARGV}
    for stale in CORPUS.glob("*.json"):
        if stale.name not in names:
            stale.unlink()
    for argv in ARGV:
        path = CORPUS / file_name(argv)
        fresh = record(argv)
        if path.exists():
            stored = json.loads(path.read_text())
            if stored["exit_code"] == fresh["exit_code"] and not moves_past_bound(stored, fresh):
                continue
        path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
