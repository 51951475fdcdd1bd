"""Every report in tests/golden/ is reproduced exactly.

Values are compared through their JSON text: a float's repr round-trips, so
equal text means bit-identical values (the NaN of a failed check included).
Only values that pass through BLAS or LAPACK get a stated relative bound,
because OpenBLAS picks its kernels by CPU.  Measured on one machine over 18
OPENBLAS_CORETYPE settings, from Katmai, Prescott and Core2 to Haswell, Zen,
SkylakeX and SapphireRapids:

- the least-squares slope (np.polyfit) of `evolve` moved by up to 2 ulp
  (4.3e-16 relative): bound 1e-14;
- the ARPACK Landau solve moved level energies by up to 4.5e-15, the spacing
  ratio by up to 3.1e-14 and the level errors (about 1e-3) by up to 1.5e-12
  relative: every `landau` value has bound 1e-10;
- the rounding-level residuals formed by 2x2 matrix products (numpy's
  matmul calls BLAS), the three matrix-exponential checks of `algebra` (up
  to 0.17 relative) and the Dirac residuals of `spinor` (up to 0.053), moved
  by a sizeable fraction of themselves, since one ulp of an operand is
  comparable to the residual: bound 0.5.

Every other value, including all distances, the `spinor` determinants
(LAPACK getrf) and the `fock` state norms (BLAS dot), stayed bit-identical
under those kernels and with numpy's AVX-512 paths disabled.  With numpy's
AVX2 paths disabled too, as on a CPU without AVX2, numpy's own sin, cos and
exp loops round differently and the `evolve` reports do not reproduce.

When a report differs, the failure lists the largest relative move of each
check and parameter that moved.  Regenerate the corpus with
tests/golden/regenerate.py when a move is meant.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", CORPUS / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

LANDAU_RELATIVE_BOUND = 1e-10
RESIDUAL_RELATIVE_BOUND = 0.5
# (command, check name) -> relative bound; all other values are bit for bit.
CHECK_RELATIVE_BOUNDS = {
    ("evolve", "log-log slope of distance vs v/c"): 1e-14,
    **dict.fromkeys([("algebra", "matrix exponential unitarity"),
                     ("algebra", "matrix exponential group property"),
                     ("algebra", "matrix exponential vs scaling-and-squaring"),
                     ("spinor", "dirac residual (u branch)"),
                     ("spinor", "dirac residual (v branch)")], RESIDUAL_RELATIVE_BOUND),
}


def _bound(command: str, group: tuple) -> float:
    if command == "landau":
        return LANDAU_RELATIVE_BOUND
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


def _relative_move(old, new) -> float:
    """|new - old| / |old|, or inf unless both are finite floats and old != 0."""
    if not all(isinstance(v, float) and math.isfinite(v) for v in (old, new)) or not old:
        return math.inf
    return abs(new - old) / abs(old)


def _moves(old: dict, new: dict) -> dict:
    """Largest relative move per check or parameter (("checks", name) or
    ("parameters", key)) over the leaves whose JSON text differs."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    moves = {}
    for path in before.keys() | after.keys():
        a, b = before.get(path), after.get(path)
        if path in before and path in after and json.dumps(a) == json.dumps(b):
            continue
        group = path[:2]
        moves[group] = max(moves.get(group, 0.0), _relative_move(a, b))
    return moves


def test_corpus_covers_every_argv():
    assert sorted(p.name for p in CORPUS.glob("*.json")) == sorted(
        golden.file_name(argv) for argv in golden.ARGV)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_report_matches_corpus(path):
    stored = json.loads(path.read_text())
    fresh = golden.record(stored["argv"])
    assert fresh["exit_code"] == stored["exit_code"]
    moves = _moves(stored["report"], fresh["report"])
    command = stored["report"]["command"]
    if any(move > _bound(command, group) for group, move in moves.items()):
        pytest.fail("report differs from the corpus; largest relative moves:\n"
                    + "\n".join(f"{' '.join(map(str, group))}: {move:.3g}"
                              for group, move in sorted(moves.items())))
