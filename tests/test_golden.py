"""Every report in tests/golden/ is reproduced exactly.

Values are compared through their JSON text: a float's repr round-trips, so
equal text means bit-identical values (the NaN of a failed check included).
Only values that pass through BLAS or LAPACK get a stated relative bound,
because OpenBLAS picks its kernels by CPU: with OPENBLAS_CORETYPE=Haswell or
Prescott on one machine, the least-squares slope (np.polyfit) moved by up to
2 ulp (4.3e-16 relative), and the ARPACK Landau solve moved level energies
by up to 4.5e-15 and the level errors (about 3e-3) by up to 4.0e-13
relative.  Every other value, including all distances, stayed bit-identical
under those kernels and with numpy's AVX-512 paths disabled.

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

SLOPE = ("checks", "log-log slope of distance vs v/c")
SLOPE_RELATIVE_BOUND = 1e-14
LANDAU_RELATIVE_BOUND = 1e-10


def _bound(command: str, group: tuple) -> float:
    if command == "landau":
        return LANDAU_RELATIVE_BOUND
    return SLOPE_RELATIVE_BOUND if group == SLOPE else 0.0


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
