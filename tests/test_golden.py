"""Every report in tests/golden/ is reproduced exactly.

Values are compared through their JSON text: a float's repr round-trips, so
equal text means bit-identical values (the NaN of a failed check included).
Only values that pass through BLAS or LAPACK get a stated relative bound;
tests/golden/regenerate.py holds the bounds, the comparison and how the
bounds were measured.

When a report differs, the failure lists the largest relative move of each
check and parameter that moved.  Regenerate the corpus with
tests/golden/regenerate.py when a move is meant.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

CORPUS = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", CORPUS / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_corpus_covers_every_argv():
    assert sorted(p.name for p in CORPUS.glob("*.json")) == sorted(
        golden.file_name(argv) for argv in golden.ARGV)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_report_matches_corpus(path):
    stored = json.loads(path.read_text())
    fresh = golden.record(stored["argv"])
    assert fresh["exit_code"] == stored["exit_code"]
    moves = golden.moves_past_bound(stored, fresh)
    if moves:
        pytest.fail("report differs from the corpus; largest relative moves:\n"
                    + "\n".join(f"{' '.join(map(str, group))}: {move:.3g}"
                              for group, move in sorted(moves.items())))


SLOPE = "log-log slope of distance vs v/c"


def _scaling_studies():
    """The report of each corpus argv whose scaling study has a slope."""
    for path in sorted(CORPUS.glob("evolve*.json")):
        report = json.loads(path.read_text())["report"]
        slope = {c["name"]: c["measured"] for c in report["checks"]}.get(SLOPE)
        if slope is not None and math.isfinite(slope):
            yield pytest.param(report, id=path.stem)


@pytest.mark.parametrize("report", list(_scaling_studies()))
def test_slope_is_the_least_squares_slope(report):
    """The reported slope is the closed form log(d2/d0) / log(vc2/vc0), bit
    for bit, with vc2/vc0 exactly 4: the least-squares slope through three
    log-equispaced points.  np.polyfit, the independent reference, agrees
    within 1e-14 relative (at most 1.4e-15 measured, at --k0x 0.1)."""
    slope = {c["name"]: c["measured"] for c in report["checks"]}[SLOPE]
    vc = report["parameters"]["scaling_vc"]
    distances = report["parameters"]["scaling_distances"]
    assert vc[2] / vc[0] == 4.0
    assert slope == math.log(distances[2] / distances[0]) / math.log(vc[2] / vc[0])
    fit = np.polyfit(np.log(vc), np.log(distances), 1)[0]
    assert abs(slope - fit) <= 1e-14 * abs(fit)
