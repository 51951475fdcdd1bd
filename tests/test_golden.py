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
from pathlib import Path

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
