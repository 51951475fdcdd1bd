"""Regenerate the golden report corpus next to this script.

Each argv in ARGV gets one JSON file holding the argv, the exit code and the
--json report with wall_seconds dropped.  tests/test_golden.py runs every
file's argv in-process and requires the same report, floats bit for bit, so
a change that moves a reported value must show as a diff of this corpus.

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
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
    for stale in CORPUS.glob("*.json"):
        stale.unlink()
    for argv in ARGV:
        text = json.dumps(record(argv), indent=2, sort_keys=True)
        (CORPUS / file_name(argv)).write_text(text + "\n")


if __name__ == "__main__":
    main()
