"""One pass of a workload: call each suite in-process and check its report.

Every invocation ends in exactly one of three states:

- ``ok``: exit code 0 and a report whose checks all passed;
- ``known-defect``: a spinor call above ``FAILURE_ONSET`` whose only failing
  checks are the absolute-bound rounding checks; it still counts as a failed
  operation and its failed checks still count;
- ``unexpected``: anything else, including a raised exception, a report with
  zero checks, an unparsable report, a check whose ``passed`` flag disagrees
  with its measured value and expectation, or a report ``passed`` flag or
  exit code that disagrees with the checks.

An operation fails when the suite raises, exits non-zero, or returns a report
with zero checks.  No tolerance is passed to or changed in the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import asdict, dataclass, field

from workloads import KNOWN_ROUNDING_CHECKS, Invocation

OK = "ok"
KNOWN_DEFECT = "known-defect"
UNEXPECTED = "unexpected"


@dataclass
class Outcome:
    label: str
    exit_code: int | None  # None when the suite raised
    checks: int = 0
    failed_checks: list = field(default_factory=list)
    status: str = UNEXPECTED
    reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def call_suite(main, argv) -> tuple[int | None, str, str]:
    """Run ``main(argv)`` with stdout captured; returns (exit code, stdout, error).

    The human-readable table goes to a discarded buffer: formatting it is part
    of the CLI's work, writing it to a terminal is not measured.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except SystemExit as exc:  # argparse reports misuse by exiting
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising suite is a failed operation; the pass goes on
        return None, out.getvalue(), f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), ""


def check_holds(check: dict) -> bool | None:
    """Re-evaluate one reported check from its measured value and expectation.

    Returns None when the expectation is a reason string, as for a check that
    could not be evaluated.
    """
    measured, expected, tolerance = check["measured"], check["expected"], check["tolerance"]
    if not isinstance(expected, str):
        return abs(measured - expected) <= tolerance
    if expected.startswith("<= "):
        return measured <= tolerance
    if expected.startswith(">= "):
        return measured >= tolerance
    if expected.startswith("in [") and expected.endswith("]"):
        low, high = (float(v) for v in expected[4:-1].split(","))
        return low <= measured <= high
    return None


def check_report(inv: Invocation, code: int | None, stdout: str, error: str) -> Outcome:
    """Classify one invocation from its exit code and its JSON report."""
    outcome = Outcome(inv.label, code)
    if error:
        outcome.reason = error
        return outcome
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        names_failed = [c["name"] for c in checks if c["passed"] is not True]
        misreported = [c["name"] for c in checks
                       if check_holds(c) not in (None, c["passed"] is True)]
        claimed = report["passed"]
        command = report["command"]
    except (ValueError, KeyError, TypeError) as exc:
        outcome.reason = f"unparsable report (exit {code}): {exc}"
        return outcome
    outcome.checks = len(checks)
    outcome.failed_checks = names_failed
    expected_command = inv.label.split(".")[0]
    if command != expected_command:
        outcome.reason = f"report is for {command!r}, expected {expected_command!r}"
    elif not checks:
        outcome.reason = "report with zero checks"
    elif misreported:
        outcome.reason = f"passed flag disagrees with the measured value: {misreported}"
    elif claimed is not (not names_failed) or code != (0 if claimed else 1):
        outcome.reason = (f"report says passed={claimed} and exits {code} "
                          f"with {len(names_failed)} failed checks")
    elif not names_failed:
        outcome.status = OK
    elif inv.known_defect_region and set(names_failed) <= KNOWN_ROUNDING_CHECKS:
        outcome.status = KNOWN_DEFECT
        outcome.reason = f"absolute bounds at hbar|k|/(mc) = {inv.momentum:.4g}"
    else:
        outcome.reason = f"failed checks: {names_failed}"
    return outcome


def run_pass(invocations, main, span=None) -> dict:
    """Make every call of one pass and check each report.

    ``span(name)`` is a context manager opening a tracing span, or None for
    an untraced pass.  Wall and CPU time run from the first suite call to the
    last report checked.
    """
    span = span or (lambda name: contextlib.nullcontext())
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for inv in invocations:
        with span("cli." + inv.label):
            code, stdout, error = call_suite(main, inv.argv)
        with span("bench.check"):
            outcomes.append(check_report(inv, code, stdout, error))
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "outcomes": [o.to_dict() for o in outcomes],
    }


def tally(outcomes) -> dict:
    """Operation and check counts over outcome dicts (from one or many passes)."""
    return {
        "attempted": len(outcomes),
        "unexpected": sum(o["status"] == UNEXPECTED for o in outcomes),
        "known_defect": sum(o["status"] == KNOWN_DEFECT for o in outcomes),
        "op_failed": sum(o["exit_code"] != 0 or o["checks"] == 0 for o in outcomes),
        "checks_run": sum(o["checks"] for o in outcomes),
        "checks_failed": sum(len(o["failed_checks"]) for o in outcomes),
    }
