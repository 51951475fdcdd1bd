"""Check records and machine-readable run reports for the verification suites."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field


@dataclass
class Check:
    """One named check: a measured value against an expectation and tolerance.

    ``expected`` is either a target value (compared as |measured - expected|
    <= tolerance) or a textual bound like "<= 1e-12" when the check was built
    from a one-sided comparison; ``passed`` is always stored explicitly.
    """

    name: str
    measured: float
    expected: object
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def bound_check(name: str, measured: float, bound: float) -> Check:
    """Pass when measured <= bound."""
    return Check(name, float(measured), f"<= {bound:g}", float(bound),
                 float(measured) <= float(bound))


def floor_check(name: str, measured: float, floor: float) -> Check:
    """Pass when measured >= floor."""
    return Check(name, float(measured), f">= {floor:g}", float(floor),
                 float(measured) >= float(floor))


def value_check(name: str, measured: float, expected: float, tolerance: float) -> Check:
    """Pass when |measured - expected| <= tolerance."""
    return Check(name, float(measured), float(expected), float(tolerance),
                 abs(float(measured) - float(expected)) <= float(tolerance))


def failed_check(name: str, reason: str) -> Check:
    """A check that could not be evaluated; carries the reason as expectation."""
    return Check(name, float("nan"), reason, 0.0, False)


# Keys sorted, one key per line at the indent of a check's fields in to_json.
_CHECKS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


@dataclass
class RunReport:
    command: str
    parameters: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return len(self.checks) >= 1 and all(c.passed for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "checks": [c.to_dict() for c in self.checks],
            "wall_seconds": self.wall_seconds,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, byte for byte.

        An indent sends ``json`` to its pure-Python encoder, so the checks, the
        bulk of a report, go through the C encoder as one list and are indented
        here: a check is flat, so only the end of a check writes "}," before
        a newline.  "checks" sorts before every other key.
        """
        report = self.to_dict()
        checks = report.pop("checks")
        rest = json.dumps(report, indent=2, sort_keys=True)
        if checks:
            body = _CHECKS_ENCODER.encode(checks)[2:-2].replace(
                "},\n      {", "\n    },\n    {\n      ")
            checks_json = "[\n    {\n      " + body + "\n    }\n  ]"
        else:
            checks_json = "[]"
        return '{\n  "checks": ' + checks_json + ",\n" + rest[2:]

    def print_table(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stderr
        print(f"== {self.command} ==", file=stream)
        if self.parameters:
            echo = ", ".join(f"{k}={v}" for k, v in self.parameters.items()
                             if not isinstance(v, (list, dict)))
            if echo:
                print(f"   parameters: {echo}", file=stream)
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            expected = c.expected if isinstance(c.expected, str) else f"{c.expected:.6g}"
            print(f"   {c.name:<{width}}  measured={c.measured:<12.6g} "
                  f"expected={expected:<12} tol={c.tolerance:<9.3g} {status}",
                  file=stream)
        verdict = "all checks passed" if self.passed else "CHECK FAILURES"
        print(f"   {len(self.checks)} checks in {self.wall_seconds:.2f} s: {verdict}",
              file=stream)
