"""Tests of the benchmark itself: inputs, accounting, span arithmetic, tracing."""

import json

import pytest

import accounting
import run
import tracing
import workloads
from planardirac import cli


def test_same_seed_gives_same_argv():
    for name in workloads.WORKLOADS:
        assert workloads.invocations(name, 7) == workloads.invocations(name, 7)


def test_other_seed_gives_other_oracle_momenta():
    def momenta(seed):
        return [inv.momentum for inv in workloads.invocations("oracles", seed)
                if inv.momentum is not None]
    first, second = momenta(7), momenta(8)
    assert len(first) == len(second) == workloads.ORACLE_MOMENTA
    assert first != second
    lo, hi = workloads.MOMENTUM_RANGE
    assert all(lo * (1 - 1e-12) <= k <= hi * (1 + 1e-12) for k in first + second)


def test_argv_never_scales_tolerances():
    for name in workloads.WORKLOADS:
        for inv in workloads.invocations(name, 3):
            assert "--json" in inv.argv
            assert not any(arg.startswith("--tol-scale") for arg in inv.argv)


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 2],
        ["root", 12.0, 13.0, -1],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.0])
    assert tracing.group_self_times(spans)["root"] == pytest.approx(4.0)


def test_group_time_counts_nested_same_group_once():
    spans = [
        ["x", 0.0, 10.0, -1],
        ["y", 1.0, 6.0, 0],
        ["x", 2.0, 5.0, 1],  # nested under an outer "x": already counted
        ["x", 11.0, 12.0, -1],
    ]
    times = tracing.group_times(spans)
    assert times["x"] == pytest.approx(11.0)
    assert times["y"] == pytest.approx(5.0)


def _fake_main(report):
    def main(argv):
        print(json.dumps(report))
        return 0
    return main


def test_zero_check_report_is_a_failed_operation():
    inv = workloads.Invocation("landau.g32", ("--json", "landau", "--levels", "0"))
    main = _fake_main({"command": "landau", "checks": [], "passed": True})
    outcome = accounting.check_report(inv, *accounting.call_suite(main, inv.argv))
    assert outcome.status == accounting.UNEXPECTED
    assert "zero checks" in outcome.reason
    assert accounting.tally([outcome.to_dict()])["op_failed"] == 1


def test_raising_suite_is_a_failed_operation_and_the_pass_goes_on():
    calls = []

    def main(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise OverflowError("boom")
        print(json.dumps({"command": "algebra", "checks": [_check(0.0, True)], "passed": True}))
        return 0

    invs = [workloads.Invocation("algebra", ("--json", "algebra"))] * 2
    result = accounting.run_pass(invs, main)
    first, second = result["outcomes"]
    assert first["exit_code"] is None and first["status"] == accounting.UNEXPECTED
    assert "OverflowError" in first["reason"]
    assert second["status"] == accounting.OK
    tally = accounting.tally(result["outcomes"])
    assert (tally["attempted"], tally["op_failed"], tally["unexpected"]) == (2, 1, 1)


def _check(measured, passed, expected="<= 1e-12", tolerance=1e-12):
    return {"name": "x", "measured": measured, "expected": expected,
            "tolerance": tolerance, "passed": passed}


@pytest.mark.parametrize("check, claimed, code, status", [
    (_check(0.0, True), True, 0, accounting.OK),
    (_check(0.0, False), True, 0, accounting.UNEXPECTED),  # report flag disagrees
    (_check(0.0, True), True, 1, accounting.UNEXPECTED),  # exit code disagrees
    (_check(1e-9, True), True, 0, accounting.UNEXPECTED),  # check flag disagrees
    (_check(0.5, True, ">= 0.1", 0.1), True, 0, accounting.OK),
    (_check(1.0, True, 2.0, 0.3), True, 0, accounting.UNEXPECTED),
    (_check(4.2, True, "in [3, 5]", 1.0), True, 0, accounting.OK),
    (_check(5.5, True, "in [3, 5]", 1.0), True, 0, accounting.UNEXPECTED),
    (_check(float("nan"), False, "degenerate", 0.0), False, 1, accounting.UNEXPECTED),
])
def test_report_flags_must_agree_with_the_measured_values(check, claimed, code, status):
    inv = workloads.Invocation("algebra", ("--json", "algebra"))
    report = {"command": "algebra", "checks": [check], "passed": claimed}
    assert accounting.check_report(inv, code, json.dumps(report), "").status == status


def test_rounding_failures_are_known_only_above_the_onset():
    argv = ("--json", "spinor", "--kx=10000.0", "--ky=0.0")
    above = workloads.Invocation("spinor", argv, momentum=1e4)
    below = workloads.Invocation("spinor", argv, momentum=None)
    code, stdout, error = accounting.call_suite(cli.main, argv)
    assert code == 1
    known = accounting.check_report(above, code, stdout, error)
    assert known.status == accounting.KNOWN_DEFECT and known.failed_checks
    assert accounting.check_report(below, code, stdout, error).status == accounting.UNEXPECTED


def _current(module, attribute):
    owner, name = tracing._resolve(module, attribute)
    return owner.__dict__[name]


def test_tracing_wrappers_are_removed_after_the_traced_run():
    targets = tracing.patch_targets()
    originals = {key: _current(*key) for key in targets}
    invs = [workloads.Invocation("fock.M1", ("--json", "fock", "--modes", "1")),
            workloads.Invocation("spinor", ("--json", "spinor", "--kx=0.5"))]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert len(tracing.leftover_wrappers()) == len(targets)
        result = accounting.run_pass(invs, cli.main, tracer.span)
    assert tracing.leftover_wrappers() == []
    assert all(_current(*key) is original for key, original in originals.items())
    assert [o["status"] for o in result["outcomes"]] == [accounting.OK, accounting.OK]
    assert tracer.counts["fock.operator_products"] == 70
    assert tracer.counts["planewave.plane_wave_calls"] == 4
    assert all(end is not None for _, _, end, _ in tracer.spans)


def test_tracing_wrappers_are_removed_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("stop")
    assert tracing.leftover_wrappers() == []


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
