"""The planardirac benchmark: one workload, run as a sequence of cold passes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is the workload's fixed list of CLI invocations (see workloads.py),
made in-process through ``planardirac.cli.main`` inside a fresh interpreter
(child.py), so no cache carries over from one pass to the next.  Passes run
one after another, one child at a time, until ``--seconds`` have gone by.
BLAS, OpenMP and FFT thread counts stay at the library defaults; the
environment variables that would set them are recorded.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
traced and untraced passes alternate, and the per-layer metrics are printed,
including ``trace.overhead`` (traced over untraced mean wall time, minus
one).  Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full result,
with provenance, every pass and the spans, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import accounting
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_LIMIT_S = 170.0  # hard ceiling on one run, overrunning pass included
MIN_PASSES = 3  # untraced passes in an untraced run
MIN_TRACED = 2  # traced passes in a traced run; their counts must agree
MIN_COVERAGE = 0.98  # share of a traced pass's wall time its top-level spans cover
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# End-to-end metrics reported as the mean over a run's passes, not the median.
_MEAN_OVER_PASSES = ("wall_s", "cpu_s")
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_run": "count",
}

_CLI_LABELS = sorted({inv.label for name in workloads.WORKLOADS
                      for inv in workloads.invocations(name, 0)})
# Span groups reported as inclusive seconds under "<group>_s".
_GROUP_TIMES = (
    "reporting.serialize",
    "fock.space_build", "fock.verify_ccr", "fock.hamiltonian", "fock.occupation_spectrum",
    "fock.eigenvalues", "fock.field_anticommutator", "fock.hamiltonian_from_field",
    "fock.pair", "fock.operator_product",
    "nonrel.evolve_dirac", "nonrel.evolve_schrodinger", "nonrel.build_gaussian",
    "nonrel.compare_limit", "nonrel.fft", "nonrel.landau_levels", "nonrel.eigsh",
    "algebra.matrix_exponential", "planewave.plane_wave", "planewave.residual",
)
# Counters (name -> unit) that must repeat exactly between traced passes.
_COUNTS = {
    "fock.operator_products": "count",
    "planewave.normalize_calls": "count",
    "nonrel.evolve_dirac_calls": "count",
    "nonrel.fft_calls": "count",
    "nonrel.fft_bytes": "B_computed",
    "nonrel.eigsh_calls": "count",
    "nonrel.eigsh_k": "count",
    "algebra.matrix_exponential_calls": "count",
    "planewave.plane_wave_calls": "count",
}
PER_LAYER = {
    **{f"cli.{label}_s": "s" for label in _CLI_LABELS},
    **{f"{group}_s": "s" for group in _GROUP_TIMES},
    "nonrel.landau_self_s": "s",
    **_COUNTS,
    "nonrel.evolve_dirac_repeat_share": "ratio",
    "op_fail_ratio": "ratio",
    "check_fail_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
# Values of one seed that must repeat exactly between traced passes.
_EXACT = (*_COUNTS, "nonrel.evolve_dirac_repeat_share", "checks_run")


class PassError(RuntimeError):
    """A child interpreter did not complete its pass."""


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0], values[0], values[0]]


def run_child(workload: str, seed: int, mode: str, timeout: float) -> dict:
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawned), str(ROOT),
             workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes for up to ``seconds``; returns (passes, error)."""
    launched = time.monotonic()
    passes = []
    try:
        run_child(workload, seed, "warmup", RUN_LIMIT_S)  # fills .pyc files and the page cache
        start = time.monotonic()
        while True:
            traced = sum(p["traced"] for p in passes)
            untraced = len(passes) - traced
            if trace:
                enough = traced >= MIN_TRACED and untraced >= 1
                mode = "1" if traced <= untraced else "0"
            else:
                enough = untraced >= MIN_PASSES
                mode = "0"
            # Start a pass only if a typical one still ends within --seconds.
            typical = median([p["elapsed"] for p in passes])
            if enough and time.monotonic() - start + typical > seconds:
                return passes, ""
            left = RUN_LIMIT_S - (time.monotonic() - launched)
            longest = max((p["elapsed"] for p in passes), default=0.0)
            if enough and longest > left:
                return passes, ""
            began = time.monotonic()
            summary = run_child(workload, seed, mode, left)
            summary["traced"] = mode == "1"
            summary["elapsed"] = time.monotonic() - began
            passes.append(summary)
    except PassError as exc:
        return passes, str(exc)


def end_to_end(passes) -> tuple[dict, dict]:
    """Per-run values over untraced passes, plus (value, median, q1, q3, n) per metric.

    Times per pass are averaged; the rest take the median.  On a shared host
    the pass times often fall in two clusters some 40 % apart, and the median
    of a run then jumps between the clusters while the mean, the time a pass
    takes on average over the run, moves smoothly.
    """
    per_pass = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "checks_run": [accounting.tally(p["outcomes"])["checks_run"] for p in passes],
    }
    spread = {name: (statistics.fmean(v) if name in _MEAN_OVER_PASSES else median(v),
                     median(v), *quartiles(v)[::2], len(v)) for name, v in per_pass.items()}
    return {name: s[0] for name, s in spread.items()}, spread


def pass_layers(summary: dict) -> dict:
    """Per-layer values of one traced pass."""
    spans = summary["spans"]
    counts = summary["counts"]
    groups = tracing.group_times(spans)
    values = {f"{group}_s": groups.get(group, 0.0) for group in _GROUP_TIMES}
    values["nonrel.landau_self_s"] = tracing.group_self_times(spans).get("nonrel.landau_levels", 0.0)
    values.update({name: counts.get(name, 0) for name in _COUNTS})
    calls = counts.get("nonrel.evolve_dirac_calls", 0)
    values["nonrel.evolve_dirac_repeat_share"] = (
        counts.get("nonrel.evolve_dirac_repeats", 0) / calls if calls else 0.0)
    values["checks_run"] = accounting.tally(summary["outcomes"])["checks_run"]
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    values["trace.coverage"] = top / summary["wall_s"]
    return values


def per_layer(passes) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, and the problems found in it."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    layers = [pass_layers(p) for p in traced]
    problems = []
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name in _EXACT:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        elif name == "trace.coverage":
            metrics[name] = min(values)
        else:
            metrics[name] = median(values)
    for label in _CLI_LABELS:
        durations = [end - start for p in traced for name, start, end, parent in p["spans"]
                     if parent < 0 and name == f"cli.{label}"]
        metrics[f"cli.{label}_s"] = median(durations)
    tally = accounting.tally([o for p in passes for o in p["outcomes"]])
    metrics["op_fail_ratio"] = tally["op_failed"] / tally["attempted"]
    metrics["check_fail_ratio"] = tally["checks_failed"] / max(tally["checks_run"], 1)
    metrics["trace.overhead"] = (statistics.fmean([p["wall_s"] for p in traced])
                                 / statistics.fmean([p["wall_s"] for p in untraced]) - 1.0)
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"top-level spans cover only {metrics['trace.coverage']:.4f} of a pass")
    for p in traced:
        if p["leftover_wrappers"]:
            problems.append(f"tracing wrappers left installed: {p['leftover_wrappers']}")
    return {name: metrics[name] for name in PER_LAYER}, problems


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def provenance(passes, seed: int, invocations) -> dict:
    commit, dirty = git_state()
    return {
        **(passes[0]["versions"] if passes else {}),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "argv": [list(inv.argv) for inv in invocations],
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def defect_note(invocations, outcomes) -> str:
    """How the failed spinor calls line up with the drawn momenta."""
    above = sum(inv.known_defect_region for inv in invocations)
    known = sum(o["status"] == accounting.KNOWN_DEFECT for o in outcomes)
    runs = len(outcomes) // len(invocations)
    return (f"{above} of {sum(inv.momentum is not None for inv in invocations)} drawn momenta "
            f"lie above hbar|k|/(mc) = {workloads.FAILURE_ONSET:g}; "
            f"{known / max(runs, 1):g} spinor calls per pass failed there on "
            f"absolute-bound rounding checks only; a failure below it counts as unexpected")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "planardirac" / "cli.py").is_file():
        print(f"error: no planardirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    invocations = workloads.invocations(args.workload, args.seed)
    passes, error = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = [error] if error else []
    outcomes = [o for p in passes for o in p["outcomes"]]
    tally = accounting.tally(outcomes)
    broken = len(invocations) if error else 0  # the calls of the pass that did not finish
    result = {"provenance": provenance(passes, args.seed, invocations),
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tally": tally}

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(passes)}  cpu_count {os.cpu_count()}  "
             f"thread env {result['provenance']['thread_env']}"]
    metrics = {}
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace and not error:  # an unfinished run reports no metrics
        metrics, layer_problems = per_layer(passes)
        problems += layer_problems
        lines += [f"{name:<40} {value:.6g} {units[name]}" for name, value in metrics.items()]
    elif not error:
        metrics, spread = end_to_end(passes)
        lines += [f"{name:<12} {f'mean {value:.6g}  ' if name in _MEAN_OVER_PASSES else ''}"
                  f"median {m:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {n}  {units[name]}"
                  for name, (value, m, q1, q3, n) in spread.items()]
    lines.append(f"invocations: {tally['attempted']} attempted, {tally['op_failed']} failed "
                 f"({tally['known_defect']} known defect, {tally['unexpected']} unexpected); "
                 f"checks: {tally['checks_run']} run, {tally['checks_failed']} failed")
    if args.workload == "oracles" and passes:
        lines.append(defect_note(invocations, outcomes))
    unexpected = [o for o in outcomes if o["status"] == accounting.UNEXPECTED]
    problems += [f"{o['label']}: {o['reason']}" for o in unexpected[:5]]
    lines += [f"PROBLEM: {p}" for p in problems]

    result.update(metrics=metrics, problems=problems, passes=passes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result))
    lines.append(f"full result: {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": max(tally["attempted"] + broken, 1),
        "failed": tally["unexpected"] + broken,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
