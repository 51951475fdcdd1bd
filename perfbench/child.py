"""One pass of a workload in a fresh interpreter; run.py starts one per pass.

Usage: python3 perfbench/child.py SPAWNED ROOT WORKLOAD SEED MODE

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start-up and the import of
``planardirac.cli``.  MODE is ``0`` (untraced), ``1`` (traced) or ``warmup``
(import only).  The last line of stdout is one JSON summary of the pass.
"""

import os
import sys
import time


def main() -> int:
    spawned, root, workload, seed, mode = sys.argv[1:6]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    from planardirac import cli
    setup_s = time.monotonic() - float(spawned)

    import json
    import platform
    import resource

    import numpy
    import scipy

    import accounting
    import tracing
    import workloads

    import planardirac

    if not os.path.realpath(planardirac.__file__).startswith(src + os.sep):
        print(f"planardirac imported from {planardirac.__file__}, not {src}", file=sys.stderr)
        return 3
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    summary = {
        "setup_s": setup_s,
        "versions": {"planardirac": planardirac.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version(),
                     "blas": f"{blas['name']} {blas['version']}"},
    }
    if mode != "warmup":
        invocations = workloads.invocations(workload, int(seed))
        if mode == "1":
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                summary.update(accounting.run_pass(invocations, cli.main, tracer.span))
            summary["spans"] = tracer.spans
            summary["counts"] = tracer.counts
            summary["leftover_wrappers"] = tracing.leftover_wrappers()
        else:
            summary.update(accounting.run_pass(invocations, cli.main))
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
