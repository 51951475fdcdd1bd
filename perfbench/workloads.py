"""The benchmark's workloads: the fixed list of CLI invocations one pass makes.

A workload is a function of the benchmark seed only; the program sees nothing
but the argv generated here.  Every argv carries ``--json`` so the pass can
parse and check each report.  Only ``oracles`` draws from the seed: the other
workloads run the same fixed flags at every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Size of one oracles pass.  Each invocation takes one to a few
# milliseconds, so per-call cli/reporting overhead is a visible share of the
# pass; ~1100 of them make a pass of two to three seconds, and put some 450
# momenta above the failure onset in every pass.
ORACLE_ALGEBRA_SEEDS = 64
ORACLE_MOMENTA = 1024
# hbar*|k|/(mc) is drawn log-uniformly over this range.  It covers the
# acceptance range [0, 10] and reaches far into the region where the
# spinor suite's absolute 1e-12 bounds fail by rounding alone.
MOMENTUM_RANGE = (1e-3, 1e5)

# Below this hbar*|k|/(mc) every spinor check passes (no failure in 8000
# random draws over [10, 56]; the lowest failing |k| found was 48).  Above
# it the checks in KNOWN_ROUNDING_CHECKS may fail, and are expected to: their
# bounds are absolute while the cancelling terms grow like k^2.  The
# benchmark counts those failures, it does not filter them out.
FAILURE_ONSET = 30.0
KNOWN_ROUNDING_CHECKS = frozenset({
    "metric norm of u", "metric norm of v",
    "dirac residual (u branch)", "dirac residual (v branch)",
    "klein-gordon residual (u branch)", "klein-gordon residual (v branch)",
    "determinant on-shell (u)", "determinant on-shell (v)",
})


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass.

    ``label`` names the call in the per-layer metrics (``cli.<label>_s``).
    ``momentum`` is hbar*|k|/(mc) for spinor calls and None otherwise.
    """

    label: str
    argv: tuple
    momentum: float | None = None

    @property
    def known_defect_region(self) -> bool:
        return self.momentum is not None and self.momentum > FAILURE_ONSET


def _fock_ladder(seed: int) -> list[Invocation]:
    return [Invocation(f"fock.M{m}", ("--json", "fock", "--modes", str(m)))
            for m in range(1, 7)]


def _nonrel(seed: int) -> list[Invocation]:
    # The evolve grid sweep mostly bypasses a spectral cache; the 64-step run
    # repeats one (grid, box, dt) and is the case such a cache serves.  The
    # Landau calls exercise sparse assembly and eigsh, not the spectral code.
    sweep = [Invocation(f"evolve.g{n}", ("--json", "evolve", "--grid", str(n)))
             for n in (256, 512, 1024)]
    steps = [Invocation("evolve.steps64",
                        ("--json", "evolve", "--grid", "256", "--steps", "64"))]
    landau = [Invocation(f"landau.g{n}", ("--json", "landau", "--grid", str(n)))
              for n in (32, 64)]
    return sweep + steps + landau


def _oracles(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    out = [Invocation("algebra", ("--json", "--seed", str(rng.randrange(2**31)), "algebra"))
           for _ in range(ORACLE_ALGEBRA_SEEDS)]
    lo, hi = (math.log10(v) for v in MOMENTUM_RANGE)
    for _ in range(ORACLE_MOMENTA):
        k = 10.0 ** rng.uniform(lo, hi)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        kx, ky = k * math.cos(angle), k * math.sin(angle)
        # "--kx=<v>" keeps argparse from reading a negative value as a flag.
        out.append(Invocation("spinor", ("--json", "spinor", f"--kx={kx!r}", f"--ky={ky!r}"),
                              momentum=math.hypot(kx, ky)))
    return out


WORKLOADS = {
    "fock-ladder": _fock_ladder,
    "nonrel": _nonrel,
    "oracles": _oracles,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The fixed invocation list of one pass of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)
