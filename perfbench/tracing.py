"""Spans and counters recorded around calls into the program's public functions.

The traced run replaces a fixed table of module attributes and methods with
wrappers that open a span (name, start, end, parent) and bump counters, and
restores the originals afterwards.  Spans stay in memory until the pass ends.
Nothing under ``src/`` is modified.

Once ``RunReport`` records its own phases, the traced run should read those
instead of keeping this table.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span group).  Several attributes may share one group;
# a group's time counts only spans with no ancestor of the same group, so
# nested calls are not counted twice.
SPANNED = (
    ("planardirac.fock", "build_space", "fock.space_build"),
    ("planardirac.fock", "verify_ccr", "fock.verify_ccr"),
    ("planardirac.fock", "hamiltonian", "fock.hamiltonian"),
    ("planardirac.fock", "normal_ordered_hamiltonian", "fock.hamiltonian"),
    ("planardirac.fock", "occupation_spectrum", "fock.occupation_spectrum"),
    ("planardirac.fock", "FockOperator.eigenvalues", "fock.eigenvalues"),
    ("planardirac.fock", "field_anticommutator", "fock.field_anticommutator"),
    ("planardirac.fock", "hamiltonian_from_field", "fock.hamiltonian_from_field"),
    ("planardirac.fock", "field_operator", "fock.field_operator"),
    ("planardirac.fock", "pair_lowering", "fock.pair"),
    ("planardirac.fock", "pair_operator", "fock.pair"),
    ("planardirac.fock", "pair_number_operator", "fock.pair"),
    ("planardirac.fock", "total_pair_number", "fock.pair"),
    ("planardirac.fock", "pair_commutator_check", "fock.pair"),
    ("planardirac.fock", "FockOperator.__matmul__", "fock.operator_product"),
    ("planardirac.nonrel", "evolve_dirac", "nonrel.evolve_dirac"),
    ("planardirac.nonrel", "evolve_schrodinger", "nonrel.evolve_schrodinger"),
    ("planardirac.nonrel", "build_gaussian", "nonrel.build_gaussian"),
    ("planardirac.nonrel", "compare_limit", "nonrel.compare_limit"),
    ("planardirac.nonrel", "landau_levels", "nonrel.landau_levels"),
    ("planardirac.nonrel", "eigsh", "nonrel.eigsh"),
    ("numpy.fft", "fft2", "nonrel.fft"),
    ("numpy.fft", "ifft2", "nonrel.fft"),
    ("planardirac.algebra", "matrix_exponential", "algebra.matrix_exponential"),
    ("planardirac.planewave", "plane_wave", "planewave.plane_wave"),
    ("planardirac.planewave", "dirac_residual", "planewave.residual"),
    ("planardirac.planewave", "klein_gordon_residual", "planewave.residual"),
    ("planardirac.planewave", "coefficient_matrix", "planewave.residual"),
    ("numpy.linalg", "det", "planewave.residual"),
    ("planardirac.reporting", "RunReport.to_json", "reporting.serialize"),
    ("planardirac.reporting", "RunReport.print_table", "reporting.serialize"),
)


def _count_normalize(tracer, args, kwargs):
    # Only spinor rebuilds made while assembling a field operator count.
    if tracer.inside("fock.field_operator"):
        tracer.count("planewave.normalize_calls")


def _count_evolve_dirac(tracer, args, kwargs):
    field, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
    key = (field.grid.n, field.grid.length, t)
    tracer.count("nonrel.evolve_dirac_calls")
    tracer.count("nonrel.evolve_dirac_repeats", key in tracer.seen)
    tracer.seen.add(key)


def _count_fft(tracer, args, kwargs):
    tracer.count("nonrel.fft_calls")
    # Computed, not measured: 16 B per complex point, once in and once out.
    tracer.count("nonrel.fft_bytes", 2 * 16 * args[0].size)


def _count_eigsh(tracer, args, kwargs):
    tracer.count("nonrel.eigsh_calls")
    tracer.count("nonrel.eigsh_k", kwargs["k"] if "k" in kwargs else args[1])


def _counter(name):
    return lambda tracer, args, kwargs: tracer.count(name)


# Counting hooks, run before the wrapped call.  An attribute listed here but
# not in SPANNED is counted without a span.
HOOKS = {
    ("planardirac.fock", "FockOperator.__matmul__"): _counter("fock.operator_products"),
    ("planardirac.fock", "normalize"): _count_normalize,
    ("planardirac.nonrel", "evolve_dirac"): _count_evolve_dirac,
    ("numpy.fft", "fft2"): _count_fft,
    ("numpy.fft", "ifft2"): _count_fft,
    ("planardirac.nonrel", "eigsh"): _count_eigsh,
    ("planardirac.algebra", "matrix_exponential"): _counter("algebra.matrix_exponential_calls"),
    ("planardirac.planewave", "plane_wave"): _counter("planewave.plane_wave_calls"),
}


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.seen = set()  # (n, box, t) of evolve_dirac calls so far
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, group, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            if group is None:
                return fn(*args, **kwargs)
            index = self.open(group)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        traced.perfbench_original = fn
        return traced


def _resolve(module: str, attribute: str):
    """(owner object, attribute name) for 'module' and 'Class.attr' or 'attr'."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def patch_targets():
    """Every (module, attribute) -> (span group or None, hook or None)."""
    targets = {(m, a): (g, HOOKS.get((m, a))) for m, a, g in SPANNED}
    for key, hook in HOOKS.items():
        targets.setdefault(key, (None, hook))
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for (module, attribute), (group, hook) in patch_targets().items():
            owner, name = _resolve(module, attribute)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(original, group, hook))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def leftover_wrappers() -> list[str]:
    """Targets that still hold a tracing wrapper (empty after ``installed``)."""
    return [f"{module}:{attribute}" for module, attribute in patch_targets()
            if hasattr(getattr(*_resolve(module, attribute)), "perfbench_original")]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def group_times(spans) -> dict[str, float]:
    """Inclusive seconds per span name, counting only outermost occurrences."""
    out = {}
    for name, start, end, parent in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def group_self_times(spans) -> dict[str, float]:
    """Self seconds summed per span name."""
    out = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + own
    return out
