"""Every function defined in src/ is run by some suite, or is on a short,
reasoned list.

Each golden argv, plus one `evolve --out` run, runs in-process under
sys.setprofile, which sees every Python call.  The code objects reached are
compared with those of every function and method that a planardirac module
defines, by __code__, so the comparison needs no co_qualname (Python 3.11).
The unreached set must equal UNREACHED: code that no suite needs shows as a
new entry, and a listed function that a suite starts to run must leave it.
"""

import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import planardirac
from planardirac import cli

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

UNREACHED = {
    # Wrapped by name by the benchmark's tracer (perfbench/tracing.py).
    "nonrel.build_gaussian", "nonrel.evolve_dirac", "nonrel.evolve_schrodinger",
    "nonrel.compare_limit", "fock.FockOperator.eigenvalues",
    # Reached only through those.
    "nonrel._spinor_weights", "nonrel._relative_distance", "nonrel.WaveField.norm",
    "nonrel.WaveField.normalized",
    # Read by acceptance criteria 8 and 9 and the plane-wave tests.
    "nonrel.overlap", "planewave.classical_energy", "planewave.PlaneWaveSolution.energy",
    # Test references: the n^2 mesh and the real-space Dirac run.
    "nonrel.Grid2D.wavenumbers", "nonrel.Grid2D.meshes", "nonrel.remove_rest_phase",
    "nonrel.negative_branch_weight",
    # The reader half of the documented `evolve --out` round trip.
    "nonrel.load_raw",
    # Decoding of basis states, for users and tests.
    "fock.FockSpace.basis_index", "fock.FockSpace.occupations",
}


def _functions(value):
    """The plain functions behind a module attribute or class member."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    if isinstance(value, functools.cached_property):
        return [value.func]
    value = inspect.unwrap(value) if callable(value) else value
    return [value] if inspect.isfunction(value) else []


def defined_functions() -> dict:
    """__code__ -> "module.qualified name" of every function and method
    that a planardirac module defines in its source (not the methods that
    dataclass generates)."""
    source = Path(planardirac.__file__).parent
    defined = {}
    for info in pkgutil.iter_modules(planardirac.__path__):
        module = importlib.import_module(f"planardirac.{info.name}")
        for name, value in vars(module).items():
            members = [(name, value)]
            if inspect.isclass(value):
                members = [(f"{name}.{attr}", member) for attr, member in vars(value).items()]
            for qualified, member in members:
                for function in _functions(member):
                    code = function.__code__
                    if (function.__module__ == module.__name__
                            and Path(code.co_filename).parent == source):
                        defined[code] = f"{info.name}.{qualified}"
    return defined


def test_every_function_is_reached_or_listed(tmp_path):
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    runs = [["--json", *argv] for argv in golden.ARGV]
    runs.append(["evolve", "--time", "1", "--out", str(tmp_path)])
    cli.build_parser.cache_clear()  # so that this test's runs build it, whatever ran before
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.setprofile(previous)

    unreached = {name for code, name in defined_functions().items() if code not in reached}
    assert unreached == UNREACHED
