"""CLI contract: subcommands, exit codes, JSON output, and report schema."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import planardirac
from planardirac import cli, fock, planewave
from planardirac.reporting import Check, RunReport, failed_check, value_check

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_algebra_passes(self, capsys):
        code, out, err = run_main(["algebra"], capsys)
        assert code == 0
        assert "all checks passed" in err
        assert out == ""  # tables go to stderr; stdout stays clean

    def test_spinor_passes(self, capsys):
        code, _, err = run_main(["spinor", "--kx", "1", "--ky", "0"], capsys)
        assert code == 0
        assert "PASS" in err

    def test_fock_passes(self, capsys):
        code, _, _ = run_main(["fock", "--modes", "1"], capsys)
        assert code == 0

    def test_check_failure_exits_one(self, capsys):
        code, _, err = run_main(["evolve", "--time", "1e-320"], capsys)
        assert code == 1
        assert "FAIL" in err

    def test_capacity_error_exits_two(self, capsys):
        code, _, err = run_main(["fock", "--modes", "9"], capsys)
        assert code == 2
        assert "error:" in err

    def test_landau_precondition_exits_two(self, capsys):
        code, _, err = run_main(
            ["landau", "--B", "100", "--grid", "32", "--box", "10"], capsys)
        assert code == 2
        assert "magnetic length" in err

    @pytest.mark.parametrize("argv,message", [
        (["landau", "--levels", "0"], "must be >= 1"),
        (["evolve", "--steps", "0"], "must be >= 1"),
        (["--seed", "-1", "algebra"], "--seed must be >= 0, got -1"),
        (["fock", "--modes", "0"], "M must be in 1..6"),
    ], ids=["argv0", "argv1", "argv2", "argv3"])
    def test_zero_counts_exit_two(self, argv, message, capsys):
        """Counts, and the seed, below their lower end are misuse that names the bound."""
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert message in err

    def test_overflow_exits_two(self, capsys):
        code, _, err = run_main(["spinor", "--kx", "1e200"], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["spinor", "--kx", "1e200"], ["spinor", "--c", "1e200"], ["spinor", "--m", "1e300"],
        ["fock", "--modes", "2", "--box", "1e300"], ["fock", "--modes", "2", "--box", "1e-300"],
    ], ids=["kx", "c", "m", "box-large", "box-small"])
    def test_overflow_names_no_errno(self, argv, capsys):
        """float ** raises OverflowError((34, message)); the user sees one
        error line with the message and without the errno tuple."""
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: inputs out of floating-point range (")
        assert err.count("\n") == 1 and "(34," not in err

    def test_negative_box_is_named_before_default_field(self, capsys):
        """The box is validated before the default --B is derived from it, so
        a huge negative box is reported as such, not as an overflow."""
        code, _, err = run_main(["landau", "--box=-1.7976931348623157e+308"], capsys)
        assert code == 2
        assert "box side must be positive" in err

    def test_subnormal_scale_exits_two(self, capsys):
        """c^2 = 8.08e-315 is subnormal: rejected as out of range, not left
        to flip the sign of the positive branch's metric norm."""
        code, _, err = run_main(
            ["spinor", "--kx", "1", "--ky", "0.125", "--c", "8.98938662189238e-158"], capsys)
        assert code == 2
        assert err.startswith("error: inputs out of floating-point range")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", [
        ("spinor", "--kx"), ("spinor", "--ky"), ("spinor", "--m"), ("spinor", "--c"),
        ("spinor", "--hbar"), ("fock", "--box"), ("evolve", "--box"),
        ("evolve", "--sigma"), ("evolve", "--k0x"), ("evolve", "--k0y"),
        ("evolve", "--time"), ("landau", "--B"), ("landau", "--box"),
    ])
    def test_non_finite_float_flag_exits_two(self, command, flag, value, capsys):
        code, _, err = run_main([command, f"{flag}={value}"], capsys)
        assert code == 2
        assert f"error: {flag} must be finite" in err

    def test_report_without_checks_does_not_pass(self):
        assert RunReport("empty").passed is False

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        """An exception outside the mapped misuse set is a defect of the
        program, not a failed physics check: exit 3 with its traceback."""
        def broken(report, args):
            raise RuntimeError("injected defect")

        monkeypatch.setattr(cli, "run_algebra", broken)
        code, out, err = run_main(["--json", "algebra"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" in err and "RuntimeError: injected defect" in err

    def test_memory_error_exits_two(self, capsys, monkeypatch):
        """Inputs whose arrays do not fit in memory (evolve --grid 1048576
        asks for 2 TiB) are misuse: exit 2 with a one-line error, no
        traceback."""
        def too_large(report, args):
            raise MemoryError("Unable to allocate 2.00 TiB for an array")

        monkeypatch.setattr(cli, "run_evolve", too_large)
        code, out, err = run_main(["--json", "evolve"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err and "2.00 TiB" in err

    def test_degenerate_normalization_is_failed_check_not_crash(self, capsys):
        code, _, err = run_main(["spinor", "--kx", "1e13"], capsys)
        assert code == 1
        assert "degenerate" in err


SPINOR_FLOAT_FLAGS = ("--kx", "--ky", "--m", "--c", "--hbar")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({flag: st.floats() for flag in SPINOR_FLOAT_FLAGS}))
@example(dict.fromkeys(SPINOR_FLOAT_FLAGS, 1.0) | {"--kx": 1e200})  # overflow
@example(dict.fromkeys(SPINOR_FLOAT_FLAGS, 1.0) | {"--m": 2.2e-311})  # omega^2 underflows to 0
@example({"--kx": 0.0, "--ky": 3.7e46, "--m": 1.0, "--c": 5e16, "--hbar": 1e245})  # inf/inf spinor
@example({"--kx": 1.0, "--ky": 0.125, "--m": 1.0, "--c": 8.98938662189238e-158,
          "--hbar": 1.0})  # c^2 subnormal
def test_spinor_float_flags_keep_exit_contract(values):
    """Any float, finite or not, gives exit 0, 1 or 2 and never a traceback."""
    argv = ["spinor"] + [f"{flag}={value!r}" for flag, value in values.items()]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)


# The geometry evolve derives at its default k0x: sigma = 4/|k0|, box = 24 sigma.
EVOLVE_DEFAULTS = {"--box": 1920.0, "--sigma": 80.0, "--k0x": 0.05, "--k0y": 0.0,
                   "--time": 10.0}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    flag: st.one_of(st.just(default), st.floats(allow_nan=False, allow_infinity=False))
    for flag, default in EVOLVE_DEFAULTS.items()}))
@example(EVOLVE_DEFAULTS | {"--k0x": 1e-300})  # scaling run's sigma^2 overflows: exit 2
@example(EVOLVE_DEFAULTS | {"--k0x": 2.2e-308})  # scaling run's box is infinite: exit 2
@example(EVOLVE_DEFAULTS | {"--time": 1e-320})  # distances vanish: scaling checks fail, exit 1
@example(EVOLVE_DEFAULTS | {"--k0x": 3e-154, "--time": 1.0})  # numpy packet-axis square overflows: exit 2
def test_evolve_float_flags_keep_exit_contract(values):
    """Any finite float for the evolve flags (non-finite ones are rejected
    before dispatch), at grid 128, gives exit 0, 1 or 2 and never a traceback."""
    argv = ["evolve", "--grid", "128"] + [f"{flag}={value!r}" for flag, value in values.items()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "--B": st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    "--box": st.one_of(st.just(20.0), st.floats(allow_nan=False, allow_infinity=False))}))
@example({"--B": None, "--box": 1e-300})  # default B divides by a squared box that is 0: exit 2
@example({"--B": None, "--box": 1e200})  # default B squares an overflowing box: exit 2
@example({"--B": 1e300, "--box": 20.0})  # magnetic length below 3 grid spacings: exit 2
@example({"--B": None, "--box": -1.7976931348623157e+308})  # negative box refused first: exit 2
def test_landau_float_flags_keep_exit_contract(values):
    """Any finite --B (or its default) and --box, at grid 32, gives exit 0, 1
    or 2 and never a traceback."""
    argv = ["landau", "--grid", "32"] + [f"{flag}={value!r}" for flag, value in values.items()
                                         if value is not None]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestRepeatedCalls:
    def test_share_one_parser_and_leak_no_state(self, capsys):
        """In-process calls reuse one parser; each starts from the declared
        defaults, whatever the calls before it parsed, rejected or printed."""
        assert cli.build_parser() is cli.build_parser()
        code, out, _ = run_main(["--json", "spinor", "--kx=2", "--m", "3"], capsys)
        assert code == 0
        assert json.loads(out)["parameters"]["m"] == 3.0
        for argv, exit_code in ((["spinor", "--kx", "abc"], 2),
                                (["--tol-scale", "2", "algebra"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == exit_code
        capsys.readouterr()

        code, out, _ = run_main(["--json", "spinor"], capsys)
        assert code == 0
        in_process = json.loads(out)
        defaults = {"kx": 0.0, "m": 1.0, "seed": 1234}
        assert {key: in_process["parameters"][key] for key in defaults} == defaults
        proc = subprocess.run(
            [sys.executable, "-m", "planardirac.cli", "--json", "spinor"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        fresh = json.loads(proc.stdout)
        in_process.pop("wall_seconds")
        fresh.pop("wall_seconds")
        assert in_process == fresh


def _corpus_report(path):
    """The RunReport behind a golden file: the CLI's checks and parameters."""
    stored = json.loads(path.read_text())["report"]
    return RunReport(stored["command"], stored["parameters"],
                     [Check(**check) for check in stored["checks"]], 0.1 + 0.2)


class TestJsonOutput:
    def test_json_round_trips_byte_identical(self, capsys):
        code, out, _ = run_main(["--json", "algebra"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    @pytest.mark.parametrize("report", [
        *(pytest.param(_corpus_report(path), id=path.stem)
          for path in sorted(GOLDEN.glob("*.json"))),
        pytest.param(RunReport("evolve", {"grid": 64, "distances": [0.0, 1e-300]}, [
            failed_check("scaling", 'a reason with "quotes", },\n      { and \u00e9'),
            value_check("ratio", 4.25, 4.0, 1.0)]), id="failed_check"),
        pytest.param(RunReport("spinor", {}, [value_check("one", -0.0, 0.0, 0.0)]),
                     id="one_check"),
        pytest.param(RunReport("algebra"), id="no_checks"),
    ])
    def test_to_json_is_indented_dumps(self, report):
        """to_json splices the C-encoded checks into the indented document;
        the text is exactly what the pure-Python indented encoder writes."""
        assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True)

    def test_report_schema(self, capsys):
        _, out, _ = run_main(["--json", "fock", "--modes", "1"], capsys)
        doc = json.loads(out)
        assert doc["command"] == "fock"
        assert doc["passed"] is True
        assert doc["parameters"]["modes"] == 1
        assert doc["parameters"]["dimension"] == 4
        for check in doc["checks"]:
            assert set(check) == {"name", "measured", "expected", "tolerance", "passed"}
        assert doc["wall_seconds"] >= 0.0

    def test_seeded_runs_are_deterministic(self, capsys):
        for command in ("algebra", "spinor", "fock", "evolve", "landau"):
            _, first, _ = run_main(["--json", "--seed", "7", command], capsys)
            _, second, _ = run_main(["--json", "--seed", "7", command], capsys)
            a, b = json.loads(first), json.loads(second)
            a.pop("wall_seconds")
            b.pop("wall_seconds")
            assert a == b, command

    @pytest.mark.parametrize("argv,echo", [
        (["--seed", "7", "algebra"], {"seed": 7}),
        (["--seed", "7", "spinor", "--kx", "0.5", "--ky", "-0.25", "--m", "2", "--c", "3",
          "--hbar", "0.5"],
         {"seed": 7, "kx": 0.5, "ky": -0.25, "m": 2.0, "c": 3.0, "hbar": 0.5}),
        (["fock", "--modes", "1", "--box", "3", "--literal-68"],
         {"modes": 1, "box": 3.0, "literal_68": True}),
        (["evolve", "--grid", "128", "--box", "200", "--sigma", "20", "--k0x", "0.1",
          "--k0y", "0.05", "--time", "1", "--steps", "2"],
         {"grid": 128, "box": 200.0, "sigma": 20.0, "k0x": 0.1, "k0y": 0.05, "time": 1.0,
          "steps": 2, "out": None}),
        (["landau", "--B", "0.2", "--grid", "32", "--box", "20", "--levels", "2"],
         {"B": 0.2, "grid": 32, "box": 20.0, "levels": 2}),
    ], ids=["algebra", "spinor", "fock", "evolve", "landau"])
    def test_parameters_echo_every_flag(self, argv, echo, capsys):
        code, out, _ = run_main(["--json", *argv], capsys)
        assert code in (0, 1)
        parameters = json.loads(out)["parameters"]
        assert {key: parameters.get(key) for key in echo} == echo

    def test_parameters_hold_derived_values(self, capsys):
        _, out, _ = run_main(["--json", "evolve", "--time", "0"], capsys)
        assert {k: json.loads(out)["parameters"][k] for k in ("sigma", "box")} == {
            "sigma": 80.0, "box": 1920.0}  # sigma = 4/|k0|, box = 24 sigma
        _, out, _ = run_main(["--json", "landau", "--grid", "32", "--levels", "2"], capsys)
        parameters = json.loads(out)["parameters"]
        assert parameters["levels"] == 2
        assert parameters["B"] == 0.25  # magnetic length = box/10
        assert len(parameters["level_energies"]) == len(parameters["expected"]) == 2


class TestAlgebraReport:
    def test_lists_both_index_families(self, capsys):
        _, out, _ = run_main(["--json", "algebra"], capsys)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert sum(n.startswith("anticommutator sigma") for n in names) == 9
        assert sum(n.startswith("commutator K") for n in names) == 9


class TestSpinorReport:
    def test_rest_frame_values(self, capsys):
        _, out, _ = run_main(["--json", "spinor", "--kx", "0", "--ky", "0"], capsys)
        doc = json.loads(out)
        assert doc["parameters"]["omega"] == pytest.approx(1.0)
        assert doc["parameters"]["g1"] == [0.0, 0.0]
        assert doc["parameters"]["spinor_u"] == [[1.0, 0.0], [0.0, 0.0]]

    def test_known_momentum_amplitude(self, capsys):
        _, out, _ = run_main(["--json", "spinor", "--kx", "1"], capsys)
        doc = json.loads(out)
        g1_re, g1_im = doc["parameters"]["g1"]
        assert g1_re == pytest.approx(0.0, abs=1e-15)
        assert g1_im == pytest.approx(-0.4142135623730951, abs=1e-12)

    def test_plane_wave_builds_do_not_grow(self, capsys, monkeypatch):
        """A run makes at most 4 planewave.plane_wave calls, its measured
        value: u and v are built once for their own checks and once more for
        the orthogonality checks, where 2 calls would do.  The benchmark pins
        the same count, but the benchmark is not part of this suite."""
        calls = []
        plane_wave = cli.planewave.plane_wave
        monkeypatch.setattr(cli.planewave, "plane_wave",
                            lambda *a, **kw: calls.append(None) or plane_wave(*a, **kw))
        code, _, _ = run_main(["spinor", "--kx=0.5"], capsys)
        assert code == 0
        assert len(calls) <= 4


class TestFockReport:
    def test_single_mode_spectrum_check_present(self, capsys):
        _, out, _ = run_main(["--json", "fock", "--modes", "1"], capsys)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert any("{0,1,1,2}" in n for n in names)

    @pytest.mark.parametrize("n_modes", ["1", "2", "3"])
    def test_hamiltonian_diagonal_checks(self, n_modes, capsys):
        code, out, _ = run_main(["--json", "fock", "--modes", n_modes], capsys)
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["H' is diagonal in the occupation basis"]["measured"] == 0.0
        assert by_name["H' diagonal = occupation enumeration (basis order)"]["passed"]

    def test_literal_68_flag_adds_check(self, capsys):
        _, out, _ = run_main(["--json", "fock", "--modes", "2", "--literal-68"], capsys)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert any("literal printed ordering" in n for n in names)

    @pytest.mark.parametrize("flags, products", [
        ("--modes 1", 70), ("--modes 2", 170), ("--modes 3", 269), ("--modes 4", 400),
        ("--modes 5", 563), ("--modes 6", 758), ("--modes 2 --literal-68", 173)])
    def test_operator_products_do_not_grow(self, flags, products, capsys, monkeypatch):
        """A run makes at most 70, 170, 269, 400, 563 and 758 operator
        products (FockOperator @) at M = 1..6, and 173 at M = 2 with
        --literal-68.  Products are the suite's unit of work, so a refactor
        that adds some shows here; the benchmark pins the M = 1 count, but
        the benchmark is not part of this suite."""
        calls = []
        matmul = fock.FockOperator.__matmul__

        def counted(self, other):
            calls.append(None)
            return matmul(self, other)

        monkeypatch.setattr(fock.FockOperator, "__matmul__", counted)
        code, _, _ = run_main(["fock", *flags.split()], capsys)
        assert code == 0
        assert len(calls) <= products


class TestLandauReport:
    @pytest.fixture
    def solver(self, monkeypatch):
        """The eigensolve work the test makes: "k", the k of each nonrel.eigsh
        call in call order, and the SuperLU "factorizations" (nonrel.splu
        calls) and "solves" (their solve calls, one per shift-invert step)."""
        work = {"k": [], "factorizations": 0, "solves": 0}
        eigsh, splu = cli.nonrel.eigsh, cli.nonrel.splu

        class CountedLU:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, rhs):
                work["solves"] += 1
                return self.lu.solve(rhs)

        def counted_splu(*args, **kwargs):
            work["factorizations"] += 1
            return CountedLU(splu(*args, **kwargs))

        monkeypatch.setattr(cli.nonrel, "eigsh",
                            lambda *a, **kw: work["k"].append(kw["k"]) or eigsh(*a, **kw))
        monkeypatch.setattr(cli.nonrel, "splu", counted_splu)
        return work

    def test_inertia_check_alongside_unchanged_checks(self, capsys):
        code, out, _ = run_main(["--json", "landau", "--grid", "32"], capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        inertia = [c for c in checks if "Sylvester inertia" in c["name"]]
        assert [c["name"] for c in inertia] == [
            "eigenvalues below the shift (Sylvester inertia)"]
        assert inertia[0]["measured"] == 0.0
        assert inertia[0]["passed"]
        others = [(c["name"], c["expected"], c["tolerance"])
                  for c in checks if c not in inertia]
        assert others == [("rotation R commutes with H (C4 sectors)", "<= 0", 0.0),
                          ("K·D symmetry of the C4 blocks", "<= 0", 0.0)] + [
            (f"level {j} vs hbar*w_c*(n+1/2)", "<= 0.02", 0.02) for j in range(3)]
        assert checks[0]["measured"] == checks[1]["measured"] == 0.0

    @pytest.mark.parametrize("box", ["0.1", "17.3"])
    def test_box_that_is_not_dyadic_solves_sectors(self, box, capsys):
        """Cell centres are exactly antisymmetric at any box side, so R
        commutes with H bit for bit and the sectors are solved."""
        code, out, _ = run_main(["--json", "landau", "--grid", "32", "--box", box], capsys)
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["rotation R commutes with H (C4 sectors)"]["measured"] == 0.0
        assert by_name["eigenvalues below the shift (Sylvester inertia)"]["passed"]

    def test_gauge_without_c4_symmetry_fails_commutator(self, capsys, monkeypatch):
        """The Landau gauge A = (-B y, 0), reached from the symmetric gauge by
        the gauge function chi = -B x y / 2, has the same spectrum but neither
        C4 nor K*D symmetry: the report fails on both and shows no level."""
        nonrel = cli.nonrel
        symmetric = nonrel._landau_hamiltonian

        def landau_gauge(b_field, grid, params):
            x = nonrel._cell_centers(grid)
            chi = -0.5 * b_field * np.multiply.outer(x, x).ravel()
            phase = sparse.diags(np.exp(1j * params.e * chi / params.hbar))
            return (phase.conj() @ symmetric(b_field, grid, params) @ phase).tocsr()

        monkeypatch.setattr(nonrel, "_landau_hamiltonian", landau_gauge)
        code, out, _ = run_main(["--json", "landau", "--grid", "32"], capsys)
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("rotation R commutes with H (C4 sectors)", False),
            ("K·D symmetry of the C4 blocks", False)]
        assert checks[0]["measured"] > 0.0 and checks[1]["measured"] > 0.0

    def test_potential_odd_under_reflection_fails_kd_check(self, capsys, monkeypatch,
                                                             solver):
        """A real diagonal eps r^2 sin(4 theta) = 4 eps x y (x^2 - y^2) / r^2 is
        C4-symmetric but odd under the diagonal reflection D: R still commutes
        with H exactly, the K*D check fails, no block is solved, and the run
        exits 1 on that named check without a traceback."""
        nonrel = cli.nonrel
        symmetric = nonrel._landau_hamiltonian

        def odd_under_reflection(b_field, grid, params):
            x, y = np.meshgrid(nonrel._cell_centers(grid), nonrel._cell_centers(grid),
                               indexing="ij")
            odd = 1e-6 * 4.0 * x * y * (x * x - y * y) / (x * x + y * y)
            return (symmetric(b_field, grid, params) + sparse.diags(odd.ravel())).tocsr()

        monkeypatch.setattr(nonrel, "_landau_hamiltonian", odd_under_reflection)
        code, out, err = run_main(["--json", "landau", "--grid", "32"], capsys)
        assert code == 1
        assert "CHECK FAILURES" in err and "Traceback" not in err
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("rotation R commutes with H (C4 sectors)", True),
            ("K·D symmetry of the C4 blocks", False)]
        assert checks[0]["measured"] == 0.0 and checks[1]["measured"] > 0.0
        assert solver == {"k": [], "factorizations": 0, "solves": 0}

    @pytest.mark.parametrize("args,message,solved", [
        pytest.param(["--levels", "20"], "found only 3 bulk level clusters among 389 "
                     "eigenvalues at magnetic length 2,", True, id="20"),
        pytest.param(["--levels", "64"], "64 levels need k = 1221 eigenpairs, more than "
                     "the n^2 - 9 = 1015", False, id="64"),
        pytest.param(["--B", "0.2821223263217904", "--levels", "48"], "48 levels need "
                     "k = 1017 eigenpairs, more than the n^2 - 9 = 1015", False, id="48"),
    ])
    def test_too_many_levels_exit_two(self, args, message, solved, capsys, solver):
        """More levels than the grid-32 box holds is a usage error: found
        after the solve at 20 levels, and refused before any eigensolve where
        k exceeds the n*n - 9 values the four C4 blocks, at n*n/4 - 2 pairs
        each, can certify: k = 1221 at 64 levels, and k = 1017, just above
        that bound, at 48 levels in a stronger field."""
        code, _, err = run_main(["landau", "--grid", "32", *args], capsys)
        assert code == 2
        assert message in err
        assert bool(solver["k"]) == solved
        assert max(solver["k"], default=0) <= 32 * 32 // 4 - 2

    def test_uncertified_shift_is_failed_check(self, capsys, monkeypatch):
        solve = cli.nonrel.landau_levels
        monkeypatch.setattr(cli.nonrel, "landau_levels",
                            lambda *a, **kw: solve(*a, **kw) | {"below_shift": None})
        code, _, err = run_main(["landau", "--grid", "32"], capsys)
        assert code == 1
        assert "inertia unknown" in err

    def test_doubled_solve_follows_the_field_window(self, capsys, monkeypatch):
        """The doubled-B solve runs exactly where landau_levels accepts 2B:
        only nonrel reads the window's constants, and cli tries 2B by calling
        it.  At grid 64, box 20, the default magnetic length 2 lies inside
        [5h, L/6] = [1.5625, 3.33] but 2/sqrt(2) does not, so the report has
        no B-doubled check."""
        monkeypatch.setattr(cli.nonrel, "MAGNETIC_LENGTH_SPACINGS", 5.0)
        code, out, _ = run_main(["--json", "landau", "--grid", "64"], capsys)
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert len(names) == 6 and not any("B doubled" in name for name in names)
        with pytest.raises(cli.nonrel.FieldWindowError, match=r"\[5h = 1.562,"):
            cli.nonrel.landau_levels(0.5, cli.nonrel.Grid2D(64, 20.0))
        monkeypatch.setattr(cli.nonrel, "MAGNETIC_LENGTH_BOX_DIVISOR", 12.0)
        code, _, err = run_main(["landau", "--grid", "64"], capsys)
        assert code == 2
        assert "magnetic length 2 outside [5h = 1.562, L/12 = 1.667]" in err

    @pytest.mark.parametrize("box,b_field,checks", [
        pytest.param("15.922340829493187", "0.224395229254035", 5, id="2B-refused"),
        pytest.param("26.085288443203503", "0.08360575339369514", 11, id="2B-accepted"),
    ])
    def test_doubled_field_at_the_window_edge(self, box, b_field, checks, capsys):
        """Where 2B puts the magnetic length at 3h to rounding, the report
        follows landau_levels' own answer for 2B, not a second rounding of
        the same length: the first refuses 2B and passes on the user's field
        alone, and the second solves 2B and passes every check."""
        code, out, _ = run_main(["--json", "landau", "--grid", "32", "--box", box,
                                 "--B", b_field, "--levels", "2"], capsys)
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert len(names) == checks
        assert any("B doubled" in name for name in names) == (checks == 11)

    def test_doubled_checks_iff_window_accepts_2b(self, capsys):
        """A nextafter sweep of B across the field whose 2B has magnetic
        length exactly 3h at grid 32, box 20, two levels: every run passes,
        and the report has B-doubled checks exactly where landau_levels(2B)
        is not refused by the window.  The sweep holds both cases."""
        grid = cli.nonrel.Grid2D(32, 20.0)
        edge = 0.5 / (3.0 * grid.spacing) ** 2
        fields = [edge]
        for _ in range(3):
            fields = [np.nextafter(fields[0], 0.0), *fields, np.nextafter(fields[-1], 1.0)]
        seen = set()
        for b_field in fields:
            try:
                cli.nonrel.landau_levels(2.0 * b_field, grid, n_levels=2)
                accepted = True
            except cli.nonrel.FieldWindowError:
                accepted = False
            seen.add(accepted)
            code, out, _ = run_main(["--json", "landau", "--grid", "32", "--levels", "2",
                                     "--B", repr(float(b_field))], capsys)
            assert code == 0
            names = [c["name"] for c in json.loads(out)["checks"]]
            assert any("B doubled" in name for name in names) == accepted, b_field
        assert seen == {True, False}

    @pytest.mark.parametrize("args,calls,total_k,solves", [
        pytest.param(["--grid", "32"], 4, 92, 342, id="32"),
        pytest.param(["--grid", "64"], 8, 196, 730, id="64"),
        pytest.param(["--grid", "64", "--B", "0.5"], 8, 308, 1076, id="64-B0.5"),
    ])
    def test_eigensolves_do_not_grow(self, args, calls, total_k, solves, capsys, solver):
        """Upper bounds on the eigsh calls, their total k and the SuperLU
        solves behind them, at their measured values: one eigsh call and one
        factorization per C4 sector per field, four at grid 32, where the
        default magnetic length 2 over sqrt(2) is below 3h and 2B is refused,
        and eight at grid 64, where 2B is solved too; 342, 730 and 1076
        shift-invert solves.  Grids 32 and 64 together are the benchmark's
        nonrel pass: 12 calls, k 288."""
        code, _, _ = run_main(["landau", *args], capsys)
        assert code in (0, 1)
        assert len(solver["k"]) <= calls
        assert solver["factorizations"] <= calls
        assert sum(solver["k"]) <= total_k
        assert solver["solves"] <= solves


class TestEvolveCommand:
    def test_zero_time_distance(self, capsys):
        code, out, _ = run_main(["--json", "evolve", "--time", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c for c in doc["checks"]}
        # U(0) and the kinetic phase are exactly 1, and nothing leaves Fourier space.
        assert by_name["dirac vs schrodinger relative distance"]["measured"] == 0.0

    @pytest.mark.parametrize("t_final", ["1e-320", "1e-300"])
    def test_vanishing_distances_fail_with_reason(self, t_final, capsys):
        code, out, _ = run_main(["--json", "evolve", "--time", t_final], capsys)
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [
            "distance ratio on halving k0 (pair 0)", "distance ratio on halving k0 (pair 1)",
            "log-log slope of distance vs v/c"]
        assert all(c["expected"].startswith(f"distances vanish at t={t_final};")
                   for c in failed)

    def test_ratio_check_is_four_within_one(self, capsys):
        """Each halving ratio is reported as 4 within 1, which passes exactly
        when the ratio lies in [3, 5]: for r in [2, 8], r - 4 is exact
        (Sterbenz), every other r fails both tests, and NaN fails both."""
        code, out, _ = run_main(["--json", "evolve"], capsys)
        assert code == 0
        ratios = [c for c in json.loads(out)["checks"] if c["name"].startswith("distance ratio")]
        assert [(c["expected"], c["tolerance"], c["passed"]) for c in ratios] == [
            (4.0, 1.0, True)] * 2
        edges = [np.nextafter(edge, toward) for edge in (3.0, 5.0) for toward in (0.0, 8.0)]
        for ratio in [2.0, 3.0, 5.0, 8.0, *edges, np.nan, np.inf, -np.inf]:
            assert value_check("ratio", ratio, 4.0, 1.0).passed == (3.0 <= ratio <= 5.0), ratio

    def test_scaling_study_geometry_error_names_the_study(self, capsys):
        """The study runs at its own default geometry, sigma = 4/|k0| and
        box = 24 sigma, whatever the main run's flags: when that geometry
        does not fit the grid, the misuse message says so, not just "sigma=160"
        that the user never gave.  The main run alone (t = 0) passes."""
        argv = ["evolve", "--grid", "64", "--sigma", "30", "--box", "400"]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert err.startswith("error: scaling study at |k0| = 0.025 (sigma = 4/|k0| = 160, "
                              "box = 24 sigma = 3840): sigma=160 must be at least 4 grid")
        assert run_main([*argv, "--time", "0"], capsys)[0] == 0

    def test_packet_without_lower_component_fails_with_reason(self, capsys):
        """A packet constant over the box holds only k = 0, where G1 = 0, so
        there is no lower component to close: the check fails with a reason
        rather than a 0/0."""
        code, out, _ = run_main(["--json", "evolve", "--grid", "8", "--k0x", "0",
                                 "--sigma", "1e9", "--box", "10"], capsys)
        assert code == 1
        closure = {c["name"]: c for c in json.loads(out)["checks"]}[
            "small-component closure / <(hbar k/mc)^2>"]
        assert not closure["passed"]
        assert closure["expected"] == "the packet has no lower component to close"

    @pytest.mark.parametrize("flags", [[], ["--steps", "1"], ["--sigma", "80"],
                                       ["--box", "1920"]])
    def test_main_run_distance_is_the_study_distance(self, flags, capsys):
        """Where the main run is the study's |k0| run, whether flags are
        omitted or spell out the defaults, the two compute the same quadrant
        sum on their own and agree bit for bit."""
        code, out, _ = run_main(["--json", "evolve", *flags], capsys)
        assert code == 0
        doc = json.loads(out)
        measured = {c["name"]: c["measured"] for c in doc["checks"]}[
            "dirac vs schrodinger relative distance"]
        assert doc["parameters"]["scaling_distances"][1] == measured

    def test_negative_time_runs_the_scaling_study(self, capsys):
        """Reversing t conjugates every per-mode phase, so the study and the
        main-run distance are the same quadrant sums bit for bit.  The
        boundary density sits at its round-off floor, about 1e-30, where the
        packet's direction of travel moves it; it only has to pass."""
        checks = {}
        for t_final in ("10", "-10"):
            code, out, _ = run_main(["--json", "evolve", "--time", t_final], capsys)
            assert code == 0
            checks[t_final] = {c["name"]: c for c in json.loads(out)["checks"]}
        assert list(checks["-10"]) == list(checks["10"])
        assert len(checks["-10"]) == 6
        for name, check in checks["-10"].items():
            assert check["passed"], name
            if name != "boundary density":
                assert check["measured"] == checks["10"][name]["measured"], name

    def test_snapshot_export(self, capsys, tmp_path):
        out_dir = tmp_path / "snaps"
        code, _, _ = run_main(
            ["evolve", "--time", "1", "--grid", "128", "--out", str(out_dir)],
            capsys)
        assert code == 0
        for name in ("dirac.csv", "schrodinger.csv", "dirac.f64",
                     "dirac.f64.json", "schrodinger.f64", "schrodinger.f64.json"):
            assert (out_dir / name).exists(), name
        sidecar = json.loads((out_dir / "dirac.f64.json").read_text())
        assert sidecar["components"] == 2
        assert sidecar["gauge_frame"] is True


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "planardirac.cli", "--json", "algebra"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Prints the thread variables set after importing cli, and the process's thread count.
CLI_THREADS = (
    "import json, os\n"
    "from planardirac import cli\n"
    f"env = {{k: os.environ[k] for k in {THREAD_ENV!r} if k in os.environ}}\n"
    "task = '/proc/self/task'\n"
    "print(json.dumps([env, len(os.listdir(task)) if os.path.isdir(task) else None]))")


def _fresh(code, **thread_env):
    """JSON printed by ``code`` in a fresh interpreter whose environment sets
    only the given thread variables; ``planardirac`` comes from this tree."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env.update(thread_env)
    src = str(Path(planardirac.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestBlasThreads:
    """Importing ``planardirac.cli`` runs OpenBLAS on one thread unless the
    user set a thread count; importing the package loads no numpy."""

    def test_cli_import_runs_blas_on_one_thread(self):
        env, tasks = _fresh(CLI_THREADS)
        assert env == {"OPENBLAS_NUM_THREADS": "1"}
        if sys.platform.startswith("linux") and (os.cpu_count() or 1) > 1:
            # numpy's and scipy's OpenBLAS would each start cpu_count - 1 workers.
            assert tasks == 1

    @pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_user_thread_count_is_kept(self, name):
        env, _ = _fresh(CLI_THREADS, **{name: "2"})
        assert env == {name: "2"}

    def test_package_import_loads_no_numpy(self):
        assert _fresh("import json, sys, planardirac\n"
                      "print(json.dumps('numpy' in sys.modules))") is False

    def test_reexports_resolve_on_first_access(self):
        loaded = _fresh(
            "import json, sys, planardirac\n"
            "before = 'planardirac.planewave' in sys.modules\n"
            "planardirac.plane_wave\n"
            "print(json.dumps([before, 'planardirac.planewave' in sys.modules]))")
        assert loaded == [False, True]
        for name in planardirac.__all__:
            assert getattr(planardirac, name) is getattr(planewave, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            planardirac.nosuch
        assert _fresh(
            "import json, sys, planardirac\n"
            "try:\n"
            "    planardirac.nosuch\n"
            "except AttributeError:\n"
            "    print(json.dumps('planardirac.planewave' in sys.modules))") is False
