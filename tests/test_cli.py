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


MIRROR = "spectrum(k_y) = spectrum(-k_y), x -> -x mirror"


class TestLandauReport:
    @pytest.fixture
    def solver(self, monkeypatch):
        """The eigensolve work the test makes: the number of blocks (solved
        guiding centres) of each np.linalg.eigvalsh call, in call order."""
        centres = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda blocks: centres.append(len(blocks)) or eigvalsh(blocks))
        return centres

    def test_check_names_and_bounds(self, capsys):
        """At grid 32 the one solve reports the mirror, the three levels and
        their spread over the centres 0 and +-2 steps of 2 pi l_B^2 / L."""
        code, out, _ = run_main(["--json", "landau", "--grid", "32"], capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        spread = "spread over guiding centres 0, +-2.513"
        assert [(c["name"], c["expected"], c["tolerance"]) for c in checks] == [
            (MIRROR, "<= 1e-12", 1e-12)] + [
            (f"level {j} vs hbar*w_c*(n+1/2)", "<= 0.02", 0.02) for j in range(3)] + [
            (f"level {j} {spread}", "<= 0.002", 2e-3) for j in range(3)]
        assert all(c["passed"] for c in checks)

    @pytest.mark.parametrize("box", ["0.1", "17.3"])
    def test_box_that_is_not_dyadic_solves_sectors(self, box, capsys):
        """Cell centres are exactly antisymmetric at any box side, so the k_y
        sector H(-k_y) is H(k_y) reversed bit for bit, the sectors are solved
        and their spectra agree to rounding."""
        code, out, _ = run_main(["--json", "landau", "--grid", "32", "--box", box], capsys)
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name[MIRROR]["measured"] <= 1e-14

    def test_assembly_odd_under_mirror_fails_mirror_check(self, capsys, monkeypatch):
        """A potential eps x, odd under x -> -x, breaks the mirror: the run
        exits 1 on that named check without a traceback, its levels within
        bound (eps moves them at second order)."""
        nonrel = cli.nonrel
        blocks = nonrel._landau_blocks

        def odd_under_mirror(b_field, grid, params, k_y):
            tilted = blocks(b_field, grid, params, k_y)
            diagonal = np.arange(grid.n)
            tilted[:, diagonal, diagonal] += 1e-6 * nonrel._cell_centers(grid)
            return tilted

        monkeypatch.setattr(nonrel, "_landau_blocks", odd_under_mirror)
        code, out, err = run_main(["--json", "landau", "--grid", "32"], capsys)
        assert code == 1
        assert "CHECK FAILURES" in err and "Traceback" not in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [MIRROR]
        assert failed[0]["measured"] > 1e-8

    def test_centres_near_the_wall_fail_the_spread_check(self, capsys, monkeypatch):
        """Kept one magnetic length from the wall instead of sqrt(12), the
        outermost centres' levels are lifted by the wall, and the spread
        checks fail while the axis levels still pass."""
        monkeypatch.setattr(cli.nonrel, "_wall_margin", lambda n_levels: 1.0)
        code, out, _ = run_main(["--json", "landau", "--grid", "32"], capsys)
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed and all("spread over guiding centres" in name for name in failed)

    @pytest.mark.parametrize("args,message", [
        pytest.param(["--levels", "20"], "magnetic length 2 outside [3h = 1.875, "
                     "wall/sqrt(2*20+6) = 1.52]", id="20"),
        pytest.param(["--levels", "64"], "magnetic length 2 outside [3h = 1.875, "
                     "wall/sqrt(2*64+6) = 0.8909]", id="64"),
        pytest.param(["--B", "0.2821223263217904", "--levels", "48"], "magnetic length "
                     "1.883 outside [3h = 1.875, wall/sqrt(2*48+6) = 1.021]", id="48"),
    ])
    def test_too_many_levels_exit_two(self, args, message, capsys, solver):
        """More levels than the grid-32 box holds is a usage error, refused
        before any eigensolve: the top level would not clear the wall from the
        axis, (n + 1) h / 2 = 10.31 away."""
        code, _, err = run_main(["landau", "--grid", "32", *args], capsys)
        assert code == 2
        assert message in err
        assert solver == []

    def test_doubled_solve_follows_the_field_window(self, capsys, monkeypatch):
        """The doubled-B solve runs exactly where landau_levels accepts 2B:
        only nonrel reads the window's rules, and cli tries 2B by calling it.
        At grid 64, box 20, the default magnetic length 2 lies inside
        [5h, wall/sqrt(12)] = [1.5625, 2.93] but 2/sqrt(2) does not, so the
        report has no B-doubled check."""
        monkeypatch.setattr(cli.nonrel, "MAGNETIC_LENGTH_SPACINGS", 5.0)
        code, out, _ = run_main(["--json", "landau", "--grid", "64"], capsys)
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert len(names) == 7 and not any("B doubled" in name for name in names)
        with pytest.raises(cli.nonrel.FieldWindowError, match=r"\[5h = 1.562,"):
            cli.nonrel.landau_levels(0.5, cli.nonrel.Grid2D(64, 20.0))
        monkeypatch.setattr(cli.nonrel, "_wall_margin", lambda n_levels: 6.0)
        code, _, err = run_main(["landau", "--grid", "64"], capsys)
        assert code == 2
        assert "magnetic length 2 outside [5h = 1.562, wall/sqrt(2*3+6) = 1.693]" in err

    @pytest.mark.parametrize("box,b_field,checks", [
        pytest.param("15.922340829493187", "0.224395229254035", 3, id="2B-refused"),
        pytest.param("26.085288443203503", "0.08360575339369514", 9, id="2B-accepted"),
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
        assert any("B doubled" in name for name in names) == (checks == 9)

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

    @pytest.mark.parametrize("grid", [32, 64, 128])
    def test_every_field_in_the_window_passes(self, grid, capsys):
        """B at every multiple of 0.05 inside the field window at box 20 and
        three levels, 3, 20 and 89 fields at grids 32, 64 and 128: each run
        exits 0, at the window's top (the wall lifts level 2 most) and at its
        bottom (the stencil resolves l_B = 3h worst) alike."""
        window = []
        for step in range(1, 100):
            try:
                cli.nonrel.landau_levels(0.05 * step, cli.nonrel.Grid2D(grid, 20.0))
            except cli.nonrel.FieldWindowError:
                continue
            window.append(step)
        assert len(window) == {32: 3, 64: 20, 128: 89}[grid]
        for step in window:
            code, _, err = run_main(["landau", "--grid", str(grid), "--B", repr(0.05 * step)],
                                    capsys)
            assert code == 0, (step, err)

    @pytest.mark.parametrize("argvs,calls,centres", [
        pytest.param([["--grid", "32"]], 1, 3, id="32"),
        pytest.param([["--grid", "64"]], 2, 6, id="64"),
        pytest.param([["--grid", "64", "--B", "0.5"]], 2, 6, id="64-B0.5"),
        pytest.param([["--grid", "32"], ["--grid", "64"]], 3, 9, id="nonrel-pass"),
    ])
    def test_eigensolves_do_not_grow(self, argvs, calls, centres, capsys, solver):
        """Upper bounds on the eigvalsh calls and the guiding centres they
        solve, at their measured values: one batched call of three centres
        per field, one field at grid 32, where the default magnetic length 2
        over sqrt(2) is below 3h and 2B is refused, and two at grid 64, where
        2B is solved too.  Grids 32 and 64 together are the benchmark's
        nonrel pass."""
        for args in argvs:
            assert run_main(["landau", *args], capsys)[0] == 0
        assert len(solver) <= calls
        assert sum(solver) <= centres


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
