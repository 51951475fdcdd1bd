"""CLI contract: subcommands, exit codes, JSON output, and report schema."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planardirac import cli
from planardirac.reporting import RunReport


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
        code, _, err = run_main(["--tol-scale", "1e-20", "spinor", "--kx", "1"], capsys)
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

    @pytest.mark.parametrize("argv", [["landau", "--levels", "0"],
                                      ["evolve", "--steps", "0"]])
    def test_zero_counts_exit_two(self, argv, capsys):
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "must be >= 1" in err

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
    def test_bad_tol_scale_exits_two(self, scale, capsys):
        code, _, err = run_main(["--tol-scale", scale, "algebra"], capsys)
        assert code == 2
        assert "--tol-scale" in err

    def test_overflow_exits_two(self, capsys):
        code, _, err = run_main(["spinor", "--kx", "1e200"], capsys)
        assert code == 2
        assert err.startswith("error:")

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
def test_evolve_float_flags_keep_exit_contract(values):
    """Any finite float for the evolve flags (non-finite ones are rejected
    before dispatch), at grid 128, gives exit 0, 1 or 2 and never a traceback."""
    argv = ["evolve", "--grid", "128"] + [f"{flag}={value!r}" for flag, value in values.items()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestJsonOutput:
    def test_json_round_trips_byte_identical(self, capsys):
        code, out, _ = run_main(["--json", "algebra"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    def test_report_schema(self, capsys):
        _, out, _ = run_main(["--json", "fock", "--modes", "1"], capsys)
        doc = json.loads(out)
        assert doc["command"] == "fock"
        assert doc["passed"] is True
        assert doc["parameters"]["modes"] == 1
        for check in doc["checks"]:
            assert {"name", "measured", "expected", "tolerance", "passed"} <= set(check)
        assert any("dimension" in check for check in doc["checks"])
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
        (["--seed", "7", "--tol-scale", "2", "algebra"], {"seed": 7, "tol_scale": 2.0}),
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


class TestLandauReport:
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
        assert others == [(f"level {j} vs hbar*w_c*(n+1/2)", "<= 0.02", 0.02)
                          for j in range(3)]

    def test_uncertified_shift_is_failed_check(self, capsys, monkeypatch):
        solve = cli.nonrel.landau_levels
        monkeypatch.setattr(cli.nonrel, "landau_levels",
                            lambda *a, **kw: solve(*a, **kw) | {"below_shift": None})
        code, _, err = run_main(["landau", "--grid", "32"], capsys)
        assert code == 1
        assert "inertia unknown" in err


class TestEvolveCommand:
    def test_zero_time_distance(self, capsys):
        code, out, _ = run_main(["--json", "evolve", "--time", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["dirac vs schrodinger relative distance"]["measured"] < 1e-12

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
