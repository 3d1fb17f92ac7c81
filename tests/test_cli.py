import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import galmag.oracle as oracle
from galmag.cli import MAX_SAMPLES, _FRAME, _sample_grid, _write_csv, _write_json, main
from galmag.frenet import frenet_frame
from galmag.magnetic import KillingField, MagneticIC, solve_magnetic

SRC = Path(__file__).resolve().parent.parent / "src"

GREEN_ARGS = [
    "--mode", "magnetic",
    "--v", "0,1,1",
    "--ic", "y0=1,Y0=5,z0=4,Z0=3",
]
HELIX_ARGS = [
    "--mode", "magnetic",
    "--v", "1,0,0",
    "--ic", "Z0=1",
]
TWO_PI = f"0:{2 * math.pi}"
# the curves GREEN_ARGS and HELIX_ARGS describe
CURVES = [
    (GREEN_ARGS, solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3))),
    (HELIX_ARGS, solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))),
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, stdout=subprocess.PIPE):
    """galmag.cli in a fresh process: stderr is what a user sees, outside pytest's capture."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "galmag.cli", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def parse_report(out):
    report = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    return report


class TestSolve:
    def test_csv_output(self, capsys):
        code, out, err = run(
            capsys, ["solve", *GREEN_ARGS, "--range", "0:3.14159:0.01"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,x,y,z"
        assert len(lines) == 1 + 315 + 1  # header + uniform points + end point
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 1.0, 4.0]
        assert "case: magnetic-parabola" in err

    def test_csv_round_trip_is_exact(self, capsys):
        code, out, _ = run(capsys, ["solve", *GREEN_ARGS, "--range", "0:3:0.125"])
        assert code == 0
        crv = solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3))
        for line in out.strip().splitlines()[1:]:
            s, x, y, z = (float(v) for v in line.split(","))
            assert x == s
            assert crv.y.eval(s) == y
            assert crv.z.eval(s) == z

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, ["solve", *HELIX_ARGS, "--range", TWO_PI, "--samples", "17",
                     "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"case", "kappa", "tau", "helix", "samples"}
        assert doc["case"] == "magnetic-helix"
        assert doc["kappa"] == pytest.approx(1.0)
        assert doc["tau"] == pytest.approx(1.0)
        assert doc["helix"]["r"] == 1.0
        assert doc["helix"]["line"] == {"a": 0.0, "b": -1.0, "c": 0.0, "d": 0.0}
        assert len(doc["samples"]) == 17
        s, x, y, z = doc["samples"][-1]
        assert x == s == pytest.approx(2 * math.pi)
        assert y == pytest.approx(math.cos(s) - 1)
        assert z == pytest.approx(math.sin(s))

    @pytest.mark.parametrize("args, crv", CURVES)
    def test_json_samples_equal_scalar_eval(self, capsys, args, crv):
        code, out, _ = run(
            capsys, ["solve", *args, "--range=-1.5:7", "--samples", "97", "--format", "json"]
        )
        assert code == 0
        expected = [[s, s, crv.y.eval(s), crv.z.eval(s)]
                    for s in np.linspace(-1.5, 7, 97).tolist()]
        assert json.loads(out)["samples"] == expected

    def test_json_parabola_has_null_helix(self, capsys):
        code, out, _ = run(
            capsys, ["solve", *GREEN_ARGS, "--range", "0:1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["helix"] is None
        assert doc["tau"] == 0.0

    def test_straight_line_has_null_tau(self, capsys):
        code, out, _ = run(
            capsys,
            ["solve", "--mode", "magnetic", "--ic", "Y0=1", "--range", "0:1",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 0.0
        assert doc["tau"] is None

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        code, out, _ = run(
            capsys, ["solve", *GREEN_ARGS, "--range", "0:1", "--output", str(path)]
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,x,y,z"
        assert len(lines) == 202  # default sample count

    def test_overflowing_v1_straight_line(self, capsys):
        # v1*v1 overflows; kappa read 0*inf = nan, and the command exited 2
        code, out, err = run(capsys, ["solve", "--mode=magnetic", "--v=1e308,0,0",
                                      "--range=0:1:1e-3"])
        assert code == 0, err
        assert "kappa: 0\n" in err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 1001
        assert all(x == s and y == z == "0" for s, x, y, z in rows)

    def test_nmagnetic_quadratic(self, capsys):
        code, out, err = run(
            capsys,
            ["solve", "--mode", "nmagnetic", "--v", "0,0,0",
             "--ic", "y0=4,Y0=3,T0=1,z0=1,Z0=2,U0=1", "--range", "0:5:0.5"],
        )
        assert code == 0
        assert "case: nmagnetic-free" in err
        last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
        assert last == [5.0, 5.0, 0.5 * 25 + 15 + 4, 0.5 * 25 + 10 + 1]


class TestSolveErrors:
    def test_incompatible_ic(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--mode", "nmagnetic", "--v", "0,1,2",
             "--ic", "T0=1,U0=1", "--range", "0:5"],
        )
        assert code == 2
        assert err.startswith("error: incompatible-ic")

    def test_zero_curvature_nmagnetic(self, capsys):
        code, _, err = run(
            capsys, ["solve", "--mode", "nmagnetic", "--range", "0:5"]
        )
        assert code == 2
        assert err.startswith("error: zero-curvature")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, ["solve", *GREEN_ARGS, "--range", "5:1"])
        assert code == 2
        assert err.startswith("error: invalid-range")

    def test_bad_range_syntax(self, capsys):
        code, _, err = run(capsys, ["solve", *GREEN_ARGS, "--range", "zero:1"])
        assert code == 2
        assert err.startswith("error: invalid-range")

    def test_bad_ic_key(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--mode", "magnetic", "--ic", "q0=1", "--range", "0:1"],
        )
        assert code == 2
        assert err.startswith("error: invalid-ic")

    @pytest.mark.parametrize("command", ["solve", "verify", "frenet"])
    @pytest.mark.parametrize("mode, ic", [
        ("magnetic", "Z0=1,Z0=5"), ("magnetic", "Z0=1,y0=2, Z0=1"), ("nmagnetic", "T0=1,T0=1"),
    ])
    def test_repeated_ic_key(self, capsys, command, mode, ic):
        # a second value for a key would silently replace the first
        argv = [command, f"--mode={mode}", "--v=1,0,0", f"--ic={ic}", "--range=0:1"]
        code, out, err = run(capsys, argv + (["--samples=2"] if command != "verify" else []))
        assert code == 2
        assert out == ""
        assert err == f"error: invalid-ic (duplicate key '{ic[:2]}')\n"

    def test_bad_field_arity(self, capsys):
        code, _, err = run(
            capsys, ["solve", "--mode", "magnetic", "--v", "1,2", "--range", "0:1"]
        )
        assert code == 2
        assert err.startswith("error: invalid-field")

    def test_unknown_mode(self, capsys):
        code, _, err = run(capsys, ["solve", "--mode", "bmagnetic", "--range", "0:1"])
        assert code == 2
        assert err.startswith("error: invalid-flags")

    def test_field_component_flag_refused(self, capsys):
        # --v is the one way to give the field
        code, out, err = run(capsys, ["verify", *HELIX_ARGS, "--v1", "1", "--range", "0:1"])
        assert code == 2
        assert out == ""
        assert err == "error: invalid-flags (unrecognized arguments: --v1 1)\n"

    def test_step_and_samples_conflict(self, capsys):
        code, _, err = run(
            capsys, ["solve", *GREEN_ARGS, "--range", "0:1:0.1", "--samples", "5"]
        )
        assert code == 2
        assert err.startswith("error: invalid-flags")

    def test_too_few_samples(self, capsys):
        code, _, err = run(
            capsys, ["solve", *GREEN_ARGS, "--range", "0:1", "--samples", "1"]
        )
        assert code == 2
        assert err.startswith("error: invalid-flags")

    @pytest.mark.parametrize("flags, reason", [
        (["--v", "nan,0,0"], "invalid-field"),
        (["--ic", "Z0=inf"], "invalid-ic"),
        (["--range", "0:inf", "--samples", "3"], "invalid-range"),
    ])
    def test_non_finite_input_rejected(self, capsys, flags, reason):
        argv = ["solve", "--mode", "magnetic", *flags]
        if "--range" not in flags:
            argv += ["--range", "0:1"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "frenet"])
    @pytest.mark.parametrize("grid", [["0:1", "--samples", "10000000001"], ["0:1:1e-8"],
                                      ["0:1", "--samples", "1000001"]])
    def test_huge_grid_rejected_before_allocation(self, capsys, monkeypatch, command, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("the sample grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        code, _, err = run(capsys, [command, *GREEN_ARGS, "--range", *grid])
        assert code == 2
        assert err.startswith("error: invalid-flags")

    def test_grid_at_the_limit_is_accepted(self):
        args = argparse.Namespace(srange="0:1", samples=MAX_SAMPLES)
        assert MAX_SAMPLES == 10**6
        assert len(_sample_grid(args)) == MAX_SAMPLES

    @pytest.mark.parametrize("argv", [
        ["--mode", "nmagnetic", "--v", "1e-200,0,0", "--ic", "T0=1"],
        ["--mode", "magnetic", "--v", "1e-200,0,0.5", "--ic", "y0=1", "--samples", "3"],
        ["--mode", "magnetic", "--v", "1e-320,0.5,0.7", "--ic", "y0=1", "--samples", "3"],
    ])
    def test_underflowing_v1_squared_rejected(self, capsys, argv):
        # the curve is finite and exact, its helix radius kappa0/v1**2 is not
        code, out, err = run(capsys, ["solve", *argv, "--range", "0:1"])
        assert code == 2
        assert out == ""
        assert err == "error: nonfinite-output (r = inf at s = 0)\n"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_kappa0_rejected(self, capsys, command):
        # solve printed kappa: inf with exit 0
        argv = [command, "--mode=nmagnetic", "--ic=T0=1.5e308,U0=1.5e308", "--range=0:1e-200"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input (kappa0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # the acceleration (v3, -v2) of a parabola is finite, its norm is not
        ["--v=0,1.5e308,1.5e308", "--format=json"],
        ["--v=0,1.5e308,1.5e308"],
        ["--v=1,0,0", "--ic=Y0=1.5e308,Z0=1.5e308"],
    ])
    def test_overflowing_magnetic_curvature_rejected(self, capsys, tmp_path, argv):
        # the solver refuses the curve; the CLI printed kappa: inf, later nonfinite-output
        path = tmp_path / "out.txt"
        code, out, err = run(capsys, ["solve", "--mode=magnetic", *argv, "--range=0:1e-200",
                                      "--samples=2", f"--output={path}"])
        assert code == 2
        assert out == ""
        assert not path.exists()
        assert err.startswith("error: invalid-input (kappa0")
        assert err.count("\n") == 1

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2
        assert err.startswith("error: invalid-flags")


class TestNegativeValues:
    """A value starting with '-' may follow its flag as a separate argument."""

    def test_range(self, capsys):
        code, out, _ = run(capsys, ["solve", *GREEN_ARGS, "--range", "-1:1", "--samples", "3"])
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["-1", "0", "1"]

    def test_field(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--mode", "magnetic", "--v", "-1,0,0", "--ic", "Z0=1",
                     "--range", "-.5:1"],
        )
        assert code == 0
        assert parse_report(out)["tau"] == "-1"

    def test_field_component(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--mode", "magnetic", "--v", "-2e-1,-1,0", "--ic", "Z0=1",
                     "--range", "0:1"]
        )
        assert code == 0
        assert float(parse_report(out)["tau"]) == pytest.approx(-0.2)


class TestVerify:
    def test_reference_parabola_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", *GREEN_ARGS, "--range", "0:3.14159265"])
        assert code == 0
        report = parse_report(out)
        assert report["status"] == "pass"
        assert float(report["deviation"]) < 1e-10
        assert float(report["residual"]) == 0.0

    def test_helix_reports_radius_and_torsion(self, capsys):
        code, out, _ = run(capsys, ["verify", *HELIX_ARGS, "--range", TWO_PI])
        assert code == 0
        report = parse_report(out)
        assert report["status"] == "pass"
        assert float(report["helix_r"]) == 1.0
        assert float(report["tau"]) == 1.0
        assert float(report["kappa"]) == 1.0
        assert float(report["deviation"]) < 1e-9
        assert float(report["helix_spread"]) < 1e-9

    def test_nmagnetic_helix_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--mode", "nmagnetic", "--v", "1,0,0",
             "--ic", "T0=1", "--range", TWO_PI],
        )
        assert code == 0
        report = parse_report(out)
        assert report["case"] == "nmagnetic-helix"
        assert report["status"] == "pass"

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, ["verify", *HELIX_ARGS, "--range", TWO_PI, "--tolerance", "0"]
        )
        assert code == 1
        assert parse_report(out)["status"] == "fail"

    def test_default_tolerance_ignores_the_environment(self, capsys, monkeypatch):
        # only --tolerance sets it, so a caller's environment cannot flip the status
        monkeypatch.setenv("GALMAG_TOL", "1e-20")
        code, out, _ = run(capsys, ["verify", *HELIX_ARGS, "--range", TWO_PI])
        assert code == 0
        assert parse_report(out)["tolerance"] == "1.0000000000000001e-09"

    def test_custom_rk4_step(self, capsys):
        code, out, _ = run(
            capsys, ["verify", *HELIX_ARGS, "--range", TWO_PI, "--step", "5e-4"]
        )
        assert code == 0
        assert float(parse_report(out)["deviation"]) < 5e-15

    @pytest.mark.parametrize("window", ["2:5", "-2:3", "-3:-1"])
    def test_offset_window_integrates_from_the_initial_data(self, capsys, window):
        # the initial data hold at s = 0, wherever the window lies
        argv = ["verify", "--mode", "magnetic", "--v", "1,0.5,0.7", "--ic", "y0=1,Y0=0.3"]
        code, out, _ = run(capsys, [*argv, "--range", window])
        assert code == 0
        deviation = float(parse_report(out)["deviation"])
        assert deviation < 1e-12
        if window == "2:5":
            # a subset of the grid points of the window from 0
            _, full, _ = run(capsys, [*argv, "--range", "0:5"])
            assert deviation <= float(parse_report(full)["deviation"])

    def test_backward_overflow_reports_its_s(self, capsys):
        code, _, err = run(
            capsys, ["verify", "--mode", "magnetic", "--ic", "y0=1e308,Y0=-1e308",
                     "--range", "-2:0"],
        )
        assert code == 2
        assert err == "error: nonfinite-state (state became non-finite at s = -0.001)\n"

    def test_nonfinite_summary_refused_before_the_oracle(self, capsys, monkeypatch):
        # solve refuses the same data; verify printed nan or inf metrics and exited 1
        monkeypatch.setattr(oracle, "_rk4_chunks", None)  # RK4 must not run
        code, out, err = run(capsys, ["verify", "--mode=magnetic", "--v=1e-200,0.5,0.7",
                                      "--ic=y0=1", "--range=0:1"])
        assert code == 2
        assert out == ""
        assert err == "error: nonfinite-output (r = inf at s = 0)\n"

    @pytest.mark.parametrize("v1", ["1e-4", "1e-7"])
    def test_near_isotropic_helix_follows_the_oracle(self, capsys, v1):
        # (Z0 - v3/v1)/v1 cancelled here: deviation 1.8e-8 at 1e-4 and 1.1e-2 at 1e-7.
        # helix_spread is absolute, one ulp of the radius 8.6e7 (1e-4) or 8.6e13 (1e-7),
        # so status stays fail until the metrics scale with the curve.
        code, out, _ = run(capsys, ["verify", "--mode", "magnetic", "--v", f"{v1},0.5,0.7",
                                    "--ic", "y0=1,Y0=0.3,z0=2,Z0=0.4", "--range", "0:3"])
        report = parse_report(out)
        for key in ("deviation", "residual", "curvature_spread"):
            assert float(report[key]) <= 1e-14
        r = float(report["helix_r"])
        assert float(report["helix_spread"]) <= 2 * math.ulp(r)
        assert (code, report["status"]) == (1, "fail")

    def test_incompatible_ic_is_validation_error(self, capsys):
        code, _, err = run(
            capsys,
            ["verify", "--mode", "nmagnetic", "--v", "0,1,2",
             "--ic", "T0=1,U0=1", "--range", "0:5"],
        )
        assert code == 2
        assert err.startswith("error: incompatible-ic")


class TestFrenet:
    def test_constant_columns_for_parabola(self, capsys):
        code, out, _ = run(
            capsys, ["frenet", *GREEN_ARGS, "--range", "0:3.14159:0.1"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["s", "t1", "t2", "t3", "n1", "n2", "n3",
                          "b1", "b2", "b3", "kappa", "tau"]
        for line in lines[1:]:
            row = [float(v) for v in line.split(",")]
            assert row[10] == pytest.approx(math.sqrt(2), abs=1e-15)
            assert row[11] == 0.0
            assert row[1] == 1.0  # tangent first component

    def test_helix_constant_kappa_tau(self, capsys):
        code, out, _ = run(
            capsys, ["frenet", *HELIX_ARGS, "--range", TWO_PI, "--samples", "25"]
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            row = [float(v) for v in line.split(",")]
            assert row[10] == pytest.approx(1.0, abs=1e-12)
            assert row[11] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("args, crv", CURVES)
    def test_csv_rows_equal_scalar_frames(self, capsys, args, crv):
        code, out, _ = run(capsys, ["frenet", *args, "--range=-2:5", "--samples", "61"])
        assert code == 0
        expected = []
        for s in np.linspace(-2, 5, 61).tolist():
            f = frenet_frame(crv, s)
            row = (s, *f.T.as_tuple(), *f.N.as_tuple(), *f.B.as_tuple(), f.kappa, f.tau)
            expected.append(",".join(format(v, ".17g") for v in row))
        assert out.splitlines()[1:] == expected

    def test_json_frames(self, capsys):
        code, out, _ = run(
            capsys,
            ["frenet", *HELIX_ARGS, "--range", "0:1", "--samples", "3",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        sample = doc["samples"][0]
        assert set(sample) == {"s", "T", "N", "B", "kappa", "tau"}
        assert sample["T"] == [1.0, 0.0, 1.0]
        assert sample["N"] == [0.0, -1.0, 0.0]
        assert sample["B"] == [0.0, 0.0, -1.0]

    @pytest.mark.parametrize("args, crv", CURVES)
    def test_json_frames_equal_scalar_frames(self, capsys, args, crv):
        # 1025 rows: two blocks, the second a single row of literals only
        code, out, _ = run(capsys, ["frenet", *args, "--range=-2:5", "--samples", "1025",
                                    "--format", "json"])
        assert code == 0
        frames = json.loads(out)["samples"]
        grid = np.linspace(-2, 5, 1025).tolist()
        assert len(frames) == len(grid)
        for frame, s in zip(frames, grid):
            f = frenet_frame(crv, s)
            assert list(frame) == ["s", "T", "N", "B", "kappa", "tau"]
            got = [frame["s"], *frame["T"], *frame["N"], *frame["B"], frame["kappa"], frame["tau"]]
            want = [s, *f.T.as_tuple(), *f.N.as_tuple(), *f.B.as_tuple(), f.kappa, f.tau]
            assert list(map(float.hex, got)) == list(map(float.hex, want))  # -0.0 too

    def test_acceleration_whose_product_overflows(self, capsys):
        # v1*Y0 overflows, v2 - v1*Y0 does not: this exited 2 with invalid-input (kappa0 ...)
        code, out, err = run(capsys, ["frenet", "--mode=magnetic", "--v=-2,1.5e308,-3e-162",
                                      "--ic=y0=-2,Y0=-1e308,z0=1e-320", "--range=-1:0.001",
                                      "--samples=17"])
        assert code == 0, err
        assert err == ""
        table = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        assert table.shape == (17, 12)
        assert np.isfinite(table).all()
        assert np.allclose(table[:, 10], 5e307, rtol=1e-15, atol=0)  # kappa
        assert np.allclose(table[:, 11], -2, rtol=1e-15, atol=0)  # tau = v1

    def test_straight_line_rejected_at_start(self, capsys):
        code, _, err = run(
            capsys,
            ["frenet", "--mode", "magnetic", "--ic", "Y0=1,Z0=2", "--range", "1:2"],
        )
        assert code == 2
        assert err.startswith("error: zero-curvature")
        assert "s = 1" in err


class TestTinyCurvature:
    """kappa = 1e-200: kappa**2 underflows, the torsion must not."""

    ARGS = ["--mode=nmagnetic", "--v=1,0,0", "--ic=T0=1e-200", "--range=0:1"]

    def test_verify(self, capsys):
        code, out, err = run(capsys, ["verify", *self.ARGS])
        assert code == 0, err
        report = parse_report(out)
        assert report["tau"] == "1"
        assert report["status"] == "pass"

    def test_solve(self, capsys):
        code, _, err = run(capsys, ["solve", *self.ARGS, "--samples=3"])
        assert code == 0, err
        assert "tau: 1\n" in err

    def test_frenet(self, capsys):
        code, out, err = run(capsys, ["frenet", *self.ARGS, "--samples=5"])
        assert code == 0, err
        taus = [float(line.split(",")[-1]) for line in out.splitlines()[1:]]
        assert taus == pytest.approx([1.0] * 5, rel=1e-15)


class TestNonFiniteOutput:
    """A value that would be written as nan or inf makes the command exit 2."""

    @pytest.mark.parametrize("argv, where", [
        (["solve", "--mode=nmagnetic", "--ic=z0=0.5,T0=1e-320,U0=3e-162,Y0=-1e308",
          "--range=-3:0.001", "--samples=3"], "y = inf at s = -3"),
        (["frenet", "--mode=nmagnetic", "--v=1e308,-1,1e-320", "--ic=T0=3e-162,U0=2",
          "--range=0:0.001"], "at s = 0"),
        # the CSV summary on stderr is checked too
        (["solve", "--mode=magnetic", "--v=1e-200,0.5,0.7", "--ic=y0=1", "--range=0:1",
          "--samples=2"], "r = inf at s = 0"),
    ])
    def test_refused_before_writing(self, capsys, tmp_path, argv, where):
        path = tmp_path / "out.txt"
        code, out, err = run(capsys, [*argv, f"--output={path}"])
        assert code == 2
        assert out == ""
        assert not path.exists()
        # one line: numpy's "invalid value encountered in multiply" warnings stay silent
        assert err.count("\n") == 1
        assert err.startswith("error: nonfinite-output (") and where in err

    def test_overflowing_phase_at_the_window_start(self, capsys):
        # v1*s = 3e308 overflows at s = -3: cos(inf) is nan, so the summary's
        # torsion at the float s = -3 is nan, a non-finite output, not an invalid input
        code, out, err = run(capsys, ["verify", "--mode=magnetic", "--v=-1e308,-1e308,1e-13",
                                      "--ic=z0=1e-200,Z0=0.5,y0=-2,Y0=0.5", "--range=-3:1"])
        assert (code, out) == (2, "")
        assert err == "error: nonfinite-output (tau = nan at s = -3)\n"


class TestUnwritableOutput:
    """An output that cannot be opened or written ends in one error line and exit 2."""

    DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="no /dev/full, the device whose every write fails")

    @pytest.mark.parametrize("command", [
        ["solve", *GREEN_ARGS, "--range=0:1"],
        ["frenet", *HELIX_ARGS, "--range=0:1", "--format=json"],
    ])
    @pytest.mark.parametrize("path", [".", "missing/out.csv",
                                      pytest.param("/dev/full", marks=DEV_FULL)])
    def test_refused_with_one_line(self, capsys, monkeypatch, tmp_path, command, path):
        # these printed a traceback and exited 1; solve printed its summary first
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, [*command, f"--output={path}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: unwritable-output (")
        assert err.count("\n") == 1

    @DEV_FULL
    def test_full_stdout(self):
        with open("/dev/full", "w") as full:
            proc = run_process(["solve", *GREEN_ARGS, "--range=0:1"], stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == "error: unwritable-output ([Errno 28] No space left on device)\n"


class TestWarnings:
    """Run as a process: stderr is what a user sees, outside pytest's warning capture."""

    def test_rejected_solve_prints_its_error_alone(self):
        proc = run_process(["solve", "--mode=magnetic", "--v=1e-160,0,1", "--ic=y0=1",
                            "--range=0:1", "--samples=3"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: nonfinite-output (r = inf at s = 0)\n"

    def test_tiny_v1_solves_without_a_warning(self):
        # v1 = 1e-13 warned that the coefficients may lose all precision; none divides by v1 now
        proc = run_process(["solve", "--mode=magnetic", "--v=1e-13,0.5,0.7",
                            "--range=0:1", "--samples=3"])
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "case", "kappa", "tau", "helix radius", "helix axis"]


@pytest.mark.parametrize("flag, reason", [
    ("--step=inf", "invalid-input"),
    ("--tolerance=nan", "invalid-tolerance"),
    ("--tolerance=-1e-9", "invalid-tolerance"),
])
def test_verify_rejects_unusable_step_or_tolerance(capsys, flag, reason):
    # an infinite step ran no RK4 step and passed with deviation 0
    code, out, err = run(capsys, ["verify", *HELIX_ARGS, "--range=0:1", flag])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {reason} (")


@pytest.mark.parametrize("srange", ["0:6.2832:0.1", "-1:1:1e-3"])
def test_verify_refuses_a_range_step(capsys, srange):
    # the range step was ignored: 0:6.2832:0.1 ran at step 1e-3 and passed,
    # where --step=0.1 gives deviation 5.18e-6 and fails
    code, out, err = run(capsys, ["verify", *HELIX_ARGS, f"--range={srange}"])
    assert code == 2
    assert out == ""
    assert err == "error: invalid-range (verify takes its RK4 step from --step)\n"


@pytest.mark.parametrize("nan_runs", [{0}, {1}, {0, 1}])
def test_verify_fails_on_a_nan_deviation(capsys, monkeypatch, nan_runs):
    # Python's max kept an earlier deviation over a later nan
    exact, runs = oracle._rk4_chunks, []

    def nan_last_row(rhs, initial, cfg, sign=1.0):
        nan = len(runs) in nan_runs  # 0: forward to 1, 1: backward to -1
        runs.append(cfg)
        for chunk in exact(rhs, initial, cfg, sign):
            if nan and chunk.grid[-1] == sign * cfg.s_end:
                chunk.states[-1] = math.nan
            yield chunk

    monkeypatch.setattr(oracle, "_rk4_chunks", nan_last_row)
    code, out, _ = run(capsys, ["verify", *HELIX_ARGS, "--range=-1:1"])
    report = parse_report(out)
    assert len(runs) == 2
    assert report["deviation"] == "nan"
    assert report["status"] == "fail"
    assert code == 1


class TestRepeatedCalls:
    """main keeps no state between calls, though the parser is built once per process."""

    # each later command would see a leaked --format, --tolerance, --samples or error
    ARGVS = [
        ["solve", "--mode=bogus", "--range=0:1"],
        ["solve", *GREEN_ARGS, "--range=0:1", "--samples=3"],
        ["solve", *GREEN_ARGS, "--range=0:1", "--samples=4", "--format=json"],
        ["verify", *HELIX_ARGS, "--range=0:1"],
        ["verify", *HELIX_ARGS, "--range=0:1", "--tolerance=1e-20"],
        ["frenet", *HELIX_ARGS, "--range=0:1:0.5"],
        ["verify", "--mode", "magnetic", "--v", "-1,0,0", "--ic", "Z0=1", "--range", "0:1"],
        ["verify", "--help"],
        ["solve", *GREEN_ARGS, "--range=0:1", "--output=."],
    ]

    def test_repeats_equal_first_runs_and_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
        first = [run(capsys, argv) for argv in self.ARGVS]
        assert [run(capsys, argv) for argv in self.ARGVS] == first
        assert [code for code, _, _ in first] == [2, 0, 0, 0, 1, 0, 0, 0, 2]
        for argv, result in zip(self.ARGVS, first):
            proc = run_process(argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == result, argv


# The writers before block templates, kept as the reference for the output bytes.
def _reference_write_csv(out, header, table):
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    out.write(header + "\n")
    for start in range(0, len(table), 1024):
        out.write("".join([line % tuple(row) for row in table[start:start + 1024].tolist()]))


def _reference_write_json(out, doc, rows):
    out.write(json.dumps({**doc, "samples": []})[:-2])
    for i, start in enumerate(range(0, len(rows), 1024)):
        out.write((", " if i else "") + json.dumps(rows[start:start + 1024])[1:-1])
    out.write("]}\n")


SPECIAL = [0.0, -0.0, 5e-324, 2.225e-308, 1.5e308, -1.5e308, 0.1, 1.0]


@st.composite
def tables(draw):
    """Finite float tables whose blocks mix literal, shared, negated, few-valued and
    formatted columns."""
    n = draw(st.sampled_from([1, 1023, 1024, 1025, 2049]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = SPECIAL + draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    columns = []
    for _ in range(draw(st.sampled_from([1, 4, 12]))):
        kind = draw(st.sampled_from(["constant", "signed-zero", "duplicate", "negated",
                                     "first-block", "pool", "few-ulps", "wide"]))
        if kind == "constant":
            col = np.full(n, draw(st.sampled_from(pool)))
        elif kind == "signed-zero":
            col = rng.choice([0.0, -0.0], n)
            col[-1] = -0.0
        elif kind == "duplicate" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))].copy()
            if draw(st.booleans()):
                col[1024:] = rng.choice(pool, max(n - 1024, 0))  # equal in the first block only
        elif kind == "negated" and columns:  # -0.0 for 0.0 and back
            col = -columns[draw(st.integers(0, len(columns) - 1))]
            if draw(st.booleans()):
                col[1024:] = rng.choice(pool, max(n - 1024, 0))  # negated in the first block only
        elif kind == "few-ulps":  # fewer or more distinct ulps than a block has rows
            base = draw(st.sampled_from([0.0, -0.0, 1e-310, 1.5e308, -1.5e308]))
            span = draw(st.sampled_from([2, 16, 1023, 1024, 1025, 5000]))
            offsets = rng.integers(0, span, n)
            if draw(st.booleans()):
                offsets -= span // 2  # below the base too: across zero for a zero base
            ulp = math.copysign(np.spacing(abs(base)), base)  # away from zero
            col = np.where(offsets == 0, base, base + offsets * ulp)
        elif kind == "first-block":  # constant in the first block, not in the next
            col = rng.choice(pool, n)
            col[:1024] = draw(st.sampled_from(pool))
        elif kind == "pool":
            col = rng.choice(pool, n)
        else:  # every binade from subnormal to 2**1018
            col = np.ldexp(rng.standard_normal(n), rng.integers(-1074, 1019, n))
        columns.append(col)
    return np.column_stack(columns)


# No shrinking: an example writes up to 2049 x 12 values and shrinking one
# takes minutes; the failing table is reported as drawn.
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(tables())
def test_writers_equal_the_reference_writers(csv_formatter, table):
    new, old = io.StringIO(), io.StringIO()
    _write_csv(new, "h", table)
    _reference_write_csv(old, "h", table)
    assert new.getvalue() == old.getvalue()
    doc = {"case": "helix", "kappa": 0.1, "tau": None}
    rows = table.tolist()
    new, old = io.StringIO(), io.StringIO()
    _write_json(new, doc, table, "[" + ", ".join(["%r"] * table.shape[1]) + "]")
    _reference_write_json(old, doc, rows)
    assert new.getvalue() == old.getvalue()
    if table.shape[1] == 12:
        frames = [{"s": r[0], "T": r[1:4], "N": r[4:7], "B": r[7:10], "kappa": r[10],
                   "tau": r[11]} for r in rows]
        new, old = io.StringIO(), io.StringIO()
        _write_json(new, doc, table, _FRAME)
        _reference_write_json(old, doc, frames)
        assert new.getvalue() == old.getvalue()
