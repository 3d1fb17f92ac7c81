"""Tests of the benchmark itself: generator, reference check and tracer.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import galmag.cli as cli  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Case, Command, CaseGenerator  # noqa: E402


def first(workload, seed, n, outdir=None):
    return list(itertools.islice(WORKLOADS[workload].commands(seed, outdir), n))


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


HELIX = Case("magnetic", "helix", (0.7, -1.3, 0.4),
             {"y0": 0.5, "Y0": -1.1, "z0": -0.25, "Z0": 1.5})
NHELIX = Case("nmagnetic", "helix", (-1.2, 0.3, -0.9),
              {"y0": 0.5, "Y0": -1.1, "T0": 0.8, "z0": -0.25, "Z0": 1.5, "U0": -0.6})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a = [c.argv() for c in first(workload, 7, 30, "out")]
    assert a == [c.argv() for c in first(workload, 7, 30, "out")]
    assert a != [c.argv() for c in first(workload, 8, 30, "out")]
    # every value is attached to its flag, so a leading '-' cannot be misread
    assert all(arg.startswith("--") and "=" in arg for argv in a for arg in argv[1:])


def test_generator_shares():
    gen = CaseGenerator(3, incompatible_share=0.5)
    cases = [gen.next() for _ in range(1000)]
    share = {name: sum(c.field_class == name for c in cases) / 1000
             for name in ("isotropic", "helix")}
    assert share == pytest.approx({"isotropic": 0.5, "helix": 0.5}, abs=0.005)
    assert sum(c.mode == "magnetic" for c in cases) == 500
    iso_nmag = [c for c in cases if c.mode == "nmagnetic" and c.v[0] == 0.0]
    assert sum(not c.compatible for c in iso_nmag) == len(iso_nmag) // 2
    assert any(c.v[1] < 0 for c in cases) and any(c.ic["y0"] < 0 for c in cases)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_known_defect_inputs_only_in_their_own_workload(workload):
    import run

    attributed = [run.attribute(c) for c in first(workload, 5, 60)]
    if workload == "known_defects":
        assert "unexplained" not in attributed
        assert set(attributed) == set(run.KNOWN_DEFECTS)
    else:
        assert set(attributed) == {"unexplained"}


def test_argv_accepted_with_negative_values():
    (cmd,) = first("verify_many", 1, 1)
    rc, out, err = call(cmd.argv())
    assert not err.startswith("error: invalid-flags"), err


def _solve(tmp_path, case, kind, rows=12):
    ext = "json" if kind == "solve-json" else "csv"
    cmd = Command(0, kind, case, -0.5, 2.0, samples=rows, output=str(tmp_path / f"o.{ext}"))
    rc, _, _ = call(cmd.argv())
    return cmd, rc, Path(cmd.output).read_text()


@pytest.mark.parametrize("case", [HELIX, NHELIX])
@pytest.mark.parametrize("kind", ["solve-csv", "solve-json"])
def test_reference_accepts_and_flags_corrupted_solve_row(tmp_path, case, kind):
    cmd, rc, text = _solve(tmp_path, case, kind)
    assert reference.check_solve(cmd, rc, text, random.Random(0)) == []
    lines = text.split("\n")
    if kind == "solve-csv":
        s, x, y, z = lines[5].split(",")
        lines[5] = ",".join((s, x, repr(float(y) + 1e-8), z))
        bad = "\n".join(lines)
    else:
        bad = text.replace(", ", ",  ", 1)  # layout only: still correct
        assert reference.check_solve(cmd, rc, bad, random.Random(0)) == []
        y = text.split("[[")[1].split("]")[0].split(", ")[2]
        bad = text.replace(y, repr(float(y) + 1e-6), 1)
    problems = reference.check_solve(cmd, rc, bad, random.Random(0))
    assert problems and "position off" in problems[0]


def test_reference_flags_corrupted_frenet_row(tmp_path):
    cmd = Command(0, "frenet-csv", NHELIX, 0.0, 3.0, samples=10,
                  output=str(tmp_path / "f.csv"))
    rc, _, _ = call(cmd.argv())
    text = Path(cmd.output).read_text()
    assert reference.check_frenet(cmd, rc, text, random.Random(0)) == []
    lines = text.split("\n")
    cols = lines[3].split(",")
    cols[5] = repr(-float(cols[5]))  # flip n2
    lines[3] = ",".join(cols)
    assert reference.check_frenet(cmd, rc, "\n".join(lines), random.Random(0))


def test_reference_verify_expectations():
    cmd = Command(0, "verify", HELIX, 0.0, 1.0, step=1e-3)
    rc, out, err = call(cmd.argv())
    assert reference.check_verify(cmd, rc, out, err) == []
    wrong = out.replace("kappa = ", "kappa = 1", 1)
    assert reference.check_verify(cmd, rc, wrong, err)
    assert reference.check_verify(cmd, 1, out.replace("pass", "fail"), err)
    incompatible = Case("nmagnetic", "isotropic", (0.0, 1.0, 1.0),
                        {"y0": 0, "Y0": 0, "T0": 1.0, "z0": 0, "Z0": 0, "U0": -1.0}, False)
    cmd = Command(0, "verify", incompatible, 0.0, 1.0, step=1e-3)
    rc, out, err = call(cmd.argv())
    assert rc == 2 and reference.check_verify(cmd, rc, out, err) == []


def test_unparseable_output_is_an_unexplained_mismatch(tmp_path):
    import run

    cmd = Command(0, "solve-json", HELIX, 0.0, 1.0, samples=5, output=str(tmp_path / "x.json"))
    Path(cmd.output).write_text("{not json")
    outcome = run.Outcome(cmd, 0, "", "", 0.1)
    run.check([outcome], seed=1)
    assert outcome.problems and outcome.defect == "unexplained"


def test_trace_counts_follow_from_the_inputs(tmp_path):
    with Tracer() as tr:
        small = _solve(tmp_path, NHELIX, "solve-csv", rows=50)
    with Tracer() as tr2:
        big = _solve(tmp_path, NHELIX, "solve-csv", rows=120)
    points = layer_metrics(tr, 50, 0, {})["magnetic.eval.points"][0]
    points2 = layer_metrics(tr2, 120, 0, {})["magnetic.eval.points"][0]
    assert small[1] == big[1] == 0
    assert points2 - points == 2 * (120 - 50)  # y and z per row

    cmd = first("verify_long", 2, 2)[1]
    cmd = Command(0, "verify", cmd.case, 0.0, 2500 * cmd.step, step=cmd.step)
    with Tracer() as tr:
        rc, _, _ = call(cmd.argv())
    m = {k: v for k, (v, _) in layer_metrics(tr, 0, 0, {rc: 1}).items()}
    assert m["oracle.rhs_calls_per_step"] == 4
    assert m["oracle.integrate.steps"] == cmd.rk4_steps
    assert m["oracle.max_deviation.points"] == cmd.rk4_steps + 1
    assert m["cli.main.calls"] == m["magnetic.solve.calls"] == 1
    assert m["magnetic.residual.calls"] == m["frenet.invariant.calls"] - 1 == 1000


def test_tracer_restores_the_originals():
    before = (cli.main, cli.norm, cli.integrate, cli.solve_magnetic)
    with Tracer():
        assert cli.main is not before[0]
    assert (cli.main, cli.norm, cli.integrate, cli.solve_magnetic) == before
