"""Smoke tests of the runnable scripts, run as their own processes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from galmag.magnetic import KillingField, MagneticIC, solve_magnetic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_script(name, *args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_convergence_study_observes_fourth_order():
    proc = run_script("convergence_study.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    orders = [float(row[3]) for row in rows[1:3]]  # the first two halvings
    assert len(orders) == 2
    assert all(3.5 <= order <= 4.5 for order in orders), orders


def test_export_demo_trajectories(tmp_path):
    proc = run_script("export_demo_trajectories.py", "--outdir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "out").glob("*.csv"))) == 7
    # the array evaluation writes each row as the scalar evaluation formats it
    curve = solve_magnetic(KillingField(0, 1, 1), MagneticIC(y0=1, Y0=5, z0=4, Z0=3))
    grid = np.arange(0.0, math.pi + 0.005, 0.01).tolist()
    rows = ["%.17g,%.17g,%.17g,%.17g" % (s, s, curve.y.eval(s), curve.z.eval(s)) for s in grid]
    assert (tmp_path / "out" / "magnetic_v011.csv").read_text() == "\n".join(["s,x,y,z", *rows, ""])


def test_sameout_corpus_is_pinned_data():
    # sameout.py reads its argvs from a checked-in file: with hypothesis
    # unimportable and nothing from bench/ or tests/ on the path, the first
    # 1,366 are still the argvs its generator used to build
    code = """
import hashlib, json, sys
sys.modules["hypothesis"] = None  # an import of it raises ImportError
sys.path.insert(0, sys.argv[1])
import sameout
argvs = sameout.corpus()
assert all(isinstance(argv, list) and all(isinstance(a, str) for a in argv) for argv in argvs)
local = [m.__file__ for m in list(sys.modules.values()) if getattr(m, "__file__", None)
         and any(part in m.__file__ for part in sys.argv[2:])]
print(len(argvs), hashlib.sha256(json.dumps(argvs[:1366]).encode()).hexdigest()[:16], local)
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "scripts"), str(ROOT / "bench"),
         str(ROOT / "tests"), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    count, digest, local = proc.stdout.split(maxsplit=2)
    assert int(count) >= 1366
    assert digest == "35d370b000e5a8ee"
    assert local.strip() == "[]"
