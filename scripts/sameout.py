"""Compare the CLI's outputs, argv by argv, with those of another commit.

    python scripts/sameout.py REF

REF is any commit git names (``HEAD``, ``main~1``, a sha).  The corpus is
fixed:

* the first commands of each benchmark workload at seed CORPUS_SEED, read
  from ``bench/workloads.py``: 150 of ``sample_grid``, 300 of
  ``verify_many``, 300 of ``known_defects`` (offset and backward windows)
  and 4 of ``verify_long``;
* 600 derandomized examples of ``tests/test_cli_fuzz.py``'s argv strategy;
* ``verify`` argvs whose RK4 state overflows in its second chunk, forward
  and backward;
* a helix ``frenet`` table written as JSON;
* refusals: a zero curvature, an ``--output`` that is a directory, a
  removed flag, a ``verify`` range step, an ``--ic`` item without ``=``,
  an unknown and a repeated ``--ic`` key, and a range of four parts.

The corpus runs in the working tree and in REF's committed files (taken
with ``git archive``, so the repository's own state is left alone).  Each
tree runs it in one child process with the native converter, and in one
with ``galmag._native.load`` replaced so that every value takes the Python
path.  The children of both trees run in the same directory, so output
paths and the messages naming them are the same.  For each argv the exit
code, stdout, stderr and the bytes of every output file are compared.

``scripts/sameout_expected.txt`` lists the argvs whose outputs are meant
to differ from REF, one per line as this script prints them (``galmag
...``); blank lines and lines starting with ``#`` are skipped.  The first
unlisted differences, every listed argv that does not differ and a
one-line summary with the corpus digest are printed.  The exit status is 1
on any unlisted difference or listed argv that does not differ, so an
entry is cleared once REF holds its change, else 0.  A run takes about
half a minute on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 1
WORKLOAD_COMMANDS = {"sample_grid": 150, "verify_many": 300, "known_defects": 300,
                     "verify_long": 4}
FUZZ_EXAMPLES = 600
SHOWN = 10
EXPECTED = Path(__file__).with_name("sameout_expected.txt")

CHILD = r"""
import contextlib, hashlib, io, json, os, pickle, shutil, sys
import galmag._native, galmag.cli
if sys.argv[1] == "fallback":
    galmag._native.load = lambda *args: None
argvs = json.load(open(sys.argv[2]))
results = []
for argv in argvs:
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = galmag.cli.main(argv)
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"raised {exc!r}"
    files = {name: hashlib.sha256(open(os.path.join("out", name), "rb").read()).hexdigest()
             for name in sorted(os.listdir("out"))}
    results.append((code, out.getvalue(), err.getvalue(), files))
shutil.rmtree("out", ignore_errors=True)
with open(sys.argv[3], "wb") as f:
    pickle.dump((galmag.cli._g17_native() is not None, results), f)
"""


def corpus() -> list[list[str]]:
    """The argvs both trees run; output files go to out/, relative to the run directory."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests"), str(ROOT / "src")]
    from hypothesis import HealthCheck, Phase, given, settings
    from test_cli_fuzz import argvs as fuzz_argvs
    from workloads import WORKLOADS

    argvs = [cmd.argv() for name, count in WORKLOAD_COMMANDS.items()
             for cmd in itertools.islice(WORKLOADS[name].commands(CORPUS_SEED, "out"), count)]

    @settings(max_examples=FUZZ_EXAMPLES, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(fuzz_argvs())
    def collect(argv):
        argvs.append(argv)

    collect()
    helix = ["--mode=magnetic", "--v=1,0,0", "--ic=Z0=1"]
    argvs += [
        # at h*v1 = 2.84 RK4 overflows inside the second 16,384-row chunk
        ["verify", "--mode=magnetic", "--v=2840,0,0", "--ic=Z0=1", "--range=0:40"],
        ["verify", "--mode=magnetic", "--v=2840,0,0", "--ic=Z0=1", "--range=-40:0"],
        ["frenet", "--mode=magnetic", "--range=0:1"],  # a straight line: zero curvature
        ["solve", "--mode=magnetic", "--v=0,1,1", "--range=0:1", "--output=out"],
        ["verify", "--mode=magnetic", "--v1", "1", "--ic=Z0=1", "--range=0:1"],
        ["verify", *helix, "--range=0:6.2832:0.1"],
        ["verify", *helix, "--range=-1:1", "--step=0.01"],
        ["frenet", "--mode=magnetic", "--v=1,0.5,0.7", "--ic=Z0=1", "--range=0:20",
         "--samples=4000", "--format=json", "--output=out/f.json"],
        ["solve", *helix[:2], "--ic=Z0", "--range=0:1"],
        ["solve", *helix[:2], "--ic=Z0=1,T0=1", "--range=0:1"],
        ["solve", *helix[:2], "--ic=Z0=1,Z0=2", "--range=0:1"],
        ["solve", *helix, "--range=0:1:2:3"],
    ]
    return argvs


def ref_tree(ref: str, dest: Path) -> Path:
    """REF's committed files, unpacked under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as files:
        files.extractall(dest / "ref", filter="data")
    return dest / "ref"


def run_tree(tree: Path, loader: str, corpus_file: Path, work: Path) -> tuple[bool, list]:
    """(native converter loaded, one outcome per argv) of tree's CLI in a child process."""
    result = work / "result.pickle"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80",
               XDG_CACHE_HOME=str(work / "cache"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", CHILD, loader, str(corpus_file), str(result)],
                   cwd=work / "run", env=env, check=True)
    with open(result, "rb") as f:
        return pickle.load(f)


def describe(outcome) -> str:
    """One line: the exit code, the heads of stdout and stderr, and the output files' digests."""
    code, out, err, files = outcome
    if len(out) > 300:
        out = f"{out[:300]}... ({len(out)} chars, sha256 {hashlib.sha256(out.encode()).hexdigest()})"
    return json.dumps({"exit": code, "stdout": out, "stderr": err[:300], "files": files})


def expected() -> set[str]:
    """The `galmag ...` lines of EXPECTED."""
    lines = (line.strip() for line in EXPECTED.read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the commit to compare the working tree with")
    ref = parser.parse_args().ref
    argvs = corpus()
    with tempfile.TemporaryDirectory(prefix="sameout-") as tmp:
        work = Path(tmp)
        (work / "run").mkdir()
        corpus_file = work / "corpus.json"
        corpus_file.write_text(json.dumps(argvs))
        trees = {"ref": ref_tree(ref, work), "work": ROOT}
        runs = {(name, loader): run_tree(tree, loader, corpus_file, work)
                for loader in ("native", "fallback") for name, tree in trees.items()}
    listed = expected()
    differ = set()
    shown = 0
    for loader in ("native", "fallback"):
        ref_results, work_results = runs["ref", loader][1], runs["work", loader][1]
        for argv, old, new in zip(argvs, ref_results, work_results):
            if old == new:
                continue
            line = f"galmag {' '.join(argv)}"
            differ.add(line)
            if line not in listed and shown < SHOWN:
                shown += 1
                print(f"[{loader}] {line}\n  {ref}: {describe(old)}\n  work: {describe(new)}")
    stale = listed - differ
    for line in sorted(stale):
        print(f"listed in {EXPECTED.name} but the same as {ref}: {line}")
    native = "native converter loaded" if all(runs[k][0] for k in runs if k[1] == "native") \
        else "native converter NOT loaded"
    digest = hashlib.sha256(json.dumps(argvs).encode()).hexdigest()[:16]
    print(f"sameout: {len(differ)} of {len(argvs)} argvs differ from {ref}, "
          f"{len(differ - listed)} unlisted, {len(stale)} listed but the same "
          f"(corpus sha256 {digest}; native and fallback runs; {native})")
    return 1 if differ - listed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
