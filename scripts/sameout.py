"""Compare the CLI's outputs, argv by argv, with those of another commit.

    python scripts/sameout.py REF

REF is any commit git names (``HEAD``, ``main~1``, a sha).  The corpus is
``scripts/sameout_corpus.jsonl``, one JSON argv per line; an argv's output
files go to ``out/``, relative to the run directory.  Its first 1,366 lines
were written once from what this script used to generate on every run, in
this order (sha256 of their ``json.dumps`` list: 35d370b000e5a8ee):

* the first commands of each benchmark workload at seed 1, from
  ``bench/workloads.py``: 150 of ``sample_grid``, 300 of ``verify_many``,
  300 of ``known_defects`` (offset and backward windows) and 4 of
  ``verify_long``;
* 600 derandomized examples of ``tests/test_cli_fuzz.py``'s argv strategy,
  drawn under hypothesis 6.155.2;
* ``verify`` argvs whose RK4 state overflows in its second chunk, forward
  and backward;
* a helix ``frenet`` table written as JSON;
* refusals: a zero curvature, an ``--output`` that is a directory, a
  removed flag, a ``verify`` range step, an ``--ic`` item without ``=``,
  an unknown and a repeated ``--ic`` key, and a range of four parts.

The lines after them cover ``--help``, ``verify``'s refused steps, a range
step whose last multiple overshoots the end, the sample limit and windows
whose length overflows.  Neither the benchmark nor the tests change the
corpus.  To add an argv, append its line and give the new digest, which
the summary line prints, in CHANGES.md.

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
import json
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN = 10
EXPECTED = Path(__file__).with_name("sameout_expected.txt")
CORPUS = Path(__file__).with_name("sameout_corpus.jsonl")

CHILD = r"""
import contextlib, hashlib, io, json, os, pickle, shutil, sys
import galmag._native, galmag.cli
if sys.argv[1] == "fallback":
    galmag._native.load = lambda *args: None
argvs = json.load(sys.stdin)
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
with open(sys.argv[2], "wb") as f:
    pickle.dump((galmag.cli._g17_native() is not None, results), f)
"""


def corpus() -> list[list[str]]:
    """The argvs both trees run, one per line of CORPUS."""
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def ref_tree(ref: str, dest: Path) -> Path:
    """REF's committed files, unpacked under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as files:
        files.extractall(dest / "ref", filter="data")
    return dest / "ref"


def run_tree(tree: Path, loader: str, work: Path, argvs: list[list[str]]) -> tuple[bool, list]:
    """(native converter loaded, one outcome per argv) of tree's CLI in a child process."""
    result = work / "result.pickle"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80",
               XDG_CACHE_HOME=str(work / "cache"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", CHILD, loader, str(result)], input=json.dumps(argvs),
                   text=True, cwd=work / "run", env=env, check=True)
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
        trees = {"ref": ref_tree(ref, work), "work": ROOT}
        runs = {(name, loader): run_tree(tree, loader, work, argvs)
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
