"""galmag benchmark: seeded CLI workloads, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sample_grid --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table each

The run imports ``galmag.cli`` from ``src/`` and calls ``main(argv)`` in
this one process, one command after the other (a closed loop with one
client).  ``--trace 0`` runs whole blocks of commands until their summed
latency reaches ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs a fixed prefix of the same stream untraced, traced and
untraced again and reports the per-layer metrics, so its counts repeat
exactly for a seed.  Every command's output is checked afterwards against
the mpmath reference in ``reference.py``.  The last line of stdout is the
JSON result; a results file with the environment, sample counts, digests
and every mismatch goes to ``.bench_out/results/``.  NOTES.md defines the
metrics and the known defects.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
IMPORT_CODE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

# bench/ is on sys.path as the script's directory.
from calibration import (  # noqa: E402
    IMPORT_REF_S,
    KERNEL_REF_S,
    REFERENCE_IMPORT,
    kernel_seconds,
)
from workloads import WORKLOADS  # noqa: E402

# Each failure class the benchmark can attribute to a defect named in NOTES.md.
KNOWN_DEFECTS = {
    "offset-window": "verify integrates from the window start with the s = 0 data",
    "near-isotropic-cancellation": "closed-form coefficients cancel as |v1| -> 0",
}


@dataclass
class Outcome:
    cmd: object
    rc: int | str  # exit code, or the exception main() raised
    out: str
    err: str
    seconds: float
    speed: float = 1.0  # KERNEL_REF_S / kernel time around the command
    written: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)
    defect: str | None = None


def run_command(cli, cmd) -> Outcome:
    """One CLI call, timed around ``cli.main(argv)`` only.

    ``main`` is looked up on the module at every call, so the traced run
    sees the wrapper installed there.
    """
    argv = cmd.argv()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a wrong outcome, not a crash of the run
            rc = f"exception {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    result = Outcome(cmd, rc, out.getvalue(), err.getvalue(), dt)
    result.written = len(result.out.encode())
    if cmd.output is not None and os.path.exists(cmd.output):
        result.written += os.path.getsize(cmd.output)
    return result


def check(outcomes: list[Outcome], seed: int) -> None:
    """Fill in problems, digest and defect of every outcome."""
    import reference  # imports mpmath: only after peak RSS has been read

    for o in outcomes:
        cmd = o.cmd
        rng = random.Random(seed * 1_000_003 + cmd.index)
        text = o.out
        if cmd.output is not None:
            text = Path(cmd.output).read_text() if os.path.exists(cmd.output) else ""
        o.digest = hashlib.sha256(f"{o.rc}\n{text}".encode()).hexdigest()
        try:
            if not isinstance(o.rc, int):
                o.problems = [o.rc]
            elif cmd.kind == "verify":
                o.problems = reference.check_verify(cmd, o.rc, o.out, o.err)
            elif cmd.kind == "frenet-csv":
                o.problems = reference.check_frenet(cmd, o.rc, text, rng)
            else:
                o.problems = reference.check_solve(cmd, o.rc, text, rng)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            o.problems = [f"unparseable output ({type(exc).__name__}: {exc})"]
        if o.problems:
            o.defect = attribute(cmd)


def attribute(cmd) -> str:
    if cmd.kind == "verify" and cmd.s_start != 0.0:
        return "offset-window"
    if cmd.case.field_class == "near-isotropic":
        return "near-isotropic-cancellation"
    return "unexplained"


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup() -> list[tuple[float, float]]:
    """(raw, scaled) import times of galmag.cli in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def import_seconds(modules: str) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE.format(modules)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(proc.stdout)

    times = []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds("galmag.cli")
        reference = import_seconds(REFERENCE_IMPORT)
        times.append((seconds, seconds * IMPORT_REF_S / reference))
    return times


def quantile(values, q: int) -> float:
    """The q-th percentile, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(cli, workload, seed: int, seconds: float, outdir: Path):
    setup = measure_setup()
    stream = workload.commands(seed, str(outdir))
    outcomes: list[Outcome] = []
    busy = 0.0
    kernel_before = kernel_seconds()
    while busy < seconds:
        for _ in range(workload.block):
            o = run_command(cli, next(stream))
            kernel_after = kernel_seconds()
            o.speed = 2.0 * KERNEL_REF_S / (kernel_before + kernel_after)
            kernel_before = kernel_after
            outcomes.append(o)
            busy += o.seconds
    # Read before the checks parse outputs and load mpmath.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check(outcomes, seed)
    work = sum(workload.work(o.cmd, o.rc) for o in outcomes)
    n = len(outcomes)

    def timing(lat_s, setup_s):
        lat_ms = [t * 1e3 for t in lat_s]
        return {
            "work_per_s": (work / sum(lat_s), "work/s", n),
            "cmd_ms_p50": (statistics.median(lat_ms), "ms", n),
            "cmd_ms_p90": (quantile(lat_ms, 90), "ms", n),
            "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        }

    metrics = timing([o.seconds * o.speed for o in outcomes], [t[1] for t in setup])
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    raw = {k: v for k, (v, _, _) in timing([o.seconds for o in outcomes], [t[0] for t in setup]).items()}
    extra = {"busy_s": busy, "work": work, "setup_samples_s": setup, "raw_wall_clock": raw,
             "speed_median": statistics.median(o.speed for o in outcomes)}
    return outcomes, metrics, extra


def traced_run(cli, workload, seed: int, outdir: Path):
    from tracing import Tracer, layer_metrics

    stream = workload.commands(seed, str(outdir))
    cmds = [next(stream) for _ in range(workload.trace_commands)]

    def replay():
        return [run_command(cli, c) for c in cmds]

    plain1 = replay()
    with Tracer() as tracer:
        traced = replay()
    plain2 = replay()
    untraced_s = (sum(o.seconds for o in plain1) + sum(o.seconds for o in plain2)) / 2
    traced_s = sum(o.seconds for o in traced)
    check(traced, seed)
    # Tracing must not change what the program writes.
    for o, a, b in zip(traced, plain1, plain2):
        if not (o.rc == a.rc == b.rc and o.out == a.out == b.out):
            o.problems.append("traced and untraced outputs differ")
            o.defect = "unexplained"
    exits: dict[int, int] = {}
    for o in traced:
        exits[o.rc] = exits.get(o.rc, 0) + 1
    rows = sum(o.cmd.samples for o in traced if o.cmd.kind != "verify" and o.rc == 0)
    layer = layer_metrics(tracer, rows, sum(o.written for o in traced), exits)
    metrics = {name: (value, unit, len(cmds)) for name, (value, unit) in layer.items()}
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac", len(cmds))
    extra = {"traced_s": traced_s, "untraced_s": untraced_s}
    return traced, metrics, extra


def report(args, outcomes, metrics, extra, env) -> dict:
    failed = [o for o in outcomes if o.problems]
    unexplained = [o for o in failed if o.defect not in KNOWN_DEFECTS]
    by_defect: dict[str, int] = {}
    for o in failed:
        by_defect[o.defect] = by_defect.get(o.defect, 0) + 1
    digest = hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit:7s} (n={n})")
    if "raw_wall_clock" in extra:
        print(f"  unscaled wall clock {extra['raw_wall_clock']}, "
              f"median speed {extra['speed_median']:.3f}")
    print(f"  commands {len(outcomes)}, mismatches {len(failed)} {by_defect}")
    for o in failed[:5]:
        print(f"    #{o.cmd.index} {o.defect}: {o.cmd.case.field_class} "
              f"v1={o.cmd.case.v[0]:.3g}: {'; '.join(o.problems)[:160]}")
    print(f"  output digest (information only) {digest[:16]}")

    result = {
        "correct": not unexplained,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    detail = {
        "args": vars(args),
        "env": env,
        "result": result,
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "extra": extra,
        "mismatches": {"by_defect": by_defect, "known_defects": KNOWN_DEFECTS},
        "commands": [
            {"index": o.cmd.index, "argv": o.cmd.argv(), "rc": o.rc, "ms": o.seconds * 1e3,
             "speed": o.speed,
             "digest": o.digest, "defect": o.defect, "problems": o.problems}
            for o in outcomes
        ],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str))
    return result


def run_all(args) -> dict:
    """Every workload in its own fresh interpreter; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        total["correct"] = total["correct"] and one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0

    # The tolerance must be the CLI default, whatever the caller's environment.
    os.environ.pop("GALMAG_TOL", None)
    sys.path.insert(0, str(ROOT / "src"))
    import galmag.cli as cli

    env = environment()
    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcomes, metrics, extra = traced_run(cli, workload, args.seed, outdir)
        else:
            outcomes, metrics, extra = timed_run(
                cli, workload, args.seed, args.seconds, outdir
            )
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    result = report(args, outcomes, metrics, extra, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
