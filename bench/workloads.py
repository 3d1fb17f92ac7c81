"""Seeded command streams for the benchmark workloads.

One case generator serves every workload.  It mixes the two solver modes
1:1 (by command parity) and field classes in fixed shares:

* isotropic       v1 = 0                                  50 %
* helix           |v1| uniform in [0.1, 2]                50 %

in the three benchmark workloads, and

* near-isotropic  |v1| log-uniform in [1e-7, 1e-2]       100 %

in ``known_defects``, which probes the hard regions where the program is
known to be wrong (NOTES.md).  The benchmark workloads leave those regions
out because every operation of a benchmark run must succeed; the
``known_defects`` stream keeps them measured.

Field components v2, v3, the initial data and the start of a sampled
window take both signs.  The class of command k and the magnitude of the j-th
near-isotropic |v1| come from golden-ratio (Weyl) sequences with a seeded
offset, so every prefix of a stream holds close to the stated shares and
covers the near-isotropic decades evenly.  Everything else is drawn from
``random.Random(seed)``.

Every argument is passed as ``--flag=value``: the CLI's argparse reads a
separate value that starts with ``-`` (``--v -1,0,0``) as an unknown flag
and rejects the command, see NOTES.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0

BENCH_CLASSES = (("isotropic", 0.5), ("helix", 0.5))
HARD_CLASSES = (("near-isotropic", 1.0),)
NEAR_ISO_LOG10 = (-7.0, -2.0)
HELIX_V1 = (0.1, 2.0)

DEFAULT_STEP = 1e-3
# Windows keep the RK4 truncation bound r*n*(h*|v1|)**5/120 of an
# n-step run at or below a tenth of the CLI's default 1e-9 tolerance.
TRUNCATION_TARGET = 1e-10


@dataclass(frozen=True)
class Case:
    """One trajectory problem: mode, field, initial data and field class."""

    mode: str
    field_class: str
    v: tuple[float, float, float]
    ic: dict = field(hash=False)
    compatible: bool = True

    @property
    def helix_radius(self) -> float:
        """Radius of the oscillating part (0 for isotropic fields)."""
        v1, v2, v3 = self.v
        if v1 == 0.0:
            return 0.0
        if self.mode == "magnetic":
            return math.hypot(self.ic["Y0"] - v2 / v1, self.ic["Z0"] - v3 / v1) / abs(v1)
        return math.hypot(self.ic["T0"], self.ic["U0"]) / (v1 * v1)


@dataclass(frozen=True)
class Command:
    """A CLI invocation plus what the checker needs to know about it."""

    index: int
    kind: str  # "solve-csv", "solve-json", "frenet-csv" or "verify"
    case: Case
    s_start: float
    s_end: float
    samples: int = 0  # rows requested from solve/frenet
    step: float = 0.0  # RK4 step of verify
    output: str | None = None

    def argv(self) -> list[str]:
        v = ",".join(repr(c) for c in self.case.v)
        ic = ",".join(f"{k}={val!r}" for k, val in self.case.ic.items())
        head = self.kind.split("-")[0]
        argv = [
            head,
            f"--mode={self.case.mode}",
            f"--v={v}",
            f"--ic={ic}",
            f"--range={self.s_start!r}:{self.s_end!r}",
        ]
        if head == "verify":
            argv.append(f"--step={self.step!r}")
        else:
            argv += [f"--samples={self.samples}", f"--format={self.kind.split('-')[1]}"]
            if self.output is not None:
                argv.append(f"--output={self.output}")
        return argv

    @property
    def rk4_steps(self) -> int:
        """Steps of the oracle's grid: uniform steps, plus a short final one."""
        n = int((self.s_end - self.s_start) / self.step)
        while n > 0 and self.s_start + n * self.step > self.s_end:
            n -= 1
        return n + (1 if self.s_start + n * self.step < self.s_end else 0)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


class CaseGenerator:
    """Endless stream of cases; the same seed gives the same stream."""

    def __init__(self, seed: int, classes=BENCH_CLASSES, incompatible_share: float = 0.0):
        self.rng = random.Random(seed)
        self.classes = classes
        self.class_offset = self.rng.random()
        self.v1_offset = self.rng.random()
        self.incompatible_share = incompatible_share
        self.count = 0
        self.near_count = 0
        self.iso_nmag_count = 0

    def _field_class(self) -> str:
        u = (self.class_offset + self.count * GOLDEN) % 1.0
        edge = 0.0
        for name, share in self.classes:
            edge += share
            if u < edge:
                return name
        return self.classes[-1][0]

    def _v1(self, field_class: str) -> float:
        rng = self.rng
        if field_class == "isotropic":
            return 0.0
        if field_class == "helix":
            return _signed(rng, *HELIX_V1)
        w = (self.v1_offset + self.near_count * SILVER) % 1.0
        self.near_count += 1
        lo, hi = NEAR_ISO_LOG10
        return rng.choice((-1.0, 1.0)) * 10.0 ** (lo + (hi - lo) * w)

    def next(self) -> Case:
        rng = self.rng
        mode = "magnetic" if self.count % 2 == 0 else "nmagnetic"
        field_class = self._field_class()
        self.count += 1
        v1 = self._v1(field_class)
        v2 = _signed(rng, 0.1, 2.0)
        v3 = _signed(rng, 0.1, 2.0)
        ic = {
            "y0": rng.uniform(-2.0, 2.0),
            "Y0": rng.uniform(-2.0, 2.0),
            "z0": rng.uniform(-2.0, 2.0),
            "Z0": rng.uniform(-2.0, 2.0),
        }
        compatible = True
        if mode == "nmagnetic":
            if v1 == 0.0:
                # v1 = 0 requires v2*U0 = v3*T0: accelerations along (v2, v3).
                lam = _signed(rng, 0.25, 1.0)
                T0, U0 = lam * v2, lam * v3
                # Every 1/share-th isotropic N-magnetic case gets a
                # perpendicular component, which violates the constraint.
                k = self.iso_nmag_count
                self.iso_nmag_count += 1
                share = self.incompatible_share
                if share > 0.0 and math.floor((k + 1) * share) > math.floor(k * share):
                    mu = _signed(rng, 0.25, 1.0)
                    T0, U0 = T0 - mu * v3, U0 + mu * v2
                    compatible = False
            else:
                T0, U0 = _signed(rng, 0.1, 2.0), _signed(rng, 0.1, 2.0)
            ic = {"y0": ic["y0"], "Y0": ic["Y0"], "T0": T0,
                  "z0": ic["z0"], "Z0": ic["Z0"], "U0": U0}
        return Case(mode, field_class, (v1, v2, v3), ic, compatible)


def rk4_step(case: Case, steps: int) -> float:
    """Largest step <= 1e-3 keeping the truncation bound under the target."""
    w = abs(case.v[0])
    r = case.helix_radius
    if w == 0.0 or r == 0.0:
        return DEFAULT_STEP
    # r * n * (h*w)**5 / 120 <= target
    h = (120.0 * TRUNCATION_TARGET / (r * steps)) ** 0.2 / w
    return min(DEFAULT_STEP, h)


@dataclass(frozen=True)
class Workload:
    """A named command stream; ``block`` commands always run together."""

    name: str
    why: str
    block: int
    trace_commands: int
    incompatible_share: float = 0.0
    classes: tuple = BENCH_CLASSES

    def commands(self, seed: int, outdir: str | None = None):
        gen = CaseGenerator(seed, self.classes, self.incompatible_share)
        rng = random.Random(seed ^ 0x5EED)
        k = 0
        while True:
            case = gen.next()
            yield self._command(k, case, rng, outdir)
            k += 1

    def _command(self, k, case, rng, outdir):
        raise NotImplementedError

    def work(self, cmd, rc) -> int:
        """Work units a finished command did: one per command by default."""
        return 1


class SampleGrid(Workload):
    SOLVE_ROWS = 10000
    FRENET_ROWS = 4000
    KINDS = ("solve-csv", "solve-json", "frenet-csv")

    def _command(self, k, case, rng, outdir):
        kind = self.KINDS[(k // 2) % 3]
        s0 = rng.uniform(-3.0, 0.0)
        length = rng.uniform(3.0, 30.0)
        rows = self.FRENET_ROWS if kind == "frenet-csv" else self.SOLVE_ROWS
        ext = "json" if kind == "solve-json" else "csv"
        output = None if outdir is None else f"{outdir}/cmd{k:05d}.{ext}"
        return Command(k, kind, case, s0, s0 + length, samples=rows, output=output)

    def work(self, cmd, rc) -> int:
        """Output rows."""
        return cmd.samples if rc == 0 else 0


class VerifyLong(Workload):
    STEPS = 60000

    def _command(self, k, case, rng, outdir):
        h = rk4_step(case, self.STEPS)
        return Command(k, "verify", case, 0.0, self.STEPS * h, step=h)

    def work(self, cmd, rc) -> int:
        """RK4 steps (the oracle runs whenever verify reports)."""
        return cmd.rk4_steps if rc in (0, 1) else 0


class VerifyMany(Workload):
    STEPS = (500, 2500)

    def _command(self, k, case, rng, outdir):
        n = rng.randint(*self.STEPS)
        h = rk4_step(case, n)
        return Command(k, "verify", case, 0.0, n * h, step=h)


class KnownDefects(Workload):
    """Near-isotropic solve and verify commands, and verify windows that do
    not start at s = 0: the inputs of the known defects in NOTES.md."""

    ROWS = 2000

    def _command(self, k, case, rng, outdir):
        kind = ("verify", "solve-csv", "verify-offset")[k % 3]
        if kind == "solve-csv":
            s0 = rng.uniform(-3.0, 0.0)
            output = None if outdir is None else f"{outdir}/cmd{k:05d}.csv"
            return Command(k, kind, case, s0, s0 + rng.uniform(3.0, 30.0),
                           samples=self.ROWS, output=output)
        n = rng.randint(*VerifyMany.STEPS)
        h = rk4_step(case, n)
        s0 = _signed(rng, 0.5, 3.0) if kind == "verify-offset" else 0.0
        return Command(k, "verify", case, s0, s0 + n * h, step=h)


WORKLOADS = {
    w.name: w
    for w in (
        SampleGrid(
            "sample_grid",
            "solve (CSV, JSON) and frenet output of 4k-10k rows to files: "
            "formatting and closed-form evaluation, RK4 never runs",
            block=6,
            trace_commands=6,
        ),
        VerifyLong(
            "verify_long",
            "verify on 60k-step RK4 windows: integrate and the RHS dominate, "
            "no formatting; control for output changes",
            block=2,
            trace_commands=2,
        ),
        VerifyMany(
            "verify_many",
            "many short verify commands over both modes and field classes, with "
            "incompatible N-magnetic data: per-command fixed costs",
            block=2,
            trace_commands=40,
            incompatible_share=0.5,
        ),
        KnownDefects(
            "known_defects",
            "near-isotropic fields and offset verify windows, where the program "
            "is known to be wrong; not part of BENCHMARK.json",
            block=3,
            trace_commands=3,
            classes=HARD_CLASSES,
        ),
    )
}
