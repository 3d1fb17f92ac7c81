"""Independent reference for checking galmag's output, in mpmath.

The closed forms are written from the trajectory equations in complex
form, P = y + i*z, with w = v1 and the phi-functions of exponential
integrators, phi1(x) = (e^x - 1)/x and phi2(x) = (e^x - 1 - x)/x**2:

* magnetic, gamma'' = V x gamma':  P'' = c + i*w*P' with c = v3 - i*v2, so
  P(s) = P0 + Q0*s*phi1(iws) + c*s**2*phi2(iws)
* N-magnetic, N' = V x N:  A = P'' obeys A' = i*w*A, so
  P(s) = P0 + Q0*s + A0*s**2*phi2(iws)

with P0 = y0 + i*z0, Q0 = Y0 + i*Z0 and A0 = T0 + i*U0.  Nothing here
shares code or coefficients with galmag's ``QuadSinusoid``; w = 0 needs no
separate branch.

The checks return a list of problems (empty when the output is right).
Numbers are compared with a tolerance relative to the scale of what is
compared: ``RTOL`` times the largest reference magnitude (at least 1) of
the column or quantity.  Digests of the outputs are kept by the caller
for information only.
"""

from __future__ import annotations

import json
import random

import mpmath as mp

RTOL = 1e-11
DIGITS = 50
ROWS_CHECKED = 16


def expected_case(case) -> str:
    """Case label; the generator keeps v2 and v3 nonzero."""
    if case.v[0] != 0.0:
        return f"{case.mode}-helix"
    return "magnetic-parabola" if case.mode == "magnetic" else "nmagnetic-yz-field"


def _phi(k: int, x):
    """phi_k(x) for k = 0, 1, 2 (series near 0, closed form elsewhere)."""
    if abs(x) < mp.mpf("1e-3"):
        term = mp.mpf(1) / mp.factorial(k)
        total = term
        for j in range(1, 16):
            term = term * x / (j + k)
            total += term
        return total
    if k == 0:
        return mp.exp(x)
    if k == 1:
        return mp.expm1(x) / x
    return (mp.expm1(x) - x) / (x * x)


class Trajectory:
    """P(s) and its first three derivatives for one case, in mpmath."""

    def __init__(self, case):
        ic = {k: mp.mpf(v) for k, v in case.ic.items()}
        v1, v2, v3 = (mp.mpf(c) for c in case.v)
        self.magnetic = case.mode == "magnetic"
        self.w = v1
        self.P0 = mp.mpc(ic["y0"], ic["z0"])
        self.Q0 = mp.mpc(ic["Y0"], ic["Z0"])
        if self.magnetic:
            self.c = mp.mpc(v3, -v2)
        else:
            self.A0 = mp.mpc(ic["T0"], ic["U0"])

    def derivatives(self, s):
        """(P, P', P'', P''') at s."""
        s = mp.mpf(s)
        x = mp.mpc(0, self.w * s)
        iw = mp.mpc(0, self.w)
        if self.magnetic:
            p = self.P0 + self.Q0 * s * _phi(1, x) + self.c * s * s * _phi(2, x)
            dp = self.Q0 * _phi(0, x) + self.c * s * _phi(1, x)
            ddp = self.c + iw * dp
        else:
            p = self.P0 + self.Q0 * s + self.A0 * s * s * _phi(2, x)
            dp = self.Q0 + self.A0 * s * _phi(1, x)
            ddp = self.A0 * _phi(0, x)
        return p, dp, ddp, iw * ddp

    def kappa(self):
        return abs(self.derivatives(0)[2])

    def tau(self):
        # tau = Im(conj(P'') P''') / |P''|**2 = w wherever kappa != 0
        return self.w

    def helix(self):
        """Radius and axis (a, b, c, d): y = a*s + b, z = c*s + d."""
        iw = mp.mpc(0, self.w)
        if self.magnetic:
            amp = self.Q0 + self.c / iw  # P' = amp*e^{iws} - c/(iw)
            r = abs(amp) / abs(self.w)
            slope = -self.c / iw
            offset = self.P0 - amp / iw
        else:
            r = abs(self.A0) / (self.w * self.w)
            slope = self.Q0 - self.A0 / iw
            offset = self.P0 - self.A0 / (iw * iw)
        return r, (slope.real, offset.real, slope.imag, offset.imag)

    def frenet_row(self, s):
        """(t1, t2, t3, n1, n2, n3, b1, b2, b3, kappa, tau) at s."""
        _, dp, ddp, dddp = self.derivatives(s)
        k = abs(ddp)
        n = ddp / k
        tau = (ddp.real * dddp.imag - ddp.imag * dddp.real) / (k * k)
        return (1, dp.real, dp.imag, 0, n.real, n.imag, 0, -n.imag, n.real, k, tau)


def _close(got: float, ref, scale) -> bool:
    return abs(mp.mpf(got) - ref) <= RTOL * scale


def _scale(*refs) -> mp.mpf:
    return max([mp.mpf(1)] + [abs(r) for r in refs])


def _pick_rows(n: int, rng: random.Random) -> list[int]:
    if n <= ROWS_CHECKED + 2:
        return list(range(n))
    return sorted({0, n - 1, *rng.sample(range(1, n - 1), ROWS_CHECKED)})


def _check_grid(cmd, svals: dict[int, float], nrows: int) -> list[str]:
    problems = []
    if nrows != cmd.samples:
        problems.append(f"{nrows} rows, expected {cmd.samples}")
    if svals.get(0) != cmd.s_start or svals.get(nrows - 1) != cmd.s_end:
        problems.append("grid does not start and end at the window ends")
    ordered = [svals[i] for i in sorted(svals)]
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        problems.append("grid is not increasing")
    return problems


def _check_positions(cmd, rows: dict[int, list[float]]) -> list[str]:
    """rows: index -> [s, x, y, z]."""
    traj = Trajectory(cmd.case)
    refs = {i: traj.derivatives(row[0])[0] for i, row in rows.items()}
    scale = _scale(*[r.real for r in refs.values()], *[r.imag for r in refs.values()],
                   *[row[0] for row in rows.values()])
    problems = []
    for i, (s, x, y, z) in rows.items():
        ref = refs[i]
        if x != s:
            problems.append(f"row {i}: x != s")
        if not (_close(y, ref.real, scale) and _close(z, ref.imag, scale)):
            err = max(abs(mp.mpf(y) - ref.real), abs(mp.mpf(z) - ref.imag))
            problems.append(f"row {i}: position off by {mp.nstr(err / scale, 3)} of scale")
    return problems


def _check_scalar(name: str, got, ref, scale=None) -> list[str]:
    if got is None or not _close(got, ref, _scale(ref) if scale is None else scale):
        return [f"{name} = {got!r}, reference {mp.nstr(ref, 17)}"]
    return []


def _check_helix(traj, helix) -> list[str]:
    r, line = traj.helix()
    if helix is None:
        return ["helix data missing"]
    got = (helix["line"]["a"], helix["line"]["b"], helix["line"]["c"], helix["line"]["d"])
    scale = _scale(r, *line)
    problems = _check_scalar("helix r", helix["r"], r, scale)
    for name, g, ref in zip("abcd", got, line):
        problems += _check_scalar(f"helix {name}", g, ref, scale)
    return problems


def check_solve(cmd, rc: int, text: str, rng: random.Random) -> list[str]:
    """Check the output of a ``solve`` command (CSV or JSON)."""
    if rc != 0:
        return [f"exit {rc}, expected 0"]
    with mp.workdps(DIGITS):
        if cmd.kind == "solve-json":
            doc = json.loads(text)
            samples = doc["samples"]
            picked = {i: samples[i] for i in _pick_rows(len(samples), rng)}
            traj = Trajectory(cmd.case)
            problems = []
            if doc["case"] != expected_case(cmd.case):
                problems.append(f"case {doc['case']!r}")
            problems += _check_scalar("kappa", doc["kappa"], traj.kappa())
            problems += _check_scalar("tau", doc["tau"], traj.tau())
            if cmd.case.v[0] != 0.0:
                problems += _check_helix(traj, doc["helix"])
            elif doc["helix"] is not None:
                problems.append("helix data for a non-helix case")
            nrows = len(samples)
        else:
            lines = text.split("\n")
            if lines[0] != "s,x,y,z" or lines[-1] != "":
                return ["bad CSV header or trailer"]
            nrows = len(lines) - 2
            picked = {
                i: [float(v) for v in lines[i + 1].split(",")]
                for i in _pick_rows(nrows, rng)
            }
            problems = []
        problems += _check_grid(cmd, {i: row[0] for i, row in picked.items()}, nrows)
        return problems + _check_positions(cmd, picked)


def check_frenet(cmd, rc: int, text: str, rng: random.Random) -> list[str]:
    """Check the 12-column CSV of a ``frenet`` command."""
    if rc != 0:
        return [f"exit {rc}, expected 0"]
    lines = text.split("\n")
    if lines[0] != "s,t1,t2,t3,n1,n2,n3,b1,b2,b3,kappa,tau" or lines[-1] != "":
        return ["bad CSV header or trailer"]
    nrows = len(lines) - 2
    picked = {
        i: [float(v) for v in lines[i + 1].split(",")] for i in _pick_rows(nrows, rng)
    }
    problems = _check_grid(cmd, {i: row[0] for i, row in picked.items()}, nrows)
    with mp.workdps(DIGITS):
        traj = Trajectory(cmd.case)
        refs = {i: traj.frenet_row(row[0]) for i, row in picked.items()}
        for col in range(11):
            scale = _scale(*[ref[col] for ref in refs.values()])
            for i, row in picked.items():
                if not _close(row[col + 1], refs[i][col], scale):
                    problems.append(f"row {i} column {col + 1} off")
    return problems


def check_verify(cmd, rc: int, out: str, err: str) -> list[str]:
    """A compatible case must pass; an incompatible one must exit 2."""
    if not cmd.case.compatible:
        if rc == 2 and err.startswith("error: incompatible-ic"):
            return []
        return [f"exit {rc}, expected 2 with error: incompatible-ic"]
    report = dict(line.partition(" = ")[::2] for line in out.strip().splitlines())
    problems = []
    if rc != 0 or report.get("status") != "pass":
        failing = ", ".join(
            f"{k} = {report[k]}"
            for k in ("deviation", "residual", "curvature_spread", "helix_spread")
            if k in report and not float(report[k]) < float(report.get("tolerance", "1e-9"))
        )
        problems.append(f"exit {rc}, status {report.get('status')!r} ({failing})")
    if report.get("case") != expected_case(cmd.case):
        problems.append(f"case {report.get('case')!r}")
    with mp.workdps(DIGITS):
        traj = Trajectory(cmd.case)
        for key, ref in (("kappa", traj.kappa()), ("tau", traj.tau())):
            problems += _check_scalar(key, _number(report.get(key)), ref)
        if cmd.case.v[0] != 0.0:
            problems += _check_scalar("helix_r", _number(report.get("helix_r")), traj.helix()[0])
    return problems


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None
