"""Independent fixed-step RK4 oracle for the trajectory ODE systems.

Integrates the raw first-order systems (never the closed forms) so that
`max_deviation` against a ClosedFormCurve is a genuine cross-check: the
two sides share no code path beyond the right-hand side definition.

`verify` is the one cross-check of a solved curve (CLI, scripts and
acceptance tests alike): it integrates the raw system of the curve's mode
from the initial data at s = 0 and measures the closed form against it.

Classic fixed-step RK4 is deliberate: every right-hand side here is
linear with constant coefficients, so adaptive stepping would add code
without value, and a fixed step makes the O(step**4) convergence check
meaningful.

Each system is data, one row per state component, as `magnetic_system`
and `n_magnetic_system` state it: (a, k, c) is a*x[k] + c and (c,) the
constant c.  The step runs as one loop generated per shape of the rows,
with their operations written inline and unrolled over the components.  It
performs the textbook loop's floating-point operations in the textbook
order, so its states equal that loop's bit for bit.  The loop runs in
chunks of _RK4_CHUNK grid rows, each resumed from the state and
compensations the last one handed back and written into one reused buffer.
`verify` folds each chunk into the deviation as it comes, so its memory is
constant however long the window; `integrate` copies the chunks into the
whole window's states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from galmag.errors import NonFiniteState
from galmag.frenet import curvature
from galmag.galilean import norm
from galmag.magnetic import ClosedFormCurve, MagneticIC, helix_decomposition, lorentz_residual
from galmag.magnetic import magnetic_system, n_magnetic_residual, n_magnetic_system

__all__ = ["IntegratorConfig", "SampledCurve", "grid_points", "integrate", "max_deviation",
           "verify"]

_MAX_STEPS = 10**8
VERIFY_SAMPLES = 1000


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window and fixed step size."""

    s_start: float
    s_end: float
    step: float = 1e-3

    def __post_init__(self) -> None:
        # an infinite step would make a grid of nan and no step at all
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (self.s_end > self.s_start):
            raise ValueError(
                f"s_end must exceed s_start, got [{self.s_start}, {self.s_end}]"
            )
        if (self.s_end - self.s_start) / self.step > _MAX_STEPS:
            raise ValueError(
                f"window/step = {(self.s_end - self.s_start) / self.step:.3g} "
                f"exceeds the {_MAX_STEPS:.0e} step guard"
            )


@dataclass(frozen=True)
class SampledCurve:
    """Discrete trajectory: parameter grid and aligned state vectors."""

    grid: np.ndarray
    states: np.ndarray


def _grid_size(cfg: IntegratorConfig) -> tuple[int, int]:
    """(n, rows): grid_points(cfg) is the `rows` points s_start + i*step for
    i = 0..n, then s_end if they miss it."""
    n = int((cfg.s_end - cfg.s_start) / cfg.step)
    while n > 0 and cfg.s_start + n * cfg.step > cfg.s_end:
        n -= 1
    return n, n + 1 + (cfg.s_start + n * cfg.step < cfg.s_end)


def _grid_rows(cfg: IntegratorConfig, n: int, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1 of grid_points(cfg), whose last uniform point is n."""
    points = cfg.s_start + np.arange(lo, min(hi, n + 1)) * cfg.step
    return np.append(points, cfg.s_end) if hi > n + 1 else points


def grid_points(cfg: IntegratorConfig) -> np.ndarray:
    """Points s_start + i*step, then s_end if they miss it (a shorter last step)."""
    n, rows = _grid_size(cfg)
    return _grid_rows(cfg, n, 0, rows)


# steps the kernel collects in a list before it writes them into its buffer
_BLOCK = 1024
# grid rows max_deviation compares at once: bounds its temporaries
_CHUNK = 4096
# grid rows per RK4 chunk: bounds the states verify holds, 128 KB per state
# component.  Each chunk's comparison with the closed form starts on cold
# caches, which made verify 3 % slower with chunks of 4096 rows.
_RK4_CHUNK = 16384


def _row_sources(system: Sequence[tuple], m: int) -> tuple[tuple[str, ...], list]:
    """Each row's expression for `_rk4_kernel`, in its cheapest exact form, and the constants.

    (c,) reads c alone, and (a, k, c) the bare x[k] for a = 1.0 and c = -0.0,
    (a * x[k]) for c = -0.0 and (a * x[k] + c) otherwise: x + (-0.0) is x.
    """
    if len(system) != m or any(row[1] not in range(m) for row in system if len(row) == 3):
        raise ValueError(f"a {m}-dim state needs {m} rows, each reading x[0] to x[{m - 1}]")
    consts: list = []

    def name(value) -> str:
        consts.append(float(value))
        return f"q{len(consts) - 1}"

    def source(a, k, c) -> str:
        x = f"{{x[{k}]}}"
        if c == 0.0 and math.copysign(1.0, c) < 0.0:
            return x if a == 1.0 else f"({name(a)} * {x})"
        return f"({name(a)} * {x} + {name(c)})"

    return tuple(name(*row) if len(row) == 1 else source(*row) for row in system), consts


@lru_cache(maxsize=256)
def _rk4_kernel(exprs: tuple[str, ...], n_consts: int):
    """RK4 loop over a grid with the rows' expressions written inline.

    Each component takes the textbook loop's operations in their order

        k2 = rhs(st + half*k1),  k3 = rhs(st + half*k2),  k4 = rhs(st + h*k3)
        inc = h*sixth*(k1 + 2*(k2 + k3) + k4) - comp
        t = st + inc;  comp = (t - st) - inc;  st = t

    so the states match that loop bit for bit; only the RHS calls, the stage
    tuples and copies, and the stage components no expression reads are gone.
    Each stage reads its own points (x, pb, pc, pd) and every increment is
    taken before any state moves, so a derivative that is a bare state read
    names that point.  A component that reads no state has its stages taken
    before the loop, and its pb serves as its equal pc.  The constants are
    bound to q0, q1, ... from the list `consts`, so no value passes through
    source text.  `run` resumes from the state `st` at grid[0] with the Kahan
    compensations `comp`, writes the states at grid[1:] block by block into
    the flat float64 array `out` and returns the last state and compensations,
    from which the next grid resumes.  It runs no overflow check: under
    + - * a non-finite component stays so, and `_rk4_chunks` checks each
    chunk's last state.
    """
    m = len(exprs)
    x = [f"x{j}" for j in range(m)]
    free = [j for j in range(m) if "{x[" not in exprs[j]]
    read = [j for j in range(m) if any(f"{{x[{j}]}}" in e for e in exprs)]
    bare = {f"{{x[{j}]}}": j for j in range(m)}
    pts = {"a": x, "b": [f"pb{j}" for j in range(m)], "d": [f"pd{j}" for j in range(m)],
           "c": [f"pb{j}" if j in free else f"pc{j}" for j in range(m)]}
    # each component's derivative at each stage, named f{j} where it reads no state
    ks = {s: [f"f{j}" if j in free else pts[s][bare[e]] if e in bare else f"{s}{j}"
              for j, e in enumerate(exprs)] for s in "abcd"}

    def stage(s):
        return [f"            {s}{j} = {e.format(x=pts[s])}"
                for j, e in enumerate(exprs) if ks[s][j] == f"{s}{j}"]

    def point(s, scale, prev):
        return [f"            {pts[s][j]} = x{j} + {scale} * {ks[prev][j]}"
                for j in read if s != "c" or j not in free]

    weights = [f"w{j}" if j in free else "({} + 2.0 * ({} + {}) + {})".format(
        *(ks[s][j] for s in "abcd")) for j in range(m)]
    row = f"({''.join(f'{name}, ' for name in x)})"
    comp = f"({''.join(f'e{j}, ' for j in range(m))})"
    lines = [
        "def run(grid, st, comp, consts, out):",
        f"    [{', '.join(f'q{i}' for i in range(n_consts))}] = consts",
        f"    [{', '.join(x)}] = st",
        f"    [{', '.join(f'e{j}' for j in range(m))}] = comp",
        *(f"    f{j} = {exprs[j]}" for j in free),
        *(f"    w{j} = f{j} + 2.0 * (f{j} + f{j}) + f{j}" for j in free),
        "    sixth = 1.0 / 6.0",
        "    block = []",
        "    extend = block.extend",
        "    s_prev = float(grid[0])",
        f"    for start in range(1, len(grid), {_BLOCK}):",
        f"        stop = min(start + {_BLOCK}, len(grid))",
        "        for s_next in grid[start:stop].tolist():",
        "            h = s_next - s_prev",
        "            half = 0.5 * h",
        "            h6 = h * sixth",
        *stage("a"), *point("b", "half", "a"), *stage("b"), *point("c", "half", "b"),
        *stage("c"), *point("d", "h", "c"), *stage("d"),
        *(f"            i{j} = h6 * {w} - e{j}" for j, w in enumerate(weights)),
        *(line for j in range(m) for line in (f"            t{j} = x{j} + i{j}",
                                              f"            e{j} = (t{j} - x{j}) - i{j}",
                                              f"            x{j} = t{j}")),
        f"            extend({row})",
        "            s_prev = s_next",
        f"        out[{m} * (start - 1):{m} * (stop - 1)] = block",
        "        block.clear()",
        f"    return {row}, {comp}",
    ]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["run"]


def integrate(system: Sequence[tuple], initial: Sequence[float],
              cfg: IntegratorConfig) -> SampledCurve:
    """Classic 4th-order Runge-Kutta with fixed step.

    Parameters
    ----------
    system : sequence of rows
        Derivative of an autonomous system, one row per state component:
        (a, k, c) is a*x[k] + c and (c,) the constant c, as
        `magnetic_system` and `n_magnetic_system` state them.
    initial : sequence of float
        State at cfg.s_start.
    cfg : IntegratorConfig
        Window and step; the final grid point is exactly cfg.s_end.

    Returns
    -------
    SampledCurve
        States at every grid point, including the initial one, as (n, m)
        float64 rows.

    Raises
    ------
    ValueError
        If the system has not one row per state component, or a row reads
        outside the state.
    NonFiniteState
        If the state leaves the finite range during integration.
    """
    grid = grid_points(cfg)
    states = np.empty((len(grid), len(initial)))
    row = 0
    for chunk in _rk4_chunks(system, initial, cfg):
        states[row:row + len(chunk.grid)] = chunk.states
        row += len(chunk.grid)
    return SampledCurve(grid=grid, states=states)


def _rk4_chunks(system: Sequence[tuple], initial: Sequence[float], cfg: IntegratorConfig,
                sign: float = 1.0) -> Iterator[SampledCurve]:
    """`integrate`'s RK4, yielded in order as chunks of at most _RK4_CHUNK rows.

    With sign -1.0 it steps on the negated grid s = -u of cfg's grid of u,
    from s = -cfg.s_start down to s = -cfg.s_end, and yields that grid.
    Each chunk's states are a view of one buffer that the next chunk
    overwrites, and its grid is computed on its own, so the loop holds no
    array whose size grows with the window.  Raises as `integrate` does,
    with the s of the grid it steps on.
    """
    state = tuple([float(w) for w in initial])
    m = len(state)
    exprs, consts = _row_sources(system, m)
    run = _rk4_kernel(exprs, len(consts))
    n, rows = _grid_size(cfg)
    # Kahan-compensated state updates: over ~1e5 steps the plain additions
    # accumulate enough rounding to mask the O(step**4) truncation error
    # that the convergence check measures.  The step h is taken from the
    # grid at every step: the spacing differs in the last bits.
    comp = (0.0,) * m
    buf = np.empty(min(rows, _RK4_CHUNK) * m)
    buf[:m] = state
    for lo in range(0, rows, _RK4_CHUNK):
        hi = min(lo + _RK4_CHUNK, rows)
        # the first chunk's first row is the initial state; a later chunk's
        # grid starts one row early, at the point of the state it resumes from
        head = int(lo == 0)
        grid = _grid_rows(cfg, n, lo - 1 + head, hi)
        if sign < 0.0:
            grid = -grid
        state, comp = run(grid, state, comp, consts, buf[m * head:])
        # under + - * a non-finite component stays so: the last state tells
        if not all(map(math.isfinite, state)):
            finite = np.isfinite(buf[m * head:m * (hi - lo)])
            s = float(grid[int(finite.argmin()) // m + 1])
            raise NonFiniteState(f"state became non-finite at s = {s}", s)
        yield SampledCurve(grid[1 - head:], buf[:m * (hi - lo)].reshape(hi - lo, m))


def max_deviation(closed: ClosedFormCurve, sampled: SampledCurve) -> float:
    """Chebyshev distance between a closed form's positions and a sampled trajectory's.

    Parameters
    ----------
    closed : ClosedFormCurve
        Analytic reference, evaluated at every grid point of the sample.
    sampled : SampledCurve
        States whose first two columns are the positions (y, z), as in
        RK4's (y, z, y', z') or (y, z, y', z', y'', z''); any further
        columns are not compared.

    Returns
    -------
    float
        Maximum absolute difference of y and z over all grid points; nan if
        any compared value is nan.
    """
    grid, states = sampled.grid, sampled.states
    devs = [np.abs(states[i:i + _CHUNK, :2] - closed.eval(grid[i:i + _CHUNK])[:, 1:]).max()
            for i in range(0, len(grid), _CHUNK)]
    # numpy's max, unlike Python's, passes on a nan in any position
    return float(np.max(devs))


def verify(
    curve: ClosedFormCurve, s_start: float, s_end: float, step: float = 1e-3
) -> dict[str, float]:
    """Metrics of the closed form against RK4 on [s_start, s_end], in report order.

    RK4 integrates the raw system of the curve's mode, fed only the field
    and the initial data, from s = 0 where those hold: forward up to s_end,
    and for s_start < 0 backward, stepping from 0 down to s_start.  The metrics
    are ``deviation`` (largest RK4 position deviation on the window) and,
    over VERIFY_SAMPLES probes, ``residual`` (force equation),
    ``curvature_spread`` and for a helix ``helix_spread`` (distance to the
    axis minus the radius).  Raises NonFiniteState, with the curve's s, if
    the RK4 state overflows.  RK4 runs chunk by chunk and each chunk's
    deviation is folded in as it comes, so no array grows with the window:
    the memory verify needs is constant.
    """
    if not s_end > s_start:
        raise ValueError(f"s_end must exceed s_start, got [{s_start}, {s_end}]")
    field, ic = curve.field, curve.ic
    if isinstance(ic, MagneticIC):
        system = magnetic_system(field)
        initial = (ic.y0, ic.z0, ic.Y0, ic.Z0)
        residual = lorentz_residual
    else:
        system = n_magnetic_system(field)
        initial = (ic.y0, ic.z0, ic.Y0, ic.Z0, ic.T0, ic.U0)
        residual = n_magnetic_residual

    deviation = 0.0
    # forward over u = s in [0, s_end], backward over u = -s in [0, -s_start];
    # the rows with u >= u_first lie in the window
    for sign, u_end, u_first in ((1.0, s_end, s_start), (-1.0, -s_start, -s_end)):
        if u_end > 0.0:
            for chunk in _rk4_chunks(system, initial, IntegratorConfig(0.0, u_end, step), sign):
                # u ascends, so the rows before the window lead each chunk
                first = int(np.searchsorted(sign * chunk.grid, u_first))
                if first < len(chunk.grid):
                    sampled = SampledCurve(chunk.grid[first:], chunk.states[first:])
                    # numpy's maximum, unlike Python's max, passes on a nan
                    deviation = np.maximum(deviation, max_deviation(curve, sampled))

    probes = np.linspace(s_start, s_end, VERIFY_SAMPLES)
    kappas = curvature(curve, probes)
    metrics = {
        "deviation": float(deviation),
        "residual": float(residual(curve, probes).max()),
        "curvature_spread": float(kappas.max() - kappas.min()),
    }
    if curve.case.is_helix:
        helix = helix_decomposition(curve)
        offsets = norm(curve.eval(probes) - helix.point(probes))
        metrics["helix_spread"] = float(np.abs(offsets - helix.r).max())
    return metrics
