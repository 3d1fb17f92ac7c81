"""Independent fixed-step RK4 oracle for the trajectory ODE systems.

Integrates the raw first-order systems (never the closed forms) so that
`max_deviation` against a ClosedFormCurve is a genuine cross-check: the
two sides share no code path beyond the right-hand side definition.

Classic fixed-step RK4 is deliberate: every right-hand side here is
linear with constant coefficients, so adaptive stepping would add code
without value, and a fixed step makes the O(step**4) convergence check
meaningful.

The step runs as one loop generated per state dimension and unrolled over
the components.  It performs the textbook loop's floating-point operations
in the textbook order, so its states equal that loop's bit for bit, and it
calls the right-hand side exactly 4 times per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from galmag.errors import NonFiniteState
from galmag.magnetic import ClosedFormCurve

__all__ = ["IntegratorConfig", "SampledCurve", "grid_points", "integrate", "max_deviation"]

_MAX_STEPS = 10**8


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window and fixed step size."""

    s_start: float
    s_end: float
    step: float = 1e-3

    def __post_init__(self) -> None:
        if not (self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
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

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def grid_points(cfg: IntegratorConfig) -> np.ndarray:
    """Points s_start + i*step, then s_end if they miss it (a shorter last step)."""
    n = int((cfg.s_end - cfg.s_start) / cfg.step)
    while n > 0 and cfg.s_start + n * cfg.step > cfg.s_end:
        n -= 1
    grid = cfg.s_start + np.arange(n + 1) * cfg.step
    if grid[-1] < cfg.s_end:
        grid = np.append(grid, cfg.s_end)
    return grid


def _tuple_src(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


@lru_cache(maxsize=None)
def _rk4_kernel(m: int):
    """RK4 loop over a grid for an m-dim state, unrolled over the components.

    Each component takes exactly the operations of the textbook loop

        k2 = rhs(st + half*k1),  k3 = rhs(st + half*k2),  k4 = rhs(st + h*k3)
        inc = h*sixth*(k1 + 2*(k2 + k3) + k4) - comp
        t = st + inc;  comp = (t - st) - inc;  st = t

    in the same order, so the states match that loop bit for bit; only the
    per-component Python loops and the tuple builders are gone.  The source
    is generated once per dimension, as dataclasses generates __init__.
    """
    x = [f"x{j}" for j in range(m)]

    def unpack(letter):
        return "[" + ", ".join(f"{letter}{j}" for j in range(m)) + "]"

    def stage(scale, letter):
        return _tuple_src(f"x{j} + {scale} * {letter}{j}" for j in range(m))

    lines = [
        "def run(rhs, grid, st):",
        "    isfinite = math.isfinite",
        f"    {unpack('x')} = st",
        *(f"    e{j} = 0.0" for j in range(m)),
        "    sixth = 1.0 / 6.0",
        "    states = [st]",
        "    append = states.append",
        "    points = iter(grid)",
        "    s_prev = next(points)",
        "    for s_next in points:",
        "        h = s_next - s_prev",
        "        half = 0.5 * h",
        "        h6 = h * sixth",
        f"        {unpack('a')} = rhs(st)",
        f"        {unpack('b')} = rhs({stage('half', 'a')})",
        f"        {unpack('c')} = rhs({stage('half', 'b')})",
        f"        {unpack('d')} = rhs({stage('h', 'c')})",
    ]
    for j in range(m):
        lines += [
            f"        i{j} = h6 * (a{j} + 2.0 * (b{j} + c{j}) + d{j}) - e{j}",
            f"        t{j} = x{j} + i{j}",
            f"        e{j} = (t{j} - x{j}) - i{j}",
            f"        x{j} = t{j}",
        ]
    lines += [
        f"        st = {_tuple_src(x)}",
        # a finite sum proves every component finite; otherwise look closer
        f"        if not isfinite({' + '.join(x) or '0.0'}) and not all(map(isfinite, st)):",
        "            raise NonFiniteState(f'state became non-finite at s = {s_next}', s_next)",
        "        append(st)",
        "        s_prev = s_next",
        "    return states",
    ]
    namespace = {"math": math, "NonFiniteState": NonFiniteState}
    exec("\n".join(lines), namespace)
    return namespace["run"]


def integrate(
    rhs: Callable[[tuple], tuple],
    initial: Sequence[float],
    cfg: IntegratorConfig,
) -> SampledCurve:
    """Classic 4th-order Runge-Kutta with fixed step.

    Parameters
    ----------
    rhs : callable
        State derivative function; called as rhs(state) with a tuple and
        expected to return a sequence of the same length (the systems here
        are autonomous).  It is called once to check that length, then
        exactly 4 times per step.
    initial : sequence of float
        State at cfg.s_start.
    cfg : IntegratorConfig
        Window and step; the final grid point is exactly cfg.s_end.

    Returns
    -------
    SampledCurve
        States at every grid point, including the initial one.

    Raises
    ------
    NonFiniteState
        If the state leaves the finite range during integration.
    """
    state = tuple([float(w) for w in initial])
    m = len(state)
    deriv = rhs(state)
    if len(deriv) != m:
        raise ValueError(f"rhs returns {len(deriv)} components for a {m}-dim state")

    grid = grid_points(cfg)
    # Kahan-compensated state updates: over ~1e5 steps the plain additions
    # accumulate enough rounding to mask the O(step**4) truncation error
    # that the convergence check measures.  The step h is taken from the
    # grid at every step: the spacing differs in the last bits.
    states = _rk4_kernel(m)(rhs, grid.tolist(), state)
    flat = np.fromiter(chain.from_iterable(states), float, len(states) * m)
    return SampledCurve(grid=grid, states=flat.reshape(len(states), m))


def max_deviation(
    closed: ClosedFormCurve, sampled: SampledCurve, components: str = "position"
) -> float:
    """Chebyshev distance between a closed form and a sampled trajectory.

    Parameters
    ----------
    closed : ClosedFormCurve
        Analytic reference, evaluated at every grid point of the sample.
    sampled : SampledCurve
        Integrator output with state layout (y, z, y', z') or
        (y, z, y', z', y'', z'').
    components : {"position", "full"}
        Compare positions only (default) or every state component against
        the matching analytic derivative.

    Returns
    -------
    float
        Maximum absolute difference over all grid points and compared
        components.
    """
    if components not in ("position", "full"):
        raise ValueError(f"components must be 'position' or 'full', got {components!r}")
    dim = sampled.dim
    if dim not in (4, 6):
        raise ValueError(f"state dimension must be 4 or 6, got {dim}")
    orders = (0,) if components == "position" else (0, 1) if dim == 4 else (0, 1, 2)
    worst = 0.0
    for order in orders:
        exact = closed.eval(sampled.grid, order)[:, 1:]
        dev = np.abs(sampled.states[:, 2 * order:2 * order + 2] - exact).max(axis=0)
        worst = max(worst, *dev.tolist())
    return worst
