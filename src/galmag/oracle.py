"""Independent fixed-step RK4 oracle for the trajectory ODE systems.

Integrates the raw first-order systems (never the closed forms) so that
`max_deviation` against a ClosedFormCurve is a genuine cross-check: the
two sides share no code path beyond the right-hand side definition.

Classic fixed-step RK4 is deliberate: every right-hand side here is
linear with constant coefficients, so adaptive stepping would add code
without value, and a fixed step makes the O(step**4) convergence check
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        expected to return a tuple of the same length (the systems here
        are autonomous).
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
    state = [float(w) for w in initial]
    m = len(state)
    deriv = rhs(tuple(state))
    if len(deriv) != m:
        raise ValueError(f"rhs returns {len(deriv)} components for a {m}-dim state")

    grid = grid_points(cfg).tolist()
    states = [tuple(state)]
    # Kahan-compensated state updates: over ~1e5 steps the plain additions
    # accumulate enough rounding to mask the O(step**4) truncation error
    # that the convergence check measures.
    comp = [0.0] * m
    sixth = 1.0 / 6.0
    s_prev = grid[0]
    for s_next in grid[1:]:
        h = s_next - s_prev
        half = 0.5 * h
        st = tuple(state)
        k1 = rhs(st)
        k2 = rhs(tuple(w + half * k for w, k in zip(st, k1)))
        k3 = rhs(tuple(w + half * k for w, k in zip(st, k2)))
        k4 = rhs(tuple(w + h * k for w, k in zip(st, k3)))
        for j in range(m):
            inc = h * sixth * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]) - comp[j]
            t = state[j] + inc
            comp[j] = (t - state[j]) - inc
            state[j] = t
        total = 0.0
        for w in state:
            total += w
        if not math.isfinite(total) and any(not math.isfinite(w) for w in state):
            raise NonFiniteState(f"state became non-finite at s = {s_next}")
        states.append(tuple(state))
        s_prev = s_next
    return SampledCurve(grid=np.asarray(grid), states=np.asarray(states))


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
