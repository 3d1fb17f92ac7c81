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

The step runs as one loop generated per state dimension and unrolled over
the components.  It performs the textbook loop's floating-point operations
in the textbook order, so its states equal that loop's bit for bit, and it
calls the right-hand side exactly 4 times per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from galmag.errors import NonFiniteState
from galmag.frenet import curvature
from galmag.galilean import norm
from galmag.magnetic import ClosedFormCurve, helix_decomposition, magnetic_rhs, n_magnetic_rhs
from galmag.magnetic import lorentz_residual, n_magnetic_residual

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


def verify(
    curve: ClosedFormCurve, s_start: float, s_end: float, step: float = 1e-3
) -> dict[str, float]:
    """Metrics of the closed form against RK4 on [s_start, s_end], in report order.

    RK4 integrates the raw system of the curve's mode, fed only the field
    and the initial data, from s = 0 where those hold: forward up to s_end,
    and for s_start < 0 backward, as the negated system in u = -s, whose
    state at u is still (y, z, y', ...) of the curve at s = -u.  The metrics
    are ``deviation`` (largest RK4 position deviation on the window) and,
    over VERIFY_SAMPLES probes, ``residual`` (force equation),
    ``curvature_spread`` and for a helix ``helix_spread`` (distance to the
    axis minus the radius).  Raises NonFiniteState, with the curve's s, if
    the RK4 state overflows.
    """
    if not s_end > s_start:
        raise ValueError(f"s_end must exceed s_start, got [{s_start}, {s_end}]")
    field, ic = curve.field, curve.ic
    if curve.case.is_magnetic:
        rhs = partial(magnetic_rhs, field)
        initial = (ic.y0, ic.z0, ic.Y0, ic.Z0)
        residual = lorentz_residual
    else:
        rhs = partial(n_magnetic_rhs, field, ic.kappa0)
        initial = (ic.y0, ic.z0, ic.Y0, ic.Z0, ic.T0, ic.U0)
        residual = n_magnetic_residual

    deviation = 0.0
    if s_end > 0.0:
        sampled = integrate(rhs, initial, IntegratorConfig(0.0, s_end, step))
        if s_start > 0.0:
            inside = sampled.grid >= s_start
            sampled = SampledCurve(sampled.grid[inside], sampled.states[inside])
        deviation = max_deviation(curve, sampled)
    if s_start < 0.0:
        try:
            back = integrate(
                lambda state: tuple([-k for k in rhs(state)]),
                initial,
                IntegratorConfig(0.0, -s_start, step),
            )
        except NonFiniteState as exc:
            raise NonFiniteState(f"state became non-finite at s = {-exc.s}", -exc.s) from None
        inside = back.grid >= -s_end
        sampled = SampledCurve(-back.grid[inside], back.states[inside])
        deviation = max(deviation, max_deviation(curve, sampled))

    probes = np.linspace(s_start, s_end, VERIFY_SAMPLES)
    kappas = curvature(curve, probes)
    metrics = {
        "deviation": deviation,
        "residual": float(residual(curve, probes).max()),
        "curvature_spread": float(kappas.max() - kappas.min()),
    }
    if curve.case.is_helix:
        helix = helix_decomposition(curve)
        offsets = norm(curve.eval(probes) - helix.point(probes))
        metrics["helix_spread"] = float(np.abs(offsets - helix.r).max())
    return metrics
