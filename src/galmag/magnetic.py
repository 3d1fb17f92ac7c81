"""Closed-form charged-particle trajectories in Galilean 3-space.

A constant Killing field V = v1*dx + v2*dy + v3*dz acts on a unit-speed
admissible curve gamma(s) = (s, y(s), z(s)) through the Lorentz force
X -> V x X (Galilean cross product).  Two trajectory families are solved
in closed form:

* magnetic curves:    gamma'' = V x gamma'
* N-magnetic curves:  N' = V x N  for the principal normal N, under
                      constant curvature kappa0 = sqrt(T0**2 + U0**2)

Both reduce to linear constant-coefficient ODE systems in (y, z), so
every solution is a quadratic polynomial plus, when v1 != 0, a sinusoid
of angular frequency v1.  The v1 != 0 solutions are cylindrical helices:
a Euclidean circle of constant radius in the isotropic plane drifting
along an admissible straight line (`helix_decomposition` recovers the
radius and the axis).

B-magnetic curves (binormal in place of the normal) only get their ODE
right-hand side here; no closed-form solver is provided for them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from galmag.errors import IncompatibleIC, WrongCase, ZeroCurvature
from galmag.galilean import GVector3, _vector, cross, norm

__all__ = [
    "KillingField",
    "MagneticIC",
    "NMagneticIC",
    "CurveCase",
    "QuadSinusoid",
    "ClosedFormCurve",
    "HelixData",
    "lorentz_force",
    "magnetic_rhs",
    "n_magnetic_rhs",
    "n_magnetic_constraint",
    "b_magnetic_rhs",
    "b_magnetic_constraint",
    "solve_magnetic",
    "solve_n_magnetic",
    "helix_decomposition",
    "lorentz_residual",
    "n_magnetic_residual",
]

# Below this, 1/v1**2 amplifies the initial data by >= 1e24; the closed
# form is still exact but numerically treacherous.
_TINY_V1 = 1e-12


@dataclass(frozen=True)
class KillingField:
    """Constant coefficients of V = v1*dx + v2*dy + v3*dz."""

    v1: float
    v2: float
    v3: float

    @property
    def is_isotropic(self) -> bool:
        return self.v1 == 0.0

    def as_vector(self) -> GVector3:
        return GVector3(self.v1, self.v2, self.v3)


@dataclass(frozen=True)
class MagneticIC:
    """Position and slope data at s = 0: y(0)=y0, y'(0)=Y0, z(0)=z0, z'(0)=Z0."""

    y0: float
    Y0: float
    z0: float
    Z0: float


@dataclass(frozen=True)
class NMagneticIC:
    """Data at s = 0 up to second order: additionally y''(0)=T0, z''(0)=U0."""

    y0: float
    Y0: float
    T0: float
    z0: float
    Z0: float
    U0: float

    @property
    def kappa0(self) -> float:
        return math.hypot(self.T0, self.U0)


class CurveCase(Enum):
    """Classification tag of a closed-form solution."""

    MAGNETIC_PARABOLA = "magnetic-parabola"        # isotropic field
    MAGNETIC_HELIX = "magnetic-helix"              # non-isotropic field
    NMAGNETIC_FREE = "nmagnetic-free"              # V = 0
    NMAGNETIC_Z_FIELD = "nmagnetic-z-field"        # only v3 != 0
    NMAGNETIC_Y_FIELD = "nmagnetic-y-field"        # only v2 != 0
    NMAGNETIC_YZ_FIELD = "nmagnetic-yz-field"      # v1 = 0, v2*v3 != 0
    NMAGNETIC_HELIX = "nmagnetic-helix"            # non-isotropic field

    @property
    def is_helix(self) -> bool:
        return self in (CurveCase.MAGNETIC_HELIX, CurveCase.NMAGNETIC_HELIX)

    @property
    def is_magnetic(self) -> bool:
        return self in (CurveCase.MAGNETIC_PARABOLA, CurveCase.MAGNETIC_HELIX)


@dataclass(frozen=True)
class QuadSinusoid:
    """Scalar function c0 + c1*s + c2*s**2 + a_cos*cos(w*s) + a_sin*sin(w*s)."""

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    a_cos: float = 0.0
    a_sin: float = 0.0
    omega: float = 0.0

    def eval(self, s, order: int = 0):
        """Value of the function (order 0) or of its derivative (order 1..3).

        s is a float or a 1-D array; an array takes the same operations, so
        it matches the scalar results bit for bit (np.cos/np.sin round as math's).
        """
        if order == 0:
            val = self.c0 + s * (self.c1 + s * self.c2)
        elif order == 1:
            val = self.c1 + 2.0 * self.c2 * s
        elif order == 2:
            val = 2.0 * self.c2
        elif order == 3:
            val = 0.0
        else:
            raise ValueError(f"derivative order must be 0..3, got {order}")
        if self.omega != 0.0:
            w = self.omega
            cos, sin = (np.cos, np.sin) if isinstance(s, np.ndarray) else (math.cos, math.sin)
            c = cos(w * s)
            sn = sin(w * s)
            if order == 0:
                val += self.a_cos * c + self.a_sin * sn
            elif order == 1:
                val += w * (self.a_sin * c - self.a_cos * sn)
            elif order == 2:
                val -= w * w * (self.a_cos * c + self.a_sin * sn)
            else:
                val += w * w * w * (self.a_cos * sn - self.a_sin * c)
        if isinstance(s, np.ndarray) and not isinstance(val, np.ndarray):
            val = np.full(s.shape, val)
        return val


@dataclass(frozen=True)
class ClosedFormCurve:
    """Analytic solution curve gamma(s) = (s, y(s), z(s)).

    Evaluation is exact closed form at any parameter value, with hand-coded
    derivatives up to third order, so the curve can be verified on arbitrary
    intervals.  Instances are immutable and safe to share between threads.
    """

    case: CurveCase
    field: KillingField
    ic: Union[MagneticIC, NMagneticIC]
    y: QuadSinusoid
    z: QuadSinusoid

    def eval(self, s, order: int = 0):
        """gamma(s) and its derivatives; the x-component is s, 1, 0, 0.

        A float s gives a GVector3.  A 1-D array gives (n, 3) rows, each
        equal bit for bit to the GVector3 at that s.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0..3, got {order}")
        x1 = (s, 1.0, 0.0, 0.0)[order]
        return _vector(x1, self.y.eval(s, order), self.z.eval(s, order))

    @property
    def kappa0(self) -> float:
        """Curvature at s = 0; constant along every solution curve."""
        acc = self.eval(0.0, 2)
        return math.hypot(acc.x2, acc.x3)


@dataclass(frozen=True)
class HelixData:
    """Radius r and axis line s -> (s, a*s + b, c*s + d) of a cylindrical helix."""

    r: float
    a: float
    b: float
    c: float
    d: float

    def point(self, s):
        """Axis point at s; (n, 3) rows for an array s."""
        return _vector(s, self.a * s + self.b, self.c * s + self.d)


def lorentz_force(field: KillingField, x: GVector3) -> GVector3:
    """Force exerted by the field on a vector: V x X."""
    return cross(field.as_vector(), x)


def magnetic_rhs(field: KillingField, state) -> tuple[float, float, float, float]:
    """State derivative of the magnetic system for state (y, z, y', z').

    Expanding gamma'' = V x gamma' with gamma' = (1, y', z') gives
    y'' = v3 - v1*z' and z'' = v1*y' - v2; with v1 = 0 the accelerations
    are the constants (v3, -v2).
    """
    _y, _z, yd, zd = state
    if field.v1 == 0.0:
        return (yd, zd, field.v3, -field.v2)
    return (yd, zd, field.v3 - field.v1 * zd, field.v1 * yd - field.v2)


def n_magnetic_rhs(
    field: KillingField, kappa0: float, state
) -> tuple[float, float, float, float, float, float]:
    """State derivative of the N-magnetic system for (y, z, y', z', y'', z'').

    N' = V x N with N = (0, y'', z'')/kappa0 gives y''' = -v1*z'' and
    z''' = v1*y'' when v1 != 0, and y''' = z''' = 0 when v1 = 0 (the
    normalization by kappa0 cancels).  In the v1 = 0 case the force
    equation additionally requires v2*z'' - v3*y'' = 0, which is a pure
    initial-condition constraint; see `n_magnetic_constraint`.
    """
    if kappa0 <= 0.0:
        raise ValueError(f"kappa0 must be positive, got {kappa0}")
    _y, _z, yd, zd, ydd, zdd = state
    if field.v1 != 0.0:
        return (yd, zd, ydd, zdd, -field.v1 * zdd, field.v1 * ydd)
    return (yd, zd, ydd, zdd, 0.0, 0.0)


def n_magnetic_constraint(field: KillingField, state) -> float:
    """Compatibility value v2*z'' - v3*y'' (must vanish when v1 = 0)."""
    if field.v1 != 0.0:
        return 0.0
    return field.v2 * state[5] - field.v3 * state[4]


def b_magnetic_rhs(
    field: KillingField, kappa0: float, state
) -> tuple[float, float, float, float, float, float]:
    """State derivative of the B-magnetic system for (y, z, y', z', y'', z'').

    B' = V x B with B = (0, -z'', y'')/kappa0 yields the same third-order
    system as the N-magnetic case: y''' = -v1*z'', z''' = v1*y'' for
    v1 != 0 and y''' = z''' = 0 for v1 = 0.  Only the v1 = 0 compatibility
    constraint differs; see `b_magnetic_constraint`.
    """
    return n_magnetic_rhs(field, kappa0, state)


def b_magnetic_constraint(field: KillingField, state) -> float:
    """Compatibility value v2*y'' + v3*z'' (must vanish when v1 = 0)."""
    if field.v1 != 0.0:
        return 0.0
    return field.v2 * state[4] + field.v3 * state[5]


def _check_tiny_v1(v1: float) -> None:
    if v1 * v1 == 0.0:
        raise ValueError(f"|v1| = {abs(v1):.3e} is too small: v1**2 underflows to 0")


def _helix_curve(case, field, ic, y: QuadSinusoid, z: QuadSinusoid) -> ClosedFormCurve:
    # an overflowed coefficient would print nan/inf rows with exit 0
    coeffs = (y.c0, y.c1, y.a_cos, y.a_sin, z.c0, z.c1, z.a_cos, z.a_sin)
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"helix coefficients overflow for v1 = {field.v1!r}")
    # only a curve that is returned warns, so a rejected one gets its error alone
    if abs(field.v1) < _TINY_V1:
        warnings.warn(
            f"|v1| = {abs(field.v1):.3e} is below {_TINY_V1:g}; the helix radius "
            "scales like 1/v1**2 and the solution coefficients may overflow "
            "or lose all precision",
            RuntimeWarning,
            stacklevel=3,
        )
    return ClosedFormCurve(case, field, ic, y, z)


def solve_magnetic(field: KillingField, ic: MagneticIC) -> ClosedFormCurve:
    """Solve gamma'' = V x gamma' for the given initial data.

    Parameters
    ----------
    field : KillingField
        Constant field coefficients (v1, v2, v3).
    ic : MagneticIC
        Position and slope data at s = 0.

    Returns
    -------
    ClosedFormCurve
        For isotropic fields (v1 = 0) the parabola

            y = (v3/2) s**2 + Y0 s + y0,   z = -(v2/2) s**2 + Z0 s + z0;

        otherwise the cylindrical helix with oscillation amplitudes
        A = (Z0 - v3/v1)/v1 and B = (Y0 - v2/v1)/v1, angular frequency v1
        and drift slopes (v2/v1, v3/v1).

    Raises
    ------
    ValueError
        If v1**2 underflows to 0 or a helix coefficient overflows.
    """
    v1, v2, v3 = field.v1, field.v2, field.v3
    if v1 == 0.0:
        y = QuadSinusoid(c0=ic.y0, c1=ic.Y0, c2=0.5 * v3)
        z = QuadSinusoid(c0=ic.z0, c1=ic.Z0, c2=-0.5 * v2)
        return ClosedFormCurve(CurveCase.MAGNETIC_PARABOLA, field, ic, y, z)
    _check_tiny_v1(v1)
    a = (ic.Z0 - v3 / v1) / v1
    b = (ic.Y0 - v2 / v1) / v1
    y = QuadSinusoid(c0=ic.y0 - a, c1=v2 / v1, a_cos=a, a_sin=b, omega=v1)
    z = QuadSinusoid(c0=ic.z0 + b, c1=v3 / v1, a_cos=-b, a_sin=a, omega=v1)
    return _helix_curve(CurveCase.MAGNETIC_HELIX, field, ic, y, z)


def solve_n_magnetic(
    field: KillingField, ic: NMagneticIC, constraint_rtol: float = 1e-12
) -> ClosedFormCurve:
    """Solve N' = V x N for a curve of constant curvature kappa0.

    Parameters
    ----------
    field : KillingField
        Constant field coefficients (v1, v2, v3).
    ic : NMagneticIC
        Initial data up to second order; kappa0 = sqrt(T0**2 + U0**2) is
        derived from them and must be nonzero.
    constraint_rtol : float
        Relative tolerance of the v1 = 0 compatibility check
        |v2*U0 - v3*T0| <= constraint_rtol * (1 + |v2*U0| + |v3*T0|).

    Returns
    -------
    ClosedFormCurve
        For v1 = 0 the quadratic curve

            y = (T0/2) s**2 + Y0 s + y0,   z = (U0/2) s**2 + Z0 s + z0,

        accepted only if the compatibility constraint holds (it forces
        T0 = 0 when only v3 acts, U0 = 0 when only v2 acts, and
        v2*U0 = v3*T0 when both act).  For v1 != 0 the cylindrical helix
        with amplitudes -T0/v1**2, U0/v1**2 (y) and -U0/v1**2, -T0/v1**2
        (z), frequency v1 and drift slopes (Y0 - U0/v1, Z0 + T0/v1).

    Raises
    ------
    ZeroCurvature
        If T0 = U0 = 0.
    IncompatibleIC
        If v1 = 0 and the compatibility constraint is violated.
    ValueError
        If kappa0 overflows, v1**2 underflows to 0 or a helix coefficient
        overflows.
    """
    v1, v2, v3 = field.v1, field.v2, field.v3
    if ic.T0 == 0.0 and ic.U0 == 0.0:
        raise ZeroCurvature("T0 = U0 = 0: constant curvature would vanish")
    if not math.isfinite(ic.kappa0):
        raise ValueError(f"kappa0 = hypot(T0, U0) overflows for T0 = {ic.T0!r}, U0 = {ic.U0!r}")
    if v1 != 0.0:
        _check_tiny_v1(v1)
        v1sq = v1 * v1
        y = QuadSinusoid(
            c0=ic.y0 + ic.T0 / v1sq,
            c1=ic.Y0 - ic.U0 / v1,
            a_cos=-ic.T0 / v1sq,
            a_sin=ic.U0 / v1sq,
            omega=v1,
        )
        z = QuadSinusoid(
            c0=ic.z0 + ic.U0 / v1sq,
            c1=ic.Z0 + ic.T0 / v1,
            a_cos=-ic.U0 / v1sq,
            a_sin=-ic.T0 / v1sq,
            omega=v1,
        )
        return _helix_curve(CurveCase.NMAGNETIC_HELIX, field, ic, y, z)

    constraint = v2 * ic.U0 - v3 * ic.T0
    scale = 1.0 + abs(v2 * ic.U0) + abs(v3 * ic.T0)
    if abs(constraint) > constraint_rtol * scale:
        raise IncompatibleIC(
            f"v2*U0 - v3*T0 = {constraint:g} != 0: the initial accelerations "
            "are incompatible with the force equation for this field"
        )
    if v2 == 0.0 and v3 == 0.0:
        case = CurveCase.NMAGNETIC_FREE
    elif v2 == 0.0:
        case = CurveCase.NMAGNETIC_Z_FIELD
    elif v3 == 0.0:
        case = CurveCase.NMAGNETIC_Y_FIELD
    else:
        case = CurveCase.NMAGNETIC_YZ_FIELD
    y = QuadSinusoid(c0=ic.y0, c1=ic.Y0, c2=0.5 * ic.T0)
    z = QuadSinusoid(c0=ic.z0, c1=ic.Z0, c2=0.5 * ic.U0)
    return ClosedFormCurve(case, field, ic, y, z)


def helix_decomposition(curve: ClosedFormCurve) -> HelixData:
    """Radius and axis line of a helix-case solution.

    The difference gamma(s) - l(s) between the curve and its axis is the
    pure oscillatory part, an isotropic vector of constant Galilean norm r,
    so the radius is the amplitude of the oscillation and the axis is the
    polynomial part of the solution.

    Raises
    ------
    WrongCase
        If the curve is not a helix-case solution.
    """
    if not curve.case.is_helix:
        raise WrongCase(f"curve case {curve.case.value!r} is not a helix")
    r = math.hypot(curve.y.a_cos, curve.y.a_sin)
    return HelixData(r=r, a=curve.y.c1, b=curve.y.c0, c=curve.z.c1, d=curve.z.c0)


def lorentz_residual(curve: ClosedFormCurve, s):
    """Galilean norm of gamma''(s) - V x gamma'(s); an array for an array s."""
    acc = curve.eval(s, 2)
    force = lorentz_force(curve.field, curve.eval(s, 1))
    return norm(acc - force)


def n_magnetic_residual(curve: ClosedFormCurve, s):
    """Galilean norm of N'(s) - V x N(s) for the unit normal N.

    s may be a 1-D array, which gives an array of norms.

    Raises ZeroCurvature when the curve's constant curvature vanishes.
    """
    kappa0 = curve.kappa0
    if kappa0 == 0.0:
        raise ZeroCurvature("normal vector undefined: curvature is zero")
    acc = curve.eval(s, 2)
    jerk = curve.eval(s, 3)
    n_vec = acc * (1.0 / kappa0)
    n_prime = jerk * (1.0 / kappa0)
    return norm(n_prime - lorentz_force(curve.field, n_vec))
