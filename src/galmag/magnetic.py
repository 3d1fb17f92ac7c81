"""Closed-form charged-particle trajectories in Galilean 3-space.

A constant Killing field V = v1*dx + v2*dy + v3*dz acts on a unit-speed
admissible curve gamma(s) = (s, y(s), z(s)) through the Lorentz force
X -> V x X (Galilean cross product).  Two trajectory families are solved
in closed form:

* magnetic curves:    gamma'' = V x gamma'
* N-magnetic curves:  N' = V x N  for the principal normal N, under
                      constant curvature kappa0 = sqrt(T0**2 + U0**2)

Both reduce to linear constant-coefficient ODE systems in (y, z).  With
P = y + i*z, w = v1 and the phi-functions phi1(x) = (e^x - 1)/x and
phi2(x) = (e^x - 1 - x)/x**2 of exponential integrators, one formula
serves every v1, with the initial data and the field as its coefficients:

    magnetic:    P(s) = P(0) + P'(0)*s*phi1(iws) + (v3 - i*v2)*s**2*phi2(iws)
    N-magnetic:  P(s) = P(0) + P'(0)*s + P''(0)*s**2*phi2(iws)

At v1 = 0 this is a quadratic polynomial, otherwise a cylindrical helix:
a Euclidean circle of radius kappa0/v1**2 in the isotropic plane drifting
along an admissible straight line (`helix_decomposition`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from galmag.errors import IncompatibleIC, WrongCase, ZeroCurvature
from galmag.galilean import GVector3, _pointwise, _vector, cross, norm

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
    "solve_magnetic",
    "solve_n_magnetic",
    "helix_decomposition",
    "lorentz_residual",
    "n_magnetic_residual",
]

# (x - sin x)/x**3 in powers of x**2: 8 terms are exact to rounding for |x| < 0.5
_S2_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))
# relative tolerance of the N-magnetic v1 = 0 compatibility check
_CONSTRAINT_RTOL = 1e-12


@dataclass(frozen=True)
class KillingField:
    """Constant coefficients of V = v1*dx + v2*dy + v3*dz."""

    v1: float
    v2: float
    v3: float

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


def _x_minus_sin_over_x2(x):
    """(x - sin x)/x**2, by its Taylor series where |x| < 0.5 (the difference cancels)."""
    out, small = np.empty_like(x), np.abs(x) < 0.5
    out[small], big = _series(x[small]), x[~small]
    out[~small] = (big - np.sin(big)) / big / big
    return out


def _series(x):
    x2 = x * x  # Horner's rule, in place
    acc = x2 * _S2_SERIES[-1]
    for coeff in _S2_SERIES[-2:0:-1]:
        acc += coeff
        acc *= x2
    return (acc + _S2_SERIES[0]) * x


def _basis(omega: float, s: np.ndarray, order: int):
    """What the order-th derivative of a `QuadSinusoid` of frequency omega needs at the array s.

    With x = omega*s, sigma = sin(x/2)/(x/2), t = s*sigma and g = (x - sin x)/x**2:
    C1 = t*cos(x/2), S1 = t*sin(x/2), C2 = t**2/2 and S2 = s*(s*g).
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be 0..3, got {order}")
    x = omega * s
    if order >= 2:
        return np.cos(x), np.sin(x)
    half = 0.5 * x
    ch, sh = np.cos(half), np.sin(half)
    # sigma = 1 wherever half is 0, which includes every subnormal x
    sigma = np.divide(sh, half, out=np.ones_like(half), where=half != 0.0)
    t = s * sigma
    if order == 1:
        return 1.0 - 2.0 * sh * sh, 2.0 * sh * ch, t, ch, sh
    return sigma, ch, sh, t, s * _x_minus_sin_over_x2(x)


def _add_product(x: float, w: float, y: float) -> float:
    """x + w*y, formed at half scale where w*y alone overflows but the sum may not.

    Halving and doubling are exact away from underflow, and the half-scale
    form runs only where the direct sum is not finite.
    """
    total = x + w * y
    if math.isfinite(total):
        return total
    return 2.0 * (0.5 * x + (0.5 * w) * y)


@dataclass(frozen=True)
class QuadSinusoid:
    """Scalar function c0 + c1*s + p*C1 + q*S1 + u*C2 + v*S2 of frequency omega.

    C1 + i*S1 = s*phi1(i*x) and C2 + i*S2 = s**2*phi2(i*x) with x = omega*s
    (s, 0, s**2/2 and 0 at omega = 0).  As C1' = cos x, S1' = sin x, C2' = C1
    and S2' = S1, the second derivative is (u + omega*q)*cos x + (v - omega*p)*sin x.
    """

    c0: float = 0.0
    c1: float = 0.0
    p: float = 0.0
    q: float = 0.0
    u: float = 0.0
    v: float = 0.0
    omega: float = 0.0

    @_pointwise
    def eval(self, s, order: int = 0):
        """Value of the function (order 0) or of its derivative (order 1..3).

        A 1-D array s gives an array.  A float s gives a float: it is
        evaluated as a 1-row array, so it equals that row bit for bit.
        """
        return self._combine(_basis(self.omega, s, order), s, order)

    def _combine(self, basis, s, order: int):
        if order == 0:
            sigma, ch, sh, t, sg = basis
            return self.c0 + s * (
                self.c1 + sigma * (self.p * ch + self.q * sh + 0.5 * self.u * t) + self.v * sg
            )
        if order == 1:
            c, sn, t, ch, sh = basis
            return self.c1 + self.p * c + self.q * sn + t * (self.u * ch + self.v * sh)
        c, sn = basis
        a = _add_product(self.u, self.omega, self.q)
        b = _add_product(self.v, -self.omega, self.p)
        if order == 2:
            return a * c + b * sn
        return self.omega * (b * c - a * sn)


@dataclass(frozen=True)
class ClosedFormCurve:
    """Analytic solution curve gamma(s) = (s, y(s), z(s)).

    Evaluation is exact closed form at any parameter value, with hand-coded
    derivatives up to third order, so the curve can be verified on arbitrary
    intervals.  kappa0 is the curvature |gamma''(0)|, constant along every
    solution curve and taken once by the solver.  Instances are immutable and
    safe to share between threads.
    """

    case: CurveCase
    field: KillingField
    ic: Union[MagneticIC, NMagneticIC]
    y: QuadSinusoid
    z: QuadSinusoid
    kappa0: float

    @_pointwise
    def eval(self, s, order: int = 0):
        """gamma(s) and its derivatives; the x-component is s, 1, 0, 0.

        A 1-D array s gives (n, 3) rows.  A float s gives a GVector3: it is
        evaluated as a 1-row array, so it equals that row bit for bit.
        """
        basis = _basis(self.y.omega, s, order)
        x1 = (s, 1.0, 0.0, 0.0)[order]
        return _vector(x1, self.y._combine(basis, s, order), self.z._combine(basis, s, order))


@dataclass(frozen=True)
class HelixData:
    """Radius r and axis line s -> (s, a*s + b, c*s + d) of a cylindrical helix."""

    r: float
    a: float
    b: float
    c: float
    d: float

    @_pointwise
    def point(self, s):
        """Axis point at s: a GVector3, or (n, 3) rows for an array s."""
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


def n_magnetic_rhs(field: KillingField, state) -> tuple[float, float, float, float, float, float]:
    """State derivative of the N-magnetic system for (y, z, y', z', y'', z'').

    N' = V x N with N = (0, y'', z'')/kappa0 gives y''' = -v1*z'' and
    z''' = v1*y'' when v1 != 0, and y''' = z''' = 0 when v1 = 0 (the
    normalization by kappa0 cancels, so kappa0 is no argument).  In the
    v1 = 0 case the force equation additionally requires v2*z'' - v3*y'' = 0,
    a pure initial-condition constraint that `solve_n_magnetic` enforces.
    """
    _y, _z, yd, zd, ydd, zdd = state
    if field.v1 != 0.0:
        return (yd, zd, ydd, zdd, -field.v1 * zdd, field.v1 * ydd)
    return (yd, zd, ydd, zdd, 0.0, 0.0)


def _solution(case, field, ic, y: QuadSinusoid, z: QuadSinusoid) -> ClosedFormCurve:
    kappa0 = math.hypot(y.eval(0.0, 2), z.eval(0.0, 2))
    if not math.isfinite(kappa0):  # it would print inf/nan rows with exit 0
        raise ValueError(f"kappa0 = |gamma''(0)| overflows to {kappa0!r}")
    return ClosedFormCurve(case, field, ic, y, z, kappa0)


def solve_magnetic(field: KillingField, ic: MagneticIC) -> ClosedFormCurve:
    """Solve gamma'' = V x gamma' for the given initial data.

    Returns
    -------
    ClosedFormCurve
        Frequency v1 and QuadSinusoid coefficients (c0, c1, p, q, u, v)
        y = (y0, 0, Y0, -Z0, v3, v2) and z = (z0, 0, Z0, Y0, -v2, v3): for
        isotropic fields (v1 = 0) the parabola y = (v3/2) s**2 + Y0 s + y0,
        z = -(v2/2) s**2 + Z0 s + z0, otherwise the cylindrical helix of
        radius kappa0/v1**2 and drift slopes (v2/v1, v3/v1).

    Raises
    ------
    ValueError
        If the curvature |gamma''(0)| overflows.
    """
    v1, v2, v3 = field.v1, field.v2, field.v3
    case = CurveCase.MAGNETIC_PARABOLA if v1 == 0.0 else CurveCase.MAGNETIC_HELIX
    y = QuadSinusoid(c0=ic.y0, p=ic.Y0, q=-ic.Z0, u=v3, v=v2, omega=v1)
    z = QuadSinusoid(c0=ic.z0, p=ic.Z0, q=ic.Y0, u=-v2, v=v3, omega=v1)
    return _solution(case, field, ic, y, z)


def solve_n_magnetic(field: KillingField, ic: NMagneticIC) -> ClosedFormCurve:
    """Solve N' = V x N for a curve of constant curvature kappa0.

    Returns
    -------
    ClosedFormCurve
        Frequency v1 and QuadSinusoid coefficients (c0, c1, p, q, u, v)
        y = (y0, Y0, 0, 0, T0, -U0) and z = (z0, Z0, 0, 0, U0, T0): for v1 = 0
        the quadratic curve y = (T0/2) s**2 + Y0 s + y0, z = (U0/2) s**2 + Z0 s + z0,
        accepted only if the compatibility constraint holds (it forces T0 = 0
        when only v3 acts, U0 = 0 when only v2 acts, and v2*U0 = v3*T0 when
        both act; |v2*U0 - v3*T0| <= 1e-12*(1 + |v2*U0| + |v3*T0|) passes),
        otherwise the cylindrical helix of radius kappa0/v1**2
        and drift slopes (Y0 - U0/v1, Z0 + T0/v1).

    Raises
    ------
    ZeroCurvature
        If T0 = U0 = 0.
    IncompatibleIC
        If v1 = 0 and the compatibility constraint is violated.
    ValueError
        If kappa0 overflows.
    """
    v1, v2, v3 = field.v1, field.v2, field.v3
    if ic.T0 == 0.0 and ic.U0 == 0.0:
        raise ZeroCurvature("T0 = U0 = 0: constant curvature would vanish")
    if v1 != 0.0:
        case = CurveCase.NMAGNETIC_HELIX
    else:
        constraint = v2 * ic.U0 - v3 * ic.T0
        scale = 1.0 + abs(v2 * ic.U0) + abs(v3 * ic.T0)
        if abs(constraint) > _CONSTRAINT_RTOL * scale:
            raise IncompatibleIC(
                f"v2*U0 - v3*T0 = {constraint:g} != 0: the initial accelerations "
                "are incompatible with the force equation for this field"
            )
        # indexed by which of v2 and v3 act
        case = (CurveCase.NMAGNETIC_FREE, CurveCase.NMAGNETIC_Y_FIELD, CurveCase.NMAGNETIC_Z_FIELD,
                CurveCase.NMAGNETIC_YZ_FIELD)[(v2 != 0.0) + 2 * (v3 != 0.0)]
    y = QuadSinusoid(c0=ic.y0, c1=ic.Y0, u=ic.T0, v=-ic.U0, omega=v1)
    z = QuadSinusoid(c0=ic.z0, c1=ic.Z0, u=ic.U0, v=ic.T0, omega=v1)
    return _solution(case, field, ic, y, z)


def helix_decomposition(curve: ClosedFormCurve) -> HelixData:
    """Radius and axis line of a helix-case solution.

    The difference gamma(s) - l(s) between the curve and its axis is the
    pure oscillatory part, an isotropic vector of constant Galilean norm r,
    so the radius is the amplitude of the oscillation, kappa0/v1**2, and the
    axis is the polynomial part of the solution: in each component, slope
    c1 + v/v1 and offset c0 + (q + u/v1)/v1.

    Raises
    ------
    WrongCase
        If the curve is not a helix-case solution.
    """
    if not curve.case.is_helix:
        raise WrongCase(f"curve case {curve.case.value!r} is not a helix")
    w, y, z = curve.y.omega, curve.y, curve.z
    # dividing twice, a tiny v1 gives r = inf rather than a ZeroDivisionError
    return HelixData(curve.kappa0 / abs(w) / abs(w), y.c1 + y.v / w, y.c0 + (y.q + y.u / w) / w,
                     z.c1 + z.v / w, z.c0 + (z.q + z.u / w) / w)


@_pointwise
def lorentz_residual(curve: ClosedFormCurve, s):
    """Galilean norm of gamma''(s) - V x gamma'(s); an array for an array s."""
    acc = curve.eval(s, 2)
    force = lorentz_force(curve.field, curve.eval(s, 1))
    return norm(acc - force)


@_pointwise
def n_magnetic_residual(curve: ClosedFormCurve, s):
    """Galilean norm of N'(s) - V x N(s) for the unit normal N; an array for an array s.

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
