"""Curvature, torsion and the Frenet trihedron of admissible curves.

Works on any object whose ``eval(s, order)`` maps a 1-D array s to (n, 3)
rows of an arc-length parametrization gamma(s) = (s, y(s), z(s)) and its
derivatives of orders 0..3, as the closed-form solution curves do.  The frame is

    T = (1, y', z'),  N = (0, y'', z'')/kappa,  B = (0, -z'', y'')/kappa

with kappa = sqrt(y''**2 + z''**2) and tau = (y''*z''' - z''*y''')/kappa**2,
and it satisfies T' = kappa*N, N' = tau*B, B' = -tau*N.  The frame is
undefined where kappa = 0; all operations raise ZeroCurvature there
instead of returning NaNs.

A float s runs as a 1-row array and gives floats and GVector3s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from galmag.errors import ZeroCurvature
from galmag.galilean import GVector3, _pointwise, _vector, norm

__all__ = ["FrenetFrame", "curvature", "torsion", "frenet_frame", "frenet_residual"]


@dataclass(frozen=True)
class FrenetFrame:
    """Frame vectors and scalar invariants at a parameter value (or array)."""

    T: GVector3
    N: GVector3
    B: GVector3
    kappa: float
    tau: float


@_pointwise
def curvature(curve, s):
    """kappa(s) = sqrt(y''(s)**2 + z''(s)**2), the norm of the isotropic gamma''."""
    return norm(curve.eval(s, 2))


@_pointwise
def torsion(curve, s):
    """tau(s) = det(gamma', gamma'', gamma''') / kappa(s)**2.

    The determinant reduces to y''*z''' - z''*y''' because the second and
    third derivatives are isotropic; it is evaluated as (n2*z''' - n3*y''')/kappa
    with (n2, n3) = (y'', z'')/kappa, as kappa**2 underflows below kappa ~ 1e-162.
    Raises ZeroCurvature where kappa = 0.
    """
    return _invariants(curve, s)[3]


@_pointwise
def frenet_frame(curve, s) -> FrenetFrame:
    """Full trihedron with curvature and torsion; raises ZeroCurvature."""
    kappa, n2, n3, tau = _invariants(curve, s)
    # gamma' = (1, y', z') is the unit tangent itself.
    return FrenetFrame(T=curve.eval(s, 1), N=_vector(0.0, n2, n3), B=_vector(0.0, -n3, n2),
                       kappa=kappa, tau=tau)


def _invariants(curve, s):
    """kappa, the unit normal's (n2, n3) and tau at the array s; raises ZeroCurvature."""
    acc = curve.eval(s, 2)
    kappa = norm(acc)
    flat = kappa == 0.0
    if flat.any():
        raise ZeroCurvature(f"kappa vanishes at s = {float(s[flat.argmax()]):.17g}")
    jerk = curve.eval(s, 3)
    n2, n3 = acc[:, 1] / kappa, acc[:, 2] / kappa
    return kappa, n2, n3, (n2 * jerk[:, 2] - n3 * jerk[:, 1]) / kappa


def frenet_residual(curve, s: float, h: float = 1e-5) -> tuple[float, float, float]:
    """Finite-difference residuals of the three frame equations at s.

    Frame derivatives are estimated with central differences of step h,
    independently of the analytic derivatives used to build the frame, so
    this doubles as a self-check of the frame formulas.  Returns the
    Galilean norms of T' - kappa*N, N' - tau*B and B' + tau*N; each is
    O(h**2) for smooth curves.  Requires kappa != 0 at s - h, s, s + h.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    f = frenet_frame(curve, np.array([s - h, s, s + h]))
    inv2h = 1.0 / (2.0 * h)
    kappa, tau = f.kappa[1], f.tau[1]
    rows = np.array([(f.T[2] - f.T[0]) * inv2h - kappa * f.N[1],
                     (f.N[2] - f.N[0]) * inv2h - tau * f.B[1],
                     (f.B[2] - f.B[0]) * inv2h + tau * f.N[1]])
    return tuple(norm(rows).tolist())
