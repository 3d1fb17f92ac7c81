"""Curvature, torsion and the Frenet trihedron of admissible curves.

Works on any object exposing ``eval(s, order) -> GVector3`` for orders
0..3 with an arc-length parametrization gamma(s) = (s, y(s), z(s)); the
closed-form solution curves provide this analytically.  The frame is

    T = (1, y', z'),  N = (0, y'', z'')/kappa,  B = (0, -z'', y'')/kappa

with kappa = sqrt(y''**2 + z''**2) and tau = (y''*z''' - z''*y''')/kappa**2,
and it satisfies T' = kappa*N, N' = tau*B, B' = -tau*N.  The frame is
undefined where kappa = 0; all operations raise ZeroCurvature there
instead of returning NaNs.

Given an array of s (and a curve whose ``eval`` takes one), every function
but `frenet_residual` returns arrays equal to the scalar results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from galmag.errors import ZeroCurvature
from galmag.galilean import GVector3, _components, _vector, norm

__all__ = ["FrenetFrame", "curvature", "torsion", "frenet_frame", "frenet_residual"]


@dataclass(frozen=True)
class FrenetFrame:
    """Frame vectors and scalar invariants at a parameter value (or array)."""

    T: GVector3
    N: GVector3
    B: GVector3
    kappa: float
    tau: float


def curvature(curve, s):
    """kappa(s) = sqrt(y''(s)**2 + z''(s)**2), the norm of the isotropic gamma''."""
    return norm(curve.eval(s, 2))


def torsion(curve, s):
    """tau(s) = det(gamma', gamma'', gamma''') / kappa(s)**2.

    The determinant reduces to y''*z''' - z''*y''' because the second and
    third derivatives are isotropic; it is evaluated as (n2*z''' - n3*y''')/kappa
    with (n2, n3) = (y'', z'')/kappa, as kappa**2 underflows below kappa ~ 1e-162.
    Raises ZeroCurvature where kappa = 0.
    """
    return frenet_frame(curve, s).tau


def frenet_frame(curve, s) -> FrenetFrame:
    """Full trihedron with curvature and torsion; raises ZeroCurvature."""
    acc = curve.eval(s, 2)
    kappa = norm(acc)
    flat = kappa == 0.0
    if np.any(flat):
        at = s[np.argmax(flat)] if isinstance(s, np.ndarray) else s
        raise ZeroCurvature(f"kappa vanishes at s = {float(at):.17g}")
    _, a2, a3 = _components(acc)
    _, j2, j3 = _components(curve.eval(s, 3))
    n2, n3 = a2 / kappa, a3 / kappa
    n_vec = _vector(0.0, n2, n3)
    b_vec = _vector(0.0, -n3, n2)
    tau = (n2 * j3 - n3 * j2) / kappa
    # gamma' = (1, y', z') is the unit tangent itself.
    return FrenetFrame(T=curve.eval(s, 1), N=n_vec, B=b_vec, kappa=kappa, tau=tau)


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
    lo = frenet_frame(curve, s - h)
    mid = frenet_frame(curve, s)
    hi = frenet_frame(curve, s + h)
    inv2h = 1.0 / (2.0 * h)
    r1 = norm((hi.T - lo.T) * inv2h - mid.kappa * mid.N)
    r2 = norm((hi.N - lo.N) * inv2h - mid.tau * mid.B)
    r3 = norm((hi.B - lo.B) * inv2h + mid.tau * mid.N)
    return (r1, r2, r3)
