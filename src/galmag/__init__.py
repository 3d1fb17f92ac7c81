"""Galilean 3-space trajectory toolkit.

Exact vector algebra of the Galilean 3-space, Frenet data of admissible
curves, closed-form solutions of the magnetic and N-magnetic trajectory
equations under constant Killing fields, and an independent fixed-step
RK4 oracle (`verify`) to check the closed forms against the raw ODE systems.
"""

from galmag.errors import (
    GalmagError,
    IncompatibleIC,
    NonFiniteState,
    WrongCase,
    ZeroCurvature,
)
from galmag.galilean import (
    ZERO,
    GVector3,
    cross,
    is_isotropic,
    norm,
    scalar_product,
)
from galmag.frenet import (
    FrenetFrame,
    curvature,
    frenet_frame,
    frenet_residual,
    torsion,
)
from galmag.magnetic import (
    ClosedFormCurve,
    CurveCase,
    HelixData,
    KillingField,
    MagneticIC,
    NMagneticIC,
    QuadSinusoid,
    helix_decomposition,
    lorentz_force,
    lorentz_residual,
    magnetic_rhs,
    n_magnetic_residual,
    n_magnetic_rhs,
    solve_magnetic,
    solve_n_magnetic,
)
from galmag.oracle import IntegratorConfig, SampledCurve, grid_points, integrate
from galmag.oracle import max_deviation, verify

__version__ = "0.1.0"

__all__ = [
    "GalmagError",
    "ZeroCurvature",
    "WrongCase",
    "IncompatibleIC",
    "NonFiniteState",
    "GVector3",
    "ZERO",
    "is_isotropic",
    "scalar_product",
    "norm",
    "cross",
    "FrenetFrame",
    "curvature",
    "torsion",
    "frenet_frame",
    "frenet_residual",
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
    "IntegratorConfig",
    "SampledCurve",
    "grid_points",
    "integrate",
    "max_deviation",
    "verify",
]
