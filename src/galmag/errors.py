"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["GalmagError", "ZeroCurvature", "WrongCase", "IncompatibleIC", "NonFiniteState"]


class GalmagError(Exception):
    """Base class for all galmag-specific errors."""


class ZeroCurvature(GalmagError):
    """Frenet data or a constant-curvature solution requested where kappa = 0."""


class WrongCase(GalmagError):
    """Helix decomposition requested for a solution that is not a helix."""


class IncompatibleIC(GalmagError):
    """Initial data violate the compatibility constraint of the selected case."""


class NonFiniteState(GalmagError):
    """Integrator state or derivative became NaN or infinite (at parameter s)."""

    def __init__(self, message: str, s: float | None = None):
        super().__init__(message)
        self.s = s
