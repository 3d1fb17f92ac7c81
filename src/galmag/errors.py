"""Exception types shared across the package."""


class GalmagError(Exception):
    """Base class for all galmag-specific errors."""


class ZeroCurvature(GalmagError):
    """Frenet data or a constant-curvature solution requested where kappa = 0."""


class WrongCase(GalmagError):
    """Helix decomposition requested for a solution that is not a helix."""


class IncompatibleIC(GalmagError):
    """Initial data violate the compatibility constraint of the selected case."""


class NonFiniteState(GalmagError):
    """Integrator state or derivative became NaN or infinite."""
