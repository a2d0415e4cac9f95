"""Exception types shared across the package."""


class HesslabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGradient(HesslabError):
    """Gradient magnitude below threshold; level-set curvature undefined."""


class StarShapeViolation(HesslabError):
    """<x, nu> <= 0 at a surface sample."""


class NotConvex(HesslabError):
    """A convexity-requiring inequality was invoked on a non-convex body."""


class NewtonStall(HesslabError):
    """No admissible residual-decreasing Newton step after maximal damping."""


class PoorFit(HesslabError):
    """Far-field power-law fit has excessive shell variance."""


class LevelOutOfRange(HesslabError):
    """Requested level not strictly between boundary and far-field values."""
