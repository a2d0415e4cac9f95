"""Exception types shared across the package."""


class HesslabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGradient(HesslabError):
    """Gradient magnitude below threshold; level-set curvature undefined."""


class StarShapeViolation(HesslabError):
    """A body or a field outside the star-shaped class: <x, nu> <= 0 at a
    surface sample, or u not strictly increasing in s on a theta column of
    a field, so that its level sets need not be graphs over theta."""


class NotConvex(HesslabError):
    """A convexity-requiring inequality was invoked on a non-convex body."""


class NewtonStall(HesslabError):
    """No admissible residual-decreasing Newton step after maximal damping."""


class PoorFit(HesslabError):
    """Far-field power-law fit has excessive shell variance."""


class LevelOutOfRange(HesslabError):
    """Requested level not strictly between boundary and far-field values."""
