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
    """A solve that did not converge: the exterior Newton (no admissible
    decreasing step, a zero pivot, or a residual above its tolerance), a
    Dirichlet row of a field (dS_k/dU_ss not finite and > 0 at a node, or
    a residual above TOL_NEWTON), or a level-set Newton on a column."""


class PoorFit(HesslabError):
    """Far-field power-law fit has excessive shell variance."""


class LevelOutOfRange(HesslabError):
    """Requested level not strictly between boundary and far-field values."""
