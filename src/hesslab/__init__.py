"""Numerical laboratory for the exterior homogeneous k-Hessian Dirichlet problem.

Computes k-admissible exterior potentials on axisymmetric star-shaped bodies,
evaluates the level-set functional F(t) and its weight system, and audits the
integral identities, geometric inequalities and the overdetermined ball
certification at desk scale.
"""

from .errors import (
    DegenerateGradient,
    LevelOutOfRange,
    NewtonStall,
    NotConvex,
    PoorFit,
    StarShapeViolation,
)

__all__ = [
    "DegenerateGradient",
    "LevelOutOfRange",
    "NewtonStall",
    "NotConvex",
    "PoorFit",
    "StarShapeViolation",
]

__version__ = "0.1.0"
