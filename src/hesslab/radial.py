"""Closed-form radial solutions of the exterior problem on balls.

u(r) = -(R/r)^(n/k - 2) solves the homogeneous equation outside the ball of
radius R with u = -1 on the boundary; every derived quantity (level radii,
curvature integrals, the functional F, exterior volume integrals) has a
closed form here, making this module the exact oracle for the others.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .monotone import ProblemSpec, sphere_measure, weights
from .symfunc import sigma_split

__all__ = [
    "RadialSolution",
    "exterior_skm1_grad2_integral",
    "radial_F",
]


@dataclass(frozen=True)
class RadialSolution:
    """Exterior solution on the complement of the ball of radius R."""

    n: int
    k: int
    R: float

    def __post_init__(self):
        if not 1 <= self.k or not self.n > 2 * self.k:
            raise ValueError(f"need 1 <= k < n/2, got n={self.n}, k={self.k}")
        if not np.isfinite(self.R):
            raise ValueError(f"ball radius must be finite, got {self.R}")
        if self.R <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def alpha(self):
        """Decay exponent: u = -(R/r)^alpha."""
        return self.n / self.k - 2.0

    @property
    def rho(self):
        """Asymptotic constant of -u |x|^alpha."""
        return self.R**self.alpha

    @property
    def c_bdry(self):
        """|grad u| on the boundary sphere: (n/k - 2)/R."""
        return self.alpha / self.R

    def slope(self, r):
        """u'(r) = alpha rho r^(-alpha-1) > 0."""
        r = np.asarray(r, dtype=float)
        return self.alpha * self.rho * r ** (-self.alpha - 1.0)

    def second(self, r):
        r = np.asarray(r, dtype=float)
        return -self.alpha * (self.alpha + 1.0) * self.rho * r ** (-self.alpha - 2.0)

    def level_radius(self, t):
        """Radius of the level sphere {u = t}: solves -(R/r)^alpha = t."""
        t = np.asarray(t, dtype=float)
        return self.R * (-t) ** (-1.0 / self.alpha)


def _level_sphere_integrals(sol: RadialSolution, t, a):
    """(int H_k |grad|^a, int H_{k-1} |grad|^(a+1)) on {u = t}."""
    n, k = sol.n, sol.k
    r = float(sol.level_radius(t))
    gn = float(sol.slope(r))
    area = sphere_measure(n - 1) * r ** (n - 1)
    int_hk = area * comb(n - 1, k) * r ** (-k) * gn**a
    int_hk1 = area * comb(n - 1, k - 1) * r ** (-(k - 1)) * gn ** (a + 1)
    return int_hk, int_hk1


def radial_F(sol: RadialSolution, t, spec: ProblemSpec):
    """Closed-form F(t) on the ball: constant in t, equal to the limit bound."""
    if not (sol.n, sol.k) == (spec.n, spec.k):
        raise ValueError("solution and problem spec disagree on (n, k)")
    t = float(t)
    if not -1.0 <= t < 0.0:
        raise ValueError("level must lie in [-1, 0)")
    int_hk, int_hk1 = _level_sphere_integrals(sol, t, spec.a)
    c1, c2 = weights(t, spec)
    return float(c1) * int_hk + float(c2) * int_hk1


def exterior_skm1_grad2_integral(sol: RadialSolution):
    """int over the exterior of S_{k-1}(Hessian) |grad u|^2 dx, in closed form.

    The integrand over the radius is the pure power c r^(-p), p = (n-k)/k
    > 1 since k < n/2: S_{k-1} of the Hessian scales like r^(-(alpha+2)(k-1)),
    |grad u|^2 like r^(-2(alpha+1)) and the sphere area like r^(n-1).  So
    the integral from R to infinity is integrand(R) R / (p - 1).
    """
    n, k, R = sol.n, sol.k, sol.R
    lam_t = sol.slope(R) / R
    skm1 = sigma_split(sol.second(R), 0.0, 0.0, lam_t, n - 1, k - 1).levels[-1]
    integrand = skm1 * sol.slope(R) ** 2 * sphere_measure(n - 1) * R ** (n - 1)
    p = (n - k) / k
    return float(integrand * R / (p - 1.0))
