"""Pointwise level-set geometry of scalar fields.

Converts second-order jets of u into level-set curvatures H_k, H_{k-1} and
evaluates the regularized right-hand side of the approximating equation.
Jets of an axisymmetric field at many points are the arrays of an AxiJets,
whose curvatures come in closed form from the axisymmetric split of the
Hessian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient
from .symfunc import sigma_split

__all__ = [
    "AxiJets",
    "levelset_curvature_axisym",
    "rhs_at_radius",
]

#: Gradient threshold below which the curvature formulas refuse to run.
TAU_GRAD = 1e-8


@dataclass(frozen=True)
class AxiJets:
    """Second-order jets of an axisymmetric u at many points, as arrays.

    In the frame (z, rho, x_3, ..., x_n) of each point the gradient is
    (uz, urho, 0, ..., 0) and the Hessian is block diagonal: the meridian
    block M = [[uzz, uzrho], [uzrho, urhorho]] and kappat = u_rho / rho
    times the identity of size n - 2.
    """

    n: int
    z: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    uz: np.ndarray
    urho: np.ndarray
    uzz: np.ndarray
    uzrho: np.ndarray
    urhorho: np.ndarray
    kappat: np.ndarray

    @property
    def r(self):
        return np.hypot(self.z, self.rho)

    @property
    def grad_norm(self):
        return np.hypot(self.uz, self.urho)

    def split(self, k, grad=False):
        """S_0 .. S_k of the Hessian at every point by sigma_split, and with
        grad the partials of S_k in (uzz, uzrho, urhorho, kappat)."""
        return sigma_split(self.uzz, self.uzrho, self.urhorho, self.kappat,
                           self.n - 2, k, grad)


def rhs_at_radius(r, eps, n, cnk=1.0):
    """f^eps = cnk eps^2 (r^2 + eps^2)^(-n/2 - 1) at radii r, elementwise."""
    return cnk * eps**2 * (r**2 + eps**2) ** (-n / 2.0 - 1.0)


def levelset_curvature_axisym(jets: AxiJets, k, sk_values):
    """Level-set curvatures (H_k, H_{k-1}) at every jet of an AxiJets.

    H_{k-1} = S_k^{ij} u_i u_j / |grad u|^{k+1}; H_k is recovered from
    S_k(Hessian) = H_k |grad u|^k + S_k^{ij} u_i u_l u_lj / |grad u|^2
    with S_k supplied by the equation (sk_values, f^eps at each point).
    S_k^{ij} of the block-diagonal Hessian is block diagonal too.  The
    gradient lies in the meridian plane, so only its meridian block
    B = dS_k/dM enters, and sigma_split gives B in closed form; no n-by-n
    matrix is built.
    """
    gn = jets.grad_norm
    if np.any(gn < TAU_GRAD):
        raise DegenerateGradient(
            f"|grad u| = {float(gn.min()):.3e} < {TAU_GRAD:.1e}: critical point"
        )
    b11, b12, b22, _ = jets.split(k, grad=True).grad
    b12 = 0.5 * b12  # dS_k/duzrho counts both off-diagonal entries
    gx, gy = jets.uz, jets.urho
    bgx = b11 * gx + b12 * gy  # B g
    bgy = b12 * gx + b22 * gy
    mgx = jets.uzz * gx + jets.uzrho * gy  # M g
    mgy = jets.uzrho * gx + jets.urhorho * gy
    h_km1 = (gx * bgx + gy * bgy) / gn ** (k + 1)
    correction = (bgx * mgx + bgy * mgy) / (gn * gn)
    h_k = (sk_values - correction) / gn**k
    return h_k, h_km1
