"""Pointwise level-set geometry of scalar fields.

Converts second-order jets of u into level-set curvatures H_k, H_{k-1} and
evaluates the regularized right-hand side of the approximating equation.
A single jet is a dense Jet2; jets of an axisymmetric field at many points
are the arrays of an AxiJets, whose curvatures come in closed form from
the axisymmetric split of the Hessian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient
from .symfunc import sigma_grad, sigma_split, symmetrize

__all__ = [
    "AxiJets",
    "Jet2",
    "levelset_curvature",
    "levelset_curvature_axisym",
    "rhs_at_radius",
]

#: Gradient threshold below which the curvature formulas refuse to run.
TAU_GRAD = 1e-8


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of u at a point: value, gradient, symmetric Hessian."""

    x: np.ndarray
    u: float
    g: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "H", symmetrize(self.H))

    @property
    def grad_norm(self):
        return float(np.linalg.norm(self.g))

    @property
    def n(self):
        return self.g.size


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

    def jet(self, i) -> Jet2:
        """The dense n-dimensional Jet2 of point i."""
        n = self.n
        x = np.zeros(n)
        x[0], x[1] = self.z[i], self.rho[i]
        g = np.zeros(n)
        g[0], g[1] = self.uz[i], self.urho[i]
        H = np.diag(np.full(n, float(self.kappat[i])))
        H[0, 0] = self.uzz[i]
        H[0, 1] = H[1, 0] = self.uzrho[i]
        H[1, 1] = self.urhorho[i]
        return Jet2(x=x, u=float(self.u[i]), g=g, H=H)


def rhs_at_radius(r, eps, n, cnk=1.0):
    """f^eps = cnk eps^2 (r^2 + eps^2)^(-n/2 - 1) at radii r, elementwise."""
    return cnk * eps**2 * (r**2 + eps**2) ** (-n / 2.0 - 1.0)


def levelset_curvature(jet: Jet2, k, sk_value):
    """Level-set curvatures (H_k, H_{k-1}) at a non-critical point.

    H_{k-1} = S_k^{ij} u_i u_j / |grad u|^{k+1}; H_k is recovered from
    S_k(Hessian) = H_k |grad u|^k + S_k^{ij} u_i u_l u_lj / |grad u|^2
    with S_k supplied by the equation: pass sk_value = 0 for the
    homogeneous problem or f^eps(x) for the regularized one.
    """
    gnorm = jet.grad_norm
    if gnorm < TAU_GRAD:
        raise DegenerateGradient(
            f"|grad u| = {gnorm:.3e} < {TAU_GRAD:.1e}: critical point"
        )
    skij = sigma_grad(jet.H, k)
    g = jet.g
    h_km1 = float(g @ skij @ g) / gnorm ** (k + 1)
    correction = float(g @ skij @ (jet.H @ g)) / gnorm**2
    h_k = (sk_value - correction) / gnorm**k
    return h_k, h_km1


def levelset_curvature_axisym(jets: AxiJets, k, sk_values):
    """Arrays (H_k, H_{k-1}) of levelset_curvature at every jet of an AxiJets.

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
