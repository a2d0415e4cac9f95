"""Independent referees that only the tests read.

Each definition here computes a quantity a second way, densely or in
closed form, so that a test can hold hesslab's own implementation against
it: dense second-order jets and their level-set curvatures, the radial
jets of a ball, the sum of principal minors, the Garding cone test, the
weight ODE residuals, the quermassintegral and Minkowski checks, the
boundary constant formula, the equation residual of a solved field, the
gradient of the prolate capacity potential, the first-order boundary
gradient of a near-ball and its far-field exponents, a sampled field whose
level sets are ellipses, and the marching-squares contour of a level of a
solved field.
"""

from dataclasses import dataclass
from itertools import combinations
from math import log, sqrt
from typing import NamedTuple

import numpy as np
from scipy.special import eval_gegenbauer

from hesslab.errors import DegenerateGradient
from hesslab.fields import TAU_GRAD, AxiJets, rhs_at_radius
from hesslab.monotone import ProblemSpec, weights
from hesslab.radial import RadialSolution
from hesslab.solver import AxiGrid, ExteriorField
from hesslab.surfaces import (
    PROFILE_HEADER,
    RevolutionBody,
    _ClampedSpline,
    af_sides,
    curvature_samples,
    qiu_xia_sides,
)
from hesslab.symfunc import _scalar, sigma_all, sigma_grad, symmetrize


class OutOfDomain(ValueError):
    """Radius below the inner boundary of a radial solution."""


# -- dense jets and their level-set curvatures ----------------------------


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


def dense_jet(jets: AxiJets, i) -> Jet2:
    """The dense n-dimensional Jet2 of point i of an AxiJets."""
    n = jets.n
    x = np.zeros(n)
    x[0], x[1] = jets.z[i], jets.rho[i]
    g = np.zeros(n)
    g[0], g[1] = jets.uz[i], jets.urho[i]
    H = np.diag(np.full(n, float(jets.kappat[i])))
    H[0, 0] = jets.uzz[i]
    H[0, 1] = H[1, 0] = jets.uzrho[i]
    H[1, 1] = jets.urhorho[i]
    return Jet2(x=x, u=float(jets.u[i]), g=g, H=H)


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


# -- radial solutions -----------------------------------------------------


def radial_value(sol: RadialSolution, r):
    """u(r) = -(R/r)^alpha."""
    return -((sol.R / np.asarray(r, dtype=float)) ** sol.alpha)


def radial_eval(sol: RadialSolution, r, direction=None) -> Jet2:
    """Second-order jet of the radial solution at radius r.

    Hessian eigenvalues are u'' (radially, once) and u'/r (n-1 times);
    S_k of the Hessian vanishes identically for r >= R.
    """
    r = float(r)
    if r < sol.R:
        raise OutOfDomain(f"r = {r} below ball radius {sol.R}")
    if direction is None:
        direction = np.zeros(sol.n)
        direction[0] = 1.0
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    x = r * e
    up = float(sol.slope(r))
    upp = float(sol.second(r))
    proj = np.outer(e, e)
    H = upp * proj + (up / r) * (np.eye(sol.n) - proj)
    return Jet2(x=x, u=float(radial_value(sol, r)), g=up * e, H=H)


# -- symmetric functions --------------------------------------------------


@dataclass(frozen=True)
class ConeSpec:
    """Garding cone Gamma_k^+ in dimension n."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


class ConeTest(NamedTuple):
    contains: bool
    margin: float  # min over 1 <= i <= k of S_i; positive inside the cone


def sigma(v, k):
    """k-th elementary symmetric function S_k(v) of a vector or a stack
    (..., n); S_0 = 1, S_k = 0 for k > n."""
    v = np.asarray(v, dtype=float)
    if k < 0:
        raise ValueError("order k must be >= 0")
    if k > v.shape[-1]:
        return _scalar(np.zeros(v.shape[:-1]))
    return _scalar(sigma_all(v, k)[..., k])


def _sigma_minors(A, k):
    """Sum of k-by-k principal minors; exact structure, O(C(n,k)) dets."""
    n = A.shape[0]
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    total = 0.0
    for idx in combinations(range(n), k):
        sub = A[np.ix_(idx, idx)]
        total += float(np.linalg.det(sub))
    return total


def gamma_cone_contains(v, spec: ConeSpec) -> ConeTest:
    """Whether v, or each vector of a stack (..., n), lies in the (open)
    Garding cone Gamma_k^+.

    The companion margin is min over 1 <= i <= k of S_i(v); boundary cases
    show up as margin approximately zero.  A stack gives arrays.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != spec.n:
        raise ValueError(f"vector length {v.shape[-1]} != cone dimension {spec.n}")
    margin = _scalar(np.min(sigma_all(v, spec.k)[..., 1:], axis=-1))
    return ConeTest(contains=margin > 0.0, margin=margin)


# -- weights of F(t) ------------------------------------------------------


def weights_derivatives(t, spec: ProblemSpec):
    """Analytic t-derivatives (C1'(t), C2'(t)) of the closed forms."""
    t = np.asarray(t, dtype=float)
    mt = -t
    n, k, a = spec.n, spec.k, spec.a
    p, q = spec.p_exponent, spec.q_exponent
    # d/dt (-t)^m = -m (-t)^(m-1)
    c1p = p * mt ** (-p - 1) * spec.C3 - (1 - p) * mt ** (-p) * spec.C4
    c2p = -(p / (a + 1 - k)) * spec.C3 * q * mt ** (-q - 1) + (n - k) / (
        n - 2 * k
    ) * spec.C4 * (1 - q) * mt ** (-q)
    return c1p, c2p


def weights_ode_residual(t, spec: ProblemSpec):
    """Residuals of the two weight ODEs, normalized by their largest term."""
    t = np.asarray(t, dtype=float)
    n, k, a = spec.n, spec.k, spec.a
    b = a - k * (n - k - 1) / (n - k)
    c1, c2 = weights(t, spec)
    c1p, c2p = weights_derivatives(t, spec)
    coef = (n - k) / ((n - 2 * k) * t)
    term1a, term1b = c2p, b * coef**2 * c1
    res1 = term1a + term1b
    scale1 = np.maximum(np.maximum(np.abs(term1a), np.abs(term1b)), 1.0)
    term2a, term2b, term2c = c1p, -(a + 1 - k) * c2, 2 * coef * b * c1
    res2 = term2a + term2b + term2c
    scale2 = np.maximum.reduce(
        [np.abs(term2a), np.abs(term2b), np.abs(term2c), np.ones_like(res2)]
    )
    return res1 / scale1, res2 / scale2


# -- surfaces -------------------------------------------------------------


def save_profile(body: RevolutionBody, path):
    """Write the body's samples in the format RevolutionBody.load_profile reads."""
    with open(path, "w") as fh:
        fh.write(f"{PROFILE_HEADER} n={body.n}\n")
        for th, g in zip(body.theta, body.gamma):
            fh.write(f"{th:.17g} {g:.17g}\n")


def quermass(body: RevolutionBody, k):
    """Quermassintegral int_{boundary} H_k dsigma."""
    if not 0 <= k <= body.n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}")
    s = curvature_samples(body)
    return s.integrate(s.h_k(k))


def minkowski_residual(body: RevolutionBody, k):
    """Residual of int <x,nu> H_k = ((n-k)/k) int H_{k-1}; -> 0 on refinement."""
    if not 1 <= k <= body.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    s = curvature_samples(body)
    lhs = s.integrate(s.x_dot_nu * s.h_k(k))
    rhs = (body.n - k) / k * s.integrate(s.h_k(k - 1))
    return lhs - rhs


def volume(body: RevolutionBody):
    """Enclosed volume of the body (SurfaceSampleSet.volume)."""
    return curvature_samples(body).volume


def af_gap(body: RevolutionBody, k):
    """Aleksandrov-Fenchel gap, the difference of af_sides: nonnegative for
    convex bodies, zero exactly for balls."""
    lhs, rhs = af_sides(curvature_samples(body), k)
    return lhs - rhs


def qiu_xia_gap(body: RevolutionBody):
    """Gap (n-1)/n |bdry|^2 - |body| int H_1; >= 0 for convex, 0 for balls."""
    lhs, rhs = qiu_xia_sides(curvature_samples(body))
    return lhs - rhs


def c_formula(body: RevolutionBody, k):
    """Boundary gradient constant forced by the quermassintegral ratios:

        c = (n-2k)/k * (k-1)/(n-k+1) * int H_{k-1} / int H_{k-2}   (k >= 2)
        c = (n-2)/n * |boundary| / |body|                          (k = 1)
    """
    n = body.n
    if k < 1 or n <= 2 * k:
        raise ValueError(f"need 1 <= k < n/2, got n={n}, k={k}")
    if k == 1:
        s = curvature_samples(body)
        return (n - 2) / n * s.area / s.volume
    return (
        (n - 2 * k) / k
        * (k - 1) / (n - k + 1)
        * quermass(body, k - 1) / quermass(body, k - 2)
    )


# -- solved fields --------------------------------------------------------


def equation_residual(field: ExteriorField):
    """S_k(Hessian u) - f^eps on the interior rows (same stencil as the
    Newton solve)."""
    Sk = field._node_jets.split(field.k).levels[-1][1:-1]
    return Sk - rhs_at_radius(field.grid.r_nodes[1:-1], field.eps, field.n, field.cnk)


def prolate_gradient(r, theta, a, b):
    """|grad u| at polar points (r, theta) of the capacity potential
    u = -arctanh(1/xi) / arctanh(f/a) of the prolate spheroid with semi-axis
    a along z and b < a across (n = 3, u = -1 on it), f = sqrt(a^2 - b^2)
    and xi = (d_+ + d_-) / (2 f) the distances to the foci (0, +-f)."""
    f = np.sqrt(a * a - b * b)
    z, rho = r * np.cos(theta), r * np.sin(theta)
    d_p, d_m = np.hypot(z + f, rho), np.hypot(z - f, rho)
    xi = (d_p + d_m) / (2 * f)
    grad_xi = np.hypot((z + f) / d_p + (z - f) / d_m, rho / d_p + rho / d_m) / (2 * f)
    return grad_xi / ((xi * xi - 1.0) * np.arctanh(f / a))


def far_field_exponent(n, k, l):
    """beta_l > 0: the zonal mode C_l^((n-2)/2)(cos theta) r^(-beta_l) solves
    the linearization of S_k = 0 at the radial u_0 = -r^(-alpha), alpha =
    n/k - 2.  It is the positive root of beta (beta + 1) - c (n - 1) beta -
    c l (l + n - 2) = 0, c = (n - k) / (k (n - 1)); so beta_0 = alpha, and
    beta_1 = alpha + 1, a translated ball."""
    c = (n - k) / (k * (n - 1))
    b = 1.0 - c * (n - 1)
    return (-b + sqrt(b * b + 4.0 * c * l * (l + n - 2))) / 2.0


def near_ball_gradient(n, k, delta, coefficients, theta):
    """|grad u| to first order in delta on the body gamma = 1 + delta sum_l
    a_l C_l^lambda(cos theta), lambda = (n - 2)/2, coefficients {l: a_l},
    where u = -1 and u -> 0 at infinity: u = u_0 + delta v with v = -alpha
    sum_l a_l C_l^lambda r^(-beta_l) (far_field_exponent), so that on the body
    |grad u| = alpha (1 + delta sum_l (beta_l - alpha - 1) a_l C_l^lambda)."""
    alpha, x = n / k - 2.0, np.cos(theta)
    return alpha * (1.0 + delta * sum(
        (far_field_exponent(n, k, l) - alpha - 1.0) * a * eval_gegenbauer(l, (n - 2) / 2, x)
        for l, a in coefficients.items()))


def interior_range(field: ExteriorField):
    """(min, max) of u strictly between the Dirichlet rows."""
    inner = field.u[1:-1]
    return float(inner.min()), float(inner.max())


def to_physical(grid: AxiGrid, s, theta):
    """(z, rho) of the points (s, theta) of a grid, off the nodes too: the
    radial map r = gamma exp(s log(R_out / gamma)), with log gamma splined
    in theta."""
    g = _ClampedSpline(grid.theta, grid.lngam)(theta)
    r = np.exp(g + np.asarray(s) * (log(grid.R_out) - g))
    return r * np.cos(theta), r * np.sin(theta)


# -- a field whose level sets are ellipses ---------------------------------

#: Semi-axis along z of the prolate spheroid ELLIPSE_A,1 of ellipsoidal_field.
ELLIPSE_A = 1.5


def ellipsoidal_field(N_s):
    """u = -((z / A)^2 + rho^2)^(-1/2), A = ELLIPSE_A, sampled with n = 3 on
    the grid of the prolate spheroid A,1 with N_theta = N_s / 2.  u = -1 on
    the body, u rises in s on every column, and the level set {u = t} is
    the ellipse (z / A)^2 + rho^2 = t^(-2)."""
    body = RevolutionBody.spheroid(ELLIPSE_A, 1.0, n=3)
    grid = AxiGrid(body, 40.0 * body.max_radius, N_s, N_s // 2)
    z, rho = grid.r_nodes * np.cos(grid.theta), grid.r_nodes * np.sin(grid.theta)
    u = -(((z / ELLIPSE_A) ** 2 + rho**2) ** -0.5)
    return ExteriorField(grid=grid, u=u, k=1, eps=0.02, rho_hat=1.0)


def ellipsoidal_jets(z, rho):
    """{jet: value} of the six meridian jets of ellipsoidal_field's u at
    (z, rho); kappat = u_rho / rho is q^(-3/2), q = (z / A)^2 + rho^2, on
    the axis too."""
    a2 = ELLIPSE_A**2
    q = z * z / a2 + rho * rho
    q3, q5 = q**-1.5, q**-2.5
    return {"uz": z * q3 / a2, "urho": rho * q3,
            "uzz": q3 / a2 - 3.0 * z * z * q5 / a2**2,
            "uzrho": -3.0 * z * rho * q5 / a2,
            "urhorho": q3 - 3.0 * rho * rho * q5, "kappat": q3}


def ellipse_radius(t, theta):
    """r(theta) of the level set {u = t} of ellipsoidal_field's u."""
    return 1.0 / (-t * np.hypot(np.cos(theta) / ELLIPSE_A, np.sin(theta)))


class Contour(NamedTuple):
    """Segments of a contour: (nseg, 2) endpoint arrays in (s, theta) and
    in (z, rho)."""

    seg_s: np.ndarray
    seg_theta: np.ndarray
    seg_z: np.ndarray
    seg_rho: np.ndarray


# Marching squares.  Cell (i, j) has corners 0 = (i, j), 1 = (i+1, j),
# 2 = (i+1, j+1), 3 = (i, j+1); its case code sets bit c when u - t > 0 at
# corner c.  Edge e joins corners _EDGE_ENDS[e]; case c emits the segments
# (_SEG_EDGES[c, m, 0], _SEG_EDGES[c, m, 1]) for m < _SEG_COUNT[c].
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_EDGE_ENDS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])
_SEG_EDGES = np.array([
    [(0, 0), (0, 0)],  # 0: no crossing
    [(3, 0), (0, 0)],
    [(0, 1), (0, 0)],
    [(3, 1), (0, 0)],
    [(1, 2), (0, 0)],
    [(3, 0), (1, 2)],  # 5: saddle
    [(0, 2), (0, 0)],
    [(3, 2), (0, 0)],
    [(2, 3), (0, 0)],
    [(2, 0), (0, 0)],
    [(0, 1), (2, 3)],  # 10: saddle
    [(2, 1), (0, 0)],
    [(1, 3), (0, 0)],
    [(1, 0), (0, 0)],
    [(0, 3), (0, 0)],
    [(0, 0), (0, 0)],  # 15: no crossing
])
_SEG_COUNT = np.array([0, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 0])


def _crossings(edge, i, j, f, hs, ht):
    """(s, theta) where u = t on edge `edge` of cell (i, j), all arrays."""
    a, b = _CORNERS[_EDGE_ENDS[edge, 0]], _CORNERS[_EDGE_ENDS[edge, 1]]
    ia, ja = i + a[:, 0], j + a[:, 1]
    ib, jb = i + b[:, 0], j + b[:, 1]
    fa, fb = f[ia, ja], f[ib, jb]
    lam = fa / (fa - fb)
    return hs * (ia + lam * (ib - ia)), ht * (ja + lam * (jb - ja))


def marching_squares(field: ExteriorField, t) -> Contour:
    """The marching-squares contour of {u = t} over the whole grid at once,
    by a case table: linear crossings on the cell edges, segments in
    row-major cell order, two per saddle cell."""
    grid = field.grid
    hs = grid.s[1] - grid.s[0]
    ht = grid.theta[1] - grid.theta[0]
    f = field.u - t
    pos = f > 0
    case = (
        pos[:-1, :-1] * 1 + pos[1:, :-1] * 2 + pos[1:, 1:] * 4 + pos[:-1, 1:] * 8
    )
    ci, cj = np.nonzero((case > 0) & (case < 15))
    code = case[ci, cj]
    count = _SEG_COUNT[code]
    cell = np.repeat(np.arange(code.size), count)
    slot = np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
    edges = _SEG_EDGES[code[cell], slot]
    i, j = ci[cell], cj[cell]
    s0, th0 = _crossings(edges[:, 0], i, j, f, hs, ht)
    s1, th1 = _crossings(edges[:, 1], i, j, f, hs, ht)
    z0, rho0 = to_physical(grid, s0, th0)
    z1, rho1 = to_physical(grid, s1, th1)
    return Contour(*(np.stack(pair, axis=1) for pair in
                     ((s0, s1), (th0, th1), (z0, z1), (rho0, rho1))))
