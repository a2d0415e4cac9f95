"""Closed axisymmetric star-shaped hypersurfaces in R^n.

A surface is the rotation of a polar profile gamma(theta), theta in [0, pi],
about the z-axis through S^(n-2) orbits.  Provides principal curvatures,
the surface quadrature of int H_k and of the enclosed volume, and the two
sides of the Aleksandrov-Fenchel and Qiu-Xia inequalities.
"""

from dataclasses import dataclass, field
from math import gamma as gamma_fn, perm, pi
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NotConvex, StarShapeViolation
from .symfunc import sigma_split

__all__ = [
    "RevolutionBody",
    "SurfaceSampleSet",
    "af_sides",
    "curvature_samples",
    "qiu_xia_sides",
    "sphere_measure",
    "surface_h_k",
]

PROFILE_HEADER = "# revolution-profile v1"


def sphere_measure(m):
    """Surface measure |S^m| of the unit m-sphere."""
    return 2.0 * pi ** ((m + 1) / 2.0) / gamma_fn((m + 1) / 2.0)


def _simpson_weights(num_nodes, h):
    """Weights of the composite Simpson rule on num_nodes >= 3 nodes of
    step h.  An even count takes Simpson on all but the last interval and
    closes with the three-point rule for that interval (h/12) (-1, 8, 5),
    as scipy's simpson does."""
    if num_nodes < 3:
        raise ValueError("composite Simpson needs a node count >= 3")
    odd = num_nodes - 1 + num_nodes % 2  # the nodes under composite Simpson
    w = np.zeros(num_nodes)
    w[:odd:2] = 2.0
    w[1:odd:2] = 4.0
    w[0] = w[odd - 1] = 1.0
    w *= h / 3.0
    if odd < num_nodes:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) * (h / 12.0)
    return w


def _on_axis(theta):
    """The poles 0 and pi among theta: |sin theta| < 1e-12, as sin pi != 0."""
    return np.abs(np.sin(theta)) < 1e-12


def _solve_tridiagonal(ab, b):
    """Solve the tridiagonal system in (1, 1) band layout ab (ab[0, 1:] the
    superdiagonal, ab[1] the diagonal, ab[2, :-1] the subdiagonal) for the
    right-hand sides b, of shape (n,) or (n, m).  b is overwritten with the
    solution, which is returned; ab is left as it is.

    A port of LAPACK's dgtsv (Gaussian elimination with partial pivoting),
    operation by operation, so the result equals scipy's
    solve_banded((1, 1), ab, b) bit for bit; the back-substitution keeps
    the term of the second superdiagonal where no interchange filled it.
    A single right-hand side is solved in Python floats: the stack path
    gives it the same bits, an order of magnitude slower at a spline's
    size.  A stack is solved row by row in place, each step one vector op.
    Raises numpy's LinAlgError on a zero pivot, and on a non-finite band
    entry, on which the elimination in Python floats could divide by zero.
    """
    # the entries in use are all of ab in C order but its first and last
    if not np.isfinite(ab.ravel()[1:-1]).all():
        raise LinAlgError("non-finite band entry")
    du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
    n = len(d)
    # the factorization: dl[i] ends as the second superdiagonal (zero where
    # row i was not interchanged), and row i + 1 of b takes
    # b[i + 1] - fact[i] b[i], after swapping rows i and i + 1 if swap[i]
    fact, swap = [0.0] * (n - 1), [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise LinAlgError("singular matrix")
            fact[i] = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact[i] * du[i]
            dl[i] = 0.0
        else:
            fact[i], swap[i] = d[i] / dl[i], True
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact[i] * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact[i] * dl[i]
            du[i] = temp
    if d[-1] == 0.0:
        raise LinAlgError("singular matrix")
    if b.size == n:
        x = b.ravel().tolist()
        for i in range(n - 1):
            if swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - fact[i] * x[i + 1]
            else:
                x[i + 1] = x[i + 1] - fact[i] * x[i]
        x[-1] = x[-1] / d[-1]
        if n > 1:
            x[-2] = (x[-2] - du[-1] * x[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
        b[...] = np.reshape(x, b.shape)
        return b
    rows, t = list(b), np.empty(b.shape[1:])
    for i in range(n - 1):
        if swap[i]:
            np.multiply(rows[i + 1], fact[i], out=t)
            np.subtract(rows[i], t, out=t)
            rows[i][...] = rows[i + 1]
            rows[i + 1][...] = t
        else:
            np.multiply(rows[i], fact[i], out=t)
            np.subtract(rows[i + 1], t, out=rows[i + 1])
    np.divide(rows[-1], d[-1], out=rows[-1])
    if n > 1:
        np.multiply(rows[-1], du[-1], out=t)
        np.subtract(rows[-2], t, out=rows[-2])
        np.divide(rows[-2], d[-2], out=rows[-2])
    for i in range(n - 3, -1, -1):
        np.multiply(rows[i + 1], du[i], out=t)
        np.subtract(rows[i], t, out=rows[i])
        np.multiply(rows[i + 2], dl[i], out=t)
        np.subtract(rows[i], t, out=rows[i])
        np.divide(rows[i], d[i], out=rows[i])
    return b


def _spline_slopes(x, y, clamped):
    """Slopes at the nodes x of the cubic splines through the values y along
    their last axis (any leading shape): zero end slopes if clamped,
    not-a-knot ends otherwise.  The tridiagonal system and its arithmetic
    are those of scipy's CubicSpline, so a clamped spline matches it bit
    for bit.  The right-hand sides are built node-major, one C-order row
    per node, and solved in place by _solve_tridiagonal; the slopes come
    back as a view with the node axis last.

    Raises ValueError on nodes that are not finite and strictly increasing,
    on values that are not finite, and on fewer than 2 (clamped) or 4
    (not-a-knot) nodes; the system is then nonsingular.
    """
    dx = np.diff(x)
    if not (np.all(np.isfinite(x)) and np.all(dx > 0)):
        raise ValueError("spline nodes x must be finite and strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ValueError("spline values must be finite")
    n = x.size
    if n < (2 if clamped else 4):
        raise ValueError(f"a cubic spline needs more than {n} nodes")
    A = np.zeros((3, n))  # _solve_tridiagonal's (1, 1) layout
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    # the right-hand side with as few full-size temporaries as possible:
    # b[i] = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]) inside
    yt = np.moveaxis(y, -1, 0)
    col = (slice(None),) + (None,) * (y.ndim - 1)  # dx against the node axis
    slope = np.empty((n - 1,) + yt.shape[1:])
    np.subtract(yt[1:], yt[:-1], out=slope)
    slope /= dx[col]
    b = np.empty(yt.shape)
    if clamped:
        A[1, 0] = A[1, -1] = 1.0
        b[0] = b[-1] = 0.0
    else:
        d = x[2] - x[0]
        A[1, 0], A[0, 1] = dx[1], d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[1, -1], A[-1, -2] = dx[-2], d
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    inner = np.multiply(slope[:-1], dx[1:][col], out=b[1:-1])
    slope[1:] *= dx[:-1][col]
    inner += slope[1:]
    inner *= 3
    _solve_tridiagonal(A, b.reshape(n, -1))
    return np.moveaxis(b, 0, -1)


class _ClampedSpline:
    """The cubic spline through (x, y) with zero end slopes.

    Equal bit for bit to scipy's CubicSpline(x, y, bc_type="clamped"): the
    same slopes (_spline_slopes), the same power-basis coefficients on each
    interval [x_i, x_(i+1)) (the last one closed) and the same evaluation
    order; points outside [x_0, x_-1] extrapolate the end intervals.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = _spline_slopes(x, y, clamped=True)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x, self._inner = x, x[1:-1]
        # row i: the coefficients of (x - x_i)^0 .. (x - x_i)^3
        self.c = np.stack([y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx], axis=1)

    def __call__(self, xi, nu=0):
        """The spline (nu = 0) or its derivative of order nu <= 2 at xi."""
        xi = np.asarray(xi, dtype=float)
        i = self._inner.searchsorted(xi, side="right")
        d = xi - self.x.take(i)
        c = self.c.take(i, axis=0)
        res = np.add(0.0, c[..., nu])  # scipy sums from 0.0, so -0.0 -> 0.0
        if nu == 2:
            res *= 2.0  # 2! c_2
        z = d  # d^(m - nu), by repeated products
        for m in range(nu + 1, 4):
            term = c[..., m] * z
            if nu:
                term *= perm(m, nu)
            res += term
            if m < 3:
                z = z * d
        return res

    def profile(self, xi):
        """The spline and its first two derivatives at xi."""
        return tuple(self(xi, nu) for nu in range(3))


@dataclass
class RevolutionBody:
    """Axisymmetric star-shaped body given by a positive polar profile.

    Stores gamma and its first two derivatives at nodes theta of [0, pi].
    A builtin shape keeps its analytic profile(theta) -> (gamma, gamma',
    gamma''); a body without one, sampled or built from arrays, takes the
    clamped cubic spline through its gamma (gamma'(0) = gamma'(pi) = 0,
    the even endpoint condition at the poles) to new nodes.
    """

    n: int
    theta: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray
    d2gamma: np.ndarray
    profile: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ambient dimension must be >= 3")
        if not np.isfinite([self.gamma, self.dgamma, self.d2gamma]).all():
            raise ValueError("profile gamma, gamma' and gamma'' must be finite")
        if np.any(self.gamma <= 0):
            raise ValueError("profile radius must be positive everywhere")

    @property
    def num_intervals(self):
        return self.theta.size - 1

    @property
    def max_radius(self):
        return float(np.max(self.gamma))

    @property
    def mean_radius(self):
        return float(np.mean(self.gamma))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_profile(cls, n, profile, samples=512):
        """The body of profile at samples + 1 uniform nodes of [0, pi]."""
        th = np.linspace(0.0, pi, samples + 1)
        return cls(n, th, *profile(th), profile=profile)

    @classmethod
    def sphere(cls, R, n, samples=512):
        return cls.from_profile(
            n, lambda th: (np.full_like(th, float(R)), *np.zeros((2, th.size))), samples)

    @classmethod
    def spheroid(cls, a, b, n, samples=512):
        """Spheroid with semi-axis a along the rotation axis and b across."""
        a, b = float(a), float(b)

        def profile(th):
            D = b**2 * np.cos(th) ** 2 + a**2 * np.sin(th) ** 2
            Dp = (a**2 - b**2) * np.sin(2 * th)
            Dpp = 2.0 * (a**2 - b**2) * np.cos(2 * th)
            return (a * b / np.sqrt(D), -0.5 * a * b * D ** (-1.5) * Dp,
                    0.75 * a * b * D ** (-2.5) * Dp**2 - 0.5 * a * b * D ** (-1.5) * Dpp)

        return cls.from_profile(n, profile, samples)

    @classmethod
    def cos_perturbed(cls, n, amplitude, frequency=2, R=1.0, samples=512):
        """Profile R (1 + amplitude cos(frequency * theta)); frequency integer."""
        R, amp, m = float(R), float(amplitude), int(frequency)
        return cls.from_profile(n, lambda th: (
            R * (1.0 + amp * np.cos(m * th)), -R * amp * m * np.sin(m * th),
            -R * amp * m**2 * np.cos(m * th)), samples)

    @classmethod
    def from_samples(cls, n, theta, gamma):
        """The clamped spline through (theta, gamma) at the nodes theta;
        ValueError unless theta rises strictly from 0 to pi (within 1e-12)."""
        theta = np.asarray(theta, dtype=float)
        if theta.size < 2 or not (abs(theta[0]) <= 1e-12 and abs(theta[-1] - pi) <= 1e-12):
            raise ValueError("profile theta must run from 0 to pi within 1e-12")
        return cls(n, theta, *_ClampedSpline(theta, gamma).profile(theta))

    def resampled(self, samples):
        """The body at samples + 1 uniform nodes of [0, pi]: its profile
        there, or without one the clamped spline through its gamma."""
        profile = self.profile or _ClampedSpline(self.theta, self.gamma).profile
        return RevolutionBody.from_profile(self.n, profile, samples)

    # -- profile file format ------------------------------------------

    @classmethod
    def load_profile(cls, path):
        """The body of a revolution-profile file; ValueError if it is not one."""
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith(PROFILE_HEADER + " n="):
                raise ValueError(f"not a revolution-profile file: {path}")
            n = int(header.split("n=")[1])
            rows = [line for line in fh if line.split("#", 1)[0].strip()]
        data = np.loadtxt(rows, ndmin=2) if rows else np.empty((0, 0))
        if data.shape[1] < 2:
            raise ValueError(f"{path}: a profile needs rows of theta and gamma")
        return cls.from_samples(n, data[:, 0], data[:, 1])


@dataclass
class SurfaceSampleSet:
    """Per-node surface data with quadrature weights.

    area_weight already folds in the Simpson coefficient, the profile speed
    and the rotation factor |S^(n-2)| rho^(n-2); summing integrand *
    area_weight integrates over the closed hypersurface.
    """

    n: int
    theta: np.ndarray
    kappa_m: np.ndarray
    kappa_r: np.ndarray
    x_dot_nu: np.ndarray
    area_weight: np.ndarray

    def h_k(self, k):
        return surface_h_k(self.kappa_m, self.kappa_r, self.n, k)

    def integrate(self, values):
        return float(np.sum(values * self.area_weight))

    @property
    def area(self):
        return float(np.sum(self.area_weight))

    @property
    def volume(self):
        """Enclosed volume by the divergence theorem: (1/n) int <x,nu>."""
        return self.integrate(self.x_dot_nu) / self.n


def surface_h_k(kappa_m, kappa_r, n, k):
    """H_k = S_k of (kappa_m, kappa_r * (n-2)); H_0 = 1."""
    return sigma_split(kappa_m, 0.0, 0.0, kappa_r, n - 2, k).levels[k]


def curvature_samples(body: RevolutionBody) -> SurfaceSampleSet:
    """Principal curvatures and quadrature weights over the profile grid.

    Orientation: a round sphere of radius R yields kappa_m = kappa_r = 1/R.
    On the axis (_on_axis) the limit kappa_r = kappa_m is used.
    """
    th = body.theta
    g, gp, gpp = body.gamma, body.dgamma, body.d2gamma
    speed = np.sqrt(g**2 + gp**2)
    sin, cos = np.sin(th), np.cos(th)

    rho = g * sin
    nu_rho = (g * sin - gp * cos) / speed
    x_dot_nu = g**2 / speed
    if np.any(x_dot_nu <= 0):
        raise StarShapeViolation("<x, nu> <= 0 at a profile sample")

    kappa_m = (g**2 + 2 * gp**2 - g * gpp) / speed**3
    kappa_r = np.divide(nu_rho, rho, out=kappa_m.copy(), where=~_on_axis(th))

    w = _simpson_weights(th.size, th[1] - th[0])
    area_weight = w * sphere_measure(body.n - 2) * rho ** (body.n - 2) * speed
    return SurfaceSampleSet(body.n, th, kappa_m, kappa_r, x_dot_nu, area_weight)


@dataclass(frozen=True)
class _Boundary:
    """The boundary data of one (solution, body) pair: c is the area-weighted
    mean of |grad u| over the curvature samples, spread its relative range,
    and integral(a, m) int |grad u|^a H_m over the boundary."""

    body: RevolutionBody
    samples: SurfaceSampleSet
    c: float
    spread: float
    integral: Callable


def _sampled_boundary(body: RevolutionBody, gradient):
    """(samples, grad, integral) of body on which |grad u| is gradient(theta):
    one curvature sample, one read grad of gradient at its angles, and the
    _Boundary's integral(a, m), all that F(-1) reads."""
    s = curvature_samples(body)
    grad = np.asarray(gradient(s.theta), dtype=float)
    return s, grad, lambda a, m: s.integrate(grad**a * s.h_k(m))


def _require_convex(samples: SurfaceSampleSet):
    worst = min(float(np.min(samples.kappa_m)), float(np.min(samples.kappa_r)))
    if worst <= 1e-12:
        raise NotConvex(f"curvature sample {worst:.3e} <= convexity margin 1e-12")


def af_sides(samples: SurfaceSampleSet, k):
    """The two sides of the Aleksandrov-Fenchel inequality, k >= 2:

        (n-k)(k-1) (int H_{k-1})^2  >=  (n-k+1) k int H_k int H_{k-2}

    for convex bodies, with equality exactly for balls.
    """
    n = samples.n
    if k < 2:
        raise ValueError("the Aleksandrov-Fenchel inequality needs k >= 2")
    _require_convex(samples)
    q_km1 = samples.integrate(samples.h_k(k - 1))
    q_k = samples.integrate(samples.h_k(k))
    q_km2 = samples.integrate(samples.h_k(k - 2))
    return (n - k) * (k - 1) * q_km1**2, (n - k + 1) * k * q_k * q_km2


def qiu_xia_sides(samples: SurfaceSampleSet):
    """The two sides of (n-1)/n |bdry|^2 >= |body| int H_1 for convex
    bodies, with equality exactly for balls."""
    _require_convex(samples)
    n = samples.n
    area_term = (n - 1) / n * samples.area**2
    return area_term, samples.volume * samples.integrate(samples.h_k(1))
