"""Weight functions, the monotone level-set functional F(t), and its audit.

The weight pair (C1, C2) solves the ODE system

    C2' + (a - k(n-k-1)/(n-k)) ((n-k)/((n-2k) t))^2 C1 = 0,
    C1' - (a+1-k) C2 + 2 (n-k)/((n-2k) t) (a - k(n-k-1)/(n-k)) C1 = 0,

with the closed forms

    C1(t) = (-t)^(-p) C3 + (-t)^(1-p) C4,       p = ((a-k)(n-k)+k)/(n-2k),
    C2(t) = -(p/(a+1-k)) C3 (-t)^(-q) - ((n-k)/(n-2k)) C4 (-t)^(1-q),
                                                 q = (a-k+1)(n-k)/(n-2k).

F(t) = C1(t) int_{u=t} H_k |grad u|^a + C2(t) int_{u=t} H_{k-1} |grad u|^(a+1)
is non-increasing on [-1, 0) and bounded below by the C3-weighted limit value,
with equality exactly for balls.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import LevelOutOfRange, NewtonStall
from .fields import AxiJets, levelset_curvature_axisym, rhs_at_radius
from .surfaces import (RevolutionBody, _simpson_weights, curvature_samples,
                       sphere_measure)

__all__ = [
    "FResult",
    "LevelSetCurve",
    "MonotonicityReport",
    "ProblemSpec",
    "T_GRID",
    "F_boundary",
    "F_eval",
    "extract_levelset",
    "level_grid",
    "limit_bound",
    "monotonicity_audit",
    "weights",
]

#: Default levels of monotonicity_audit and the CLI.  They keep clear of
#: both ends of [-1, 0), so they lie strictly between the first interior
#: row and the far-field row of a field solved on the default grids, which
#: needs N_s >= 128: at N_s = 32 the first interior row of a prolate 1.5,1
#: reaches -0.83 and that of a cosper 0.05,2 -0.879.
T_GRID = tuple(np.linspace(-0.9, -0.25, 8).tolist())


@dataclass(frozen=True)
class ProblemSpec:
    """Global problem parameters: dimension, order, exponent and weights."""

    n: int
    k: int
    a: float
    C3: float = 1.0
    C4: float = 0.0
    eps_schedule: tuple = (0.5, 0.1, 0.02)
    cnk: float = 1.0

    def __post_init__(self):
        eps = tuple(self.eps_schedule)
        if not (np.isfinite([self.a, self.C3, self.C4, self.cnk, *eps]).all()
                and self.cnk >= 0):
            raise ValueError(f"need finite a, C3, C4, eps and cnk >= 0, got a={self.a:g}, "
                             f"C3={self.C3:g}, C4={self.C4:g}, eps={eps}, cnk={self.cnk:g}")
        if not 1 <= self.k or not self.n > 2 * self.k:
            raise ValueError(f"need 1 <= k < n/2, got n={self.n}, k={self.k}")
        if self.a < self.a_min - 1e-12:
            raise ValueError(f"need a >= k(n-k-1)/(n-k) = {self.a_min:g}, got {self.a}")
        # C1(t) = (-t)^(-p) (C3 + (-t) C4) with 0 < -t <= 1
        if self.C3 < 0 or self.C3 + self.C4 < 0:
            raise ValueError(
                "C1(t) must be nonnegative on [-1, 0): need C3 >= 0 and "
                f"C3 + C4 >= 0, got C3={self.C3:g}, C4={self.C4:g}"
            )
        if not eps or min(eps) <= 0 or any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be strictly decreasing and positive")

    @property
    def a_min(self):
        return self.k * (self.n - self.k - 1) / (self.n - self.k)

    @property
    def decay_exponent(self):
        """Far-field decay power: u ~ -rho |x|^(-(n/k - 2))."""
        return self.n / self.k - 2.0

    @property
    def p_exponent(self):
        n, k, a = self.n, self.k, self.a
        return ((a - k) * (n - k) + k) / (n - 2 * k)

    @property
    def q_exponent(self):
        n, k, a = self.n, self.k, self.a
        return (a - k + 1) * (n - k) / (n - 2 * k)


def weights(t, spec: ProblemSpec):
    """Closed-form weight pair (C1(t), C2(t)) for t in [-1, 0):
    C1 = (-t)^(-p) (C3 + C4 (-t)) and
    C2 = -(-t)^(-q) (p / (a + 1 - k) C3 + (n - k) / (n - 2k) C4 (-t))."""
    mt = -np.asarray(t, dtype=float)
    if np.any((mt <= 0) | (mt > 1)):
        raise ValueError("levels must lie in [-1, 0)")
    n, k, p, q = spec.n, spec.k, spec.p_exponent, spec.q_exponent
    c4 = spec.C4 * mt
    c1 = mt**-p * (spec.C3 + c4)
    c2 = -(mt**-q) * (p / (spec.a + 1 - k) * spec.C3 + (n - k) / (n - 2 * k) * c4)
    return c1, c2


def limit_bound(spec: ProblemSpec, rho):
    """Lower bound of F(t): the t -> 0 limit, attained exactly for balls."""
    n, k, a = spec.n, spec.k, spec.a
    return (
        (n - 2 * k)
        / (k * (a + 1 - k))
        * comb(n - 1, k - 1)
        * (n / k - 2.0) ** a
        * rho ** (k * (n - k - a - 1))
        * sphere_measure(n - 1)
        * spec.C3
    )


# ---------------------------------------------------------------------------
# Level-set extraction (graphs s = sigma_t(theta) over the theta nodes)
# ---------------------------------------------------------------------------

#: Newton on a column cubic stops once every column's last step moved
#: sigma by at most this fraction of the radial step; the step cap.
TOL_LEVEL = 1e-10
MAX_LEVEL_NEWTON = 50


@dataclass
class LevelSetCurve:
    """The level set {u = t} as a graph s = sigma(theta) over the theta
    nodes of the grid, with its jets and quadrature weights there."""

    t: float
    n: int
    sigma: np.ndarray  # sigma(theta_j) on each theta node
    jets: AxiJets  # jets at (sigma(theta_j), theta_j)
    weight: np.ndarray  # Simpson weight * arc element * |S^(n-2)| rho^(n-2)


def extract_levelset(field, t) -> LevelSetCurve:
    """The level set {u = t} on every theta node column, with its jets.

    The level must sit strictly between the first interior grid row and
    the far-field row, so that it crosses every column between the two.
    u strictly increases in s on each column (field._columns checks this
    once per field and raises StarShapeViolation otherwise), so the node
    cell u[i, j] <= t < u[i + 1, j] is unique, and sigma(theta_j) is the
    root of the column's cubic spline there, by Newton from the linear
    crossing, safeguarded by bisection of the cell.  The same cubics give u
    and the six jets at the root.  The weights integrate over theta by
    composite Simpson with the arc element sqrt(r^2 + r'^2) of the graph
    r(theta), r' = -u_theta / u_r, which is r^2 |grad u| / (x . grad u).
    The jets are not checked for a critical point here; F_eval's
    curvatures are (see fields.levelset_curvature_axisym).
    """
    u = field.u
    lo, hi = float(np.max(u[1, :])), float(np.min(u[-1, :]))
    if not (t > lo and t < hi):
        raise LevelOutOfRange(
            f"level {t} not strictly between boundary and far-field values: "
            f"this grid holds the levels in ({lo:.6g}, {hi:.6g})"
        )
    grid = field.grid
    table = field._columns()
    cols = np.arange(grid.N_theta + 1)
    i = np.count_nonzero(u <= t, axis=0) - 1
    lower, upper = table[i, cols], table[i + 1, cols]  # [j, value or slope, q]
    # the power-basis coefficients in a = (s - s_i) / hs of each column cubic
    y0, y1 = lower[:, 0], upper[:, 0]
    d0, d1 = grid.hs * lower[:, 1], grid.hs * upper[:, 1]
    c = (y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, 2.0 * (y0 - y1) + d0 + d1)
    c0, c1, c2, c3 = (coef[:, 0] for coef in c)
    c0 = c0 - t
    a = -c0 / (y1[:, 0] - y0[:, 0])
    a_lo, a_hi = np.zeros_like(a), np.ones_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_LEVEL_NEWTON):
            f = ((c3 * a + c2) * a + c1) * a + c0
            a_lo = np.where(f <= 0, a, a_lo)
            a_hi = np.where(f > 0, a, a_hi)
            new = a - f / ((3.0 * c3 * a + 2.0 * c2) * a + c1)
            outside = ~((new >= a_lo) & (new <= a_hi))
            new[outside] = 0.5 * (a_lo + a_hi)[outside]
            moved = np.abs(new - a)
            a = new
            if moved.max() <= TOL_LEVEL:
                break
        else:
            j = int(np.argmax(moved))
            raise NewtonStall(
                f"level {t}: Newton on theta column {j} moved sigma by "
                f"{moved[j] * grid.hs:.3e} in its last of {MAX_LEVEL_NEWTON} steps"
            )
    a = a[:, None]
    values = ((c[3] * a + c[2]) * a + c[1]) * a + c[0]
    sigma = grid.s[i] + grid.hs * a[:, 0]
    r = np.exp(grid.lngam + sigma * grid.D)
    jets = AxiJets(field.n, r * np.cos(grid.theta), r * np.sin(grid.theta), *values.T)
    arc = r * r * jets.grad_norm / (jets.z * jets.uz + jets.rho * jets.urho)
    weight = (_simpson_weights(cols.size, grid.ht) * arc
              * sphere_measure(field.n - 2) * jets.rho ** (field.n - 2))
    return LevelSetCurve(t=t, n=field.n, sigma=sigma, jets=jets, weight=weight)


@dataclass
class FResult:
    t: float
    C1: float
    C2: float
    int_hk: float
    int_hk1: float
    F: float


def _weighted(t, spec: ProblemSpec, int_hk, int_hk1) -> FResult:
    """F = C1(t) int_hk + C2(t) int_hk1 with the weights of spec."""
    c1, c2 = map(float, weights(t, spec))
    return FResult(t, c1, c2, int_hk, int_hk1, c1 * int_hk + c2 * int_hk1)


def F_eval(field, t, spec: ProblemSpec) -> FResult:
    """Evaluate F(t) on an extracted level set of a solved field.

    All points of the level at once: the jets on every theta node column
    and H_k, H_{k-1} from the axisymmetric split.  None of this
    depends on the weights, so the field keeps the quadrature weights,
    H_k, H_{k-1} and |grad u| of each (t, n, k) it has seen, with the two
    integrals of each exponent a: a family of weights costs one level-set
    extraction per level and two sums per level and exponent.
    """
    key = (float(t), spec.n, spec.k)
    level = field._level_cache.get(key)
    if level is None:
        curve = extract_levelset(field, t)
        jets = curve.jets
        sk = rhs_at_radius(jets.r, field.eps, spec.n, field.cnk)
        hk, hk1 = levelset_curvature_axisym(jets, spec.k, sk)
        level = (curve.weight, hk, hk1, jets.grad_norm, {})
        field._level_cache[key] = level
    weight, hk, hk1, gn, sums = level
    if spec.a not in sums:
        sums[spec.a] = (float(np.sum(hk * gn**spec.a * weight)),
                        float(np.sum(hk1 * gn ** (spec.a + 1) * weight)))
    return _weighted(t, spec, *sums[spec.a])


def F_boundary(field, body: RevolutionBody, spec: ProblemSpec) -> FResult:
    """F at t = -1, with its two surface integrals taken on the boundary.

    Curvatures come from the body geometry; |grad u| is the field's
    gradient on the boundary row, where u is constant, so |grad u| is the
    one-sided U_s of ExteriorField._node_jets through the chain rule.
    """
    s = curvature_samples(body)
    gn = field.boundary_gradient(body.theta)
    int_hk = s.integrate(s.h_k(spec.k) * gn**spec.a)
    int_hk1 = s.integrate(s.h_k(spec.k - 1) * gn ** (spec.a + 1))
    return _weighted(-1.0, spec, int_hk, int_hk1)


@dataclass
class MonotonicityReport:
    t: np.ndarray
    F: np.ndarray
    results: tuple  # the FResult of each level, in t order
    upward_violation: float
    limit_value: float
    limit_gap_min: float
    spread: float
    tol_mono: float

    @property
    def non_increasing(self):
        return self.upward_violation <= self.tol_mono

    @property
    def limit_respected(self):
        return self.limit_gap_min >= -self.tol_mono

    @property
    def constant_flag(self):
        """Ball candidate: F is flat to tolerance."""
        return self.spread <= self.tol_mono


def level_grid(t_grid):
    """The levels t_grid, T_GRID if None, as an array; ValueError unless
    they lie in [-1, 0) and strictly increase."""
    ts = np.asarray(T_GRID if t_grid is None else t_grid, dtype=float)
    if not np.all((-1.0 <= ts) & (ts < 0.0)):
        raise ValueError("levels must lie in [-1, 0)")
    if not np.all(np.diff(ts) > 0):
        raise ValueError("levels must strictly increase")
    return ts


def monotonicity_audit(field, spec: ProblemSpec, tol_mono, t_grid=None):
    """Evaluate F over the level grid (T_GRID by default; see level_grid)
    and check the monotone contract.

    tol_mono should come from a Richardson error estimate on F itself
    (two grid levels); the continuum monotonicity is exact but discrete F
    carries O(h^2) + O(eps^2) bias.
    """
    ts = level_grid(t_grid)
    results = tuple(F_eval(field, t, spec) for t in ts)
    Fs = np.array([r.F for r in results])
    diffs = np.diff(Fs)
    upward = float(max(np.max(diffs, initial=0.0), 0.0))
    limit = limit_bound(spec, field.rho_hat)
    return MonotonicityReport(
        t=ts,
        F=Fs,
        results=results,
        upward_violation=upward,
        limit_value=limit,
        limit_gap_min=float(np.min(Fs - limit)),
        spread=float(np.max(Fs) - np.min(Fs)),
        tol_mono=float(tol_mono),
    )
