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

from .errors import LevelOutOfRange
from .fields import AxiJets, levelset_curvature_axisym, rhs_at_radius
from .surfaces import RevolutionBody, curvature_samples, sphere_measure

__all__ = [
    "FResult",
    "LevelSetCurve",
    "MonotonicityReport",
    "ProblemSpec",
    "T_GRID",
    "F_boundary",
    "F_eval",
    "extract_levelset",
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
        eps = tuple(self.eps_schedule)
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
    """Closed-form weight pair (C1(t), C2(t)) for t in [-1, 0)."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= 0) or np.any(t < -1):
        raise ValueError("levels must lie in [-1, 0)")
    mt = -t
    n, k, a = spec.n, spec.k, spec.a
    p, q = spec.p_exponent, spec.q_exponent
    c1 = mt ** (-p) * spec.C3 + mt ** (1 - p) * spec.C4
    c2 = -(p / (a + 1 - k)) * spec.C3 * mt ** (-q) - (n - k) / (
        n - 2 * k
    ) * spec.C4 * mt ** (1 - q)
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
# Level-set extraction (marching squares on the solver grid)
# ---------------------------------------------------------------------------


@dataclass
class LevelSetCurve:
    """Contour {u = t} as quadrature-ready segments in the (z, rho) plane."""

    t: float
    n: int
    seg_z: np.ndarray  # (nseg, 2) endpoint z
    seg_rho: np.ndarray  # (nseg, 2) endpoint rho
    mid_s: np.ndarray
    mid_theta: np.ndarray
    jets: AxiJets  # jets at the segment midpoints
    weight: np.ndarray  # segment length * |S^(n-2)| rho^(n-2)


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


def extract_levelset(field, t) -> LevelSetCurve:
    """Marching-squares contour of {u = t} with midpoint jets.

    The level must sit strictly between the first interior grid row and the
    far-field row, so a full stencil separates the curve from both
    boundaries.  Segments come in row-major cell order, two per saddle cell.
    The jets are not checked for a critical point here; F_eval's curvatures
    are (see fields.levelset_curvature_axisym).
    """
    u = field.u
    lo, hi = float(np.max(u[1, :])), float(np.min(u[-1, :]))
    if not (t > lo and t < hi):
        raise LevelOutOfRange(
            f"level {t} not strictly between boundary and far-field values: "
            f"this grid holds the levels in ({lo:.6g}, {hi:.6g})"
        )
    grid = field.grid
    hs = grid.s[1] - grid.s[0]
    ht = grid.theta[1] - grid.theta[0]
    f = u - t
    pos = f > 0
    case = (
        pos[:-1, :-1] * 1 + pos[1:, :-1] * 2 + pos[1:, 1:] * 4 + pos[:-1, 1:] * 8
    )
    ci, cj = np.nonzero((case > 0) & (case < 15))
    if ci.size == 0:
        raise LevelOutOfRange(f"level {t} produced no contour segments")
    code = case[ci, cj]
    count = _SEG_COUNT[code]
    cell = np.repeat(np.arange(code.size), count)
    slot = np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
    edges = _SEG_EDGES[code[cell], slot]
    i, j = ci[cell], cj[cell]
    s0, th0 = _crossings(edges[:, 0], i, j, f, hs, ht)
    s1, th1 = _crossings(edges[:, 1], i, j, f, hs, ht)

    z0, rho0 = grid.to_physical(s0, th0)
    z1, rho1 = grid.to_physical(s1, th1)
    length = np.hypot(z1 - z0, rho1 - rho0)
    mid_s = 0.5 * (s0 + s1)
    mid_th = 0.5 * (th0 + th1)
    mid_rho = 0.5 * (rho0 + rho1)

    jets = field.jets_at(mid_s, mid_th)
    weight = length * sphere_measure(field.n - 2) * mid_rho ** (field.n - 2)
    return LevelSetCurve(
        t=t,
        n=field.n,
        seg_z=np.stack([z0, z1], axis=1),
        seg_rho=np.stack([rho0, rho1], axis=1),
        mid_s=mid_s,
        mid_theta=mid_th,
        jets=jets,
        weight=weight,
    )


@dataclass
class FResult:
    t: float
    C1: float
    C2: float
    int_hk: float
    int_hk1: float
    F: float


def F_eval(field, t, spec: ProblemSpec) -> FResult:
    """Evaluate F(t) on an extracted level set of a solved field.

    All segments of the level at once: one batched jet evaluation at the
    midpoints and H_k, H_{k-1} from the axisymmetric split.  None of this
    depends on the weights, so the field keeps the segment quadrature
    weights, H_k, H_{k-1} and |grad u| of each (t, n, k) it has seen: a
    family of weights costs one level-set extraction per level, and each
    further member only its weights and two sums.
    """
    key = (float(t), spec.n, spec.k)
    level = field._level_cache.get(key)
    if level is None:
        curve = extract_levelset(field, t)
        jets = curve.jets
        sk = rhs_at_radius(jets.r, field.eps, spec.n, field.cnk)
        hk, hk1 = levelset_curvature_axisym(jets, spec.k, sk)
        level = (curve.weight, hk, hk1, jets.grad_norm)
        field._level_cache[key] = level
    weight, hk, hk1, gn = level
    int_hk = float(np.sum(hk * gn**spec.a * weight))
    int_hk1 = float(np.sum(hk1 * gn ** (spec.a + 1) * weight))
    c1, c2 = weights(t, spec)
    return FResult(
        t=t,
        C1=float(c1),
        C2=float(c2),
        int_hk=int_hk,
        int_hk1=int_hk1,
        F=float(c1) * int_hk + float(c2) * int_hk1,
    )


def F_boundary(field, body: RevolutionBody, spec: ProblemSpec) -> FResult:
    """F at t = -1, with its two surface integrals taken on the boundary.

    Curvatures come from the body geometry; |grad u| is the field's
    gradient on the boundary row, from the centered stencils through the
    PDE ghost rows (u is constant on the boundary).
    """
    s = curvature_samples(body)
    gn = field.boundary_gradient(body.theta)
    int_hk = s.integrate(s.h_k(spec.k) * gn**spec.a)
    int_hk1 = s.integrate(s.h_k(spec.k - 1) * gn ** (spec.a + 1))
    c1, c2 = weights(-1.0, spec)
    return FResult(
        t=-1.0,
        C1=float(c1),
        C2=float(c2),
        int_hk=int_hk,
        int_hk1=int_hk1,
        F=float(c1) * int_hk + float(c2) * int_hk1,
    )


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


def monotonicity_audit(field, spec: ProblemSpec, tol_mono, t_grid=None):
    """Evaluate F over the level grid (T_GRID by default) and check the
    monotone contract.

    tol_mono should come from a Richardson error estimate on F itself
    (two grid levels); the continuum monotonicity is exact but discrete F
    carries O(h^2) + O(eps^2) bias.
    """
    ts = np.asarray(T_GRID if t_grid is None else t_grid, dtype=float)
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
