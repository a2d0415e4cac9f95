"""Damped chord-Newton solver for the regularized exterior problem.

Solves S_k(Hessian u) = f^eps outside an axisymmetric star-shaped body,
with u = -1 on the body and a self-consistent decaying Dirichlet condition
on a far truncation sphere.  The domain is mapped to the unit square by
an exponential radial stretch s in [0, 1] against the polar angle theta;
all physical derivatives come from analytic chain-rule factors of that
map, so the only discretization is second-order centered differencing
on the (s, theta) grid.
"""

from dataclasses import dataclass
from math import comb, log, pi

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .errors import NewtonStall, PoorFit
from .fields import AxiJets, Jet2, rhs_at_radius
from .surfaces import RevolutionBody

__all__ = [
    "AxiGrid",
    "ExteriorField",
    "admissibility_margin",
    "equation_residual",
    "estimate_rho",
    "hessian_axisym",
    "solve_exterior",
]

FIELD_HEADER = "# exterior-field v1"

#: The six meridian-jet arrays of _chain that are splined for off-node jets.
_JET_KEYS = ("uz", "urho", "uzz", "uzrho", "urhorho", "kappat")


@dataclass
class AxiGrid:
    """Tensor grid (s, theta) on the annulus between the body and R_out.

    The radial map is r(s, theta) = gamma(theta) * exp(s * L(theta)) with
    L = log(R_out / gamma), so s = 0 is the body and s = 1 the truncation
    sphere regardless of theta.
    """

    body: RevolutionBody
    R_out: float
    N_s: int
    N_theta: int

    def __post_init__(self):
        if self.R_out < 10.0 * self.body.max_radius:
            raise ValueError(
                f"R_out = {self.R_out} below 10 * max profile radius "
                f"{self.body.max_radius}"
            )
        if self.body.num_intervals != self.N_theta:
            self.body = self.body.resampled(self.N_theta)
        self.s = np.linspace(0.0, 1.0, self.N_s + 1)
        self.theta = self.body.theta
        self.hs = 1.0 / self.N_s
        self.ht = pi / self.N_theta
        g = self.body.gamma
        self.lngam = np.log(g)
        self.dlngam = self.body.dgamma / g
        self.d2lngam = self.body.d2gamma / g - self.dlngam**2
        self.D = log(self.R_out) - self.lngam
        self._g_spline = CubicSpline(self.theta, self.lngam, bc_type="clamped")

    @property
    def r_nodes(self):
        return np.exp(self.lngam[None, :] + self.s[:, None] * self.D[None, :])

    def radius(self, s, theta):
        g = self._g_spline(theta)
        return np.exp(g + np.asarray(s) * (log(self.R_out) - g))

    def to_physical(self, s, theta):
        """(z, rho) coordinates of grid points (s, theta)."""
        r = self.radius(s, theta)
        return r * np.cos(theta), r * np.sin(theta)


def _fd_all(U, hs, ht):
    """All five (s, theta) derivatives of U on the full grid.

    Interior rows use centered second-order stencils; the two Dirichlet
    rows use one-sided stencils (third order for U_s, second for U_ss).
    theta uses even-reflection ghosts at both poles throughout.
    """
    Us = np.empty_like(U)
    Uss = np.empty_like(U)
    Us[1:-1] = (U[2:] - U[:-2]) / (2 * hs)
    Uss[1:-1] = (U[2:] - 2 * U[1:-1] + U[:-2]) / hs**2
    Us[0] = (-11 * U[0] + 18 * U[1] - 9 * U[2] + 2 * U[3]) / (6 * hs)
    Us[-1] = (11 * U[-1] - 18 * U[-2] + 9 * U[-3] - 2 * U[-4]) / (6 * hs)
    Uss[0] = (2 * U[0] - 5 * U[1] + 4 * U[2] - U[3]) / hs**2
    Uss[-1] = (2 * U[-1] - 5 * U[-2] + 4 * U[-3] - U[-4]) / hs**2

    Uth, Uthth = _theta_derivs(U, ht)
    Usth = _theta_derivs(Us, ht)[0]
    return Us, Uss, Uth, Usth, Uthth


def _theta_derivs(A, ht):
    """Centered theta derivatives with even-reflection ghosts at the poles."""
    A = np.atleast_2d(A)
    G = np.empty((A.shape[0], A.shape[1] + 2))
    G[:, 1:-1] = A
    G[:, 0] = A[:, 1]
    G[:, -1] = A[:, -2]
    return (G[:, 2:] - G[:, :-2]) / (2 * ht), (
        G[:, 2:] - 2 * A + G[:, :-2]
    ) / ht**2


def _ghost_row_residual(grid, U, v, which, n, k, eps, cnk):
    """S_k - f^eps on a Dirichlet row, with ghost-row values v beyond it."""
    hs, ht = grid.hs, grid.ht
    if which == 0:
        s_val, row, nbr = 0.0, U[0], U[1]
        Us = (nbr - v) / (2 * hs)
        Uss = (nbr - 2 * row + v) / hs**2
    else:
        s_val, row, nbr = 1.0, U[-1], U[-2]
        Us = (v - nbr) / (2 * hs)
        Uss = (v - 2 * row + nbr) / hs**2
    Uth, Uthth = _theta_derivs(row[None, :], ht)
    Usth = _theta_derivs(Us[None, :], ht)[0]
    d = _chain(
        grid, np.array([[s_val]]), Us[None, :], Uss[None, :], Uth, Usth, Uthth
    )
    f = rhs_at_radius(d["r"], eps, n, cnk)
    return _sigma_levels(d, n, k)[-1][0] - f[0]


def _solve_ghost_row(grid, U, which, n, k, eps, cnk):
    """Ghost-row values making the equation hold on a Dirichlet row.

    Per-node scalar Newton (simultaneous over the row, with a numerical
    slope); the weak theta-coupling through the mixed derivative is
    folded into the slope and iterated out.  Raises NewtonStall if the
    row residual ends above 1e-10, the default Newton tolerance of the
    solve.
    """
    if which == 0:
        v = 3 * U[0] - 3 * U[1] + U[2]
    else:
        v = 3 * U[-1] - 3 * U[-2] + U[-3]
    dv = 1e-6 * max(1.0, float(np.abs(v).max()))
    phi = _ghost_row_residual(grid, U, v, which, n, k, eps, cnk)
    for _ in range(60):
        if np.abs(phi).max() <= 1e-14:
            break
        slope = (
            _ghost_row_residual(grid, U, v + dv, which, n, k, eps, cnk)
            - _ghost_row_residual(grid, U, v - dv, which, n, k, eps, cnk)
        ) / (2 * dv)
        slope = np.where(np.abs(slope) > 1e-30, slope, 1e-30)
        step = -phi / slope
        lam = 1.0
        for _ in range(30):
            phi_new = _ghost_row_residual(
                grid, U, v + lam * step, which, n, k, eps, cnk
            )
            if np.abs(phi_new).max() < np.abs(phi).max():
                break
            lam *= 0.5
        else:
            break  # at the rounding floor
        v = v + lam * step
        phi = phi_new
    worst = float(np.abs(phi).max())
    if worst > 1e-10:
        raise NewtonStall(
            f"ghost row at s = {grid.s[which]:g} stopped at residual "
            f"{worst:.3e} > 1e-10"
        )
    return v


def _derived_with_ghosts(grid, U, n, k, eps, cnk):
    """Full-grid jets with centered stencils throughout, closing the two
    Dirichlet rows by equation-consistent ghost rows."""
    v0 = _solve_ghost_row(grid, U, 0, n, k, eps, cnk)
    v1 = _solve_ghost_row(grid, U, -1, n, k, eps, cnk)
    U_ext = np.vstack([v0[None, :], U, v1[None, :]])
    hs, ht = grid.hs, grid.ht
    Us = (U_ext[2:] - U_ext[:-2]) / (2 * hs)
    Uss = (U_ext[2:] - 2 * U_ext[1:-1] + U_ext[:-2]) / hs**2
    Uth, Uthth = _theta_derivs(U, ht)
    Usth = _theta_derivs(Us, ht)[0]
    return _chain(grid, grid.s[:, None], Us, Uss, Uth, Usth, Uthth)


def _chain(grid: AxiGrid, s_col, Us, Uss, Uth, Usth, Uthth):
    """Physical meridian derivatives from (s, theta) derivatives.

    s_col is the column vector of s values for the rows being processed.
    Returns per-node arrays of the gradient, meridian Hessian block and
    transverse curvature eigenvalue kappa_t = u_rho / rho (u_rhorho on
    the axis).
    """
    gp = grid.dlngam[None, :]
    gpp = grid.d2lngam[None, :]
    D = grid.D[None, :]
    th = grid.theta[None, :]
    sin, cos = np.sin(th), np.cos(th)

    r = np.exp(grid.lngam[None, :] + s_col * D)
    s_r = 1.0 / (r * D)
    s_th = gp * (s_col - 1.0) / D
    s_rr = -1.0 / (r**2 * D)
    s_rth = gp / (r * D**2)
    s_thth = (s_col - 1.0) * (gpp / D + 2.0 * gp**2 / D**2)

    u_r = Us * s_r
    u_t = Us * s_th + Uth
    u_rr = Uss * s_r**2 + Us * s_rr
    u_rt = Uss * s_r * s_th + Usth * s_r + Us * s_rth
    u_tt = Uss * s_th**2 + 2.0 * Usth * s_th + Uthth + Us * s_thth

    th_z = -sin / r
    th_rho = cos / r
    uz = u_r * cos + u_t * th_z
    urho = u_r * sin + u_t * th_rho

    r_zz = sin**2 / r
    r_zrho = -sin * cos / r
    r_rhorho = cos**2 / r
    th_zz = 2.0 * sin * cos / r**2
    th_zrho = (sin**2 - cos**2) / r**2
    th_rhorho = -2.0 * sin * cos / r**2

    uzz = (
        u_rr * cos**2 + 2.0 * u_rt * cos * th_z + u_tt * th_z**2
        + u_r * r_zz + u_t * th_zz
    )
    uzrho = (
        u_rr * cos * sin + u_rt * (cos * th_rho + sin * th_z)
        + u_tt * th_z * th_rho + u_r * r_zrho + u_t * th_zrho
    )
    urhorho = (
        u_rr * sin**2 + 2.0 * u_rt * sin * th_rho + u_tt * th_rho**2
        + u_r * r_rhorho + u_t * th_rhorho
    )

    rho = r * sin
    on_axis = np.broadcast_to(np.abs(sin) < 1e-12, rho.shape)
    safe_rho = np.where(on_axis, 1.0, rho)
    kappat = np.where(on_axis, urhorho, urho / safe_rho)

    return {
        "r": r,
        "z": r * cos,
        "rho": rho,
        "uz": uz,
        "urho": urho,
        "uzz": uzz,
        "uzrho": uzrho,
        "urhorho": urhorho,
        "kappat": kappat,
    }


def _sigma_levels(d, n, k):
    """Arrays S_1 .. S_k of the full Hessian via its axisymmetric split:

    S_m(full) = sum_j C(n-2, j) kappa_t^j S_{m-j}(meridian block).
    """
    SM1 = d["uzz"] + d["urhorho"]
    SM2 = d["uzz"] * d["urhorho"] - d["uzrho"] ** 2
    kap = d["kappat"]
    out = []
    for m in range(1, k + 1):
        acc = np.zeros_like(SM1)
        for j in range(max(0, m - 2), min(m, n - 2) + 1):
            term = comb(n - 2, j) * kap**j
            if m - j == 1:
                term = term * SM1
            elif m - j == 2:
                term = term * SM2
            acc = acc + term
        out.append(acc)
    return out


@dataclass
class ExteriorField:
    """Discrete solution of the approximating equation on an AxiGrid.

    u holds node values including both Dirichlet rows; treat a returned
    field as immutable.  The three counters record the work of the
    solve_exterior call that produced the field (residual_evals includes
    the evaluations inside Jacobian assembly); they are zero for sampled
    or loaded fields and are not part of the checkpoint format.
    """

    grid: AxiGrid
    u: np.ndarray
    k: int
    eps: float
    rho_hat: float
    cnk: float = 1.0
    residual_norm: float = float("nan")
    admissible: float = float("nan")
    pde_ghost: bool = True
    factorizations: int = 0
    back_solves: int = 0
    residual_evals: int = 0

    def __post_init__(self):
        self._derived_cache = None
        self._spline_cache = None

    @property
    def n(self):
        return self.grid.body.n

    def _derived(self):
        """Per-node jets on the full grid.

        Interior rows use centered stencils.  With pde_ghost on (the
        default for solved fields), the two Dirichlet rows get centered
        stencils through ghost rows chosen so that S_k = f^eps holds at
        the boundary nodes themselves, keeping their jets both
        second-order and admissible; with it off they fall back to
        one-sided stencils (for fields sampled from arbitrary functions
        that do not satisfy the equation).
        """
        if self._derived_cache is None:
            grid = self.grid
            if self.pde_ghost:
                self._derived_cache = _derived_with_ghosts(
                    grid, self.u, self.n, self.k, self.eps, self.cnk
                )
            else:
                Us, Uss, Uth, Usth, Uthth = _fd_all(self.u, grid.hs, grid.ht)
                self._derived_cache = _chain(
                    grid, grid.s[:, None], Us, Uss, Uth, Usth, Uthth
                )
        return self._derived_cache

    def _splines(self):
        if self._spline_cache is None:
            grid = self.grid
            d = self._derived()
            self._spline_cache = {
                key: RectBivariateSpline(grid.s, grid.theta, d[key])
                for key in _JET_KEYS
            }
            self._spline_cache["u"] = RectBivariateSpline(
                grid.s, grid.theta, self.u
            )
        return self._spline_cache

    def jets_at(self, s, theta) -> AxiJets:
        """Interpolated jets at off-node points (s[i], theta[i]), in batch."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        z, rho = self.grid.to_physical(s, theta)
        vals = {
            key: sp(s, theta, grid=False) for key, sp in self._splines().items()
        }
        return AxiJets(n=self.n, z=z, rho=rho, **vals)

    def jet_at(self, s, theta) -> Jet2:
        """Interpolated second-order jet at one off-node point (s, theta)."""
        return self.jets_at(s, theta).jet(0)

    def boundary_gradient(self, theta):
        """|grad u| on the body boundary, interpolated onto given angles."""
        d = self._derived()
        gn = np.hypot(d["uz"][0], d["urho"][0])
        return CubicSpline(self.grid.theta, gn, bc_type="clamped")(theta)

    def interior_range(self):
        """(min, max) of u strictly between the Dirichlet rows."""
        inner = self.u[1:-1]
        return float(inner.min()), float(inner.max())

    # -- checkpoint format --------------------------------------------

    def save_checkpoint(self, path, extra_header=""):
        """Write the field; extra_header holds further key=value tokens for
        the header line (load_checkpoint reads and ignores them)."""
        grid = self.grid
        with open(path, "w") as fh:
            fh.write(
                f"{FIELD_HEADER} n={self.n} k={self.k} eps={self.eps:.17g} "
                f"cnk={self.cnk:.17g} rho_hat={self.rho_hat:.17g} "
                f"residual_norm={self.residual_norm:.17g} "
                f"admissible={self.admissible:.17g} "
                f"R_out={grid.R_out:.17g} N_s={grid.N_s} N_theta={grid.N_theta}"
                + (f" {extra_header}" if extra_header else "")
                + "\n"
            )
            fh.write("# theta gamma\n")
            for th, g in zip(grid.theta, grid.body.gamma):
                fh.write(f"{th:.17g} {g:.17g}\n")
            fh.write("# u\n")
            for row in self.u:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def load_checkpoint(cls, path):
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith(FIELD_HEADER):
                raise ValueError(f"not an exterior-field file: {path}")
            kv = dict(tok.split("=") for tok in header.split()[3:])
            n, k = int(kv["n"]), int(kv["k"])
            N_s, N_theta = int(kv["N_s"]), int(kv["N_theta"])
            fh.readline()  # theta gamma marker
            prof = np.array(
                [
                    [float(v) for v in fh.readline().split()]
                    for _ in range(N_theta + 1)
                ]
            )
            fh.readline()  # u marker
            u = np.loadtxt(fh)
        body = RevolutionBody.from_samples(n, prof[:, 0], prof[:, 1])
        grid = AxiGrid(body, float(kv["R_out"]), N_s, N_theta)
        return cls(
            grid=grid,
            u=u,
            k=k,
            eps=float(kv["eps"]),
            rho_hat=float(kv["rho_hat"]),
            cnk=float(kv["cnk"]),
            residual_norm=float(kv["residual_norm"]),
            admissible=float(kv["admissible"]),
        )


def hessian_axisym(field: ExteriorField, node) -> Jet2:
    """Second-order jet at a grid node (i, j), without interpolation."""
    i, j = node
    d = field._derived()
    jets = AxiJets(
        n=field.n,
        u=field.u[i : i + 1, j],
        **{key: d[key][i : i + 1, j] for key in ("z", "rho", *_JET_KEYS)},
    )
    return jets.jet(0)


def equation_residual(field: ExteriorField):
    """S_k(Hessian u) - f^eps on the interior rows (same stencil as the
    Newton solve)."""
    d = field._derived()
    sl = slice(1, -1)
    inner = {key: val[sl] for key, val in d.items()}
    Sk = _sigma_levels(inner, field.n, field.k)[-1]
    return Sk - rhs_at_radius(inner["r"], field.eps, field.n, field.cnk)


def admissibility_margin(field: ExteriorField):
    """Worst min(S_1, ..., S_k) over every grid node, boundaries included."""
    levels = _sigma_levels(field._derived(), field.n, field.k)
    return float(min(lvl.min() for lvl in levels))


def _shell(grid: AxiGrid):
    """Node radii and the mask of the far-field shell r in [0.6, 0.8] R_out.

    The shell lies strictly between the Dirichlet rows (R_out is at least
    ten body radii), so it covers interior nodes only.
    """
    r = grid.r_nodes
    return r, (r >= 0.6 * grid.R_out) & (r <= 0.8 * grid.R_out)


def _fit_rho(grid: AxiGrid, U, alpha):
    """Fit of -u r^alpha over the shell r in [0.6, 0.8] R_out."""
    r, mask = _shell(grid)
    vals = -U[mask] * r[mask] ** alpha
    rho = float(vals.mean())
    spread = float(vals.std() / abs(rho))
    return rho, spread


def _outer_weights(grid: AxiGrid, alpha):
    """Weights c on the interior nodes with c . U_int = -rho_hat R_out^(-alpha),
    rho_hat being the shell fit of U: the self-consistent outer Dirichlet
    value is a linear functional of the interior unknowns."""
    r, mask = _shell(grid)
    c = np.where(mask, r**alpha, 0.0) * grid.R_out ** (-alpha) / mask.sum()
    return c[1:-1]


def estimate_rho(field: ExteriorField):
    """Asymptotic constant rho from the far-field shell of a solved field."""
    alpha = field.n / field.k - 2.0
    rho, spread = _fit_rho(field.grid, field.u, alpha)
    if spread > 1e-3:
        raise PoorFit(
            f"shell relative variance {spread:.2e} > 1e-3; far field not "
            "settled into the decay power"
        )
    return rho


def _assemble_jacobian(residual, U_int):
    """Sparse FD Jacobian by 9-coloring of the 3x3 stencil.

    Nodes three apart in each index never share a residual row (the theta
    reflection at the poles only folds immediate neighbors), so each of
    the nine perturbation patterns yields unambiguous columns.  Central
    differences are essential here: S_k is polynomial in the node values,
    so they give exact entries (up to rounding) where one-sided quotients
    pick up a curvature error growing like the squared stencil weights.
    """
    m, W = U_int.shape
    delta = 1e-6 * max(1.0, float(np.abs(U_int).max()))
    rows, cols, vals = [], [], []
    for di in range(3):
        for dj in range(3):
            mask = np.zeros((m, W), dtype=bool)
            mask[di::3, dj::3] = True
            Up = U_int.copy()
            Up[mask] += delta
            Um = U_int.copy()
            Um[mask] -= delta
            dres = (residual(Up)[0] - residual(Um)[0]) / (2 * delta)
            ic, jc = np.nonzero(mask)
            for oi in (-1, 0, 1):
                for oj in (-1, 0, 1):
                    ir, jr = ic + oi, jc + oj
                    ok = (ir >= 0) & (ir < m) & (jr >= 0) & (jr < W)
                    rows.append(ir[ok] * W + jr[ok])
                    cols.append(ic[ok] * W + jc[ok])
                    vals.append(dres[ir[ok], jr[ok]])
    size = m * W
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()


class _ChordFactor:
    """The one sparse LU of a solve_exterior call, shared by every Newton
    step and eps level, with counters of the work done.

    The outer Dirichlet row is the uniform value outer(U_int) = c . U_int
    (see _outer_weights), so the Jacobian of the residual is J + b c^T.
    J is the Jacobian with the outer row held fixed, banded like the
    stencil; it is what gets factored.  b = d res / d(outer value) is
    nonzero on the last interior row only.  Each factorization back-solves
    z = J^(-1) b once, and a step then solves the bordered system by the
    Sherman-Morrison formula, x - z (c . x) / (1 + c . z) with
    x = -J^(-1) res.
    """

    def __init__(self, c):
        self.c = c
        self.lu = None
        self.fresh = False  # factored at the current iterate
        self.factorizations = 0
        self.back_solves = 0
        self.residual_evals = 0

    def outer(self, U_int):
        return float(np.vdot(self.c, U_int))

    def refactor(self, residual, U_int):
        bot = self.outer(U_int)
        J = _assemble_jacobian(lambda V: residual(V, bot), U_int)
        self.lu = splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
        delta = 1e-6 * max(1.0, abs(bot))
        b = residual(U_int, bot + delta)[0] - residual(U_int, bot - delta)[0]
        self.z = self._back_solve(b / (2 * delta))
        self.denom = 1.0 + np.vdot(self.c, self.z)
        self.fresh = True
        self.factorizations += 1

    def _back_solve(self, v):
        self.back_solves += 1
        return self.lu.solve(v.ravel()).reshape(v.shape)

    def step(self, res):
        x = self._back_solve(-res)
        return x - self.z * (np.vdot(self.c, x) / self.denom)


def _newton_solve(grid, U_full, n, k, f_int, tol, max_iter, chord):
    """Chord Newton on the interior unknowns with admissibility guards.

    The outer Dirichlet row follows the unknowns as chord.outer(U_int),
    so the solve lands on the self-consistent decay -rho_hat R_out^(-alpha)
    with rho_hat the shell fit of its own result.  Steps come from chord's
    LU, which may have been factored at an earlier iterate or eps level.
    The accepted step is the largest in {1, 1/2, 1/4, ...} that decreases
    the residual sup-norm while keeping the Gamma_k margin above a bound
    that tightens with the residual itself.  The Jacobian is assembled and
    factored again at the current iterate when a step from a stale factor
    is rejected, or when it fails to halve a residual above tol; a
    rejected step from a fresh factor raises NewtonStall.  Once the
    residual is within tol only the full step is tried, and the iteration
    stops at the first step that does not halve the residual: the
    rounding floor has been reached.
    """
    top = U_full[0].copy()
    s_col = grid.s[1:-1, None]

    def residual(U_int, bot):
        chord.residual_evals += 1
        U = np.vstack([top[None, :], U_int, np.full_like(top, bot)[None, :]])
        Us, Uss, Uth, Usth, Uthth = _fd_all(U, grid.hs, grid.ht)
        d = _chain(
            grid,
            s_col,
            Us[1:-1],
            Uss[1:-1],
            Uth[1:-1],
            Usth[1:-1],
            Uthth[1:-1],
        )
        levels = _sigma_levels(d, n, k)
        res = levels[-1] - f_int
        margin = float(min(lvl.min() for lvl in levels))
        return res, margin

    U_int = U_full[1:-1].copy()
    res, _ = residual(U_int, chord.outer(U_int))
    rn = float(np.abs(res).max())
    for _ in range(max_iter):
        if chord.lu is None:
            chord.refactor(residual, U_int)
        step = chord.step(res)
        at_floor = rn <= tol
        lam, accepted = 1.0, False
        for _ in range(1 if at_floor else 41):
            cand = U_int + lam * step
            res_c, margin_c = residual(cand, chord.outer(cand))
            rn_c = float(np.abs(res_c).max())
            if rn_c < rn and margin_c >= -max(1e-12, 1e-3 * rn_c):
                accepted = True
                break
            lam *= 0.5
        halved = accepted and rn_c <= 0.5 * rn
        if accepted:
            U_int, res, rn = cand, res_c, rn_c
        if at_floor and not halved:
            break
        if not accepted:
            if chord.fresh:
                raise NewtonStall(
                    f"no admissible decreasing step at residual {rn:.3e} "
                    f"(tolerance {tol:.1e}); eps too small for this grid?"
                )
            chord.lu = None
        elif not (halved or chord.fresh or rn <= tol):
            chord.lu = None
        chord.fresh = False
    if rn > tol:
        raise NewtonStall(f"Newton stopped at residual {rn:.3e} > {tol:.1e}")
    bot = np.full_like(top, chord.outer(U_int))
    out = np.vstack([top[None, :], U_int, bot[None, :]])
    return out, rn


def solve_exterior(
    body: RevolutionBody,
    spec,
    schedule=None,
    R_out=None,
    N_s=256,
    N_theta=None,
    tol_newton=1e-10,
    max_newton=60,
):
    """Solve the regularized exterior problem by eps-continuation.

    The outer Dirichlet value is the decay -rho_hat R_out^(2 - n/k), with
    rho_hat the far-field shell fit of the solution itself.  That fit is
    linear in the node values, so the self-consistent outer value is part
    of the Newton system, and each eps in the (strictly decreasing)
    schedule takes exactly one Newton solve.

    Every Newton solve of the call is a chord iteration on one shared
    sparse LU of the finite-difference Jacobian, with the outer value
    folded in as a rank-one border (see _ChordFactor), factored again only
    when its steps stop contracting (see _newton_solve).  S_1 is linear, so
    a k = 1 solve factors once; for k >= 2 the Jacobian drifts slowly and a
    few factorizations serve the whole continuation.  max_newton caps the
    steps of each Newton solve.  The returned field carries the counts of
    factorizations, back-solves and residual evaluations.
    """
    n, k = spec.n, spec.k
    if body.n != n:
        raise ValueError(f"body dimension {body.n} != spec dimension {n}")
    schedule = tuple(schedule if schedule is not None else spec.eps_schedule)
    if not all(a > b > 0 for a, b in zip(schedule, schedule[1:])) or not schedule:
        raise ValueError("eps schedule must be strictly decreasing and positive")
    if N_theta is None:
        N_theta = max(16, N_s // 2)
    if R_out is None:
        R_out = 40.0 * body.max_radius
    grid = AxiGrid(body, R_out, N_s, N_theta)
    alpha = spec.decay_exponent

    # initial iterate: the pure decay power in the stretched coordinate,
    # which matches u = -1 on the body exactly, blended onto the uniform
    # outer row of its own shell fit so that Newton starts from a smooth
    # state (started from the raw power, the oblate n=5, k=2 spheroid
    # 1,1.2 stalls)
    U = -np.exp(-alpha * grid.s[:, None] * grid.D[None, :])
    rho_hat, _ = _fit_rho(grid, U, alpha)
    U = U * ((-rho_hat * R_out ** (-alpha)) / U[-1])[None, :] ** grid.s[:, None]

    chord = _ChordFactor(_outer_weights(grid, alpha))
    for eps in schedule:
        f_int = rhs_at_radius(grid.r_nodes[1:-1], eps, n, spec.cnk)
        U, rn = _newton_solve(grid, U, n, k, f_int, tol_newton, max_newton, chord)

    field = ExteriorField(
        grid=grid,
        u=U,
        k=k,
        eps=schedule[-1],
        rho_hat=_fit_rho(grid, U, alpha)[0],
        cnk=spec.cnk,
        residual_norm=rn,
        factorizations=chord.factorizations,
        back_solves=chord.back_solves,
        residual_evals=chord.residual_evals,
    )
    field.admissible = admissibility_margin(field)
    return field
