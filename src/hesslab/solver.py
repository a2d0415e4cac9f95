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
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import NewtonStall, PoorFit
from .fields import AxiJets, Jet2, rhs_at_radius
from .surfaces import RevolutionBody
from .symfunc import sigma_split

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
_SPLIT_KEYS = _JET_KEYS[2:]  # the jets S_k depends on


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
        self._on_axis = np.abs(np.sin(self.theta)) < 1e-12
        self._terms = None

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

    def _chain_terms(self):
        """The chain rule, cached: (1/r on the grid, s - 1, terms).  Each
        meridian jet is linear in F_q = (U_s, U_ss, U_theta, U_s theta,
        U_theta theta): terms[jet] = (p, [(q, m, a(theta)), ...]) stands
        for (1/r)^p sum a (s - 1)^m F_q.  kappat = u_rho / rho has zero
        terms on the axis, where it is urhorho."""
        if self._terms is None:
            self._terms = (1.0 / self.r_nodes, self.s[:, None] - 1.0, _chain_rule(self))
        return self._terms


def _poly_mul(x, y):
    """Product of polynomials {(p, m): a(theta)} in 1/r and s - 1."""
    out = {}
    for (p1, m1), a in x.items():
        for (p2, m2), b in y.items():
            out[p1 + p2, m1 + m2] = out.get((p1 + p2, m1 + m2), 0.0) + a * b
    return out


def _chain_rule(grid: AxiGrid):
    """The terms of AxiGrid._chain_terms: the radial map gives the polar
    derivatives (u_r, u_t, u_rr, u_rt, u_tt) in the F_q, and the meridian
    jets are the polar ones through the derivatives of (r, theta) in
    (z, rho)."""
    gp, iD = grid.dlngam, 1.0 / grid.D  # L = log(R_out / gamma) = D
    sin, cos = np.sin(grid.theta), np.cos(grid.theta)
    one = {(0, 0): 1.0}
    s_r = {(1, 0): iD}
    s_th = {(0, 1): gp * iD}
    polar = (  # {q: polynomial} of u_r, u_t, u_rr, u_rt, u_tt
        {0: s_r},
        {0: s_th, 2: one},
        {0: {(2, 0): -iD}, 1: _poly_mul(s_r, s_r)},
        {0: {(1, 0): gp * iD**2}, 1: _poly_mul(s_r, s_th), 3: s_r},
        {
            0: {(0, 1): grid.d2lngam * iD + 2.0 * gp**2 * iD**2},
            1: _poly_mul(s_th, s_th),
            3: {(0, 1): 2.0 * gp * iD},
            4: one,
        },
    )
    sc = sin * cos
    meridian = {  # coefficients of u_r, u_t, u_rr, u_rt, u_tt
        "uz": ({(0, 0): cos}, {(1, 0): -sin}),
        "urho": ({(0, 0): sin}, {(1, 0): cos}),
        "uzz": ({(1, 0): sin**2}, {(2, 0): 2.0 * sc}, {(0, 0): cos**2},
                {(1, 0): -2.0 * sc}, {(2, 0): sin**2}),
        "uzrho": ({(1, 0): -sc}, {(2, 0): sin**2 - cos**2}, {(0, 0): sc},
                  {(1, 0): cos**2 - sin**2}, {(2, 0): -sc}),
        "urhorho": ({(1, 0): cos**2}, {(2, 0): -2.0 * sc}, {(0, 0): sin**2},
                    {(1, 0): 2.0 * sc}, {(2, 0): cos**2}),
    }
    terms = {}
    for key, weights in meridian.items():
        acc = {}
        for a, by_q in zip(weights, polar):
            for q, poly in by_q.items():
                for (p, m), c in _poly_mul(a, poly).items():
                    acc[p, q, m] = acc.get((p, q, m), 0.0) + c
        (p,) = {p for p, _, _ in acc}  # every term has the same power of 1/r
        terms[key] = (p, [(q, m, c) for (_, q, m), c in sorted(acc.items())])
    inv_sin = np.divide(1.0, sin, out=np.zeros_like(sin), where=~grid._on_axis)
    terms["kappat"] = (2, [(q, m, c * inv_sin) for q, m, c in terms["urho"][1]])
    return terms


def _centered(U, hs, ht):
    """The five (s, theta) derivatives F_q of U on its rows 1 .. -2.

    Second-order centered stencils in both indices; theta uses
    even-reflection ghosts at both poles.
    """
    Us = (U[2:] - U[:-2]) / (2 * hs)
    Uss = (U[2:] - 2 * U[1:-1] + U[:-2]) / hs**2
    Uth, Uthth = _theta_derivs(U[1:-1], ht)
    Usth = _theta_derivs(Us, ht)[0]
    return Us, Uss, Uth, Usth, Uthth


def _fd_all(U, hs, ht):
    """All five (s, theta) derivatives of U on the full grid: _centered on
    the interior rows, one-sided stencils on the two Dirichlet rows (third
    order for U_s, second for U_ss)."""
    Us, Uss, Uth, _, Uthth = _centered(np.vstack([U[0], U, U[-1]]), hs, ht)
    Us[0] = (-11 * U[0] + 18 * U[1] - 9 * U[2] + 2 * U[3]) / (6 * hs)
    Us[-1] = (11 * U[-1] - 18 * U[-2] + 9 * U[-3] - 2 * U[-4]) / (6 * hs)
    Uss[0] = (2 * U[0] - 5 * U[1] + 4 * U[2] - U[3]) / hs**2
    Uss[-1] = (2 * U[-1] - 5 * U[-2] + 4 * U[-3] - U[-4]) / hs**2
    return Us, Uss, Uth, _theta_derivs(Us, ht)[0], Uthth


def _theta_derivs(A, ht):
    """Centered theta derivatives with even-reflection ghosts at the poles."""
    G = np.concatenate([A[:, 1:2], A, A[:, -2:-1]], axis=1)
    return (G[:, 2:] - G[:, :-2]) / (2 * ht), (G[:, 2:] - 2 * A + G[:, :-2]) / ht**2


def _chain(grid: AxiGrid, rows, F, keys):
    """The meridian jets named in keys (urhorho before kappat) on grid rows
    `rows` (a slice), from the derivatives F = (U_s, U_ss, U_theta,
    U_s theta, U_theta theta) there, by the cached AxiGrid._chain_terms."""
    ir, t, terms = grid._chain_terms()
    ir, t = ir[rows], t[rows]
    moments = {}  # (s - 1)^m F_q
    out = {}
    for key in keys:
        p, by_qm = terms[key]
        for q, m, _ in by_qm:
            if (q, m) not in moments:
                moments[q, m] = F[q] if m == 0 else t**m * F[q]
        (q, m, c), *rest = by_qm
        acc = c * moments[q, m]
        for q, m, c in rest:
            acc += c * moments[q, m]
        acc *= ir if p == 1 else ir * ir
        out[key] = acc
    out["kappat"][:, grid._on_axis] = out["urhorho"][:, grid._on_axis]
    return out


def _split(d, n, k, grad=False):
    """S_0 .. S_k of the full Hessian of jets d, and with grad the partials
    of S_k in (uzz, uzrho, urhorho, kappat)."""
    return sigma_split(*(d[key] for key in _SPLIT_KEYS), n - 2, k, grad)


def _margin(levels):
    """min(S_1, ..., S_k) over the nodes."""
    return float(min(lvl.min() for lvl in levels[1:]))


def _stencil_weights(grid: AxiGrid, rows, partials):
    """w_q = sum_c (dS_k/dc) C[c, q] on grid rows `rows`, C the chain-rule
    coefficients: the linearization of S_k in the five F_q, from the
    partials of _split.  On the axis kappat is urhorho."""
    d_zz, d_zrho, d_rhorho, d_kap = partials
    partials = (d_zz, d_zrho, d_rhorho + d_kap * grid._on_axis, d_kap)
    ir, t, terms = grid._chain_terms()
    ir2, t = ir[rows] ** 2, t[rows]
    w = [0.0] * 5
    for key, dS in zip(_SPLIT_KEYS, partials):
        _, by_qm = terms[key]  # p = 2
        dS = dS * ir2
        for q, m, c in by_qm:
            w[q] = w[q] + (dS * t**m) * c
    return w


def _jacobian_pattern(m, W):
    """(indptr, indices, gather) of the CSC pattern of the 9-point stencil
    on m interior rows of W nodes; entry e takes its value from the flat
    index gather[e] of the _slots array.  Explicit zeros stay
    in: without the zero mixed-derivative entries of a sphere, the
    5-point pattern left is ordered far worse by MMD_AT_PLUS_A."""
    col = np.arange(m * W, dtype=np.int32)[:, None]
    slot = np.arange(8, -1, -1, dtype=np.int32)  # ascending rows in a column
    ri, rj = col // W - (slot // 3 - 1), col % W - (slot % 3 - 1)
    ok = (ri >= 0) & (ri < m) & (rj >= 0) & (rj < W)
    indptr = np.concatenate([[0], np.cumsum(ok.sum(axis=1))]).astype(np.int32)
    return indptr, (ri * W + rj)[ok], ((slot * m + ri) * W + rj)[ok]


def _slots(grid: AxiGrid, w):
    """V[di + 1, dj + 1, i, j] = d(sum_q w_q F_q)(i, j) / dU(i + di, j + dj)
    for the centered stencils and weights w_q on rows i; at the poles the
    reflected neighbour is folded onto the inner one."""
    d1, d2, e = np.array([-0.5, 0.0, 0.5]), np.array([1.0, -2.0, 1.0]), np.eye(3)[1]
    hs, ht = grid.hs, grid.ht
    D = [np.outer(a, b) for a, b in ((d1 / hs, e), (d2 / hs**2, e), (e, d1 / ht),
                                     (d1 / hs, d1 / ht), (e, d2 / ht**2))]
    # not tensordot or einsum: they page in ~0.5 MB of new library code
    V = sum(np.multiply.outer(Dq, wq) for Dq, wq in zip(D, w))
    V[:, 2, :, 0] += V[:, 0, :, 0]
    V[:, 0, :, -1] += V[:, 2, :, -1]
    return V


def _ghost_row_residual(grid, U, v, which, n, k, f, grad=False):
    """S_k - f^eps on Dirichlet row `which` (0 or -1), with ghost values v
    beyond it; with grad, also d/dv in solve_banded's (1, 1) layout, which
    is tridiagonal: v enters the stencils as the row di = -1 or +1."""
    ext = np.vstack([v, U[0], U[1]] if which == 0 else [U[-2], U[-1], v])
    rows = slice(0, 1) if which == 0 else slice(-1, None)
    d = _chain(grid, rows, _centered(ext, grid.hs, grid.ht), _SPLIT_KEYS)
    split = _split(d, n, k, grad)
    phi = split.levels[-1][0] - f
    if not grad:
        return phi
    w = _stencil_weights(grid, rows, split.grad)
    V = _slots(grid, w)[0 if which == 0 else 2, :, 0]
    ab = np.zeros((3, v.size))
    ab[0, 1:], ab[1], ab[2, :-1] = V[2, :-1], V[1], V[0, 1:]
    return phi, ab


def _solve_ghost_row(field, which):
    """Ghost values making the equation hold on Dirichlet row `which` of
    a field: Newton with the exact tridiagonal Jacobian from cubic
    extrapolation, until a step no longer lowers the row residual.  Raises
    NewtonStall if it ends above 1e-10, the default Newton tolerance."""
    grid, U, n, k = field.grid, field.u, field.n, field.k
    i = 1 if which == 0 else -1
    v = 3 * U[which] - 3 * U[which + i] + U[which + 2 * i]
    f = rhs_at_radius(grid.r_nodes[which], field.eps, n, field.cnk)
    phi, ab = _ghost_row_residual(grid, U, v, which, n, k, f, grad=True)
    for _ in range(60):
        v_new = v - solve_banded((1, 1), ab, phi)
        phi_new, ab_new = _ghost_row_residual(grid, U, v_new, which, n, k, f, True)
        if not np.abs(phi_new).max() < np.abs(phi).max():
            break
        v, phi, ab = v_new, phi_new, ab_new
    worst = float(np.abs(phi).max())
    if worst > 1e-10:
        raise NewtonStall(
            f"ghost row at s = {grid.s[which]:g} stopped at residual "
            f"{worst:.3e} > 1e-10"
        )
    return v


@dataclass
class ExteriorField:
    """Discrete solution of the approximating equation on an AxiGrid.

    u holds node values including both Dirichlet rows; treat a returned
    field as immutable.  The three counters record the work of the
    solve_exterior call that produced the field (the Jacobian is analytic,
    so residual_evals counts only the iterates Newton tried); they are
    zero for sampled or loaded fields and are not part of the checkpoint
    format.
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
                v0, v1 = _solve_ghost_row(self, 0), _solve_ghost_row(self, -1)
                F = _centered(np.vstack([v0, self.u, v1]), grid.hs, grid.ht)
            else:
                F = _fd_all(self.u, grid.hs, grid.ht)
            d = _chain(grid, slice(None), F, _JET_KEYS)
            r = grid.r_nodes
            d.update(r=r, z=r * np.cos(grid.theta), rho=r * np.sin(grid.theta))
            self._derived_cache = d
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
            fmt = " ".join(["%.17g"] * self.u.shape[1]) + "\n"
            fh.writelines(fmt % tuple(row.tolist()) for row in self.u)

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
    Sk = _split(d, field.n, field.k).levels[-1][1:-1]
    return Sk - rhs_at_radius(d["r"][1:-1], field.eps, field.n, field.cnk)


def admissibility_margin(field: ExteriorField):
    """Worst min(S_1, ..., S_k) over every grid node, boundaries included."""
    return _margin(_split(field._derived(), field.n, field.k).levels)


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


def _linearization(grid, d, n, k, pattern):
    """(J, b) at the interior jets d: J = sum_q diag(w_q) D_q, D_q the
    stencil of F_q, with the outer row held fixed, in the CSC pattern of
    _jacobian_pattern; b its derivative in the outer value (U_s and U_ss
    of the last interior row)."""
    w = _stencil_weights(grid, slice(1, -1), _split(d, n, k, grad=True).grad)
    indptr, indices, gather = pattern
    J = csc_matrix((_slots(grid, w).ravel()[gather], indices, indptr),
                   shape=(w[0].size,) * 2)
    b = np.zeros_like(w[0])
    b[-1] = w[0][-1] / (2 * grid.hs) + w[1][-1] / grid.hs**2
    return J, b


class _ChordFactor:
    """The one sparse LU of a solve_exterior call, shared by every Newton
    step and eps level, with counters of the work done.

    The unknowns are the interior rows, below the body row top and above
    the uniform outer row outer(U_int) = c . U_int (see _outer_weights), so
    the Jacobian is J + b c^T (see _linearization).  J is factored, and a
    step solves the bordered system by Sherman-Morrison,
    x - z (c . x) / (1 + c . z) with x = -J^(-1) res and z = J^(-1) b.
    """

    def __init__(self, grid, top, n, k, c):
        self.grid, self.top, self.n, self.k, self.c = grid, top, n, k, c
        self.pattern = _jacobian_pattern(grid.N_s - 1, grid.N_theta + 1)
        self.lu = None
        self.fresh = False  # factored at the current iterate
        self.factorizations = 0
        self.back_solves = 0
        self.residual_evals = 0

    def outer(self, U_int):
        return float(np.vdot(self.c, U_int))

    def full(self, U_int):
        """The full grid: the body row, U_int and the outer row."""
        return np.vstack([self.top, U_int, np.full_like(self.top, self.outer(U_int))])

    def evaluate(self, U_int, f_int):
        """(interior jets, residual, its sup-norm, Gamma_k margin) at U_int."""
        self.residual_evals += 1
        grid = self.grid
        d = _chain(grid, slice(1, -1), _centered(self.full(U_int), grid.hs, grid.ht),
                   _SPLIT_KEYS)
        levels = _split(d, self.n, self.k).levels
        res = levels[-1] - f_int
        return d, res, float(np.abs(res).max()), _margin(levels)

    def refactor(self, d):
        """Factor the Jacobian at the iterate whose jets are d."""
        J, b = _linearization(self.grid, d, self.n, self.k, self.pattern)
        self.lu = splu(J, permc_spec="MMD_AT_PLUS_A")
        self.z = self._back_solve(b)
        self.denom = 1.0 + np.vdot(self.c, self.z)
        self.fresh = True
        self.factorizations += 1

    def _back_solve(self, v):
        self.back_solves += 1
        return self.lu.solve(v.ravel()).reshape(v.shape)

    def step(self, res):
        x = self._back_solve(-res)
        return x - self.z * (np.vdot(self.c, x) / self.denom)


def _newton_solve(chord, U_int, f_int, tol, max_iter):
    """Chord Newton on the interior unknowns with admissibility guards;
    returns the solution and its residual sup-norm rn.

    Steps come from chord's LU, maybe of an earlier iterate or eps level.
    The accepted step is the largest in {1, 1/2, ...} that lowers rn and
    keeps the Gamma_k margin >= min(current margin, -max(1e-12, 1e-3 rn)),
    so a non-admissible start may move but the margin never drops.  A
    step from a stale factor that is rejected, or fails to halve an rn
    above tol, refactors; a rejected step from a fresh factor raises
    NewtonStall, which names the guard's floor when the guard refused a
    step that lowered rn.  Within tol only full steps are tried, and the first
    that does not halve rn ends the solve at the rounding floor.  Ending
    on a non-admissible root (margin below -max(1e-12, 1e-3 rn)) raises.
    """
    d, res, rn, margin = chord.evaluate(U_int, f_int)
    for _ in range(max_iter):
        if chord.lu is None:
            chord.refactor(d)
        step = chord.step(res)
        at_floor = rn <= tol
        lam, accepted, refused = 1.0, False, None
        for _ in range(1 if at_floor else 41):
            cand = U_int + lam * step
            d_c, res_c, rn_c, margin_c = chord.evaluate(cand, f_int)
            floor = min(margin, -max(1e-12, 1e-3 * rn_c))
            if rn_c < rn:
                accepted = margin_c >= floor
                if accepted:
                    break
                refused = refused or (rn_c, margin_c, floor)
            lam *= 0.5
        halved = accepted and rn_c <= 0.5 * rn
        if accepted:
            U_int, d, res, rn, margin = cand, d_c, res_c, rn_c, margin_c
        if at_floor and not halved:
            break
        if not accepted:
            if chord.fresh and refused:
                raise NewtonStall(
                    "no admissible decreasing step at residual {:.3e}: the "
                    "admissibility guard refused a step to residual {:.3e}, "
                    "Gamma_k margin {:.3e} below the floor {:.3e}".format(rn, *refused)
                )
            if chord.fresh:
                raise NewtonStall(
                    f"no decreasing step at residual {rn:.3e} "
                    f"(tolerance {tol:.1e}); eps too small for this grid?"
                )
            chord.lu = None
        elif not (halved or chord.fresh or rn <= tol):
            chord.lu = None
        chord.fresh = False
    if rn > tol:
        raise NewtonStall(f"Newton stopped at residual {rn:.3e} > {tol:.1e}")
    if margin < -max(1e-12, 1e-3 * rn):
        raise NewtonStall(
            f"Newton converged to a non-admissible root: Gamma_k margin "
            f"{margin:.3e} at residual {rn:.3e}"
        )
    return U_int, rn


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
    sparse LU of the analytic Jacobian, with the outer value folded in as
    a rank-one border (see _ChordFactor), factored again only when its
    steps stop contracting (see _newton_solve).  S_1 is linear, so
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

    chord = _ChordFactor(grid, U[0], n, k, _outer_weights(grid, alpha))
    U_int = U[1:-1]
    for eps in schedule:
        f_int = rhs_at_radius(grid.r_nodes[1:-1], eps, n, spec.cnk)
        U_int, rn = _newton_solve(chord, U_int, f_int, tol_newton, max_newton)
    U = chord.full(U_int)

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
