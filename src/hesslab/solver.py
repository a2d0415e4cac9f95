"""Damped chord-Newton solver for the regularized exterior problem.

Solves S_k(Hessian u) = f^eps outside an axisymmetric star-shaped body,
with u = -1 on the body and a self-consistent decaying Dirichlet condition
on a far truncation sphere.  The domain is mapped to the unit square by
an exponential radial stretch s in [0, 1] against the polar angle theta;
all physical derivatives come from analytic chain-rule factors of that
map, so the only discretization is second-order centered differencing
on the (s, theta) grid.
"""

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile
from math import log, pi
from operator import itemgetter

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NewtonStall, PoorFit, StarShapeViolation
from .fields import AxiJets, _check_order, rhs_at_radius
from .surfaces import (RevolutionBody, _ClampedSpline, _on_axis, _simpson_weights,
                       _spline_slopes)

__all__ = [
    "AxiGrid",
    "ExteriorField",
    "admissibility_margin",
    "estimate_rho",
    "solve_exterior",
]

FIELD_HEADER = "# exterior-field v2"
#: Headers load_checkpoint reads, each with the width of its profile block:
#: a v1 file stores theta and gamma alone, and re-splines the derivatives.
_FIELD_HEADERS = {"# exterior-field v1": 2, FIELD_HEADER: 4}

#: A checkpoint header's keys in file order, each with the type that reads it
#: back: the body's n, ExteriorField's keywords but grid and u, then AxiGrid's.
_HEADER = {"n": int, "k": int, "eps": float, "cnk": float, "rho_hat": float,
           "residual_norm": float, "admissible": float, "R_out": float,
           "N_s": int, "N_theta": int}
_FIELD_KEYS = tuple(_HEADER)[1:-3]

#: The six meridian jets: the fields of AxiJets after u; S_k reads the last four.
_JET_KEYS = tuple(f.name for f in dataclasses.fields(AxiJets))[4:]

#: Residual sup-norm that a Newton solve, and the boundary rows of a
#: field (_boundary_derivs), must reach; and Newton's step cap.
TOL_NEWTON = 1e-10
MAX_NEWTON = 60

#: Trials {1, 1/2, ...} of a step from a stale factor that _newton_solve
#: makes before it refactors instead of halving on.
STALE_TRIES = 6


@dataclass
class AxiGrid:
    """Tensor grid (s, theta) on the annulus between the body and R_out.

    The radial map is r(s, theta) = gamma(theta) * exp(s * L(theta)) with
    L = log(R_out / gamma), so s = 0 is the body and s = 1 the truncation
    sphere regardless of theta.  N_s < 1 or N_theta < 2 raises ValueError.
    On an even N_theta the middle column is theta = pi/2, the mirror line
    of a body symmetric about z = 0, where _half cuts the grid.
    """

    body: RevolutionBody
    R_out: float
    N_s: int
    N_theta: int

    def __post_init__(self):
        if min(self.N_s, self.N_theta) < 1:
            raise ValueError(f"grid counts must be >= 1: N_s={self.N_s}, "
                             f"N_theta={self.N_theta}")
        if self.N_theta < 2:
            raise ValueError(f"the theta quadratures need N_theta >= 2: {self.N_theta}")
        if not 10.0 * self.body.max_radius <= self.R_out < np.inf:
            raise ValueError(
                f"R_out = {self.R_out} below 10 * max profile radius "
                f"{self.body.max_radius}, or not finite"
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
        self._on_axis = _on_axis(self.theta)

    @property
    def r_nodes(self):
        return np.exp(self.lngam[None, :] + self.s[:, None] * self.D[None, :])

    @cached_property
    def _chain_factors(self):
        """The chain rule's factors: 1/r, z and rho on the grid, and
        the theta vectors a = 1/L, b = gamma'/(gamma L), c = gamma'/(gamma L^2),
        e = (log gamma)''/L + 2 b^2, cos, sin and cot theta (0 on the
        axis).  With L = log(R_out / gamma) the radial map has s_r = a/r,
        s_theta = (s - 1) b, s_r theta = c/r and s_theta theta = (s - 1) e."""
        r, th = self.r_nodes, self.theta
        a, b = 1.0 / self.D, self.dlngam / self.D
        sin, cos = np.sin(th), np.cos(th)
        cot = np.divide(cos, sin, out=np.zeros_like(sin), where=~self._on_axis)
        return (1.0 / r, r * cos, r * sin, a, b, a * b,
                self.d2lngam * a + 2.0 * b * b, cos, sin, cot)

    @cached_property
    def _level_factors(self):
        """The column index, cos and sin theta and the Simpson weights in
        theta of a level set over the node columns."""
        return (np.arange(self.theta.size), *self._chain_factors[7:9],
                _simpson_weights(self.theta.size, self.ht))

    def _half(self):
        """The grid cut to its columns theta in [0, pi/2] (N_theta, ht and the
        body stay the full grid's), or None unless N_theta is even and
        gamma(pi - theta_j) = gamma(theta_j) within 4 ulps (gamma'' of a body
        resampled through a spline is only within ~5e-11, of a builtin shape,
        sampled from its formulas, within 2e-15).  The last column is the mirror line."""
        g = self.body.gamma
        if self.N_theta % 2 or np.abs(g - g[::-1]).max() > 4 * np.spacing(g.max()):
            return None
        half, cols = dataclasses.replace(self), slice(self.N_theta // 2 + 1)
        for name in ("theta", "lngam", "dlngam", "d2lngam", "D", "_on_axis"):
            setattr(half, name, getattr(self, name)[cols])
        return half


def _fold(c):
    """Border weights c of the full meridian on its half: c_j + c_(N_theta - j)
    for j < N_theta/2, so c_half . U = c . U on a mirror-symmetric U."""
    h = c.shape[1] // 2
    return np.hstack([c[:, :h] + c[:, :h:-1], c[:, h:h + 1]])


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


def _theta_derivs(A, ht):
    """Centered theta derivatives along the last axis, with even-reflection
    ghosts at the poles."""
    G = np.concatenate([A[..., 1:2], A, A[..., -2:-1]], axis=-1)
    up, down = G[..., 2:], G[..., :-2]
    return (up - down) / (2 * ht), (up - 2 * A + down) / ht**2


def _chain(grid: AxiGrid, rows, F, u) -> AxiJets:
    """The AxiJets of grid rows `rows` (a slice), where the node values
    are u, from the derivatives F = (U_s, U_ss, U_theta, U_s theta,
    U_theta theta) there, in two stages.  The radial map gives the r-free
    polar derivatives (pr, pt, prr, prt, ptt) = (r u_r, u_theta, r^2 u_rr,
    r u_r theta, u_theta theta); r^2 times the Hessian in the polar frame,
    (prr, prt - pt, ptt + pr), turned by theta is r^2 times the meridian
    Hessian.  kappat = u_rho / rho = (pr + cot theta pt) / r^2, and
    urhorho on the axis."""
    ir, z, rho, a, b, c, e, cos, sin, cot = grid._chain_factors
    ir, t = ir[rows], grid.s[rows, None] - 1.0
    Us, Uss, Ut, Ust, Utt = F
    bt = b * t  # s_theta
    pr, pt = a * Us, bt * Us + Ut
    # r^2 times the polar-frame Hessian, (prr, prt - pt, ptt + pr)
    hrr = a * (a * Uss - Us)
    hrt = a * (bt * Uss + Ust) + c * Us - pt
    htt = bt * (bt * Uss + 2.0 * Ust) + (e * t) * Us + Utt + pr
    ir2 = ir * ir
    cc, ss, sc = cos * cos, sin * sin, sin * cos
    urhorho = (ss * hrr + 2.0 * sc * hrt + cc * htt) * ir2
    kappat = (pr + cot * pt) * ir2
    kappat[:, grid._on_axis] = urhorho[:, grid._on_axis]
    return AxiJets(grid.body.n, z[rows], rho[rows], u, (cos * pr - sin * pt) * ir,
                   (sin * pr + cos * pt) * ir,
                   (cc * hrr - 2.0 * sc * hrt + ss * htt) * ir2,
                   (sc * (hrr - htt) + (cc - ss) * hrt) * ir2, urhorho, kappat)


def _margin(levels):
    """min over the nodes of the S_j given (0 < j < k), the cone where S_k is
    elliptic; inf if none."""
    return float(min((lvl.min() for lvl in levels), default=np.inf))


def _stencil_weights(grid: AxiGrid, rows, partials):
    """w_q = dS_k/dF_q on grid rows `rows`: the linearization of S_k in
    the five F_q, from the partials of AxiJets.split, by the two stages
    of _chain transposed.  On the axis kappat is urhorho."""
    ir, _, _, a, b, c, e, cos, sin, cot = grid._chain_factors
    ir2, t = ir[rows] ** 2, grid.s[rows, None] - 1.0
    d_zz, d_zrho, d_rhorho, d_kap = partials
    on = grid._on_axis
    d_rhorho, d_kap = d_rhorho + on * d_kap, ~on * d_kap
    cc, ss, sc = cos * cos, sin * sin, sin * cos
    # the partials in _chain's hrr, hrt, htt and pt (that in pr is g_tt + d_kap),
    # all but the 1/r^2 of every jet, which scales each w_q last
    g_rr = cc * d_zz + sc * d_zrho + ss * d_rhorho
    g_rt = 2.0 * sc * (d_rhorho - d_zz) + (cc - ss) * d_zrho
    g_tt = ss * d_zz - sc * d_zrho + cc * d_rhorho
    g_pt = cot * d_kap - g_rt
    bt = b * t
    w = [a * (g_tt + d_kap - g_rr) + bt * g_pt + c * g_rt + (e * t) * g_tt,
         a * (a * g_rr + bt * g_rt) + bt * bt * g_tt,
         g_pt,
         a * g_rt + 2.0 * bt * g_tt,
         g_tt]
    for wq in w:
        wq *= ir2
    return w


def _boundary_derivs(field):
    """The five F_q (2, W) on the Dirichlet rows s = 0 and 1 of a field, and
    max |S_k - f^eps| on each.  U_s is one-sided and third-order, the theta
    derivatives centered; U_ss solves S_k = f^eps at each node by one
    division, as S_k is affine in U_ss: it enters the meridian Hessian as
    U_ss grad s (x) grad s, a rank-one term, and kappat not at all (on the
    axis grad s is along it).  Raises NewtonStall, naming the row, where
    dS_k/dU_ss is not finite and > 0 (a constant u, a NaN the stencils
    read) or a row's residual ends above TOL_NEWTON; ValueError if N_s < 3.
    """
    grid, U = field.grid, field.u
    if grid.N_s < 3:
        raise ValueError(f"the boundary-row stencil reads four rows: N_s = {grid.N_s}")
    rows, edge = [0, grid.N_s], U[[0, -1]]
    Us = (-11.0 * edge + 18.0 * U[[1, -2]] - 9.0 * U[[2, -3]] + 2.0 * U[[3, -4]]) / (
        6.0 * grid.hs) * np.array([[1.0], [-1.0]])
    Ut, Utt = _theta_derivs(edge, grid.ht)
    F = [Us, np.zeros_like(Us), Ut, _theta_derivs(Us, grid.ht)[0], Utt]
    f = rhs_at_radius(np.exp(grid.lngam + grid.s[rows, None] * grid.D), field.eps,
                      field.n, field.cnk)
    split = _chain(grid, rows, F, edge).split(field.k, grad=True)
    slope = _stencil_weights(grid, rows, split.grad)[1]
    ok = np.isfinite(slope) & (slope > 0)
    if not ok.all():
        r, j = np.argwhere(~ok)[0]
        raise NewtonStall(f"boundary row at s = {r}: dS_k/dU_ss = {slope[r, j]:.3e} "
                          f"at theta column {j}, not finite and > 0")
    F[1] = (f - split.levels[-1]) / slope
    worst = np.abs(_chain(grid, rows, F, edge).split(field.k).levels[-1] - f).max(axis=1)
    for r in (0, 1):
        if not worst[r] <= TOL_NEWTON:
            raise NewtonStall(f"boundary row at s = {r}: max |S_k - f^eps| = "
                              f"{worst[r]:.3e} > {TOL_NEWTON:g}")
    return F, tuple(worst.tolist())


def _header_fields(path, tokens):
    """The key=value tokens of a checkpoint header as a dict.  A token that
    is not exactly one key=value, or that repeats a key, raises ValueError
    naming path."""
    kv = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not (key and eq and value) or "=" in value:
            raise ValueError(f"{path}: header token {tok!r} is not one key=value")
        if key in kv:
            raise ValueError(f"{path}: header token {tok!r} repeats the key {key!r}")
        kv[key] = value
    return kv


def _check_u(path, u, shape):
    """Raise ValueError, naming path and the condition that fails, unless u
    is finite of the given shape."""
    want = f"{path}: u must be finite of shape {shape}, got"
    if u.shape != shape:
        raise ValueError(f"{want} shape {u.shape}")
    finite = np.isfinite(u)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{want} the non-finite value {u[i, j]} at row {i}, column {j}")


@dataclass
class ExteriorField:
    """Discrete solution of the approximating equation on an AxiGrid.

    u holds node values including both Dirichlet rows; treat a returned
    field as immutable.  What the post-solve pipeline derives from u is a
    cached_property: the node jets (_node_jets, which sets boundary_residuals,
    () before, to max |S_k - f^eps| on the body and the outer row), the
    column splines in s of u and its jets (_columns), the boundary |grad u|
    spline (boundary_gradient) and the span of levels that cross every
    column (_span); F_eval keeps the weight-free part of F(t) per level in
    _level_cache.  A new, reloaded or replace'd field has none of them yet.
    The counters
    factorizations, back_solves and residual_evals record the work of the
    solve_exterior call that produced the field (residual_evals counts only
    the iterates Newton tried, as the Jacobian is analytic) and unknowns the
    size of its Newton system.  solve_exterior sets them: they are not
    constructor parameters, read 0 on a sampled, loaded or replace'd field,
    and are not stored.  admissible, stored, is the admissibility_margin.
    A k outside 1 <= k < n/2 raises ValueError (fields._check_order).
    """

    grid: AxiGrid
    u: np.ndarray
    k: int
    eps: float
    rho_hat: float
    cnk: float = 1.0
    residual_norm: float = float("nan")
    admissible: float = float("nan")
    factorizations: int = dataclasses.field(init=False, default=0)
    back_solves: int = dataclasses.field(init=False, default=0)
    residual_evals: int = dataclasses.field(init=False, default=0)
    unknowns: int = dataclasses.field(init=False, default=0)

    def __post_init__(self):
        _check_order(self.n, self.k)
        self._level_cache = {}
        self.boundary_residuals = ()

    @property
    def n(self):
        return self.grid.body.n

    @cached_property
    def _node_jets(self):
        """The AxiJets of every grid node: the interior rows by centered
        stencils, the two Dirichlet rows by _boundary_derivs, whose U_ss
        makes S_k = f^eps hold at the boundary nodes themselves, so that
        their jets are admissible."""
        grid = self.grid
        edge, self.boundary_residuals = _boundary_derivs(self)
        F = [np.vstack([e[0], Fq, e[1]])
             for e, Fq in zip(edge, _centered(self.u, grid.hs, grid.ht))]
        return _chain(grid, slice(None), F, self.u)

    @cached_property
    def _span(self):
        """(max u on the first interior row, min u on the outer row)."""
        return float(np.max(self.u[1])), float(np.min(self.u[-1]))

    @cached_property
    def _columns(self):
        """The not-a-knot cubic splines in s of u and of the six node jets
        on every theta node column, as table[i, j, 0 or 1, q]: the value or
        the s-slope at node (i, j) of u (q = 0) and of _JET_KEYS[q - 1].
        On a node column the tensor not-a-knot bicubic of the grid (scipy's
        RectBivariateSpline) weighs the theta nodes by (1, 0, 0, 0), so it
        is this column spline.

        Raises StarShapeViolation, naming the first such column, if u does
        not strictly increase in s on some column: then a level set of u
        need not be a graph s = sigma(theta) over the columns.
        """
        rising = np.all(np.diff(self.u, axis=0) > 0, axis=0)
        if not rising.all():
            j = int(np.argmin(rising))
            raise StarShapeViolation(
                f"u does not strictly increase in s on theta column {j} "
                f"(theta = {self.grid.theta[j]:.6g}), so its level sets "
                "are not graphs over theta"
            )
        table = np.empty(self.u.shape + (2, 1 + len(_JET_KEYS)))
        for q, key in enumerate(("u",) + _JET_KEYS):
            table[:, :, 0, q] = getattr(self._node_jets, key)
        slopes = _spline_slopes(self.grid.s, np.moveaxis(table[:, :, 0], 0, -1),
                                clamped=False)
        table[:, :, 1] = np.moveaxis(slopes, -1, 0)
        return table

    @cached_property
    def _boundary_spline(self):
        jets = self._node_jets
        return _ClampedSpline(self.grid.theta, np.hypot(jets.uz[0], jets.urho[0]))

    def boundary_gradient(self, theta):
        """|grad u| on the body boundary, interpolated onto given angles."""
        return self._boundary_spline(theta)

    # -- checkpoint format --------------------------------------------

    def save_checkpoint(self, path, extra_header=""):
        """Write the field, with the key=value tokens of extra_header after
        the _HEADER keys (load_checkpoint ignores them).  A token not one
        key=value or repeating a key, and a u not finite of the grid's shape,
        raise ValueError before the file is opened.  Every value is written by
        "%.17g", each distinct column of u once: column j of W is written as
        min(j, W - 1 - j) when u equals its column mirror bit for bit."""
        grid, body = self.grid, self.grid.body
        u = np.asarray(self.u, dtype=float)
        _check_u(path, u, (grid.N_s + 1, grid.N_theta + 1))
        values = (self.n, *(getattr(self, key) for key in _FIELD_KEYS),
                  grid.R_out, grid.N_s, grid.N_theta)
        tokens = [f"{key}={v:.17g}" for key, v in zip(_HEADER, values)]
        tokens += extra_header.split()
        _header_fields(path, tokens)
        cols = np.arange(u.shape[1])
        bits = u.view(np.uint64)  # -0.0 and 0.0 differ here, as in "%.17g"
        if np.array_equal(bits, bits[:, ::-1]):
            cols = np.minimum(cols, cols[::-1])
        distinct, row = int(cols.max()) + 1, itemgetter(*cols.tolist())
        block = (" ".join(["%.17g"] * distinct) + "\n") * len(u) % tuple(
            u[:, :distinct].ravel().tolist())
        profile = np.column_stack((body.theta, body.gamma, body.dgamma, body.d2gamma))
        with open(path, "w") as fh:
            fh.write(f"{FIELD_HEADER} {' '.join(tokens)}\n")
            fh.write("# theta gamma dgamma d2gamma\n")
            fh.write("%.17g %.17g %.17g %.17g\n" * len(profile)
                     % tuple(profile.ravel().tolist()))
            fh.write("# u\n")
            fh.writelines(" ".join(row(ln.split(" "))) + "\n" for ln in block.splitlines())

    @classmethod
    def load_checkpoint(cls, path):
        """Read a field of save_checkpoint: a v2 file rebuilds the grid body
        exactly from its stored derivatives, a v1 file splines its radii.  A
        header token not one key=value or repeating a key, a _HEADER key not
        there or not of its type, a profile or u block not of its shape (the
        version gives the profile's width), and values that the body, the
        grid or the field refuse raise ValueError naming path."""
        with open(path) as fh:
            header = fh.readline().split()
            width = _FIELD_HEADERS.get(" ".join(header[:3]))
            if width is None:
                raise ValueError(f"not an exterior-field file: {path}")
            kv, values = _header_fields(path, header[3:]), []
            for key, kind in _HEADER.items():
                try:
                    values.append(kind(kv[key]))
                except (KeyError, ValueError):
                    got = kv.get(key, "nothing")
                    raise ValueError(f"{path}: header key {key!r} must read as "
                                     f"{kind.__name__}, got {got}") from None
            n, *field_values, R_out, N_s, N_theta = values
            fh.readline()  # theta gamma [dgamma d2gamma] marker
            try:  # the profile block ends at the u marker
                prof = np.array([[float(v) for v in line.split()] for line in takewhile(
                    lambda ln: ln.strip() != "# u", fh)]).reshape(N_theta + 1, width)
            except ValueError:
                raise ValueError(f"{path}: the profile block is not {N_theta + 1} rows "
                                 f"of {width} numbers") from None
            try:
                u = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: u block: {exc}") from None
        _check_u(path, u, (N_s + 1, N_theta + 1))
        try:
            body = (RevolutionBody(n, *np.ascontiguousarray(prof.T)) if width == 4
                    else RevolutionBody.from_samples(n, prof[:, 0], prof[:, 1]))
            return cls(grid=AxiGrid(body, R_out, N_s, N_theta), u=u,
                       **dict(zip(_FIELD_KEYS, field_values)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def admissibility_margin(field: ExteriorField):
    """Worst min(S_1, ..., S_{k-1}) over all nodes, boundaries included; inf at k = 1."""
    return _margin(field._node_jets.split(field.k - 1).levels[1:])


def _shell(grid: AxiGrid):
    """Node radii and the mask of the far-field shell r in [0.6, 0.8] R_out.

    The shell lies strictly between the Dirichlet rows (R_out is at least
    ten body radii), so it covers interior nodes only.  A grid whose shell
    holds no node cannot fit rho and raises ValueError.
    """
    r = grid.r_nodes
    mask = (r >= 0.6 * grid.R_out) & (r <= 0.8 * grid.R_out)
    if not mask.any():
        raise ValueError(
            f"the far-field shell r in [0.6, 0.8]*R_out holds no node of the "
            f"N_s={grid.N_s} grid; refine N_s"
        )
    return r, mask


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


def _linearization(grid, jets, k):
    """(ab, b) at the interior AxiJets jets: J = sum_q diag(w_q) D_q, D_q
    the stencil of F_q, with the outer row held fixed, as the band ab of
    dgbtrf (kl = ku = W + 1 on rows of W nodes, so the slot V[di + 1, dj + 1]
    of node (i, j), dJ/dU(i + di, j + dj), is the diagonal o = di W + dj:
    J[r, r + o] = ab[2 kl - o, r + o]); b its derivative in the outer value
    (U_s and U_ss of the last interior row).  At the poles the slot of the
    reflected neighbour is folded onto the inner one; that off the row, which
    would wrap onto the next, is zeroed."""
    w = _stencil_weights(grid, slice(1, -1), jets.split(k, grad=True).grad)
    m, W = w[0].shape
    hs, ht, kl, N = grid.hs, grid.ht, W + 1, m * W
    d1, d2, e = np.array([-0.5, 0.0, 0.5]), np.array([1.0, -2.0, 1.0]), np.eye(3)[1]
    D = [np.outer(a, b) for a, b in ((d1 / hs, e), (d2 / hs**2, e), (e, d1 / ht),
                                     (d1 / hs, d1 / ht), (e, d2 / ht**2))]
    # not tensordot or einsum: they page in ~0.5 MB of new library code
    V = sum(np.multiply.outer(Dq, wq) for Dq, wq in zip(D, w))
    V[:, 2, :, 0] += V[:, 0, :, 0]
    V[:, 0, :, -1] += V[:, 2, :, -1]
    V[:, 0, :, 0] = V[:, 2, :, -1] = 0.0
    ab = np.zeros((N, 3 * kl + 1)).T  # Fortran order, as dgbtrf takes it
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            o = di * W + dj
            ab[2 * kl - o, max(o, 0):N + min(o, 0)] = (
                V[di + 1, dj + 1].ravel()[max(-o, 0):N - max(o, 0)])
    b = np.zeros_like(w[0])
    b[-1] = w[0][-1] / (2 * grid.hs) + w[1][-1] / grid.hs**2
    return ab, b


class _ChordFactor:
    """The one band LU of a solve_exterior call, shared by every Newton
    step, with counters of the work done.

    The unknowns are the interior rows, below the body row top and above
    the uniform outer row outer(U_int) = c . U_int (see _outer_weights), so
    the Jacobian is J + b c^T (see _linearization).  J, a band matrix of
    half-width W + 1 on rows of W nodes, is factored by LAPACK's dgbtrf
    and back-solved by dgbtrs, and a step solves the bordered system by
    Sherman-Morrison, x - z (c . x) / (1 + c . z) with x = -J^(-1) res and
    z = J^(-1) b.
    """

    def __init__(self, grid, top, k, c):
        self.grid, self.top, self.k, self.c = grid, top, k, c
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
        """(interior jets, residual, its sup-norm, cone margin) at U_int."""
        self.residual_evals += 1
        grid = self.grid
        jets = _chain(grid, slice(1, -1),
                      _centered(self.full(U_int), grid.hs, grid.ht), U_int)
        levels = jets.split(self.k).levels
        res = levels[-1] - f_int
        return jets, res, float(np.abs(res).max()), _margin(levels[1:-1])

    def refactor(self, jets):
        """Factor the Jacobian at the iterate whose jets are given; an exact
        zero pivot raises LinAlgError naming its node."""
        from scipy.linalg.lapack import dgbtrf, dgbtrs  # loaded by Newton only

        ab, b = _linearization(self.grid, jets, self.k)
        kl = self.top.size + 1
        lu, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=True)
        if info > 0:
            i, j = divmod(info - 1, self.top.size)
            raise LinAlgError(f"zero pivot at s-row {i + 1}, theta column {j}")
        self.lu = lambda v: dgbtrs(lu, kl, kl, v, piv, overwrite_b=True)[0]
        self.z = self._back_solve(b)
        self.denom = 1.0 + np.vdot(self.c, self.z)
        self.fresh = True
        self.factorizations += 1

    def _back_solve(self, v):
        self.back_solves += 1
        return self.lu(v.ravel()).reshape(v.shape)

    def step(self, res):
        x = self._back_solve(-res)
        return x - self.z * (np.vdot(self.c, x) / self.denom)


def _newton_solve(chord, U_int, f_int):
    """Chord Newton on the interior unknowns with admissibility guards, at
    most MAX_NEWTON steps; returns the solution and its residual sup-norm
    rn, which must reach TOL_NEWTON.

    Steps come from chord's LU, maybe of an earlier iterate.  The accepted
    step is the largest in {1, 1/2, ...} that lowers rn and keeps the cone
    margin min(S_1, ..., S_{k-1}) >= min(current margin, 0), so a
    non-admissible start may move but the margin never drops.  A step from
    a stale factor that is rejected, or fails to halve an rn above
    TOL_NEWTON, refactors; such a step is rejected after its first
    STALE_TRIES trials, as its smaller ones only creep toward rn and the
    margin, where a fresh factor's step goes further.  A rejected step
    from a fresh factor raises NewtonStall, which names the guard's floor
    when the guard refused a step that lowered rn.  Within TOL_NEWTON only
    full steps are tried, and the first that does not halve rn ends the
    solve at the rounding floor.  Ending on a non-admissible root (margin
    below 0) raises.
    """
    jets, res, rn, margin = chord.evaluate(U_int, f_int)
    for _ in range(MAX_NEWTON):
        if chord.lu is None:
            try:
                chord.refactor(jets)
            except LinAlgError as exc:
                raise NewtonStall(f"singular Newton Jacobian at residual "
                                  f"{rn:.3e} ({exc})") from exc
        step = chord.step(res)
        at_floor = rn <= TOL_NEWTON
        lam, accepted, refused = 1.0, False, None
        floor = min(margin, 0.0)
        for tries in range(1, 2 if at_floor else 42):
            cand = U_int + lam * step
            jets_c, res_c, rn_c, margin_c = chord.evaluate(cand, f_int)
            if rn_c < rn:
                accepted = margin_c >= floor
                if accepted:
                    break
                refused = refused or (rn_c, margin_c, floor)
            if tries == STALE_TRIES and not chord.fresh:
                break
            lam *= 0.5
        halved = accepted and rn_c <= 0.5 * rn
        if accepted:
            U_int, jets, res, rn, margin = cand, jets_c, res_c, rn_c, margin_c
        if at_floor and not halved:
            break
        if not accepted:
            if chord.fresh and refused:
                raise NewtonStall(
                    "no admissible decreasing step at residual {:.3e}: the "
                    "admissibility guard refused a step to residual {:.3e}, "
                    "cone margin {:.3e} below the floor {:.3e}".format(rn, *refused))
            if chord.fresh:
                raise NewtonStall(f"no decreasing step at residual {rn:.3e} > "
                                  f"{TOL_NEWTON:.1e} in {tries} trials from a fresh factor")
            chord.lu = None
        elif not (halved or chord.fresh or rn <= TOL_NEWTON):
            chord.lu = None
        chord.fresh = False
    if rn > TOL_NEWTON:
        raise NewtonStall(f"Newton stopped at residual {rn:.3e} > {TOL_NEWTON:.1e}")
    if margin < 0.0:
        raise NewtonStall(f"Newton converged to a non-admissible root: cone margin "
                          f"{margin:.3e} at residual {rn:.3e}")
    return U_int, rn


def solve_exterior(body: RevolutionBody, spec, R_out=None, N_s=256, N_theta=None):
    """Solve the regularized exterior problem S_k = f^eps at eps = spec.eps.

    The outer Dirichlet value is the decay -rho_hat R_out^(2 - n/k), with
    rho_hat the far-field shell fit of the solution itself.  That fit is
    linear in the node values, so the self-consistent outer value is part
    of the Newton system, which is solved once.  The returned rho_hat is
    estimate_rho of the solution, so a far field that has not settled
    raises PoorFit.

    The Newton solve is a chord iteration on a band LU of the analytic
    Jacobian, with the outer value folded in as a rank-one border (see
    _ChordFactor), factored again only when its steps stop contracting
    (see _newton_solve).  S_1 is linear, so a k = 1 solve factors once;
    for k >= 2 the Jacobian drifts slowly and a few factorizations serve.

    On a mirror-symmetric body with even N_theta (AxiGrid._half) u(s,
    pi - theta) = u(s, theta), so Newton solves on theta in [0, pi/2] alone,
    (N_s - 1)(N_theta/2 + 1) unknowns, from slices of the full start, with
    the border folded (_fold); the solution is mirrored onto the full grid.
    """
    n, k = spec.n, spec.k
    if body.n != n:
        raise ValueError(f"body dimension {body.n} != spec dimension {n}")
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

    c, half = _outer_weights(grid, alpha), grid._half()
    if half is not None:
        U, c = U[:, :half.theta.size], _fold(c)
    chord = _ChordFactor(half or grid, U[0], k, c)
    f_int = rhs_at_radius(chord.grid.r_nodes[1:-1], spec.eps, n, spec.cnk)
    U_int, rn = _newton_solve(chord, U[1:-1], f_int)

    u = chord.full(U_int)
    field = ExteriorField(grid=grid, u=u if half is None else np.hstack([u, u[:, -2::-1]]),
                          k=k, eps=spec.eps, rho_hat=float("nan"), cnk=spec.cnk,
                          residual_norm=rn)
    field.factorizations, field.back_solves, field.residual_evals, field.unknowns = (
        chord.factorizations, chord.back_solves, chord.residual_evals, U_int.size)
    field.rho_hat, field.admissible = estimate_rho(field), admissibility_margin(field)
    return field
