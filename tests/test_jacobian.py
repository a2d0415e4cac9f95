"""The solver's analytic derivatives against finite differences.

The Newton Jacobian and its rank-one border are built from the partials
of the axisymmetric S_k split; here each is compared with central
differences of the residual it linearizes.  The boundary rows' dS_k/dU_ss
comes from the same partials, and S_k is affine in U_ss there.
"""

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.sparse import coo_matrix

from hesslab import solver
from hesslab.errors import NewtonStall
from hesslab.fields import rhs_at_radius
from hesslab.monotone import ProblemSpec
from hesslab.solver import (
    AxiGrid,
    ExteriorField,
    admissibility_margin,
    solve_exterior,
)
from hesslab.surfaces import RevolutionBody

EPS = 0.1


def fd_jacobian(residual, U_int):
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
            dres = (residual(Up) - residual(Um)) / (2 * delta)
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


def interior_residual(grid, top, U_int, bot, k):
    """S_k - f^eps on the interior rows, by the stencils of
    equation_residual (a sampled u need not solve the equation, so the
    ghost rows of the Dirichlet rows are not asked for)."""
    u = np.vstack([top[None, :], U_int, np.full_like(top, bot)[None, :]])
    jets = solver._chain(grid, slice(1, -1), solver._centered(u, grid.hs, grid.ht),
                         U_int)
    return jets.split(k).levels[-1] - rhs_at_radius(grid.r_nodes[1:-1], EPS,
                                                    grid.body.n)


def iterate(body, k, N_s=32, N_theta=16):
    """A grid and a smooth iterate with u = -1 on the body and the decay
    power, bent in theta so that every chain-rule term is exercised."""
    grid = AxiGrid(body, 40.0 * body.max_radius, N_s, N_theta)
    alpha = body.n / k - 2.0
    s, th = grid.s[:, None], grid.theta[None, :]
    U = -np.exp(-alpha * s * grid.D[None, :]) * (
        1.0 + 0.05 * np.sin(np.pi * s) * np.cos(th)
    )
    return grid, U, alpha


CASES = [
    pytest.param(RevolutionBody.spheroid(1.5, 1.0, n=3), 1, id="prolate-n3-k1"),
    pytest.param(RevolutionBody.sphere(1.0, n=5), 2, id="ball-n5-k2"),
    pytest.param(RevolutionBody.spheroid(1.0, 1.2, n=5), 2, id="oblate-n5-k2"),
    pytest.param(RevolutionBody.spheroid(1.3, 1.0, n=7), 3, id="prolate-n7-k3"),
]


def relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def dense(ab, W):
    """The matrix of a LAPACK band ab with kl = ku = W + 1, as dgbtrf reads
    it: A[r, c] = ab[2 kl + r - c, c] for |r - c| <= kl."""
    kl, N = W + 1, ab.shape[1]
    r, c = np.indices((N, N))
    near = np.abs(r - c) <= kl
    A = np.zeros((N, N))
    A[near] = ab[(2 * kl + r - c)[near], c[near]]
    return A


def stencil_diagonals_only(ab, W):
    """Whether every entry of ab off the nine stencil diagonals
    {0, +-1, +-(W - 1), +-W, +-(W + 1)} is zero, dgbtrf's kl fill rows too."""
    offsets = 2 * (W + 1) - np.arange(ab.shape[0])
    stencil = [di * W + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    return not ab[~np.isin(offsets, stencil)].any()


@pytest.mark.parametrize("body,k", CASES)
def test_newton_jacobian_matches_fd(body, k):
    grid, U, alpha = iterate(body, k)
    top, U_int = U[0], U[1:-1]
    chord = solver._ChordFactor(grid, top, k,
                                solver._outer_weights(grid, alpha))
    bot = chord.outer(U_int)
    d = chord.evaluate(U_int, 0.0)[0]
    ab, b = solver._linearization(grid, d, k)
    want = fd_jacobian(lambda V: interior_residual(grid, top, V, bot, k), U_int)
    assert relative(dense(ab, top.size), want.toarray()) <= 1e-8

    delta = 1e-6 * max(1.0, abs(bot))
    b_fd = (
        interior_residual(grid, top, U_int, bot + delta, k)
        - interior_residual(grid, top, U_int, bot - delta, k)
    ) / (2 * delta)
    assert relative(b, b_fd) <= 1e-8


@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("body,k", CASES)
def test_ghost_row_jacobian_matches_fd(body, k, which):
    # the ghost row's one unknown per node is U_ss: with U_s, U_theta,
    # U_s theta and U_theta theta of Dirichlet row `which` fixed, S_k is
    # affine in U_ss at every node, the axis nodes included, and node j's
    # U_ss reaches node j alone, so d(S_k)/d(U_ss) is the diagonal of the
    # slopes of _stencil_weights and the one division of _boundary_derivs
    # solves S_k = f^eps there.  Each column is moved by the row's largest
    # |U_ss|: central differences are exact on a quadratic, so the second
    # difference is what shows S_k affine
    grid, U, _ = iterate(body, k)
    F, _ = solver._boundary_derivs(ExteriorField(grid=grid, u=U, k=k, eps=EPS,
                                                 rho_hat=1.0))
    rows, r = [0, grid.N_s], which % 2

    def row_sk(Uss, grad=False):
        split = solver._chain(grid, rows, [F[0], Uss, *F[2:]],
                              U[[0, -1]]).split(k, grad=grad)
        return split if grad else split.levels[-1][r]

    mid = row_sk(F[1], grad=True)
    slope = solver._stencil_weights(grid, rows, mid.grad)[1][r]
    step, W = float(np.abs(F[1][r]).max()), F[1].shape[1]
    fd, curve = np.empty((W, W)), np.empty((W, W))
    scale = np.abs(mid.levels[-1][r]).max()
    for j in range(W):
        lo, hi = F[1].copy(), F[1].copy()
        lo[r, j] -= step
        hi[r, j] += step
        lo, hi = row_sk(lo), row_sk(hi)
        fd[:, j] = (hi - lo) / (2.0 * step)
        curve[:, j] = hi - 2.0 * mid.levels[-1][r] + lo
        scale = max(scale, np.abs(lo).max(), np.abs(hi).max())
    assert np.all(np.abs(curve) <= 1e-13 * scale)
    assert np.all(np.abs(fd - np.diag(slope)) <= 1e-12 * np.abs(slope).max())


def factored(body, N_s, N_theta, monkeypatch):
    """A k = 1 solve of body, and the one band it hands to dgbtrf."""
    bands = []
    real = scipy.linalg.lapack.dgbtrf

    def capturing(ab, *args, **kwargs):
        bands.append(ab.copy())  # dgbtrf overwrites it with the factor
        return real(ab, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", capturing)
    field = solve_exterior(body, ProblemSpec(n=3, k=1, a=1.0), N_s=N_s,
                           N_theta=N_theta)
    (ab,) = bands
    return field, ab


def test_sphere_jacobian_band(monkeypatch):
    # the sphere is mirror-symmetric, so Newton solves on the half meridian:
    # rows of W = N_theta/2 + 1 nodes, and J is a band of half-width W + 1
    N_s, N_theta = 32, 16
    field, ab = factored(RevolutionBody.sphere(1.0, n=3), N_s, N_theta,
                         monkeypatch)
    m, W = N_s - 1, N_theta // 2 + 1
    assert ab.shape == (3 * W + 4, m * W) and field.unknowns == m * W
    assert stencil_diagonals_only(ab, W)


@pytest.mark.parametrize("body,N_theta", [
    (RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=3), 32),
    (RevolutionBody.sphere(1.0, n=3), 33),
], ids=["cosper-odd-frequency", "sphere-odd-N_theta"])
def test_full_width_solve(body, N_theta, monkeypatch):
    # the mirror line theta = pi/2 needs an even N_theta and a body
    # symmetric about z = 0 (cos(3 theta) is odd about it); without either
    # the full meridian is solved, in the same band of the 9-point stencil
    N_s = 64
    field, ab = factored(body, N_s, N_theta, monkeypatch)
    m, W = N_s - 1, N_theta + 1
    assert ab.shape == (3 * W + 4, m * W) and field.unknowns == m * W
    assert stencil_diagonals_only(ab, W)
    assert field.residual_norm <= solver.TOL_NEWTON


@pytest.mark.parametrize("fixture,levels", [
    ("sphere_k1_field", 4), ("prolate_field", 3), ("prolate_field_half", 3),
    ("cosper_field", 3), ("cosper_field_half", 3),
])
def test_k1_residual_evals(fixture, levels, request):
    # no evaluations inside the Jacobian: per eps level one for its start
    # and one for the exact step, and on the last level one or two more at
    # the rounding floor (earlier levels stop at theta * jump)
    assert request.getfixturevalue(fixture).residual_evals <= 4 * levels


def test_boundary_rows_two_chain_calls(prolate_field, monkeypatch):
    # the node jets of a fresh field: two 2-row _chain calls for the
    # Dirichlet rows (U_ss = 0, then the solved U_ss), one for all rows
    calls, real = [], solver._chain

    def counting(grid, rows, F, u):
        calls.append(u.shape)
        return real(grid, rows, F, u)

    monkeypatch.setattr(solver, "_chain", counting)
    fresh = ExteriorField(
        grid=prolate_field.grid, u=prolate_field.u.copy(), k=prolate_field.k,
        eps=prolate_field.eps, rho_hat=prolate_field.rho_hat,
        cnk=prolate_field.cnk,
    )
    assert admissibility_margin(fresh) == prolate_field.admissible
    W = prolate_field.grid.N_theta + 1
    assert calls == [(2, W), (2, W), prolate_field.u.shape]


def test_non_admissible_root_raises():
    # S_2 is even in the Hessian, so the negated solution is a root of the
    # same equation with S_1 < 0: Newton starts there converged and must
    # refuse it rather than return it
    body = RevolutionBody.sphere(1.0, n=5)
    spec = ProblemSpec(n=5, k=2, a=2.0, eps_schedule=(EPS,))
    fld = solve_exterior(body, spec, N_s=32)
    grid, U = fld.grid, -fld.u
    chord = solver._ChordFactor(grid, U[0], 2,
                                solver._outer_weights(grid, spec.decay_exponent))
    f_int = rhs_at_radius(grid.r_nodes[1:-1], EPS, 5, spec.cnk)
    with pytest.raises(NewtonStall, match="non-admissible"):
        solver._newton_solve(chord, U[1:-1], f_int)
