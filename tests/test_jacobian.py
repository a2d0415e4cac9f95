"""The solver's analytic derivatives against finite differences.

The Newton Jacobian, its rank-one border and the ghost-row Jacobian are
built from the partials of the axisymmetric S_k split; here each is
compared with central differences of the residual it linearizes.
"""

import numpy as np
import pytest
import scipy.sparse.linalg
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


@pytest.mark.parametrize("body,k", CASES)
def test_newton_jacobian_matches_fd(body, k):
    grid, U, alpha = iterate(body, k)
    top, U_int = U[0], U[1:-1]
    chord = solver._ChordFactor(grid, top, k,
                                solver._outer_weights(grid, alpha))
    bot = chord.outer(U_int)
    d = chord.evaluate(U_int, 0.0)[0]
    J, b = solver._linearization(grid, d, k, chord.pattern)
    want = fd_jacobian(lambda V: interior_residual(grid, top, V, bot, k), U_int)
    assert relative(J.toarray(), want.toarray()) <= 1e-8

    delta = 1e-6 * max(1.0, abs(bot))
    b_fd = (
        interior_residual(grid, top, U_int, bot + delta, k)
        - interior_residual(grid, top, U_int, bot - delta, k)
    ) / (2 * delta)
    assert relative(b, b_fd) <= 1e-8


@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("body,k", CASES)
def test_ghost_row_jacobian_matches_fd(body, k, which):
    # both rows go through each evaluation; row `which` is checked here
    grid, U, _ = iterate(body, k)
    n = body.n
    f = rhs_at_radius(grid.r_nodes[[0, -1]], EPS, n)
    v = 3 * U[[0, -1]] - 3 * U[[1, -2]] + U[[2, -3]]
    _, ab = solver._ghost_row_residual(grid, U, v, k, f, grad=True)
    ab = ab[which]
    banded = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    delta = 1e-6 * max(1.0, float(np.abs(v[which]).max()))
    W = v.shape[1]
    fd = np.empty((W, W))
    for j in range(W):
        dv = np.zeros_like(v)
        dv[which, j] = delta
        fd[:, j] = (
            solver._ghost_row_residual(grid, U, v + dv, k, f)[which]
            - solver._ghost_row_residual(grid, U, v - dv, k, f)[which]
        ) / (2 * delta)
    assert relative(banded, fd) <= 1e-8


def test_sphere_jacobian_keeps_full_stencil(monkeypatch):
    # on a sphere the k = 1 mixed-derivative weights vanish; dropped from
    # the pattern they leave a 5-point stencil that MMD orders far worse
    factored = []
    real = scipy.sparse.linalg.splu

    def capturing(A, **kwargs):
        factored.append(A)
        return real(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", capturing)
    N_s, N_theta = 32, 16
    solve_exterior(RevolutionBody.sphere(1.0, n=3), ProblemSpec(n=3, k=1, a=1.0),
                   N_s=N_s, N_theta=N_theta)
    m, W = N_s - 1, N_theta + 1
    (A,) = factored
    assert A.nnz == (3 * m - 2) * (3 * W - 2)
    assert np.count_nonzero(A.data) < A.nnz


@pytest.mark.parametrize("fixture,levels", [
    ("sphere_k1_field", 4), ("prolate_field", 3), ("prolate_field_half", 3),
    ("cosper_field", 3), ("cosper_field_half", 3),
])
def test_k1_residual_evals(fixture, levels, request):
    # no evaluations inside the Jacobian: per eps level one for its start
    # and one for the exact step, and on the last level one or two more at
    # the rounding floor (earlier levels stop at theta * jump)
    assert request.getfixturevalue(fixture).residual_evals <= 4 * levels


def test_ghost_rows_few_evaluations(prolate_field, monkeypatch):
    calls = []
    real = solver._ghost_row_residual

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_ghost_row_residual", counting)
    fresh = ExteriorField(
        grid=prolate_field.grid, u=prolate_field.u.copy(), k=prolate_field.k,
        eps=prolate_field.eps, rho_hat=prolate_field.rho_hat,
        cnk=prolate_field.cnk,
    )
    assert admissibility_margin(fresh) == prolate_field.admissible
    # each evaluation takes both Dirichlet rows
    assert set(calls) == {(2, prolate_field.grid.N_theta + 1)}
    assert len(calls) <= 6


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
