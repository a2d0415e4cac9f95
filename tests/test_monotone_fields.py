"""Level-set functional tests on solved fields (slow path).

Closed-form weight and radial-functional tests live in test_monotone.py;
here the solver fixtures feed extract_levelset, F_eval and the
monotonicity audit.
"""

import dataclasses

import numpy as np
import pytest
from math import log2

from hesslab import monotone
from hesslab.errors import LevelOutOfRange, NewtonStall, StarShapeViolation
from hesslab.fields import levelset_curvature_axisym, rhs_at_radius
from hesslab.monotone import (
    F_boundary,
    F_eval,
    T_GRID,
    ProblemSpec,
    extract_levelset,
    monotonicity_audit,
)
from hesslab.radial import RadialSolution, radial_F
from hesslab.solver import AxiGrid, ExteriorField, solve_exterior
from hesslab.surfaces import RevolutionBody
from oracles import (dense_jet, ellipse_radius, ellipsoidal_field, levelset_curvature,
                     marching_squares, to_physical)

T_GRID_K1 = np.linspace(-0.9, -0.1, 9)
T_GRID_K2 = np.linspace(-0.9, -0.25, 8)


class TestExtractLevelset:
    def test_radial_circle_radius(self, sphere_k1_field):
        # u = -1/r, so the t level sits at r = 1/(-t)
        contour = marching_squares(sphere_k1_field, -0.5)
        radii = np.hypot(contour.seg_z, contour.seg_rho)
        assert np.allclose(radii, 2.0, atol=2e-3)
        jets = extract_levelset(sphere_k1_field, -0.5).jets
        assert np.allclose(np.hypot(jets.z, jets.rho), 2.0, atol=2e-3)

    def test_boundary_level_rejected(self, sphere_k1_field):
        with pytest.raises(LevelOutOfRange):
            extract_levelset(sphere_k1_field, -1.0 + 1e-12)

    def test_far_level_rejected(self, sphere_k2_field):
        # u(R_out) ~ -0.16 for the k=2 decay, so -0.05 is outside
        with pytest.raises(LevelOutOfRange):
            extract_levelset(sphere_k2_field, -0.05)

    def test_meridian_half_circle_length(self, sphere_k1_field):
        # the level t = -0.5 is the circle r = 2 of the meridian half-plane
        contour = marching_squares(sphere_k1_field, -0.5)
        length = np.sum(np.hypot(np.diff(contour.seg_z, axis=1),
                                 np.diff(contour.seg_rho, axis=1)))
        g = sphere_k1_field.grid
        h = max(g.ht, g.hs * float(np.max(g.D)))
        assert abs(length - 2.0 * np.pi) <= 2.0 * np.pi * h**2

    def test_level_sphere_area(self, sphere_k1_field):
        # the weights integrate over the level sphere r = 2 of R^3
        curve = extract_levelset(sphere_k1_field, -0.5)
        g = sphere_k1_field.grid
        h = max(g.ht, g.hs * float(np.max(g.D)))
        assert abs(np.sum(curve.weight) - 16.0 * np.pi) <= 16.0 * np.pi * h**2

    def test_level_sits_on_the_column_cubic(self, prolate_field_half):
        # u at the root is the level, and sigma lies in its node cell
        t = -0.5
        curve = extract_levelset(prolate_field_half, t)
        np.testing.assert_allclose(curve.jets.u, t, rtol=0, atol=1e-14)
        u, s = prolate_field_half.u, prolate_field_half.grid.s
        i = np.searchsorted(s, curve.sigma) - 1
        cols = np.arange(u.shape[1])
        assert np.all((u[i, cols] <= t) & (t < u[i + 1, cols]))

    def test_level_sits_on_the_ellipse(self):
        # a non-ball, so a level set at the wrong sigma reads wrong; measured
        # 2.8e-9 (1.4e-4 with sigma at the linear crossing of its cell)
        field = ellipsoidal_field(128)
        g = field.grid
        for t in T_GRID:
            r = np.exp(g.lngam + extract_levelset(field, t).sigma * g.D)
            np.testing.assert_allclose(r, ellipse_radius(t, g.theta), rtol=1e-6)


def _monotone_except_column(j, N_s=32, N_theta=16):
    """A sampled n=3 field that rises in s on every theta column but j,
    where it dips between s = 0.4 and 0.6."""
    grid = AxiGrid(body=RevolutionBody.sphere(1.0, n=3), R_out=40.0,
                   N_s=N_s, N_theta=N_theta)
    s = grid.s[:, None]
    u = np.broadcast_to(-1.0 + 0.9 * s, (N_s + 1, N_theta + 1)).copy()
    u[:, j] += 0.3 * np.exp(-(((grid.s - 0.5) / 0.05) ** 2))
    return ExteriorField(grid=grid, u=u, k=1, eps=0.02, rho_hat=1.0)


class TestStarShapeOfLevelSets:
    def test_non_monotone_column_raises(self):
        field = _monotone_except_column(5)
        with pytest.raises(StarShapeViolation, match="theta column 5 "):
            extract_levelset(field, -0.5)

    def test_monotone_columns_pass(self):
        field = _monotone_except_column(5)
        field.u[:, 5] = field.u[:, 4]
        assert extract_levelset(field, -0.5).sigma.size == 17

    def test_unconverged_column_raises(self, prolate_field_half, monkeypatch):
        monkeypatch.setattr(monotone, "MAX_LEVEL_NEWTON", 1)
        with pytest.raises(NewtonStall, match="level -0.5: Newton on theta column"):
            extract_levelset(prolate_field_half, -0.5)


def _scalar_marching_squares(f, hs, ht):
    """Cell-by-cell reference contour of {f = 0}: (s0, th0, s1, th1) rows."""
    table = {1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
             5: [(3, 0), (1, 2)], 6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)],
             9: [(2, 0)], 10: [(0, 1), (2, 3)], 11: [(2, 1)], 12: [(1, 3)],
             13: [(1, 0)], 14: [(0, 3)]}
    ends = {0: (0, 1), 1: (1, 2), 2: (3, 2), 3: (0, 3)}

    def point(edge, i, j):
        corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        (ia, ja), (ib, jb) = (corners[c] for c in ends[edge])
        lam = f[ia, ja] / (f[ia, ja] - f[ib, jb])
        return hs * (ia + lam * (ib - ia)), ht * (ja + lam * (jb - ja))

    rows, saddles = [], 0
    for i in range(f.shape[0] - 1):
        for j in range(f.shape[1] - 1):
            case = ((f[i, j] > 0) + 2 * (f[i + 1, j] > 0)
                    + 4 * (f[i + 1, j + 1] > 0) + 8 * (f[i, j + 1] > 0))
            saddles += case in (5, 10)
            for e0, e1 in table.get(case, ()):
                rows.append(point(e0, i, j) + point(e1, i, j))
    return np.array(rows), saddles


class TestMarchingSquaresReference:
    def test_matches_cell_loop_with_saddles(self):
        # a sampled field whose s-oscillation makes saddle cells at
        # t = -0.7 and t = -0.4
        grid = AxiGrid(body=RevolutionBody.sphere(1.0, n=3), R_out=40.0,
                       N_s=64, N_theta=32)
        s, th = grid.s[:, None], grid.theta[None, :]
        u = -1.0 + 0.9 * s + 0.03 * np.sin(12 * np.pi * s) * np.cos(7 * th)
        field = ExteriorField(grid=grid, u=u, k=1, eps=1e-8, rho_hat=1.0)
        saddles = 0
        for t in (-0.7, -0.55, -0.4):
            contour = marching_squares(field, t)
            ref, n_saddle = _scalar_marching_squares(
                u - t, grid.s[1] - grid.s[0], grid.theta[1] - grid.theta[0]
            )
            saddles += n_saddle
            # same arithmetic in the same order: equal to the last bit
            np.testing.assert_array_equal(contour.seg_s, ref[:, [0, 2]])
            np.testing.assert_array_equal(contour.seg_theta, ref[:, [1, 3]])
            z0, rho0 = to_physical(grid, ref[:, 0], ref[:, 1])
            np.testing.assert_array_equal(contour.seg_z[:, 0], z0)
            np.testing.assert_array_equal(contour.seg_rho[:, 0], rho0)
        assert saddles > 0
        # u falls in s on some theta columns: no graph over theta
        with pytest.raises(StarShapeViolation):
            extract_levelset(field, -0.55)

    def test_columns_cross_where_marching_squares_does(self, prolate_field_half):
        # on a node column the marching-squares crossing is the linear
        # interpolant of the column, the start of the Newton polish: the two
        # differ by O(hs^2)
        t = -0.5
        field = prolate_field_half
        contour = marching_squares(field, t)
        curve = extract_levelset(field, t)
        ht = field.grid.theta[1]
        on_column = np.rint(contour.seg_theta / ht)
        node = np.abs(contour.seg_theta - on_column * ht) == 0
        cols = on_column[node].astype(int)
        assert set(cols.tolist()) == set(range(field.grid.N_theta + 1))
        assert np.max(np.abs(contour.seg_s[node] - curve.sigma[cols])) <= field.grid.hs**2


class TestArrayCurvatures:
    """The closed-form split on all segments against the dense oracle."""

    @pytest.mark.parametrize("fixture,k,levels", [
        ("prolate_field", 1, (-0.8, -0.5, -0.2)),
        ("sphere_k2_field", 2, (-0.8, -0.5, -0.3)),
    ])
    def test_matches_dense_levelset_curvature(self, request, fixture, k,
                                              levels):
        field = request.getfixturevalue(fixture)
        n = field.n
        for t in levels:
            curve = extract_levelset(field, t)
            jets = curve.jets
            sk = rhs_at_radius(jets.r, field.eps, n, field.cnk)
            hk, hk1 = levelset_curvature_axisym(jets, k, sk)
            for i in range(curve.sigma.size):
                jet = dense_jet(jets, i)
                f = rhs_at_radius(np.linalg.norm(jet.x), field.eps, n,
                                  field.cnk)
                want_k, want_k1 = levelset_curvature(jet, k, f)
                assert hk[i] == pytest.approx(want_k, rel=1e-10)
                assert hk1[i] == pytest.approx(want_k1, rel=1e-10)


class TestFEvalOnFields:
    def test_matches_radial_oracle_k1(self, sphere_k1_field):
        sol = RadialSolution(n=3, k=1, R=1.0)
        spec = ProblemSpec(n=3, k=1, a=2.0)
        for t in T_GRID_K1:
            exact = radial_F(sol, t, spec)
            got = F_eval(sphere_k1_field, t, spec).F
            assert abs(got - exact) <= 1e-4 * abs(exact)

    def test_matches_radial_oracle_k2(self, sphere_k2_field):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        for t in T_GRID_K2:
            exact = radial_F(sol, t, spec)
            got = F_eval(sphere_k2_field, t, spec).F
            assert abs(got - exact) <= 1e-4 * abs(exact)

    @pytest.mark.parametrize("n,k,a", [(3, 1, 1.0), (5, 2, 2.0)])
    def test_ball_within_1e5_at_128(self, n, k, a):
        # the graph quadrature is O(h^4) on a ball, so what is left at
        # N_s = 128 is the solve's own error: measured 2.2e-7 (k=1) and
        # 5.0e-7 (k=2) at worst over T_GRID; marching squares gave 3.0e-4
        # and 1.0e-3
        sol = RadialSolution(n=n, k=k, R=1.0)
        spec = ProblemSpec(n=n, k=k, a=a)
        field = solve_exterior(RevolutionBody.sphere(1.0, n=n), spec, N_s=128)
        for t in T_GRID:
            exact = radial_F(sol, t, spec)
            assert abs(F_eval(field, t, spec).F - exact) <= 1e-5 * abs(exact)

    def test_refinement_order(self, sphere_k2_field):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        body = RevolutionBody.sphere(1.0, n=5)
        coarse = solve_exterior(body, spec, N_s=128, N_theta=128)
        t = -0.5
        exact = radial_F(sol, t, spec)
        err_c = abs(F_eval(coarse, t, spec).F - exact)
        err_f = abs(F_eval(sphere_k2_field, t, spec).F - exact)
        assert log2(err_c / err_f) >= 1.8

    def test_zero_weights_zero_functional(self, sphere_k1_field):
        spec = ProblemSpec(n=3, k=1, a=1.0, C3=0.0, C4=0.0)
        assert F_eval(sphere_k1_field, -0.5, spec).F == 0.0

    def test_radial_constancy_both_branches(self, sphere_k2_field):
        # ball: F(t) is flat in t for any weight pair
        for C3, C4 in ((1.0, 0.0), (0.0, 1.0)):
            spec = ProblemSpec(n=5, k=2, a=2.0, C3=C3, C4=C4)
            results = [F_eval(sphere_k2_field, t, spec) for t in T_GRID_K2]
            Fs = np.array([r.F for r in results])
            # the C4 branch cancels to ~0, so judge flatness against the
            # size of the two weighted integrals, not against F itself
            scale = max(
                max(abs(r.C1 * r.int_hk), abs(r.C2 * r.int_hk1))
                for r in results
            )
            assert np.max(Fs) - np.min(Fs) <= 1e-3 * scale


class TestBoundaryFunctional:
    def test_sphere_matches_radial(self, sphere_k1_field):
        sol = RadialSolution(n=3, k=1, R=1.0)
        spec = ProblemSpec(n=3, k=1, a=2.0)
        body = sphere_k1_field.grid.body
        res = F_boundary(sphere_k1_field, body, spec)
        exact = radial_F(sol, -1.0, spec)
        assert res.F == pytest.approx(exact, rel=1e-4)

    def test_gradient_inequality_encoded(self, prolate_field):
        # C3=0, C4=1 at t=-1 gives the weighted difference whose sign is
        # the boundary curvature inequality; nonnegative on every solve
        spec = ProblemSpec(n=3, k=1, a=1.0, C3=0.0, C4=1.0)
        body = prolate_field.grid.body
        res = F_boundary(prolate_field, body, spec)
        assert res.F >= -1e-10 * max(1.0, abs(res.int_hk))


class TestMonotonicityAudit:
    def _richardson_tol(self, fine, half, spec, ts):
        Ff = np.array([F_eval(fine, t, spec).F for t in ts])
        Fc = np.array([F_eval(half, t, spec).F for t in ts])
        return float(np.max(np.abs(Ff - Fc)) / 3.0)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("C3,C4", [(1.0, 0.0), (0.0, 1.0)])
    def test_spheroid_non_increasing(self, prolate_field, prolate_field_half,
                                     a, C3, C4):
        spec = ProblemSpec(n=3, k=1, a=a, C3=C3, C4=C4)
        tol = self._richardson_tol(prolate_field, prolate_field_half, spec,
                                   T_GRID_K1)
        report = monotonicity_audit(prolate_field, spec, tol, t_grid=T_GRID_K1)
        assert report.non_increasing
        assert report.limit_respected
        drop = report.F[0] - report.F[-1]
        assert drop > 10.0 * tol

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("C3,C4", [(1.0, 0.0), (0.0, 1.0)])
    def test_cosper_non_increasing(self, cosper_field, cosper_field_half,
                                   a, C3, C4):
        spec = ProblemSpec(n=3, k=1, a=a, C3=C3, C4=C4)
        tol = self._richardson_tol(cosper_field, cosper_field_half, spec,
                                   T_GRID_K1)
        report = monotonicity_audit(cosper_field, spec, tol, t_grid=T_GRID_K1)
        assert report.non_increasing
        assert report.limit_respected
        drop = report.F[0] - report.F[-1]
        assert drop > 10.0 * tol

    def test_default_levels(self, prolate_field, prolate_field_half,
                            sphere_k2_field):
        # without t_grid the audit runs on T_GRID, whose levels lie inside
        # the range of a solved field
        spec = ProblemSpec(n=3, k=1, a=1.0)
        tol = self._richardson_tol(prolate_field, prolate_field_half, spec,
                                   T_GRID)
        report = monotonicity_audit(prolate_field, spec, tol)
        assert np.array_equal(report.t, T_GRID)
        assert report.non_increasing
        assert report.limit_respected
        report = monotonicity_audit(sphere_k2_field,
                                    ProblemSpec(n=5, k=2, a=2.0), 1e-3)
        assert np.array_equal(report.t, T_GRID)
        assert report.constant_flag

    @pytest.mark.parametrize("body", ["prolate", "cosper"])
    @pytest.mark.parametrize("a", [2.0, 3.0])
    @pytest.mark.parametrize("C3,C4", [(1.0, 0.0), (0.0, 1.0)])
    def test_k2_non_balls_non_increasing(self, request, body, a, C3, C4):
        # the paper's case k >= 2 off the ball: n=5, k=2 on prolate 1.5,1
        # and cosper 0.1,2.  Measured upward moves are at most 1.6e-4
        # against tol_mono of 3.4e-4 to 3.3e-3, and limit_gap_min is
        # positive in every case, at least 6.7e-4 (cosper, a=2, C3=1).
        # Marching squares put that gap at -1.142e-2, inside only its own
        # tol_mono of 1.157e-2.
        fine = request.getfixturevalue(f"{body}_k2_field")
        half = request.getfixturevalue(f"{body}_k2_field_half")
        spec = ProblemSpec(n=5, k=2, a=a, C3=C3, C4=C4)
        tol = self._richardson_tol(fine, half, spec, T_GRID)
        report = monotonicity_audit(fine, spec, tol)
        assert report.upward_violation <= report.tol_mono
        assert report.limit_gap_min > 0.0

    def test_radial_constancy_flag(self, sphere_k2_field):
        spec = ProblemSpec(n=5, k=2, a=2.0)
        report = monotonicity_audit(sphere_k2_field, spec, 1e-3,
                                    t_grid=T_GRID_K2)
        assert report.constant_flag
        assert report.upward_violation <= 1e-3
        # ball equality: F sits at the limit value
        assert abs(report.F[-1] - report.limit_value) <= 1e-3 * abs(
            report.limit_value
        )


def _cold(field):
    """A new field on the same arrays, so with empty post-solve caches."""
    return ExteriorField(grid=field.grid, u=field.u, k=field.k, eps=field.eps,
                         rho_hat=field.rho_hat, cnk=field.cnk)


def _hex(res):
    return tuple(float(x).hex()
                 for x in (res.C1, res.C2, res.int_hk, res.int_hk1, res.F))


class TestLevelCache:
    """F_eval keeps the weight-free part of each level on the field.

    Each test builds its own fields: the session fixtures are warmed by
    the other tests.
    """

    LEVELS = (-0.8, -0.6, -0.4, -0.3)
    SPECS = tuple(ProblemSpec(n=3, k=1, a=a, C3=C3, C4=C4)
                  for a in (1.0, 2.0) for C3, C4 in ((1.0, 0.0), (0.0, 1.0)))

    @pytest.fixture(scope="class")
    def solved(self):
        body = RevolutionBody.spheroid(1.5, 1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        return (solve_exterior(body, spec, N_s=64),
                solve_exterior(body, spec, N_s=32))

    @pytest.fixture
    def extractions(self, monkeypatch):
        """Counts extract_levelset calls per (field, level)."""
        calls = {}
        real = monotone.extract_levelset

        def counting(field, t):
            key = (id(field), float(t))
            calls[key] = calls.get(key, 0) + 1
            return real(field, t)

        monkeypatch.setattr(monotone, "extract_levelset", counting)
        return calls

    def test_one_extraction_per_field_and_level(self, solved, extractions):
        fine, half = map(_cold, solved)
        for spec in self.SPECS:
            Ff = np.array([F_eval(fine, t, spec).F for t in self.LEVELS])
            Fc = np.array([F_eval(half, t, spec).F for t in self.LEVELS])
            tol = float(np.max(np.abs(Ff - Fc)) / 3.0)
            report = monotonicity_audit(fine, spec, tol, t_grid=self.LEVELS)
            assert np.array_equal(report.F, Ff)
        assert extractions == {(id(f), t): 1
                               for f in (fine, half) for t in self.LEVELS}

    @pytest.mark.parametrize("order", [1, -1])
    def test_warm_equals_cold(self, solved, order):
        warm = _cold(solved[0])
        for spec in self.SPECS[::order]:
            for t in self.LEVELS:
                got = F_eval(warm, t, spec)
                assert _hex(got) == _hex(F_eval(_cold(solved[0]), t, spec))

    def test_reloaded_and_replaced_start_empty(self, solved, extractions,
                                               tmp_path):
        warm = _cold(solved[0])
        spec, t = self.SPECS[0], self.LEVELS[0]
        want = _hex(F_eval(warm, t, spec))
        warm.save_checkpoint(tmp_path / "field.txt")
        copies = (dataclasses.replace(warm),
                  ExteriorField.load_checkpoint(tmp_path / "field.txt"))
        for fresh in copies:
            assert _hex(F_eval(fresh, t, spec)) == want
            assert extractions[(id(fresh), t)] == 1
        assert extractions[(id(warm), t)] == 1

    def test_out_of_range_is_not_cached(self, solved, extractions):
        field = _cold(solved[0])
        for _ in range(2):
            with pytest.raises(LevelOutOfRange):
                F_eval(field, -0.999, self.SPECS[0])
        assert extractions == {(id(field), -0.999): 2}
