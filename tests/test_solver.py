import numpy as np
import pytest
from math import comb, log2, sqrt

from hesslab import solver
from hesslab.errors import NewtonStall, PoorFit
from hesslab.monotone import ProblemSpec
from hesslab.radial import RadialSolution
from hesslab.solver import (
    AxiGrid,
    ExteriorField,
    admissibility_margin,
    equation_residual,
    estimate_rho,
    hessian_axisym,
    solve_exterior,
)
from hesslab.surfaces import RevolutionBody


def sampled_field(radial_fn, body, k, R_out, N_s, N_theta, eps=1e-8, rho_hat=1.0):
    """Field with u sampled from a radial profile; no ghost rows."""
    grid = AxiGrid(body=body, R_out=R_out, N_s=N_s, N_theta=N_theta)
    u = radial_fn(grid.r_nodes)
    return ExteriorField(
        grid=grid, u=u, k=k, eps=eps, rho_hat=rho_hat, pde_ghost=False
    )


class TestAxiGrid:
    def test_truncation_guard(self):
        body = RevolutionBody.sphere(1.0, n=3)
        with pytest.raises(ValueError):
            AxiGrid(body=body, R_out=5.0, N_s=32, N_theta=16)

    def test_r_nodes_endpoints(self):
        body = RevolutionBody.spheroid(1.5, 1.0, n=3, samples=16)
        grid = AxiGrid(body=body, R_out=40.0, N_s=32, N_theta=16)
        assert np.allclose(grid.r_nodes[0], grid.body.gamma, rtol=1e-14)
        assert np.allclose(grid.r_nodes[-1], 40.0, rtol=1e-14)

    def test_to_physical_radius(self):
        body = RevolutionBody.sphere(2.0, n=3)
        grid = AxiGrid(body=body, R_out=40.0, N_s=32, N_theta=16)
        z, rho = grid.to_physical(0.5, np.pi / 3)
        assert np.hypot(z, rho) == pytest.approx(grid.radius(0.5, np.pi / 3))


class TestHessianAxisym:
    def test_constant_field_zero_jet(self):
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: np.full_like(r, -1.0), body, 2, 40.0, 32, 16)
        jet = hessian_axisym(fld, (10, 7))
        assert jet.u == pytest.approx(-1.0)
        assert np.allclose(jet.g, 0.0, atol=1e-12)
        assert np.allclose(jet.H, 0.0, atol=1e-11)

    def test_quadratic_identity_hessian(self):
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: r**2 / 2.0, body, 2, 40.0, 128, 64)
        for node in [(40, 10), (64, 32), (90, 50)]:
            jet = hessian_axisym(fld, node)
            assert np.allclose(jet.H, np.eye(5), atol=2e-3)
            eig = np.linalg.eigvalsh(jet.H)
            # S_2 of near-unit eigenvalues should hit C(5,2)
            from hesslab.symfunc import sigma

            assert sigma(eig, 2) == pytest.approx(comb(5, 2), rel=1e-2)

    def test_sampled_radial_residual_order(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        res = {}
        for N in (128, 256):
            body = RevolutionBody.sphere(1.0, n=5)
            fld = sampled_field(
                np.vectorize(sol.value), body, 2, 40.0, N, N // 2
            )
            res[N] = float(np.max(np.abs(equation_residual(fld))))
        assert res[256] <= 2e-5
        assert log2(res[128] / res[256]) >= 1.8


class TestSolvedFields:
    def test_sphere_k1_matches_oracle(self, sphere_k1_field):
        sol = RadialSolution(n=3, k=1, R=1.0)
        ue = np.vectorize(sol.value)(sphere_k1_field.grid.r_nodes)
        assert np.max(np.abs(sphere_k1_field.u - ue)) <= 5e-6

    def test_sphere_k2_matches_oracle(self, sphere_k2_field):
        sol = RadialSolution(n=5, k=2, R=1.0)
        ue = np.vectorize(sol.value)(sphere_k2_field.grid.r_nodes)
        assert np.max(np.abs(sphere_k2_field.u - ue)) <= 5e-5
        assert sphere_k2_field.rho_hat == pytest.approx(1.0, abs=1e-3)

    def test_prolate_matches_oracle(self, prolate_field):
        a, b = 1.5, 1.0
        f = sqrt(a * a - b * b)
        g = prolate_field.grid
        rr = g.r_nodes
        z = rr * np.cos(g.theta)[None, :]
        rho = rr * np.sin(g.theta)[None, :]
        xi = (np.hypot(z + f, rho) + np.hypot(z - f, rho)) / (2 * f)
        ue = -np.arctanh(1.0 / xi) / np.arctanh(f / a)
        assert np.max(np.abs(prolate_field.u - ue)) <= 1e-3
        capacity = f / np.arctanh(f / a)
        assert prolate_field.rho_hat == pytest.approx(capacity, abs=1e-3)

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "sphere_k2_field", "prolate_field", "cosper_field",
    ])
    def test_admissible_and_converged(self, fixture, request):
        fld = request.getfixturevalue(fixture)
        assert admissibility_margin(fld) >= -1e-12
        assert np.max(np.abs(equation_residual(fld))) <= 1e-9

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "sphere_k2_field", "prolate_field", "cosper_field",
    ])
    def test_maximum_principle(self, fixture, request):
        fld = request.getfixturevalue(fixture)
        lo, hi = fld.interior_range()
        assert lo >= -1.0
        assert hi < 0.0
        assert np.allclose(fld.u[0, :], -1.0, atol=1e-14)

    def test_monotone_radial_profile(self, sphere_k2_field):
        # u increases toward 0 along every outward ray
        assert np.min(np.diff(sphere_k2_field.u, axis=0)) > 0.0


class TestEstimateRho:
    def test_sampled_radial_r2(self):
        sol = RadialSolution(n=3, k=1, R=2.0)
        body = RevolutionBody.sphere(2.0, n=3)
        fld = sampled_field(np.vectorize(sol.value), body, 1, 80.0, 128, 32)
        assert estimate_rho(fld) == pytest.approx(2.0, abs=1e-6)

    def test_sampled_radial_unit_ball_k2(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(np.vectorize(sol.value), body, 2, 40.0, 128, 32)
        assert estimate_rho(fld) == pytest.approx(1.0, abs=1e-6)

    def test_angular_variation_rejected(self):
        body = RevolutionBody.sphere(1.0, n=3)
        grid = AxiGrid(body=body, R_out=40.0, N_s=64, N_theta=32)
        u = -1.0 / grid.r_nodes * (1.0 + 0.01 * np.cos(grid.theta)[None, :])
        fld = ExteriorField(
            grid=grid, u=u, k=1, eps=1e-8, rho_hat=1.0, pde_ghost=False
        )
        with pytest.raises(PoorFit):
            estimate_rho(fld)

    def test_truncation_invariance_sampled(self):
        sol = RadialSolution(n=3, k=1, R=2.0)
        body = RevolutionBody.sphere(2.0, n=3)
        f1 = sampled_field(np.vectorize(sol.value), body, 1, 80.0, 128, 32)
        f2 = sampled_field(np.vectorize(sol.value), body, 1, 160.0, 128, 32)
        assert abs(estimate_rho(f1) - estimate_rho(f2)) <= 1e-6


class TestCheckpoint:
    def test_roundtrip(self, sphere_k2_field, tmp_path):
        path = tmp_path / "field.txt"
        sphere_k2_field.save_checkpoint(path)
        loaded = ExteriorField.load_checkpoint(path)
        assert np.allclose(loaded.u, sphere_k2_field.u, rtol=0, atol=1e-15)
        assert loaded.k == sphere_k2_field.k
        assert loaded.eps == sphere_k2_field.eps
        assert loaded.rho_hat == sphere_k2_field.rho_hat
        assert loaded.grid.R_out == sphere_k2_field.grid.R_out
        assert np.allclose(loaded.grid.body.gamma, sphere_k2_field.grid.body.gamma)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("# not a field\n1 2 3\n")
        with pytest.raises(ValueError):
            ExteriorField.load_checkpoint(path)


class TestSolveValidation:
    def test_dimension_mismatch(self):
        body = RevolutionBody.sphere(1.0, n=3)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(ValueError):
            solve_exterior(body, spec, N_s=32)

    def test_bad_schedule(self):
        body = RevolutionBody.sphere(1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        with pytest.raises(ValueError):
            solve_exterior(body, spec, N_s=32, schedule=(0.1, 0.5))
        with pytest.raises(ValueError):
            solve_exterior(body, spec, N_s=32, schedule=(0.1, -0.5))


class TestConvergenceOrder:
    def test_grid_refinement_order(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        errs = {}
        for N in (32, 64):
            body = RevolutionBody.sphere(1.0, n=5)
            fld = solve_exterior(body, spec, N_s=N)
            ue = np.vectorize(sol.value)(fld.grid.r_nodes)
            errs[N] = float(np.max(np.abs(fld.u - ue)))
        assert log2(errs[32] / errs[64]) >= 1.8


class TestChordNewton:
    def test_k1_fixture_factors_once(self, prolate_field):
        # S_1 is linear: one LU serves every Newton, Picard and eps step
        assert prolate_field.factorizations == 1
        assert prolate_field.back_solves >= 3
        assert prolate_field.residual_evals > prolate_field.back_solves

    def test_k2_fixture_few_factorizations(self, sphere_k2_field):
        assert 1 <= sphere_k2_field.factorizations <= 4

    def test_row_length_equal_to_dimension(self):
        # N_theta + 1 == n: a grid row must not be read as a position vector
        body = RevolutionBody.sphere(1.0, n=17)
        spec = ProblemSpec(n=17, k=1, a=1.0)
        fld = solve_exterior(body, spec, N_s=32, N_theta=16)
        assert np.max(np.abs(equation_residual(fld))) <= 1e-9
        assert admissibility_margin(fld) >= -1e-12

    def test_iteration_cap_raises(self):
        body = RevolutionBody.sphere(1.0, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(NewtonStall):
            solve_exterior(body, spec, N_s=32, max_newton=2)

    @pytest.mark.parametrize("fixture,levels", [
        ("sphere_k1_field", 4), ("prolate_field", 3), ("prolate_field_half", 3),
        ("cosper_field", 3), ("cosper_field_half", 3),
    ])
    def test_k1_back_solves_per_eps_level(self, fixture, levels, request):
        # the outer value is part of the linear system, so a k = 1 level
        # takes one exact step and one step at the rounding floor
        fld = request.getfixturevalue(fixture)
        assert fld.back_solves <= 4 * levels

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "sphere_k2_field", "prolate_field",
        "prolate_field_half", "cosper_field", "cosper_field_half",
    ])
    def test_outer_row_matches_rho_hat(self, fixture, request):
        fld = request.getfixturevalue(fixture)
        alpha = fld.n / fld.k - 2.0
        outer = -fld.rho_hat * fld.grid.R_out ** (-alpha)
        assert np.max(np.abs(fld.u[-1] - outer)) <= 1e-12 * abs(outer)

    def test_one_newton_solve_per_eps_level(self, monkeypatch):
        calls = []
        real = solver._newton_solve

        def counting(*args):
            calls.append(args[4])
            return real(*args)

        monkeypatch.setattr(solver, "_newton_solve", counting)
        body = RevolutionBody.spheroid(1.5, 1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        solve_exterior(body, spec, N_s=32)
        assert len(calls) == len(spec.eps_schedule)

    def test_oblate_k2_solves(self):
        # started without the one-time blend onto a uniform outer row,
        # this solve stalls at residual 0.37 on the first eps level
        body = RevolutionBody.spheroid(1.0, 1.2, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        fld = solve_exterior(body, spec, N_s=128)
        assert fld.residual_norm <= 1e-10
        assert fld.admissible >= -1e-12

    def test_no_picard_option(self):
        body = RevolutionBody.sphere(1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        with pytest.raises(TypeError):
            solve_exterior(body, spec, N_s=32, max_picard=15)


class TestGhostRows:
    def test_unconverged_ghost_row_raises(self):
        # u is not near any solution of the equation, so no ghost value
        # makes S_2 = f^eps hold on the body row
        body = RevolutionBody.sphere(1.0, n=5)
        grid = AxiGrid(body=body, R_out=40.0, N_s=32, N_theta=16)
        u = -1.0 - (grid.r_nodes - 1.0) ** 2 / 100.0
        fld = ExteriorField(grid=grid, u=u, k=2, eps=0.02, rho_hat=1.0)
        with pytest.raises(NewtonStall, match="ghost row"):
            admissibility_margin(fld)


class TestAdmissibilityGuard:
    def test_prolate_k2_solves(self):
        # the start is not admissible here: a guard demanding a margin of
        # -max(1e-12, 1e-3 rn) from every step stalls at residual 0.53
        body = RevolutionBody.spheroid(1.3, 1.0, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        fld = solve_exterior(body, spec, N_s=128)
        assert fld.residual_norm <= 1e-10
        assert fld.admissible >= -1e-12
        assert np.max(np.abs(equation_residual(fld))) <= 1e-9

    def test_oblate_k2_raises(self):
        # convex, so an admissible solution exists, but Newton from this
        # start only finds a non-admissible one: the guard must stop it
        body = RevolutionBody.spheroid(1.0, 1.5, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(NewtonStall):
            solve_exterior(body, spec, N_s=128)


def test_guard_stall_message_names_the_guard():
    # on oblate 1,1.5 the halvings lower the residual and the guard refuses
    # them; the stall must say so, not blame eps or the grid
    body = RevolutionBody.spheroid(1.0, 1.5, n=5)
    spec = ProblemSpec(n=5, k=2, a=2.0)
    with pytest.raises(NewtonStall) as info:
        solve_exterior(body, spec, N_s=128)
    msg = str(info.value)
    assert "admissibility guard refused" in msg
    assert "eps too small" not in msg
    margin = float(msg.split("margin ")[1].split()[0])
    floor = float(msg.split("floor ")[1].split()[0])
    residual = [float(w.split()[0].rstrip(":,")) for w in msg.split("residual ")[1:]]
    assert margin < floor < 0.0
    assert residual[1] < residual[0]
