import inspect
from functools import partial

import numpy as np
import pytest
from math import comb, log2, sqrt
from scipy.interpolate import RectBivariateSpline

from hesslab import solver, surfaces
from hesslab.errors import NewtonStall, PoorFit
from hesslab.fields import rhs_at_radius
from hesslab.monotone import F_eval, ProblemSpec, extract_levelset
from hesslab.radial import RadialSolution
from hesslab.solver import (
    AxiGrid,
    ExteriorField,
    admissibility_margin,
    estimate_rho,
    solve_exterior,
)
from hesslab.surfaces import RevolutionBody
from oracles import (dense_jet, ellipsoidal_field, ellipsoidal_jets,
                     equation_residual, interior_range, prolate_gradient,
                     radial_value, to_physical)


def sampled_field(radial_fn, body, k, R_out, N_s, N_theta, eps=1e-8, rho_hat=1.0):
    """Field with u sampled from a radial profile."""
    grid = AxiGrid(body=body, R_out=R_out, N_s=N_s, N_theta=N_theta)
    u = radial_fn(grid.r_nodes)
    return ExteriorField(grid=grid, u=u, k=k, eps=eps, rho_hat=rho_hat)


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

    def test_builtin_body_sampled_at_the_grid_nodes(self):
        # the grid evaluates the spheroid's own formulas at its nodes
        grid = AxiGrid(RevolutionBody.spheroid(1.5, 1.0, n=3), 60.0, 128, 64)
        direct = RevolutionBody.spheroid(1.5, 1.0, n=3, samples=64)
        for key in ("theta", "gamma", "dgamma", "d2gamma"):
            assert getattr(grid.body, key).tobytes() == getattr(direct, key).tobytes()

    def test_builtin_body_solve_builds_no_spline(self, monkeypatch):
        built, spline = [], surfaces._ClampedSpline

        def recorder(*args):
            built.append(args)
            return spline(*args)

        for module in (solver, surfaces):
            monkeypatch.setattr(module, "_ClampedSpline", recorder)
        solve_exterior(RevolutionBody.spheroid(1.5, 1.0, n=3),
                       ProblemSpec(n=3, k=1, a=1.0), N_s=32)
        assert built == []

    def test_to_physical_radius(self):
        body = RevolutionBody.sphere(2.0, n=3)
        grid = AxiGrid(body=body, R_out=40.0, N_s=32, N_theta=16)
        z, rho = to_physical(grid, 0.5, np.pi / 3)
        assert np.hypot(z, rho) == pytest.approx(2.0 * sqrt(20.0))


def hessian_axisym(field, node):
    """The Jet2 of interior grid node (i, j), from the centered stencils of
    the interior rows (a sampled u need not solve the equation, so the
    ghost rows of the Dirichlet rows are not asked for)."""
    grid, u = field.grid, field.u
    jets = solver._chain(grid, slice(1, -1), solver._centered(u, grid.hs, grid.ht),
                         u[1:-1])
    i, j = node
    return dense_jet(jets, (i - 1, j))


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
            from oracles import sigma

            assert sigma(eig, 2) == pytest.approx(comb(5, 2), rel=1e-2)

    def test_sampled_radial_residual_order(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        res = {}
        for N in (128, 256):
            body = RevolutionBody.sphere(1.0, n=5)
            fld = sampled_field(
                np.vectorize(partial(radial_value, sol)), body, 2, 40.0, N, N // 2
            )
            res[N] = float(np.max(np.abs(equation_residual(fld))))
        assert res[256] <= 2e-5
        assert log2(res[128] / res[256]) >= 1.8


class TestChainOffTheSphere:
    """The six jets of _chain on the interior rows against the closed form
    of ellipsoidal_field, on the prolate 1.5,1 grid: there gamma' and
    (log gamma)'' are nonzero, so every term of the radial map's chain rule
    enters (on a sphere they all vanish but 1/L)."""

    def test_jets_second_order(self):
        errors = []
        for N_s in (32, 64, 128, 256, 512):
            field = ellipsoidal_field(N_s)
            grid, u = field.grid, field.u
            jets = solver._chain(grid, slice(1, -1),
                                 solver._centered(u, grid.hs, grid.ht), u[1:-1])
            exact = ellipsoidal_jets(jets.z, jets.rho)
            errors.append(max(
                float(np.abs(getattr(jets, key) - exact[key]).max()
                      / np.abs(exact[key]).max()) for key in solver._JET_KEYS))
        # measured 2.7e-3, 6.8e-4, 1.7e-4, 4.4e-5, 1.1e-5
        orders = [log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9, (errors, orders)
        assert errors[-1] <= 1.5e-5


class TestSolvedFields:
    def test_sphere_k1_matches_oracle(self, sphere_k1_field):
        sol = RadialSolution(n=3, k=1, R=1.0)
        ue = np.vectorize(partial(radial_value, sol))(sphere_k1_field.grid.r_nodes)
        assert np.max(np.abs(sphere_k1_field.u - ue)) <= 5e-6

    def test_sphere_k2_matches_oracle(self, sphere_k2_field):
        sol = RadialSolution(n=5, k=2, R=1.0)
        ue = np.vectorize(partial(radial_value, sol))(sphere_k2_field.grid.r_nodes)
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
        lo, hi = interior_range(fld)
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
        fld = sampled_field(np.vectorize(partial(radial_value, sol)), body, 1, 80.0, 128, 32)
        assert estimate_rho(fld) == pytest.approx(2.0, abs=1e-6)

    def test_sampled_radial_unit_ball_k2(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(np.vectorize(partial(radial_value, sol)), body, 2, 40.0, 128, 32)
        assert estimate_rho(fld) == pytest.approx(1.0, abs=1e-6)

    def test_angular_variation_rejected(self):
        body = RevolutionBody.sphere(1.0, n=3)
        grid = AxiGrid(body=body, R_out=40.0, N_s=64, N_theta=32)
        u = -1.0 / grid.r_nodes * (1.0 + 0.01 * np.cos(grid.theta)[None, :])
        fld = ExteriorField(grid=grid, u=u, k=1, eps=1e-8, rho_hat=1.0)
        with pytest.raises(PoorFit):
            estimate_rho(fld)

    def test_truncation_invariance_sampled(self):
        sol = RadialSolution(n=3, k=1, R=2.0)
        body = RevolutionBody.sphere(2.0, n=3)
        f1 = sampled_field(np.vectorize(partial(radial_value, sol)), body, 1, 80.0, 128, 32)
        f2 = sampled_field(np.vectorize(partial(radial_value, sol)), body, 1, 160.0, 128, 32)
        assert abs(estimate_rho(f1) - estimate_rho(f2)) <= 1e-6


class TestPoorFit:
    """solve_exterior returns rho_hat only from a settled far field."""

    @pytest.mark.parametrize("body,n,kwargs", [
        # shell spread 2.0e-3: the far field of the long axis has not
        # settled at R_out = 10 body radii
        (RevolutionBody.spheroid(3.0, 1.0, n=3), 3, dict(N_s=32, R_out=30.0)),
        # decay r^(-15) on steps of 0.115 in log r: rho_hat was 8.7e-9 on
        # the unit sphere, spread 0.18
        (RevolutionBody.sphere(1.0, n=17), 17, dict(N_s=32, N_theta=16)),
    ], ids=["spheroid-3-1", "sphere-n17"])
    def test_unsettled_far_field_raises(self, body, n, kwargs):
        with pytest.raises(PoorFit):
            solve_exterior(body, ProblemSpec(n=n, k=1, a=1.0), **kwargs)


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

    def test_u_block_layout(self, prolate_field_half, tmp_path):
        # one row of u per line, each value by "%.17g", one space apart
        path = tmp_path / "field.txt"
        prolate_field_half.save_checkpoint(path)
        block = path.read_text().split("# u\n", 1)[1]
        want = "".join(" ".join("%.17g" % x for x in row) + "\n"
                       for row in prolate_field_half.u.tolist())
        assert block == want

    def test_v2_reload_is_exact(self, tmp_path):
        # the stored derivatives rebuild the solver's grid body, so save then
        # load gives back u, the body and every quantity computed from them
        # to the last bit; splined from the radii alone, the k=1 margin reads
        # -3.6e-3 and F(-0.5) is off by 1.9e-4
        for body, k in ((RevolutionBody.spheroid(1.5, 1.0, n=3), 1),
                        (RevolutionBody.cos_perturbed(n=5, amplitude=0.1), 2)):
            spec = ProblemSpec(n=body.n, k=k, a=float(k + 1))
            field = solve_exterior(body, spec, N_s=64)
            path = tmp_path / f"field-k{k}.txt"
            field.save_checkpoint(path)
            assert path.read_text().startswith("# exterior-field v2 ")
            loaded = ExteriorField.load_checkpoint(path)
            assert np.array_equal(loaded.u, field.u)
            for key in ("theta", "gamma", "dgamma", "d2gamma"):
                assert np.array_equal(getattr(loaded.grid.body, key),
                                      getattr(field.grid.body, key))
            assert admissibility_margin(loaded).hex() == field.admissible.hex()
            for t in (-0.8, -0.5, -0.3):
                assert (F_eval(loaded, t, spec).F.hex()
                        == F_eval(field, t, spec).F.hex())

    def test_v1_file_loads(self, tmp_path):
        # a v1 file stores theta and gamma only; its body is splined
        body = RevolutionBody.spheroid(1.5, 1.0, n=3)
        sol = RadialSolution(n=3, k=1, R=1.0)
        field = sampled_field(np.vectorize(partial(radial_value, sol)), body, 1, 40.0, 32, 16)
        path = tmp_path / "field.txt"
        field.save_checkpoint(path)
        grid = field.grid
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("v2", "v1", 1)
        lines[1] = "# theta gamma"
        prof = slice(2, grid.N_theta + 3)
        lines[prof] = [" ".join(line.split()[:2]) for line in lines[prof]]
        path.write_text("\n".join(lines) + "\n")
        loaded = ExteriorField.load_checkpoint(path)
        splined = RevolutionBody.from_samples(3, grid.theta, grid.body.gamma)
        np.testing.assert_array_equal(loaded.u, field.u)
        np.testing.assert_array_equal(loaded.grid.body.gamma, splined.gamma)
        np.testing.assert_array_equal(loaded.grid.body.d2gamma, splined.d2gamma)
        assert loaded.rho_hat == field.rho_hat

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
        with pytest.raises(ValueError):
            ProblemSpec(n=3, k=1, a=1.0, eps_schedule=(0.1, 0.5))
        with pytest.raises(ValueError):
            ProblemSpec(n=3, k=1, a=1.0, eps_schedule=(0.1, -0.5))


class TestConvergenceOrder:
    def test_grid_refinement_order(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        errs = {}
        for N in (32, 64):
            body = RevolutionBody.sphere(1.0, n=5)
            fld = solve_exterior(body, spec, N_s=N)
            ue = np.vectorize(partial(radial_value, sol))(fld.grid.r_nodes)
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
        # N_theta + 1 == n: a grid row must not be read as a position
        # vector.  k = 5 keeps the decay r^(-1.4) resolved on this grid;
        # k = 1 decays like r^(-15) and raises PoorFit (TestPoorFit).
        body = RevolutionBody.sphere(1.0, n=17)
        spec = ProblemSpec(n=17, k=5, a=6.0)
        fld = solve_exterior(body, spec, N_s=32, N_theta=16)
        assert np.max(np.abs(equation_residual(fld))) <= 1e-9
        assert admissibility_margin(fld) >= -1e-12

    def test_refactor_after_rejected_stale_step(self, monkeypatch):
        # spheroid 2,1 at n=5, k=2 with eps 1 -> 0.02: a step from the
        # factor of an earlier iterate finds no admissible decrease, so the
        # same residual is stepped again from a fresh factor
        events = []
        step, refactor = solver._ChordFactor.step, solver._ChordFactor.refactor

        def recording_step(chord, res):
            events.append(("step", res, chord.fresh))
            return step(chord, res)

        def recording_refactor(chord, jets):
            events.append(("refactor", None, None))
            return refactor(chord, jets)

        monkeypatch.setattr(solver._ChordFactor, "step", recording_step)
        monkeypatch.setattr(solver._ChordFactor, "refactor", recording_refactor)
        body = RevolutionBody.spheroid(2.0, 1.0, n=5)
        spec = ProblemSpec(n=5, k=2, a=3.0, eps_schedule=(1.0, 0.02))
        fld = solve_exterior(body, spec, N_s=64)
        assert fld.residual_norm <= solver.TOL_NEWTON
        assert fld.admissible >= -1e-12
        assert any(
            a[0] == "step" and not a[2] and b[0] == "refactor"
            and c[0] == "step" and c[1] is a[1]
            for a, b, c in zip(events, events[1:], events[2:])
        )

    @pytest.mark.parametrize("body,n,k,counters", [
        (RevolutionBody.spheroid(1.5, 1.0, n=3), 3, 1, (1, 5, 7)),
        (RevolutionBody.sphere(1.0, n=5), 5, 2, (1, 10, 12)),
        (RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=3), 3, 1,
         (1, 5, 7)),
    ], ids=["solve_k1", "solve_k2", "cosper-full-width"])
    def test_benchmark_solve_counters(self, body, n, k, counters):
        # the two benchmark solves and a full-meridian one at the command
        # line's N_s = 128: factorizations, back-solves and residual
        # evaluations do not depend on the machine, and a change of the
        # linear algebra under Newton must leave them alone
        fld = solve_exterior(body, ProblemSpec(n=n, k=k, a=float(k)), N_s=128)
        assert (fld.factorizations, fld.back_solves, fld.residual_evals) == counters

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON", 2)
        body = RevolutionBody.sphere(1.0, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(NewtonStall):
            solve_exterior(body, spec, N_s=32)

    @pytest.mark.parametrize("fixture,levels", [
        ("sphere_k1_field", 4), ("prolate_field", 3), ("prolate_field_half", 3),
        ("cosper_field", 3), ("cosper_field_half", 3),
    ])
    def test_k1_back_solves_per_eps_level(self, fixture, levels, request):
        # the outer value is part of the linear system, so a k = 1 level
        # takes one exact step, and the last level one more at the
        # rounding floor (earlier levels stop at theta * jump)
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
            calls.append(args)
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

    def test_keyword_options(self):
        # the eps schedule comes from the spec, the Newton tolerance and
        # step cap are TOL_NEWTON and MAX_NEWTON
        params = inspect.signature(solve_exterior).parameters
        assert list(params) == ["body", "spec", "R_out", "N_s", "N_theta"]

    def test_no_picard_option(self):
        body = RevolutionBody.sphere(1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        with pytest.raises(TypeError):
            solve_exterior(body, spec, N_s=32, max_picard=15)


class TestInexactContinuation:
    """Every eps level but the last stops at max(TOL_NEWTON, theta * jump);
    the last polishes to the rounding floor."""

    def test_levels_stop_where_the_rule_says(self, monkeypatch):
        calls = []
        evaluate = solver._ChordFactor.evaluate

        def recording(chord, U_int, f_int):
            out = evaluate(chord, U_int, f_int)
            calls.append((f_int, out[2]))
            return out

        monkeypatch.setattr(solver._ChordFactor, "evaluate", recording)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        fld = solve_exterior(RevolutionBody.sphere(1.0, n=5), spec, N_s=64)
        rhs = [f for i, (f, _) in enumerate(calls) if i == 0 or f is not calls[i - 1][0]]
        levels = [[rn for f, rn in calls if f is g] for g in rhs]
        assert len(levels) == len(spec.eps_schedule) == len(fld.eps_levels)
        for rns, f, f_next, record in zip(levels, rhs, rhs[1:], fld.eps_levels):
            stop = max(solver.TOL_NEWTON, solver.THETA_CONTINUATION
                       * float(np.max(np.abs(f_next - f))))
            # every trial on the way is above the stop, so above the floor;
            # the first iterate at or below it ends the level
            assert min(rns[:-1]) > stop >= rns[-1] == record[2]
        *_, before, last = levels[-1]
        assert before <= solver.TOL_NEWTON and last > 0.5 * before
        assert fld.residual_norm <= solver.TOL_NEWTON
        assert fld.eps_levels[-1][2] == fld.residual_norm
        assert sum(b for _, b, _ in fld.eps_levels) == fld.back_solves
        assert [e for e, _, _ in fld.eps_levels] == list(spec.eps_schedule)

    def test_same_field_as_exact_continuation(self, monkeypatch):
        # the field of the last level does not depend on how tightly the
        # earlier ones were solved: theta = 0 drives each to TOL_NEWTON,
        # and a one-level schedule has no earlier level at all
        spec = ProblemSpec(n=5, k=2, a=2.0)
        bodies = [RevolutionBody.sphere(1.0, n=5),
                  *(RevolutionBody.spheroid(a, 1.0, n=5) for a in (1.2, 1.5, 2.0)),
                  RevolutionBody.cos_perturbed(n=5, amplitude=0.1, frequency=2),
                  RevolutionBody.spheroid(1.0, 1.2, n=5)]
        inexact = [solve_exterior(body, spec, N_s=64) for body in bodies]
        one_level = solve_exterior(
            bodies[0], ProblemSpec(n=5, k=2, a=2.0, eps_schedule=(0.02,)), N_s=64)
        assert np.max(np.abs(inexact[0].u - one_level.u)) <= 1e-13
        monkeypatch.setattr(solver, "THETA_CONTINUATION", 0.0)
        for body, fld in zip(bodies, inexact):
            exact = solve_exterior(body, spec, N_s=64)
            assert np.max(np.abs(fld.u - exact.u)) <= 1e-13
            assert fld.factorizations == exact.factorizations
            assert fld.back_solves < exact.back_solves

    def test_k2_ball_back_solves(self, sphere_k2_field):
        # 23 when every level polished to the rounding floor
        assert sphere_k2_field.back_solves <= 15

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "prolate_field", "prolate_field_half",
        "cosper_field", "cosper_field_half",
    ])
    def test_k1_back_solves(self, fixture, request):
        # S_1 is linear: one exact step per level, the back-solve of the
        # border once, and one step at the floor on the last level only
        fld = request.getfixturevalue(fixture)
        assert fld.back_solves <= len(fld.eps_levels) + 2

    def test_intermediate_stall_names_its_stop(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON", 1)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(NewtonStall, match=r"> the stop \S+ of the eps = 0.5 level"):
            solve_exterior(RevolutionBody.sphere(1.0, n=5), spec, N_s=32)

    def test_loaded_field_has_no_level_record(self, prolate_field_half, tmp_path):
        assert len(prolate_field_half.eps_levels) == 3
        prolate_field_half.save_checkpoint(tmp_path / "field.txt")
        assert ExteriorField.load_checkpoint(tmp_path / "field.txt").eps_levels == ()


class TestMirrorHalf:
    """A body mirror-symmetric about z = 0 on an even N_theta is solved on
    the half meridian theta in [0, pi/2] and mirrored onto the full grid."""

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "sphere_k2_field", "prolate_field", "prolate_field_half",
        "cosper_field", "cosper_field_half", "prolate_k2_field",
        "prolate_k2_field_half", "cosper_k2_field", "cosper_k2_field_half",
    ])
    def test_fixtures_solve_on_the_half(self, fixture, request):
        field = request.getfixturevalue(fixture)
        g = field.grid
        assert np.array_equal(field.u, field.u[:, ::-1])
        assert field.unknowns == (g.N_s - 1) * (g.N_theta // 2 + 1)
        assert field.u.shape == (g.N_s + 1, g.N_theta + 1)

    @pytest.mark.parametrize("body,spec", [
        (RevolutionBody.spheroid(1.5, 1.0, n=3), ProblemSpec(n=3, k=1, a=1.0)),
        (RevolutionBody.sphere(1.0, n=5), ProblemSpec(n=5, k=2, a=2.0)),
    ], ids=["prolate-k1", "ball-k2"])
    def test_same_field_as_full_width_solve(self, body, spec, monkeypatch):
        half = solve_exterior(body, spec, N_s=64)
        monkeypatch.setattr(AxiGrid, "_half", lambda self: None)
        full = solve_exterior(body, spec, N_s=64)
        assert (half.unknowns, full.unknowns) == (63 * 17, 63 * 33)
        assert np.abs(half.u - full.u).max() <= 1e-11
        assert half.rho_hat == pytest.approx(full.rho_hat, rel=1e-11)
        assert half.admissible == pytest.approx(full.admissible, abs=1e-11)
        F_half, F_full = (F_eval(f, -0.5, spec).F for f in (half, full))
        assert F_half == pytest.approx(F_full, rel=1e-11)

    def test_folded_border_is_the_same_functional(self):
        grid = AxiGrid(RevolutionBody.spheroid(1.5, 1.0, n=3), 40.0, 64, 32)
        c = solver._outer_weights(grid, 1.0)
        U_half = -np.random.default_rng(0).uniform(0.5, 1.0, (63, 17))
        U = np.hstack([U_half, U_half[:, -2::-1]])
        assert np.vdot(solver._fold(c), U_half) == pytest.approx(np.vdot(c, U),
                                                                  rel=1e-15)

    def test_half_only_for_mirror_symmetric_bodies_on_even_grids(self):
        theta = np.linspace(0.0, np.pi, 65)
        half = AxiGrid(RevolutionBody.spheroid(1.5, 1.0, n=3), 40.0, 16, 32)._half()
        assert half.theta[-1] == np.pi / 2 and not half._on_axis[-1]
        assert abs(half._chain_factors()[-1][-1]) < 1e-15  # cot theta
        for body, N_theta in [
            (RevolutionBody.sphere(1.0, n=3), 33),
            (RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=3), 32),
            (RevolutionBody.from_samples(3, theta, 1.0 + 0.05 * np.cos(theta)), 32),
        ]:
            assert AxiGrid(body, 40.0, 16, N_theta)._half() is None

    def test_loaded_field_has_no_unknowns(self, prolate_field_half, tmp_path):
        prolate_field_half.save_checkpoint(tmp_path / "field.txt")
        assert ExteriorField.load_checkpoint(tmp_path / "field.txt").unknowns == 0


BOUNDARY_FIXTURES = [
    "sphere_k1_field", "sphere_k2_field", "prolate_field", "prolate_field_half",
    "cosper_field", "cosper_field_half", "prolate_k2_field", "prolate_k2_field_half",
    "cosper_k2_field", "cosper_k2_field_half",
]


class TestGhostRows:
    """The jets of the Dirichlet rows (solver._boundary_derivs): one-sided
    U_s, and the U_ss that makes S_k = f^eps hold there, in closed form."""

    def test_non_positive_uss_partial_raises(self):
        # u is not near any solution of the equation: dS_2/dU_ss < 0 on the
        # body row, so the U_ss that solves S_2 = f^eps is not admissible
        body = RevolutionBody.sphere(1.0, n=5)
        grid = AxiGrid(body=body, R_out=40.0, N_s=32, N_theta=16)
        u = -1.0 - (grid.r_nodes - 1.0) ** 2 / 100.0
        fld = ExteriorField(grid=grid, u=u, k=2, eps=0.02, rho_hat=1.0)
        with pytest.raises(NewtonStall, match=r"boundary row at s = 0: "
                           r"dS_k/dU_ss = -2\.131e-05 at theta column 0"):
            admissibility_margin(fld)

    def test_singular_ghost_row_raises(self):
        # on a constant u every partial of S_2 vanishes, so S_2 does not
        # depend on U_ss: a typed stall, not a ZeroDivisionError
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: np.full_like(r, -1.0), body, 2, 40.0, 32, 16)
        with pytest.raises(NewtonStall, match=r"boundary row at s = 0: "
                           r"dS_k/dU_ss = 0\.000e\+00 at theta column 0"):
            admissibility_margin(fld)

    def test_stall_names_its_row(self):
        # the four rows next to the truncation sphere read the negated
        # solution, on which dS_2/dU_ss < 0; the body row is sound
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: -(r ** -0.5), body, 2, 40.0, 32, 16)
        fld.u[-4:] *= -1.0
        with pytest.raises(NewtonStall, match=r"boundary row at s = 1: dS_k/dU_ss = -"):
            admissibility_margin(fld)

    @pytest.mark.parametrize("row", [0, 1, -2, -1, 2, 3, -4, -3])
    def test_nan_next_to_a_ghost_row_raises(self, row):
        # one NaN in a row that a boundary-row stencil reads makes dS_2/dU_ss
        # NaN next to its column: a typed stall, not a ZeroDivisionError
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: -(r ** -0.5), body, 2, 40.0, 32, 16)
        fld.u[row, 5] = np.nan
        with pytest.raises(NewtonStall, match=f"boundary row at s = {int(row < 0)}: "
                           "dS_k/dU_ss = nan at theta column 4"):
            admissibility_margin(fld)

    def test_nan_residual_raises(self):
        # a NaN eps leaves dS_k/dU_ss finite and the residual NaN, and a
        # NaN residual is not within TOL_NEWTON
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: -(r ** -0.5), body, 2, 40.0, 32, 16,
                            eps=np.nan)
        with pytest.raises(NewtonStall, match=r"boundary row at s = 0: "
                           r"max \|S_k - f\^eps\| = nan > 1e-10"):
            admissibility_margin(fld)

    def test_too_few_rows_raises(self):
        # the one-sided U_s reads four rows
        body = RevolutionBody.sphere(1.0, n=5)
        fld = sampled_field(lambda r: -(r ** -0.5), body, 2, 40.0, 2, 16)
        with pytest.raises(ValueError, match="reads four rows: N_s = 2"):
            admissibility_margin(fld)

    @pytest.mark.parametrize("fixture", BOUNDARY_FIXTURES)
    def test_boundary_residuals_at_rounding(self, fixture, request):
        # one division solves S_k = f^eps on both Dirichlet rows, and the
        # stacked node jets keep it there
        fld = request.getfixturevalue(fixture)
        assert len(fld.boundary_residuals) == 2
        assert max(fld.boundary_residuals) <= 1e-14
        f = rhs_at_radius(fld.grid.r_nodes[[0, -1]], fld.eps, fld.n, fld.cnk)
        Sk = fld._node_jets().split(fld.k).levels[-1][[0, -1]]
        assert np.abs(Sk - f).max() <= 1e-14

    @pytest.mark.parametrize("fixture,bound", [
        ("prolate_field_half", 1e-3), ("prolate_field", 2.5e-4),
    ])
    def test_prolate_boundary_gradient(self, fixture, bound, request):
        # n = 3, k = 1: against the exact capacity potential of the spheroid
        fld = request.getfixturevalue(fixture)
        exact = prolate_gradient(fld.grid.r_nodes[0], fld.grid.theta, 1.5, 1.0)
        assert np.abs(fld._node_jets().grad_norm[0] - exact).max() <= bound

    def test_sphere_boundary_gradient(self, sphere_k1_field):
        # u = -1/r: |grad u| = 1 on the unit sphere
        assert np.abs(sphere_k1_field._node_jets().grad_norm[0] - 1.0).max() <= 2e-5

    def test_node_jets_record_each_row(self, prolate_field_half):
        fresh = ExteriorField(
            grid=prolate_field_half.grid, u=prolate_field_half.u.copy(),
            k=prolate_field_half.k, eps=prolate_field_half.eps,
            rho_hat=prolate_field_half.rho_hat, cnk=prolate_field_half.cnk,
        )
        assert fresh.boundary_residuals == ()
        admissibility_margin(fresh)
        assert fresh.boundary_residuals == prolate_field_half.boundary_residuals
        assert max(fresh.boundary_residuals) <= 1e-14


class TestBicubic:
    """On a node column the tensor not-a-knot bicubic of scipy's
    RectBivariateSpline (s = 0) is the not-a-knot spline in s through that
    column, which ExteriorField._columns holds and extract_levelset reads."""

    def test_node_jets_of_a_field(self, prolate_field):
        grid, jets = prolate_field.grid, prolate_field._node_jets()
        Z = np.stack([getattr(jets, key) for key in ("u",) + solver._JET_KEYS])
        curves = [extract_levelset(prolate_field, t) for t in np.linspace(-0.9, -0.1, 9)]
        for q, (key, Zq) in enumerate(zip(("u",) + solver._JET_KEYS, Z)):
            spline = RectBivariateSpline(grid.s, grid.theta, Zq)
            for curve in curves:
                ref = spline(curve.sigma, grid.theta, grid=False)
                got = getattr(curve.jets, key)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(Zq))

    def test_nonuniform_grid(self):
        # the column slopes of _columns, on non-uniform s nodes, read in
        # Hermite form at random s on every node column
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.uniform(0.1, 1.0, 9))
        y = np.cumsum(rng.uniform(0.1, 1.0, 6))
        Z = np.sin(x[:, None] + 2.0 * y[None, :]) + rng.standard_normal((3, 9, 6))
        slopes = np.moveaxis(solver._spline_slopes(x, np.moveaxis(Z, 1, -1),
                                                   clamped=False), -1, 1)
        xp = np.concatenate([rng.uniform(x[0], x[-1], 200), x])
        i = np.minimum(np.searchsorted(x, xp, side="right") - 1, x.size - 2)
        h = x[i + 1] - x[i]
        a = ((xp - x[i]) / h)[:, None]
        y0, y1 = Z[:, i], Z[:, i + 1]
        d0, d1 = h[:, None] * slopes[:, i], h[:, None] * slopes[:, i + 1]
        got = (y0 * (1 - a) ** 2 * (1 + 2 * a) + y1 * a**2 * (3 - 2 * a)
               + d0 * a * (1 - a) ** 2 - d1 * a**2 * (1 - a))
        for q, Zq in enumerate(Z):
            ref = RectBivariateSpline(x, y, Zq)(np.repeat(xp, y.size),
                                                np.tile(y, xp.size), grid=False)
            ref = ref.reshape(xp.size, y.size)
            assert np.max(np.abs(got[q] - ref)) <= 1e-14 * np.max(np.abs(Zq))


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


def test_stale_factor_line_search_refactors_early(monkeypatch):
    # on prolate 2,1 (n=5, k=2, N_s=256) a step from the stale factor of
    # the first eps level lowers rn at every halving, but the guard refuses
    # each one: all 41 halvings took 72 residual evaluations in all, and
    # refactoring after STALE_TRIES of them takes 37, with the same
    # factorizations and back-solves
    calls = []
    evaluate, step = solver._ChordFactor.evaluate, solver._ChordFactor.step

    def counting_evaluate(chord, U_int, f_int):
        calls[-1][1] += 1
        return evaluate(chord, U_int, f_int)

    def counting_step(chord, res):
        calls.append([chord.fresh, 0])
        return step(chord, res)

    monkeypatch.setattr(solver._ChordFactor, "evaluate", counting_evaluate)
    monkeypatch.setattr(solver._ChordFactor, "step", counting_step)
    calls.append([None, 0])  # the evaluation of the start
    body = RevolutionBody.spheroid(2.0, 1.0, n=5)
    fld = solve_exterior(body, ProblemSpec(n=5, k=2, a=2.0), N_s=256, N_theta=32)
    assert fld.residual_norm <= solver.TOL_NEWTON
    assert sum(n for _, n in calls) == fld.residual_evals <= 40
    assert max(n for fresh, n in calls if fresh is False) == solver.STALE_TRIES
    assert (fld.factorizations, fld.back_solves) == (3, 28)


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
