import dataclasses
import inspect
import re
from functools import partial

import numpy as np
import pytest
from math import comb, log2, sqrt
from pathlib import Path
from scipy.interpolate import RectBivariateSpline

from hesslab import cli, solver, surfaces
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
                     equation_residual, far_field_exponent, interior_range,
                     near_ball_gradient, prolate_gradient, radial_value,
                     to_physical)


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

    def test_one_theta_interval_refused(self, tmp_path):
        # the theta quadratures (composite Simpson) need 3 nodes: a grid of
        # one theta interval is refused at construction, and a checkpoint of
        # one by a ValueError that names the file
        message = "the theta quadratures need N_theta >= 2: 1"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            AxiGrid(RevolutionBody.sphere(1.0, n=3), 40.0, 32, 1)
        path = tmp_path / "field.txt"
        path.write_text(
            "# exterior-field v2 n=3 k=1 eps=0.02 cnk=1 rho_hat=1 residual_norm=0 "
            "admissible=inf R_out=40 N_s=4 N_theta=1\n# theta gamma dgamma d2gamma\n"
            f"0 1 0 0\n{np.pi!r} 1 0 0\n# u\n" + "-0.5 -0.5\n" * 5)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            ExteriorField.load_checkpoint(path)

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
        # to the last bit, the cone margin min(S_1, ..., S_{k-1}) included
        # (inf at k = 1); splined from the radii alone, F(-0.5) is off by 1.9e-4
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

    def test_infinite_margin_round_trip(self, prolate_field, tmp_path):
        # k = 1 has no cone condition: its margin is inf, on file too
        path = tmp_path / "field.txt"
        prolate_field.save_checkpoint(path)
        assert " admissible=inf " in path.read_text().splitlines()[0]
        assert ExteriorField.load_checkpoint(path).admissible == np.inf

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

    @pytest.mark.parametrize("damage", ["last-row-cut", "one-nan"])
    def test_u_block_validated(self, damage, tmp_path):
        # a u block of the wrong shape or with a NaN is refused by name,
        # not met later as a broadcast error or a star-shape violation
        body = RevolutionBody.sphere(1.0, n=3)
        field = sampled_field(lambda r: -1.0 / r, body, 1, 40.0, 32, 16)
        path = tmp_path / "field.txt"
        field.save_checkpoint(path)
        lines = path.read_text().splitlines()
        if damage == "last-row-cut":
            lines = lines[:-1]
        else:
            row = lines[-10].split()
            row[5] = "nan"
            lines[-10] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{path}: u must be finite of shape \(33, 17\)"):
            ExteriorField.load_checkpoint(path)

    @staticmethod
    def _mirror_case(case):
        """A field whose u is the named case of the mirror test (a solved
        mirror field of odd width is test_u_block_layout's)."""
        if case == "asymmetric":
            body = RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=3)
            return solve_exterior(body, ProblemSpec(n=3, k=1, a=1.0), N_s=32)
        # N_theta = 17: an even width of 18 columns, no middle column
        field = sampled_field(lambda r: -1.0 / r, RevolutionBody.sphere(1.0, n=3),
                              1, 40.0, 32, 17)
        half = np.random.default_rng(5).standard_normal((33, 9))
        u = np.hstack([half, half[:, ::-1]])
        if case == "one-ulp":
            u[7, 12] = np.nextafter(u[7, 12], np.inf)
        elif case == "signed-zero":
            u[3, 2], u[3, 15] = 0.0, -0.0
        field.u = u
        return field

    @pytest.mark.parametrize("case", ["mirrored-even-width", "one-ulp", "signed-zero",
                                      "asymmetric"])
    def test_u_block_mirror_rule(self, case, tmp_path):
        # formatting half the columns of a mirror-symmetric u writes the same
        # bytes as formatting them all, and a u that is not its mirror bit
        # for bit (one ulp, or 0.0 against -0.0) is written as it is
        field = self._mirror_case(case)
        path = tmp_path / "field.txt"
        field.save_checkpoint(path)
        block = path.read_text().split("# u\n", 1)[1]
        want = "".join(" ".join("%.17g" % x for x in row) + "\n" for row in field.u.tolist())
        assert block == want
        if case == "signed-zero":
            assert block.splitlines()[3].split()[15] == "-0"

    @pytest.mark.parametrize("extra", ["k=7", "N_theta=3", "note", "a=b=c", "=1",
                                       "a=", "config=x config=y"])
    def test_extra_header_validated(self, extra, prolate_field_half, tmp_path):
        # a token that load_checkpoint would misread, or would let override
        # a stored key, is refused before the file is written
        path = tmp_path / "field.txt"
        with pytest.raises(ValueError, match=rf"{path}: header token"):
            prolate_field_half.save_checkpoint(path, extra_header=extra)
        assert not path.exists()

    def test_repeated_header_key_refused(self, prolate_field_half, tmp_path):
        path = tmp_path / "field.txt"
        prolate_field_half.save_checkpoint(path, extra_header="config=abc")
        lines = path.read_text().split("\n", 1)
        path.write_text(f"{lines[0]} k=7\n{lines[1]}")
        with pytest.raises(ValueError, match="repeats the key 'k'"):
            ExteriorField.load_checkpoint(path)

    def test_non_finite_u_refused_at_save(self, tmp_path):
        body = RevolutionBody.sphere(1.0, n=3)
        field = sampled_field(lambda r: -1.0 / r, body, 1, 40.0, 16, 16)
        field.u[4, 6] = np.nan
        path = tmp_path / "field.txt"
        with pytest.raises(ValueError, match=rf"{path}: u must be finite .* "
                                             r"non-finite value nan at row 4, column 6"):
            field.save_checkpoint(path)
        assert not path.exists()

    @pytest.mark.parametrize("damage, condition", [
        ("last-row-cut", r"got shape \(32, 17\)"),
        ("one-inf", r"got the non-finite value inf at row 23, column 5"),
    ], ids=["last-row-cut", "one-inf"])
    def test_u_block_error_names_the_condition(self, damage, condition, tmp_path):
        body = RevolutionBody.sphere(1.0, n=3)
        field = sampled_field(lambda r: -1.0 / r, body, 1, 40.0, 32, 16)
        path = tmp_path / "field.txt"
        field.save_checkpoint(path)
        lines = path.read_text().splitlines()
        if damage == "last-row-cut":
            lines = lines[:-1]
        else:
            row = lines[-10].split()
            row[5] = "inf"
            lines[-10] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=condition):
            ExteriorField.load_checkpoint(path)

    HEADER_KEYS = ("n", "k", "eps", "cnk", "rho_hat", "residual_norm", "admissible",
                   "R_out", "N_s", "N_theta")

    @staticmethod
    def _damage(lines, damage):
        """The lines of a v2 file (N_s = 32, N_theta = 16) with the named
        damage."""
        header, prof = lines[0].split(), slice(2, 19)
        if damage.startswith("no-"):
            lines[0] = " ".join(t for t in header if not t.startswith(damage[3:] + "="))
        elif damage == "N_s=12.5":
            lines[0] = " ".join(damage if t.startswith("N_s=") else t for t in header)
        elif damage == "profile-cut":
            del lines[9]
        elif damage == "profile-row-added":
            lines.insert(9, lines[9])
        elif damage == "ragged-profile":
            lines[9] = " ".join(lines[9].split()[:3])
        elif damage == "v2-two-columns":
            lines[prof] = [" ".join(line.split()[:2]) for line in lines[prof]]
        elif damage == "v1-four-columns":
            lines[0] = lines[0].replace("v2", "v1", 1)
        elif damage == "ragged-u":
            lines[-5] = " ".join(lines[-5].split()[:-1])
        elif damage == "gamma=-1":
            row = lines[9].split()
            lines[9] = " ".join([row[0], "-1", *row[2:]])
        elif damage == "N_theta=0":
            lines[0] = lines[0].replace("N_theta=16", "N_theta=0")
            del lines[3:19]
            lines[4:] = [line.split()[0] for line in lines[4:]]
        elif damage in ("R_out=5", "k=2"):
            key = damage.split("=")[0]
            lines[0] = " ".join(damage if t.startswith(key + "=") else t for t in header)
        return lines

    LOAD_ERRORS = {
        **{f"no-{key}": rf"header key '{key}' must read as (int|float), got nothing"
           for key in HEADER_KEYS},
        "N_s=12.5": r"header key 'N_s' must read as int, got 12\.5",
        "profile-cut": r"the profile block is not 17 rows of 4 numbers",
        "profile-row-added": r"the profile block is not 17 rows of 4 numbers",
        "ragged-profile": r"the profile block is not 17 rows of 4 numbers",
        "v2-two-columns": r"the profile block is not 17 rows of 4 numbers",
        "v1-four-columns": r"the profile block is not 17 rows of 2 numbers",
        "ragged-u": r"u block: the number of columns changed from 17 to 16 .*",
        "gamma=-1": r"profile radius must be positive everywhere",
        "N_theta=0": r"grid counts must be >= 1: N_s=32, N_theta=0",
        "R_out=5": r"R_out = 5\.0 below 10 \* max profile radius 1\.0, or not finite",
        "k=2": r"need 1 <= k < n/2, got n=3, k=2",
    }

    @pytest.mark.parametrize("damage", LOAD_ERRORS)
    def test_load_error_names_the_file(self, damage, tmp_path):
        # a malformed header, profile or u block is refused by a ValueError that
        # names the file and the key or block, not by a KeyError or numpy's
        # inhomogeneous-shape error that names neither; a value that the body,
        # the grid or the field refuses names the file too
        body = RevolutionBody.sphere(1.0, n=3)
        field = sampled_field(lambda r: -1.0 / r, body, 1, 40.0, 32, 16)
        path = tmp_path / "field.txt"
        field.save_checkpoint(path)
        lines = self._damage(path.read_text().splitlines(), damage)
        path.write_text("\n".join(lines) + "\n")
        names = self.LOAD_ERRORS[damage]
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {names}$"):
            ExteriorField.load_checkpoint(path)

    def test_header_keys_are_the_constructor(self, prolate_field_half, tmp_path):
        # every value a constructor takes, but grid and u, comes back from
        # the file bit for bit, so a field added to ExteriorField and not to
        # the checkpoint header, or the other way round, fails here; the
        # first set is the edge cases, in the second every value differs
        # from its default; the prolate's u is stored on its body in n = 7,
        # where both k lie in 1 <= k < n/2
        settable = [f for f in dataclasses.fields(ExteriorField) if f.init]
        assert [f.name for f in settable[:2]] == ["grid", "u"]
        cases = ({"k": 2, "eps": 0.0123456789, "rho_hat": 1.2345678901234567,
                  "cnk": 0.0, "residual_norm": np.nan, "admissible": np.inf},
                 {"k": 3, "eps": 3e-300, "rho_hat": -0.1, "cnk": 2.5,
                  "residual_norm": 4.9e-324, "admissible": -0.0})
        for f in settable[2:]:
            if f.default is not dataclasses.MISSING:
                assert any(float(c[f.name]).hex() != float(f.default).hex()
                           for c in cases), f.name
        grid = prolate_field_half.grid
        grid = dataclasses.replace(grid, body=dataclasses.replace(grid.body, n=7))
        for values in cases:
            assert set(values) == {f.name for f in settable[2:]}
            path = tmp_path / "field.txt"
            ExteriorField(grid=grid, u=prolate_field_half.u, **values).save_checkpoint(path)
            loaded = ExteriorField.load_checkpoint(path)
            for key, value in values.items():
                assert type(getattr(loaded, key)) is type(value)
                assert float(getattr(loaded, key)).hex() == float(value).hex(), key
            assert np.array_equal(loaded.u, prolate_field_half.u)
            header = path.read_text().split("\n", 1)[0].split()
            assert [t.split("=")[0] for t in header[3:]] == list(self.HEADER_KEYS)

    def test_counters_are_set_by_the_solve(self, prolate_field_half, tmp_path, capsys):
        # the counters are set by solve_exterior alone: a loaded or replaced
        # field reads 0, and the constructor does not take them
        counters = ("factorizations", "back_solves", "residual_evals", "unknowns")
        assert all(getattr(prolate_field_half, c) > 0 for c in counters)
        path = tmp_path / "field.txt"
        prolate_field_half.save_checkpoint(path)
        for other in (ExteriorField.load_checkpoint(path),
                      dataclasses.replace(prolate_field_half)):
            assert [getattr(other, c) for c in counters] == [0, 0, 0, 0]
        grid, u = prolate_field_half.grid, prolate_field_half.u
        for c in counters:
            with pytest.raises(TypeError):
                ExteriorField(grid=grid, u=u, k=1, eps=0.02, rho_hat=1.0, **{c: 1})
        # the solve_k2 benchmark ball prints its counters as before
        assert cli.run(["solve", "--body", "sphere", "--R", "1.0", "--n", "5", "--k", "2",
                        "--out", str(tmp_path)]) == cli.EXIT_OK
        assert ("factorizations=1 back_solves=5 residual_evals=5"
                in capsys.readouterr().out.splitlines())

    def test_benchmark_checkpoints_load(self):
        # the five v1 files that the audit workload of hessbench reads
        paths = sorted((Path(__file__).parents[1] / "hessbench" / "checkpoints").glob("*.txt"))
        assert len(paths) == 5
        for path in paths:
            field = ExteriorField.load_checkpoint(path)
            assert field.u.shape == (field.grid.N_s + 1, field.grid.N_theta + 1)


class TestSolveValidation:
    def test_dimension_mismatch(self):
        body = RevolutionBody.sphere(1.0, n=3)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(ValueError):
            solve_exterior(body, spec, N_s=32)



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
        # S_1 is linear: one LU serves every Newton step
        assert prolate_field.factorizations == 1
        assert prolate_field.back_solves >= 3
        assert prolate_field.residual_evals >= prolate_field.back_solves

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
        # spheroid 3,1 at n=7, k=3: a step from the factor of an earlier
        # iterate finds no admissible decrease, so the same residual is
        # stepped again from a fresh factor
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
        body = RevolutionBody.spheroid(3.0, 1.0, n=7)
        spec = ProblemSpec(n=7, k=3, a=3.0)
        fld = solve_exterior(body, spec, N_s=64)
        assert fld.residual_norm <= solver.TOL_NEWTON
        assert fld.admissible >= -1e-12
        assert any(
            a[0] == "step" and not a[2] and b[0] == "refactor"
            and c[0] == "step" and c[1] is a[1]
            for a, b, c in zip(events, events[1:], events[2:])
        )

    @pytest.mark.parametrize("body,n,k,counters", [
        (RevolutionBody.spheroid(1.5, 1.0, n=3), 3, 1, (1, 3, 3)),
        (RevolutionBody.sphere(1.0, n=5), 5, 2, (1, 5, 5)),
        (RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=3), 3, 1,
         (1, 3, 3)),
    ], ids=["solve_k1", "solve_k2", "cosper-full-width"])
    def test_benchmark_solve_counters(self, body, n, k, counters):
        # the two benchmark solves and a full-meridian one at the command
        # line's N_s = 128: factorizations, back-solves and residual
        # evaluations do not depend on the machine, and a change of the
        # linear algebra under Newton must leave them alone
        fld = solve_exterior(body, ProblemSpec(n=n, k=k, a=float(k)), N_s=128)
        assert (fld.factorizations, fld.back_solves, fld.residual_evals) == counters

    def test_iteration_cap_raises(self, monkeypatch):
        # the ball at N_s = 32 takes two steps: after one it is at 9.4e-9
        monkeypatch.setattr(solver, "MAX_NEWTON", 1)
        body = RevolutionBody.sphere(1.0, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        with pytest.raises(NewtonStall, match=r"Newton stopped at residual \S+ > 1\.0e-10"):
            solve_exterior(body, spec, N_s=32)

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "prolate_field", "prolate_field_half",
        "cosper_field", "cosper_field_half",
    ])
    def test_k1_back_solves(self, fixture, request):
        # S_1 is linear and the outer value is part of the linear system:
        # the back-solve of the border, one exact step and one at the
        # rounding floor
        fld = request.getfixturevalue(fixture)
        assert fld.back_solves <= 3

    def test_k2_ball_back_solves(self, sphere_k2_field):
        # 23 when each of three eps levels polished to the rounding floor
        assert sphere_k2_field.back_solves <= 15

    def test_n9_k4_near_balls_solve(self):
        # solved at eps = 0.02 from the start; a continuation from eps = 0.5
        # stalled on both at residual 1.1e-2 and 1.3e-2
        spec = ProblemSpec(n=9, k=4, a=4.0)
        delta = 1e-3
        ball, near = (solve_exterior(body, spec, N_s=128) for body in (
            RevolutionBody.sphere(1.0, n=9),
            RevolutionBody.cos_perturbed(n=9, amplitude=delta, frequency=2)))
        for fld in (ball, near):
            assert (fld.factorizations, fld.back_solves, fld.residual_evals) == (1, 6, 6)
            assert fld.residual_norm <= solver.TOL_NEWTON
            assert fld.admissible >= -1e-12
        # the ball's rho_hat - 1 is the bias of eps and R_out, not of h:
        # 9.6e-5, 1.0e-4 and 1.0e-4 at N_s = 64, 128 and 256
        assert 0.0 < ball.rho_hat - 1.0 <= 1.5e-4
        # gamma = 1 + delta cos 2 theta averages 1 + delta (2/n - 1) over
        # the sphere, and rho = that mean radius^alpha to first order in
        # delta; with the ball's own error removed, the rest is O(delta^2)
        alpha = spec.decay_exponent
        first_order = alpha * delta * (2.0 / 9.0 - 1.0)
        assert abs(near.rho_hat - ball.rho_hat - first_order) <= 10 * delta**2

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "sphere_k2_field", "prolate_field",
        "prolate_field_half", "cosper_field", "cosper_field_half",
    ])
    def test_outer_row_matches_rho_hat(self, fixture, request):
        fld = request.getfixturevalue(fixture)
        alpha = fld.n / fld.k - 2.0
        outer = -fld.rho_hat * fld.grid.R_out ** (-alpha)
        assert np.max(np.abs(fld.u[-1] - outer)) <= 1e-12 * abs(outer)

    def test_oblate_k2_solves(self):
        # started without the one-time blend onto a uniform outer row,
        # this solve stalls
        body = RevolutionBody.spheroid(1.0, 1.2, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        fld = solve_exterior(body, spec, N_s=128)
        assert fld.residual_norm <= 1e-10
        assert fld.admissible >= -1e-12

    def test_keyword_options(self):
        # eps comes from the spec, the Newton tolerance and step cap are
        # TOL_NEWTON and MAX_NEWTON
        params = inspect.signature(solve_exterior).parameters
        assert list(params) == ["body", "spec", "R_out", "N_s", "N_theta"]

    def test_no_picard_option(self):
        body = RevolutionBody.sphere(1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        with pytest.raises(TypeError):
            solve_exterior(body, spec, N_s=32, max_picard=15)


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
        assert abs(half._chain_factors[-1][-1]) < 1e-15  # cot theta
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
        Sk = fld._node_jets.split(fld.k).levels[-1][[0, -1]]
        assert np.abs(Sk - f).max() <= 1e-14

    @pytest.mark.parametrize("fixture,bound", [
        ("prolate_field_half", 1e-3), ("prolate_field", 2.5e-4),
    ])
    def test_prolate_boundary_gradient(self, fixture, bound, request):
        # n = 3, k = 1: against the exact capacity potential of the spheroid
        fld = request.getfixturevalue(fixture)
        exact = prolate_gradient(fld.grid.r_nodes[0], fld.grid.theta, 1.5, 1.0)
        assert np.abs(fld._node_jets.grad_norm[0] - exact).max() <= bound

    def test_sphere_boundary_gradient(self, sphere_k1_field):
        # u = -1/r: |grad u| = 1 on the unit sphere
        assert np.abs(sphere_k1_field._node_jets.grad_norm[0] - 1.0).max() <= 2e-5

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
        grid, jets = prolate_field.grid, prolate_field._node_jets
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


class TestNearBall:
    """The closed-form first order of the boundary |grad u| of a near-ball,
    the only referee of a k >= 2 solve on a body that is not a ball."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_translation_has_no_gain(self, n):
        # beta_1 = alpha + 1: a translated ball keeps a constant |grad u|
        for k in range(1, (n + 1) // 2):
            assert far_field_exponent(n, k, 1) == pytest.approx(n / k - 1.0, abs=1e-13)

    @pytest.mark.parametrize("n, k", [(3, 1), (5, 2), (7, 3)])
    def test_cosper_gradient_to_second_order(self, n, k):
        # gamma = 1 + delta cos 2 theta = 1 + delta (A C_2 + B) in the
        # Gegenbauer C_l of lambda = (n - 2)/2.  The ball solved on the same
        # grid takes out its own h- and eps-error; what is left of |grad u|
        # off the formula is O(delta^2) (measured at N_s = 128: 1.7-3.9e-6 at
        # delta = 1e-3, 6.8-9.1e-6 at 2e-3), while a 1% error in the
        # exponents' c moves the formula by ~2e-5 at delta = 1e-3
        lam, alpha = (n - 2) / 2, n / k - 2.0
        cos2 = {0: 1.0 / (lam + 1.0) - 1.0, 2: 1.0 / (lam * (lam + 1.0))}
        spec = ProblemSpec(n=n, k=k, a=float(k))
        ball = solve_exterior(RevolutionBody.sphere(1.0, n=n), spec, N_s=128)
        remainders = []
        for delta in (1e-3, 2e-3):
            body = RevolutionBody.cos_perturbed(n=n, amplitude=delta, frequency=2)
            fld = solve_exterior(body, spec, N_s=128)
            shift = (fld._node_jets.grad_norm[0] - ball._node_jets.grad_norm[0]
                     - (near_ball_gradient(n, k, delta, cos2, fld.grid.theta) - alpha))
            remainders.append(np.abs(shift).max() / alpha)
            assert remainders[-1] <= 5.0 * delta**2, (delta, remainders)
        assert remainders[1] >= 2.0 * remainders[0], remainders


class TestConeMargin:
    """The margin is min(S_1, ..., S_{k-1}), the cone where S_k is elliptic;
    S_k = f^eps is the equation, whose error is the residual."""

    def test_k1_has_no_cone(self, prolate_field):
        assert admissibility_margin(prolate_field) == np.inf
        assert prolate_field.admissible == np.inf

    def test_k2_margin_is_the_laplacian(self, sphere_k2_field):
        # S_1 is the trace of D^2 u: u_zz + u_rhorho + (n - 2) u_rho / rho
        jets = sphere_k2_field._node_jets
        lap = jets.uzz + jets.urhorho + (sphere_k2_field.n - 2) * jets.kappat
        margin = admissibility_margin(sphere_k2_field)
        assert margin == pytest.approx(lap.min(), rel=1e-12)
        assert sphere_k2_field.admissible == margin > 0.0

    @pytest.mark.parametrize("body,n,k,N_s,N_theta,back_solves", [
        (RevolutionBody.sphere(1.0, n=5), 5, 2, 128, None, 5),
        (RevolutionBody.cos_perturbed(n=5, amplitude=0.001, frequency=2), 5, 2, 256,
         None, solver.MAX_NEWTON),
        (RevolutionBody.spheroid(1.5, 1.0, n=3), 3, 1, 128, 256, solver.MAX_NEWTON),
    ], ids=["ball-k2", "cosper-k2", "prolate-k1"])
    def test_homogeneous_equation_solves(self, body, n, k, N_s, N_theta, back_solves):
        # at f = 0, S_k is +-residual at the root: a margin that counted it
        # would refuse steps near the root or call the root non-admissible
        spec = ProblemSpec(n=n, k=k, a=float(k), cnk=0.0)
        fld = solve_exterior(body, spec, N_s=N_s, N_theta=N_theta)
        assert fld.residual_norm <= solver.TOL_NEWTON
        assert fld.admissible > 0.0
        assert fld.back_solves <= back_solves

    def test_no_decreasing_step_message(self):
        # at eps = 0.02 the n=17, k=8 sphere finds no step that lowers the
        # residual; the stall states the residual and the trials made
        body = RevolutionBody.sphere(1.0, n=17)
        with pytest.raises(NewtonStall, match=r"^no decreasing step at residual "
                           r"3\.50\de-05 > 1\.0e-10 in 41 trials from a fresh factor$"):
            solve_exterior(body, ProblemSpec(n=17, k=8, a=9.0), N_s=32, N_theta=16)
        fld = solve_exterior(body, ProblemSpec(n=17, k=8, a=9.0, cnk=0.0),
                             N_s=32, N_theta=16)
        assert fld.residual_norm <= solver.TOL_NEWTON


class TestAdmissibilityGuard:
    def test_prolate_k2_solves(self):
        # the start, at residual 0.55, is inside the cone (least S_1 7.3e-5),
        # and the guard keeps every step's cone margin >= min(margin, 0) = 0
        body = RevolutionBody.spheroid(1.3, 1.0, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        fld = solve_exterior(body, spec, N_s=128)
        assert fld.residual_norm <= 1e-10
        assert fld.admissible >= -1e-12
        assert np.max(np.abs(equation_residual(fld))) <= 1e-9

    def test_oblate_k2_solves(self):
        # convex, so an admissible solution exists; the guard holds S_1 >= 0
        # and leaves S_k - f, the residual, to Newton: rho_hat is O(h^2)
        body = RevolutionBody.spheroid(1.0, 1.5, n=5)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        rho = []
        for N_s in (64, 128, 256):
            fld = solve_exterior(body, spec, N_s=N_s)
            assert fld.residual_norm <= solver.TOL_NEWTON
            assert fld.admissible > 0.0
            rho.append(fld.rho_hat)
        order = log2((rho[0] - rho[1]) / (rho[1] - rho[2]))
        assert 1.8 <= order <= 2.3


def test_stale_factor_line_search_refactors_early(monkeypatch):
    # on spheroid 3,1 (n=7, k=3, N_s=64) steps from a stale factor find no
    # admissible decrease: halving each of them 41 times took 66 residual
    # evaluations in all, and refactoring after STALE_TRIES of them takes
    # 31
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
    body = RevolutionBody.spheroid(3.0, 1.0, n=7)
    fld = solve_exterior(body, ProblemSpec(n=7, k=3, a=3.0), N_s=64)
    assert fld.residual_norm <= solver.TOL_NEWTON
    assert sum(n for _, n in calls) == fld.residual_evals <= 40
    assert max(n for fresh, n in calls if fresh is False) == solver.STALE_TRIES
    assert (fld.factorizations, fld.back_solves) == (6, 28)


def test_guard_stall_message_names_the_guard():
    # on cosper 0.05,3 the halvings lower the residual and the guard refuses
    # them, as S_1 < 0 there; the stall must say so, not blame the grid
    body = RevolutionBody.cos_perturbed(n=5, amplitude=0.05, frequency=3)
    spec = ProblemSpec(n=5, k=2, a=2.0)
    with pytest.raises(NewtonStall) as info:
        solve_exterior(body, spec, N_s=128)
    msg = str(info.value)
    assert "admissibility guard refused" in msg
    assert "no decreasing step" not in msg
    margin = float(msg.split("margin ")[1].split()[0])
    floor = float(msg.split("floor ")[1].split()[0])
    residual = [float(w.split()[0].rstrip(":,")) for w in msg.split("residual ")[1:]]
    assert margin < floor <= 0.0
    assert residual[1] < residual[0]
