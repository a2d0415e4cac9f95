import numpy as np
import pytest
from math import comb, pi
from scipy.integrate import quad

from hesslab.monotone import ProblemSpec, limit_bound, sphere_measure, weights
from hesslab.radial import (
    RadialSolution,
    _level_sphere_integrals,
    exterior_skm1_grad2_integral,
    radial_F,
)
from hesslab.symfunc import sigma_matrix
from oracles import OutOfDomain, radial_eval, radial_value

S4 = sphere_measure(4)


class TestRadialSolution:
    def test_basic_exponents(self):
        sol = RadialSolution(n=3, k=1, R=2.0)
        assert sol.alpha == pytest.approx(1.0)
        assert sol.rho == pytest.approx(2.0)
        assert sol.c_bdry == pytest.approx(0.5)

    def test_n5_k2(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        assert sol.alpha == pytest.approx(0.5)
        assert sol.rho == pytest.approx(1.0)
        assert sol.c_bdry == pytest.approx(0.5)

    def test_boundary_value(self):
        for n, k, R in [(3, 1, 1.0), (5, 2, 2.0), (7, 3, 0.5)]:
            sol = RadialSolution(n=n, k=k, R=R)
            assert radial_value(sol, R) == pytest.approx(-1.0)

    def test_level_radius_roundtrip(self):
        sol = RadialSolution(n=5, k=2, R=1.5)
        for t in (-1.0, -0.5, -0.1):
            r = float(sol.level_radius(t))
            assert radial_value(sol, r) == pytest.approx(t, rel=1e-14)

    def test_harmonic_values(self):
        # n=3, k=1: u = -R/r
        sol = RadialSolution(n=3, k=1, R=1.0)
        assert radial_value(sol, 2.0) == pytest.approx(-0.5)
        assert sol.slope(2.0) == pytest.approx(0.25)
        assert sol.second(2.0) == pytest.approx(-0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RadialSolution(n=4, k=2, R=1.0)  # n = 2k
        with pytest.raises(ValueError):
            RadialSolution(n=3, k=1, R=0.0)


class TestRadialEval:
    def test_inside_ball_rejected(self):
        sol = RadialSolution(n=3, k=1, R=1.0)
        with pytest.raises(OutOfDomain):
            radial_eval(sol, 0.5)

    def test_hessian_eigenvalues(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        r = 2.0
        jet = radial_eval(sol, r)
        lam = np.sort(np.linalg.eigvalsh(jet.H))
        want = np.sort(
            np.concatenate([[float(sol.second(r))], np.full(4, float(sol.slope(r)) / r)])
        )
        assert np.allclose(lam, want, rtol=1e-13)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3), (9, 2)])
    def test_hessian_in_equation_kernel(self, n, k):
        # S_k of the Hessian vanishes identically outside the ball
        sol = RadialSolution(n=n, k=k, R=1.0)
        for r in (1.0, 1.7, 4.0):
            jet = radial_eval(sol, r)
            scale = np.abs(jet.H).max() ** k
            assert abs(sigma_matrix(jet.H, k)) <= 1e-13 * max(scale, 1.0)

    def test_direction_independence(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        rng = np.random.default_rng(3)
        e = rng.standard_normal(5)
        jet_a = radial_eval(sol, 3.0)
        jet_b = radial_eval(sol, 3.0, direction=e)
        assert jet_a.u == pytest.approx(jet_b.u)
        assert jet_a.grad_norm == pytest.approx(jet_b.grad_norm, rel=1e-13)
        assert np.linalg.norm(jet_b.x) == pytest.approx(3.0, rel=1e-13)


class TestRadialF:
    def test_harmonic_a1_value(self):
        # n=3, k=1, R=2, a=1: F identically 4 pi
        sol = RadialSolution(n=3, k=1, R=2.0)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        for t in np.linspace(-1.0, -0.05, 25):
            assert radial_F(sol, t, spec) == pytest.approx(4 * pi, rel=1e-12)

    def test_harmonic_a2_value(self):
        # n=3, k=1, R=2, a=2: F identically pi
        sol = RadialSolution(n=3, k=1, R=2.0)
        spec = ProblemSpec(n=3, k=1, a=2.0)
        for t in np.linspace(-1.0, -0.05, 25):
            assert radial_F(sol, t, spec) == pytest.approx(pi, rel=1e-12)

    def test_n5_k2_value(self):
        # n=5, k=2, R=1, a=2: F identically |S^4| / 2
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        for t in np.linspace(-1.0, -0.05, 25):
            assert radial_F(sol, t, spec) == pytest.approx(0.5 * S4, rel=1e-12)

    @pytest.mark.parametrize(
        "n,k,a,R",
        [(3, 1, 1.0, 1.0), (3, 1, 2.0, 2.0), (5, 2, 2.0, 1.0), (5, 2, 1.5, 0.7),
         (7, 3, 3.0, 1.3), (5, 1, 1.0, 1.0)],
    )
    def test_constant_and_equal_to_limit(self, n, k, a, R):
        sol = RadialSolution(n=n, k=k, R=R)
        spec = ProblemSpec(n=n, k=k, a=a)
        bound = limit_bound(spec, sol.rho)
        vals = [radial_F(sol, t, spec) for t in np.linspace(-1.0, -0.02, 40)]
        assert np.max(np.abs(np.array(vals) / bound - 1.0)) <= 1e-10

    def test_c4_branch_still_constant(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0, C3=0.7, C4=0.3)
        vals = np.array(
            [radial_F(sol, t, spec) for t in np.linspace(-1.0, -0.05, 30)]
        )
        # only the C3 part survives in the limit; C4 contributes a monotone
        # piece that vanishes as t -> 0, so F is non-increasing, not constant
        assert np.all(np.diff(vals) <= 1e-12 * np.abs(vals[:-1]))
        bound = limit_bound(spec, sol.rho)
        assert np.all(vals >= bound * (1 - 1e-12))

    def test_spec_mismatch_rejected(self):
        sol = RadialSolution(n=3, k=1, R=1.0)
        with pytest.raises(ValueError):
            radial_F(sol, -0.5, ProblemSpec(n=5, k=2, a=2.0))

    def test_level_out_of_range(self):
        sol = RadialSolution(n=3, k=1, R=1.0)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        with pytest.raises(ValueError):
            radial_F(sol, 0.5, spec)


class TestExteriorIntegral:
    def test_n5_k2_value(self):
        # int S_1(Hessian) |grad u|^2 over the exterior of the unit ball:
        # closed form 5/8 |S^4|
        sol = RadialSolution(n=5, k=2, R=1.0)
        got = exterior_skm1_grad2_integral(sol)
        assert got == pytest.approx(0.625 * S4, rel=1e-9)

    def test_harmonic_n3(self):
        # k=1: int |grad u|^2 = capacity integral = 4 pi R
        for R in (1.0, 2.0):
            sol = RadialSolution(n=3, k=1, R=R)
            got = exterior_skm1_grad2_integral(sol)
            assert got == pytest.approx(4 * pi * R, rel=1e-9)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
    def test_matches_quadrature(self, n, k):
        # the closed form against adaptive quadrature of the density:
        # S_{k-1} of the Hessian eigenvalues u'' (once) and u'/r (n-1 times)
        sol = RadialSolution(n=n, k=k, R=1.2)

        def density(r):
            up, upp = float(sol.slope(r)), float(sol.second(r))
            skm1 = comb(n - 1, k - 1) * (up / r) ** (k - 1)
            if k >= 2:
                skm1 += upp * comb(n - 1, k - 2) * (up / r) ** (k - 2)
            return skm1 * up**2 * sphere_measure(n - 1) * r ** (n - 1)

        ref, _ = quad(density, sol.R, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        assert exterior_skm1_grad2_integral(sol) == pytest.approx(ref, rel=1e-10)


class TestWeightsAgainstLevelIntegrals:
    def test_weighted_combination_matches_limit(self):
        # the defining property: C1 int H_k |g|^a + C2 int H_{k-1} |g|^(a+1)
        # is t-independent on balls
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        hk_a, hk1_a = _level_sphere_integrals(sol, -0.9, spec.a)
        hk_b, hk1_b = _level_sphere_integrals(sol, -0.1, spec.a)
        c1a, c2a = weights(-0.9, spec)
        c1b, c2b = weights(-0.1, spec)
        assert float(c1a) * hk_a + float(c2a) * hk1_a == pytest.approx(
            float(c1b) * hk_b + float(c2b) * hk1_b, rel=1e-12
        )
