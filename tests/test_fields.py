import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from math import comb

from hesslab.errors import DegenerateGradient
from hesslab.fields import AxiJets, levelset_curvature_axisym, rhs_at_radius
from hesslab.radial import RadialSolution
from hesslab.solver import AxiGrid, _centered, _chain
from hesslab.surfaces import RevolutionBody
from hesslab.symfunc import sigma_matrix
from oracles import Jet2, levelset_curvature, radial_eval


class TestLevelsetCurvature:
    def test_unit_sphere_harmonic(self):
        jet = radial_eval(RadialSolution(n=3, k=1, R=1.0), 1.0)
        h1, h0 = levelset_curvature(jet, 1, sk_value=0.0)
        assert h1 == pytest.approx(2.0, abs=1e-12)
        assert h0 == pytest.approx(1.0, abs=1e-12)

    def test_unit_sphere_k2_n5(self):
        jet = radial_eval(RadialSolution(n=5, k=2, R=1.0), 1.0)
        h2, h1 = levelset_curvature(jet, 2, sk_value=0.0)
        assert h2 == pytest.approx(comb(4, 2), abs=1e-12)
        assert h1 == pytest.approx(4.0, abs=1e-12)

    def test_sphere_curvature_powers_along_radius(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        for r in (1.0, 1.5, 3.0, 10.0):
            jet = radial_eval(sol, r)
            h2, h1 = levelset_curvature(jet, 2, sk_value=0.0)
            assert h2 == pytest.approx(comb(4, 2) / r**2, rel=1e-12)
            assert h1 == pytest.approx(comb(4, 1) / r, rel=1e-12)

    def test_jet_scaling_invariance(self):
        jet = radial_eval(RadialSolution(n=3, k=1, R=1.0), 2.0)
        scaled = Jet2(x=jet.x, u=2 * jet.u, g=2 * jet.g, H=2 * jet.H)
        h1a, h0a = levelset_curvature(jet, 1, sigma_matrix(jet.H, 1))
        h1b, h0b = levelset_curvature(scaled, 1, sigma_matrix(scaled.H, 1))
        assert h1a == pytest.approx(h1b, rel=1e-12)
        assert h0a == pytest.approx(h0b, rel=1e-12)

    def test_degenerate_gradient_raises(self):
        jet = Jet2(x=np.zeros(3), u=0.0, g=np.zeros(3), H=np.eye(3))
        with pytest.raises(DegenerateGradient):
            levelset_curvature(jet, 1, 0.0)


def spheroidal_jet(z, rho, a, b, n):
    """Jet of u = -1/w with w = z^2/a^2 + |x_perp|^2/b^2; level sets are
    spheroids with semi-axes (a, b) sqrt(w)."""
    x = np.zeros(n)
    x[0], x[1] = z, rho
    scales = np.full(n, 1.0 / b**2)
    scales[0] = 1.0 / a**2
    w = float(np.sum(scales * x * x))
    gw = 2.0 * scales * x
    Hw = np.diag(2.0 * scales)
    g = w**-2 * gw
    H = w**-2 * Hw - 2.0 * w**-3 * np.outer(gw, gw)
    return Jet2(x=x, u=-1.0 / w, g=g, H=H), w


def spheroid_curvature_oracle(z, rho, A, B, n, k):
    """Closed-form (H_k, H_{k-1}) of the spheroid z^2/A^2 + rho^2/B^2 = 1."""
    psi = np.arctan2(rho / B, z / A)
    m = np.sqrt(A**2 * np.sin(psi) ** 2 + B**2 * np.cos(psi) ** 2)
    kr = A / (B * m)
    km = A * B / m**3

    def h(j):
        if j == 0:
            return 1.0
        val = 0.0
        if j <= n - 2:
            val += comb(n - 2, j) * kr**j
        if j - 1 <= n - 2:
            val += comb(n - 2, j - 1) * km * kr ** (j - 1)
        return val

    return h(k), h(k - 1)


class TestLevelsetSurfaceConsistency:
    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (5, 1), (7, 3)])
    def test_matches_shape_operator_curvatures(self, n, k):
        a, b = 1.3, 0.8
        rng = np.random.default_rng(42)
        for _ in range(50):
            z = rng.uniform(-1.5, 1.5)
            rho = rng.uniform(0.2, 1.5)
            jet, w = spheroidal_jet(z, rho, a, b, n)
            sk = sigma_matrix(jet.H, k)
            hk, hk1 = levelset_curvature(jet, k, sk)
            s = np.sqrt(w)
            want_k, want_k1 = spheroid_curvature_oracle(z, rho, a * s, b * s, n, k)
            assert hk == pytest.approx(want_k, rel=1e-6)
            assert hk1 == pytest.approx(want_k1, rel=1e-6)


_entry = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


class TestAxisymmetricSplit:
    """Closed-form H_k, H_{k-1} of AxiJets against the dense n x n route."""

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3), (9, 4)])
    @given(vals=st.tuples(*[_entry] * 7))
    def test_matches_levelset_curvature(self, n, k, vals):
        uz, urho, uzz, uzrho, urhorho, kap, f = vals
        gn = np.hypot(uz, urho)
        assume(gn >= 0.25)
        g = np.zeros(n)
        g[:2] = uz, urho
        H = kap * np.eye(n)
        H[:2, :2] = [[uzz, uzrho], [uzrho, urhorho]]
        want_k, want_k1 = levelset_curvature(
            Jet2(x=np.zeros(n), u=0.0, g=g, H=H), k, f
        )
        one = np.ones(1)
        jets = AxiJets(
            n=n, z=0 * one, rho=one, u=0 * one, uz=uz * one, urho=urho * one,
            uzz=uzz * one, uzrho=uzrho * one, urhorho=urhorho * one,
            kappat=kap * one,
        )
        hk, hk1 = levelset_curvature_axisym(jets, k, f)
        # rounding is relative to the size of the terms, not of the result:
        # S_k^{ij} is a sum of products of k - 1 Hessian entries
        terms = comb(n, k - 1) * (1.0 + np.linalg.norm(H, 2)) ** (k - 1)
        assert abs(hk1[0] - want_k1) <= 1e-10 * terms * gn ** (1 - k)
        assert abs(hk[0] - want_k) <= 1e-10 * (
            abs(f) + terms * np.linalg.norm(H, 2)
        ) / gn**k

    def test_degenerate_gradient_raises(self):
        one = np.ones(3)
        jets = AxiJets(
            n=3, z=one, rho=one, u=one, uz=np.array([1.0, 0.0, 1.0]),
            urho=np.zeros(3), uzz=one, uzrho=one, urhorho=one, kappat=one,
        )
        with pytest.raises(DegenerateGradient):
            levelset_curvature_axisym(jets, 1, 0.0)


class TestAxiJetScaling:
    """S_m of the Hessian is homogeneous of degree m in u and of degree
    -2m in space: the jets of lam u on the grid of the body scaled by mu
    split into lam^m mu^(-2m) S_m, for any node values."""

    @given(lam=st.floats(0.2, 5.0), mu=st.floats(0.25, 4.0),
           n=st.sampled_from([3, 5, 7]), seed=st.integers(0, 2**32 - 1))
    def test_split_scales(self, lam, mu, n, seed):
        N_s, N_theta = 12, 16

        def grid(scale):
            body = RevolutionBody.cos_perturbed(n, 0.1, 2, R=scale, samples=N_theta)
            return AxiGrid(body, 20.0 * scale, N_s, N_theta)

        U = -1.0 - np.random.default_rng(seed).random((N_s + 1, N_theta + 1))
        rows = slice(1, -1)
        split = []
        for g, V in ((grid(1.0), U), (grid(mu), lam * U)):
            jets = _chain(g, rows, _centered(V, g.hs, g.ht), V[rows])
            split.append(jets.split(n).levels)
        for m in range(1, n + 1):
            want = lam**m * mu ** (-2 * m) * split[0][m]
            # rounding is relative to the largest S_m (measured: 5e-15)
            size = lam**m * mu ** (-2 * m) * np.abs(split[0][m]).max()
            np.testing.assert_allclose(split[1][m], want, rtol=0, atol=1e-12 * size)


class TestApproxRHS:
    """f^eps, the right-hand side of the approximating equation."""

    def test_origin_value(self):
        assert rhs_at_radius(0.0, 1.0, 4, 1.0) == pytest.approx(1.0)

    def test_unit_radius_value(self):
        assert rhs_at_radius(1.0, 1.0, 4, 1.0) == pytest.approx(0.125)

    def test_eps_to_zero_limit(self):
        for eps in (1e-2, 1e-4, 1e-6):
            assert rhs_at_radius(1.0, eps, 4) <= eps**2

    def test_monotone_decreasing_and_order_eps2(self):
        r = np.linspace(0.5, 10.0, 200)
        for eps in (0.5, 0.1, 0.02):
            vals = rhs_at_radius(r, eps, 5)
            assert np.all(np.diff(vals) < 0)
            assert np.max(vals) <= eps**2 * (0.5**2) ** (-5 / 2 - 1)
