import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from math import pi
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from hesslab.errors import NotConvex
from hesslab.surfaces import (
    RevolutionBody,
    _ClampedSpline,
    _simpson_weights,
    _solve_tridiagonal,
    _spline_slopes,
    af_sides,
    curvature_samples,
    sphere_measure,
)
from oracles import (
    af_gap,
    minkowski_residual,
    qiu_xia_gap,
    quermass,
    save_profile,
    volume,
)

S4 = sphere_measure(4)  # 8 pi^2 / 3


class TestSphereMeasure:
    def test_known_values(self):
        assert sphere_measure(1) == pytest.approx(2 * pi)
        assert sphere_measure(2) == pytest.approx(4 * pi)
        assert sphere_measure(4) == pytest.approx(8 * pi**2 / 3)


class TestCurvatureSamples:
    def test_sphere_constant_curvature(self):
        s = curvature_samples(RevolutionBody.sphere(2.0, 3))
        assert np.max(np.abs(s.kappa_m - 0.5)) <= 1e-10
        assert np.max(np.abs(s.kappa_r - 0.5)) <= 1e-10

    def test_splined_pole_curvature(self):
        # a spline's gamma'(pi) is 0, so nu_rho / rho reads 1 / gamma at
        # theta = pi, where sin theta is 1.2e-16: the axis limit holds there
        theta = np.linspace(0.0, pi, 65)
        body = RevolutionBody.from_samples(
            3, theta, RevolutionBody.spheroid(1.5, 1.0, 3, samples=64).gamma)
        s = curvature_samples(body)
        assert s.kappa_r[[0, -1]].tobytes() == s.kappa_m[[0, -1]].tobytes()
        assert s.kappa_r[-1] == pytest.approx(1.5, rel=2e-2)

    def test_spheroid_pole_curvature(self):
        # pole on the long axis of a prolate (1.5, 1) spheroid: a/b^2
        s = curvature_samples(RevolutionBody.spheroid(1.5, 1.0, 3))
        assert s.kappa_m[0] == pytest.approx(1.5, rel=1e-12)
        assert s.kappa_r[0] == pytest.approx(1.5, rel=1e-12)
        assert s.kappa_m[-1] == pytest.approx(1.5, rel=1e-12)

    def test_unit_sphere_h2_n5(self):
        s = curvature_samples(RevolutionBody.sphere(1.0, 5))
        h2 = s.h_k(2)
        assert np.max(np.abs(h2 - 6.0)) <= 1e-10

    def test_star_shape_metric_positive(self):
        s = curvature_samples(RevolutionBody.cos_perturbed(3, 0.2))
        assert np.all(s.x_dot_nu > 0)


class TestQuermass:
    def test_sphere_area_n3(self):
        for R in (1.0, 2.0):
            assert quermass(RevolutionBody.sphere(R, 3), 0) == pytest.approx(
                4 * pi * R**2, rel=1e-9
            )

    def test_sphere_h1_n5(self):
        assert quermass(RevolutionBody.sphere(1.0, 5), 1) == pytest.approx(
            4 * S4, rel=1e-9
        )

    def test_sphere_h1_n3(self):
        assert quermass(RevolutionBody.sphere(2.0, 3), 1) == pytest.approx(
            16 * pi, rel=1e-9
        )

    def test_sphere_general_closed_form(self):
        from math import comb

        for n, k, R in [(3, 1, 1.5), (5, 2, 0.7), (7, 3, 2.0), (4, 2, 1.0)]:
            want = comb(n - 1, k) * R ** (-k) * sphere_measure(n - 1) * R ** (n - 1)
            got = quermass(RevolutionBody.sphere(R, n), k)
            assert got == pytest.approx(want, rel=1e-9)


class TestMinkowski:
    def test_sphere_exact(self):
        assert abs(minkowski_residual(RevolutionBody.sphere(1.0, 3), 1)) <= 1e-10

    def test_sphere_n5_k2(self):
        assert abs(minkowski_residual(RevolutionBody.sphere(1.0, 5), 2)) <= 1e-9

    def test_spheroid_at_2048_samples(self):
        body = RevolutionBody.spheroid(1.5, 1.0, 3, samples=2048)
        assert abs(minkowski_residual(body, 1)) <= 1e-8

    def test_all_bodies_all_orders(self):
        bodies = [
            RevolutionBody.sphere(1.0, 4, samples=2048),
            RevolutionBody.spheroid(1.5, 1.0, 5, samples=2048),
            RevolutionBody.cos_perturbed(5, 0.2, samples=2048),
        ]
        for body in bodies:
            scale = quermass(body, 0)
            for k in range(1, body.n):
                assert abs(minkowski_residual(body, k)) <= 1e-8 * max(scale, 1.0)

    def test_convergence_order(self):
        res = []
        for samples in (128, 256, 512):
            body = RevolutionBody.cos_perturbed(3, 0.2, samples=samples)
            res.append(abs(minkowski_residual(body, 1)))
        order = np.log2(res[0] / res[1])
        assert order >= 2.0
        order = np.log2(res[1] / res[2])
        assert order >= 2.0


class TestVolume:
    def test_spheres(self):
        assert volume(RevolutionBody.sphere(1.0, 3)) == pytest.approx(4 * pi / 3)
        assert volume(RevolutionBody.sphere(2.0, 3)) == pytest.approx(32 * pi / 3)

    def test_prolate_spheroid(self):
        body = RevolutionBody.spheroid(1.5, 1.0, 3)
        assert volume(body) == pytest.approx(2 * pi, rel=1e-9)


class TestInequalityGaps:
    def test_af_zero_on_spheres(self):
        for n, k, R in [(5, 2, 1.0), (5, 2, 2.0), (7, 3, 1.0), (6, 2, 0.5)]:
            body = RevolutionBody.sphere(R, n)
            scale = quermass(body, k - 1)
            assert abs(af_gap(body, k)) <= 1e-9 * scale**2

    def test_af_sphere_n5_arithmetic(self):
        # (3)(1)(4|S4|)^2 - (4)(2)(6|S4|)(|S4|) = 0
        assert af_gap(RevolutionBody.sphere(1.0, 5), 2) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_af_positive_on_convex_spheroid(self):
        body = RevolutionBody.spheroid(1.5, 1.0, 5, samples=1024)
        assert af_gap(body, 2) >= 0.0

    def test_af_convex_battery(self):
        for a, b in [(1.2, 1.0), (1.0, 1.3), (2.0, 1.5)]:
            body = RevolutionBody.spheroid(a, b, 6, samples=512)
            scale = quermass(body, 1)
            assert af_gap(body, 2) >= -1e-9 * scale**2

    def test_qiu_xia_zero_on_spheres(self):
        for R in (0.5, 1.0, 3.0):
            body = RevolutionBody.sphere(R, 3)
            assert abs(qiu_xia_gap(body)) <= 1e-9 * (4 * pi * R**2) ** 2

    def test_qiu_xia_sphere_arithmetic(self):
        # (2/3)(4 pi)^2 - (4 pi / 3)(8 pi) = 0
        assert qiu_xia_gap(RevolutionBody.sphere(1.0, 3)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_qiu_xia_strict_on_spheroid(self):
        assert qiu_xia_gap(RevolutionBody.spheroid(1.5, 1.0, 3, samples=1024)) > 1e-3

    def test_nonconvex_rejected(self):
        # boundary-flat at the equator: kappa_m = 0 there
        body = RevolutionBody.cos_perturbed(3, 0.2)
        with pytest.raises(NotConvex):
            af_gap(body, 2)
        with pytest.raises(NotConvex):
            qiu_xia_gap(body)


class TestProfileIO:
    def test_roundtrip(self, tmp_path):
        body = RevolutionBody.spheroid(1.5, 1.0, 3, samples=256)
        path = tmp_path / "prolate.profile"
        save_profile(body, path)
        loaded = RevolutionBody.load_profile(path)
        assert loaded.n == 3
        assert np.allclose(loaded.gamma, body.gamma, rtol=1e-12)
        # spline derivatives track the analytic ones closely away from noise
        assert np.max(np.abs(loaded.dgamma - body.dgamma)) <= 1e-5

    def test_sampled_body_resamples_through_its_spline(self):
        # as the clamped spline through its own gamma, bit for bit; so does
        # a body built from arrays alone
        theta = np.linspace(0.0, pi, 65)
        noise = np.random.default_rng(7).uniform(-1e-3, 1e-3, theta.size)
        body = RevolutionBody.from_samples(3, theta, 1.0 + 0.05 * np.cos(2 * theta) + noise)
        bare = RevolutionBody(3, body.theta, body.gamma, body.dgamma, body.d2gamma)
        th = np.linspace(0.0, pi, 33)
        spline = _ClampedSpline(body.theta, body.gamma)
        for resampled in (body.resampled(32), bare.resampled(32)):
            assert resampled.theta.tobytes() == th.tobytes()
            for nu, key in enumerate(("gamma", "dgamma", "d2gamma")):
                assert getattr(resampled, key).tobytes() == spline(th, nu).tobytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.profile"
        path.write_text("# not a profile\n0 1\n")
        with pytest.raises(ValueError):
            RevolutionBody.load_profile(path)


class TestClampedSpline:
    """_ClampedSpline is scipy's CubicSpline(bc_type="clamped") bit for bit:
    values and both derivatives at the nodes, between them, at both ends
    and beyond them."""

    @staticmethod
    def _check(x, y):
        ref, ours = CubicSpline(x, y, bc_type="clamped"), _ClampedSpline(x, y)
        dx = np.diff(x)
        pts = np.concatenate([x, x[:-1] + 0.5 * dx, x[:-1] + 0.3 * dx,
                              [x[0] - 0.1, x[-1] + 0.1]])
        for nu in (0, 1, 2):
            assert ours(pts, nu).tobytes() == ref(pts, nu).tobytes()
        assert ours(x[1]).tobytes() == ref(x[1]).tobytes()  # a scalar point

    @pytest.mark.parametrize("samples", [16, 64, 512])
    def test_uniform_profiles(self, samples):
        th = np.linspace(0.0, pi, samples + 1)
        for body in (RevolutionBody.spheroid(1.5, 1.0, 3, samples),
                     RevolutionBody.cos_perturbed(3, 0.2, 4, samples=samples),
                     RevolutionBody.sphere(1.0, 3, samples)):
            self._check(th, body.gamma)
            self._check(th, np.log(body.gamma))

    @given(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    def test_nonuniform_nodes(self, steps, seed):
        x = np.concatenate([[-1.0], -1.0 + np.cumsum(steps)])
        self._check(x, np.random.default_rng(seed).standard_normal(x.size))

    @pytest.mark.parametrize("theta", [[0.0, 1.0, 1.0, pi], [0.0, 2.0, 1.0, pi]])
    def test_profile_not_increasing_raises(self, theta):
        # checked before any division by a zero or negative step
        with pytest.raises(ValueError, match="strictly increasing"):
            RevolutionBody.from_samples(3, np.array(theta), np.ones(4))


class TestSolveTridiagonal:
    """_solve_tridiagonal is scipy's solve_banded((1, 1), ...) bit for bit,
    which is LAPACK's dgtsv, with and without row interchanges."""

    @staticmethod
    def _system(n, shape, seed, pivot):
        rng = np.random.default_rng(seed)
        ab = rng.standard_normal((3, n))
        if pivot:  # a small diagonal: most rows are interchanged
            ab[1] *= 1e-2
        else:  # diagonally dominant: no row is interchanged
            ab[1] = np.abs(ab[1]) + 2.5
        return ab, rng.standard_normal(shape)

    @pytest.mark.parametrize("pivot", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 65, 257])
    def test_matches_solve_banded(self, n, pivot):
        for seed in range(5):
            for shape in ((n,), (n, 1), (n, 2 + 7 * seed)):
                ab, b = self._system(n, shape, seed, pivot)
                # the first elimination step interchanges rows 0 and 1 or not
                assert (abs(ab[1, 0]) < abs(ab[2, 0])) == pivot
                ref = solve_banded((1, 1), ab, b)
                ab_in, b_in = ab.copy(), b.copy()
                got = _solve_tridiagonal(ab_in, b_in)
                assert got is b_in and got.shape == shape
                assert got.tobytes() == ref.tobytes()
                assert np.array_equal(ab_in, ab)

    @given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_random_systems(self, n, m, seed):
        rng = np.random.default_rng(seed)
        ab = rng.standard_normal((3, n)) * rng.choice([1e-3, 1.0, 1e3], (3, n))
        b = rng.standard_normal((n, m))
        ref = solve_banded((1, 1), ab, b)
        assert _solve_tridiagonal(ab, b.copy()).tobytes() == ref.tobytes()
        ref = solve_banded((1, 1), ab, b[:, 0])
        assert _solve_tridiagonal(ab, b[:, 0].copy()).tobytes() == ref.tobytes()

    #: singular matrices whose elimination meets an exact zero pivot: in
    #: column 0, in a middle column (after one elimination step, with a
    #: zero below it, so no interchange helps) and in the last column
    SINGULAR = {
        "first": [[0, 1, 0, 0], [0, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]],
        "middle": [[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
        "last": [[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 1]],
    }

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3)])
    @pytest.mark.parametrize("where", sorted(SINGULAR))
    def test_zero_pivot_raises(self, where, shape):
        A = np.array(self.SINGULAR[where], dtype=float)
        ab = np.zeros((3, 4))
        ab[0, 1:], ab[1], ab[2, :-1] = A.diagonal(1), A.diagonal(), A.diagonal(-1)
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded((1, 1), ab, np.ones(shape))
        with pytest.raises(np.linalg.LinAlgError):
            _solve_tridiagonal(ab, np.ones(shape))

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (0, 4), (1, 0), (1, 2), (1, 4),
                                       (2, 0), (2, 3)])
    def test_non_finite_band_raises(self, where, bad, shape):
        # a NaN pivot fails abs(d) >= abs(dl), so without the check the
        # interchange branch could divide by a zero subdiagonal entry
        ab, b = self._system(5, shape, 0, pivot=False)
        ab[where] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            _solve_tridiagonal(ab, b)

    def test_unused_band_corners_are_ignored(self):
        ab, b = self._system(5, (5,), 1, pivot=True)
        ref = solve_banded((1, 1), ab, b)
        ab[0, 0] = ab[2, -1] = np.nan
        assert _solve_tridiagonal(ab, b.copy()).tobytes() == ref.tobytes()


@pytest.mark.parametrize("num_nodes", [3, 4, 5, 8, 9, 64, 65])
def test_simpson_weights_match_scipy(num_nodes):
    x = np.linspace(0.0, 2.0, num_nodes)
    y = np.exp(x) * np.cos(3.0 * x)
    got = _simpson_weights(num_nodes, x[1] - x[0]) @ y
    assert got == pytest.approx(simpson(y, x=x), rel=1e-13)


@pytest.mark.parametrize("call,message", [
    (lambda: _simpson_weights(2, 0.5), "composite Simpson needs a node count >= 3"),
    (lambda: _spline_slopes(np.arange(4.0), np.array([0.0, 1.0, np.nan, 3.0]), False),
     "spline values must be finite"),
    (lambda: _spline_slopes(np.arange(3.0), np.zeros(3), False),
     "a cubic spline needs more than 3 nodes"),
    (lambda: _spline_slopes(np.zeros(1), np.zeros(1), True),
     "a cubic spline needs more than 1 nodes"),
    (lambda: RevolutionBody.sphere(1.0, n=2), "ambient dimension must be >= 3"),
    (lambda: af_sides(curvature_samples(RevolutionBody.sphere(1.0, n=5)), 1),
     "the Aleksandrov-Fenchel inequality needs k >= 2"),
], ids=["simpson-2-nodes", "spline-nan", "not-a-knot-3-nodes", "clamped-1-node",
        "body-n=2", "af-k=1"])
def test_guards_raise_value_error(call, message):
    # each guard names what it refuses, before any arithmetic on the input
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()
