import numpy as np
import pytest
from math import pi

from hesslab.monotone import (ProblemSpec, T_GRID, level_grid, limit_bound,
                              sphere_measure, weights)
from oracles import weights_derivatives, weights_ode_residual


class TestProblemSpec:
    def test_defaults(self):
        spec = ProblemSpec(n=5, k=2, a=2.0)
        assert spec.C3 == 1.0
        assert spec.C4 == 0.0
        assert spec.eps == 0.02

    def test_exponents(self):
        spec = ProblemSpec(n=3, k=1, a=2.0)
        # p = ((a-k)(n-k)+k)/(n-2k) = (1*2+1)/1 = 3; q = (a-k+1)(n-k)/(n-2k) = 4
        assert spec.p_exponent == pytest.approx(3.0)
        assert spec.q_exponent == pytest.approx(4.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        # p = (0*3+2)/1 = 2; q = 1*3/1 = 3
        assert spec.p_exponent == pytest.approx(2.0)
        assert spec.q_exponent == pytest.approx(3.0)

    def test_a_floor(self):
        spec = ProblemSpec(n=5, k=2, a=2.0)
        assert spec.a_min == pytest.approx(2 * 2 / 3)
        with pytest.raises(ValueError):
            ProblemSpec(n=5, k=2, a=0.5)

    def test_dimension_constraint(self):
        with pytest.raises(ValueError):
            ProblemSpec(n=4, k=2, a=2.0)

    def test_negative_c1_rejected(self):
        # C4 < 0 large enough makes C1(t) = (-t)^(-p) C3 + (-t)^(1-p) C4
        # negative near t = -1
        with pytest.raises(ValueError):
            ProblemSpec(n=5, k=2, a=2.0, C3=1.0, C4=-2.0)

    @pytest.mark.parametrize("field,value", [
        ("a", np.nan), ("C3", np.nan), ("C4", np.inf), ("cnk", np.nan),
        ("cnk", -1.0), ("eps", np.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="need finite a, C3, C4, eps and cnk >= 0"):
            ProblemSpec(**{"n": 3, "k": 1, "a": 1.0, field: value})

    @pytest.mark.parametrize("eps", [0.0, -0.02])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="and eps > 0, got"):
            ProblemSpec(n=3, k=1, a=1.0, eps=eps)

    def test_homogeneous_equation_allowed(self):
        assert ProblemSpec(n=3, k=1, a=1.0, cnk=0.0).cnk == 0.0

    def test_decay_exponent(self):
        assert ProblemSpec(n=3, k=1, a=1.0).decay_exponent == pytest.approx(1.0)
        assert ProblemSpec(n=5, k=2, a=2.0).decay_exponent == pytest.approx(0.5)


class TestLevelGrid:
    def test_default_and_single_level(self):
        assert level_grid(None).tolist() == list(T_GRID)
        assert level_grid([-0.5]).tolist() == [-0.5]

    @pytest.mark.parametrize("ts", [(-0.25, -0.5, -0.9), (-0.5, -0.5)])
    def test_levels_out_of_t_order_rejected(self, ts):
        with pytest.raises(ValueError, match="levels must strictly increase"):
            level_grid(ts)


class TestWeights:
    def test_at_minus_one(self):
        # (-t) = 1 kills the powers: C1(-1) = C3 + C4
        for n, k, a in [(3, 1, 1.0), (5, 2, 2.0), (7, 3, 3.0)]:
            spec = ProblemSpec(n=n, k=k, a=a, C3=0.3, C4=0.6)
            c1, _ = weights(-1.0, spec)
            assert float(c1) == pytest.approx(0.9, rel=1e-14)

    def test_harmonic_example(self):
        # n=3, k=1, a=2, t=-0.5, C3=1, C4=0: C1 = 2^3 = 8, C2 = -3/2 * 2^4 = -24
        spec = ProblemSpec(n=3, k=1, a=2.0)
        c1, c2 = weights(-0.5, spec)
        assert float(c1) == pytest.approx(8.0, rel=1e-14)
        assert float(c2) == pytest.approx(-24.0, rel=1e-14)

    def test_n5_k2_example(self):
        # n=5, k=2, a=2, t=-0.5: p=2, q=3; C1 = 4, C2 = -2 * 8 = -16
        spec = ProblemSpec(n=5, k=2, a=2.0)
        c1, c2 = weights(-0.5, spec)
        assert float(c1) == pytest.approx(4.0, rel=1e-14)
        assert float(c2) == pytest.approx(-16.0, rel=1e-14)

    def test_c1_positive_c2_negative_default(self):
        t = np.linspace(-1.0, -0.01, 200)
        for n, k, a in [(3, 1, 1.0), (5, 2, 2.0), (7, 3, 3.0), (9, 4, 4.0)]:
            c1, c2 = weights(t, ProblemSpec(n=n, k=k, a=a))
            assert np.all(c1 > 0)
            assert np.all(c2 < 0)

    def test_domain_validation(self):
        spec = ProblemSpec(n=3, k=1, a=1.0)
        with pytest.raises(ValueError):
            weights(0.0, spec)
        with pytest.raises(ValueError):
            weights(-1.5, spec)


class TestWeightsDerivatives:
    @pytest.mark.parametrize(
        "n,k,a,C3,C4",
        [(3, 1, 1.0, 1.0, 0.0), (5, 2, 2.0, 1.0, 0.0), (5, 2, 2.0, 0.4, 0.6),
         (7, 3, 3.0, 2.0, -0.5), (9, 2, 2.0, 1.0, 1.0)],
    )
    def test_matches_finite_differences(self, n, k, a, C3, C4):
        spec = ProblemSpec(n=n, k=k, a=a, C3=C3, C4=C4)
        t = np.linspace(-0.9, -0.1, 17)
        h = 1e-6
        c1p, c2p = weights_derivatives(t, spec)
        fd1 = (weights(t + h, spec)[0] - weights(t - h, spec)[0]) / (2 * h)
        fd2 = (weights(t + h, spec)[1] - weights(t - h, spec)[1]) / (2 * h)
        assert np.allclose(c1p, fd1, rtol=1e-5, atol=1e-5)
        assert np.allclose(c2p, fd2, rtol=1e-5, atol=1e-5)


class TestWeightsODE:
    @pytest.mark.parametrize(
        "n,k,a,C3,C4",
        [(3, 1, 1.0, 1.0, 0.0), (3, 1, 2.0, 1.0, 0.0), (5, 2, 2.0, 1.0, 0.0),
         (5, 2, 2.0, 0.5, 0.5), (7, 3, 3.0, 1.0, 2.0), (9, 4, 4.0, 2.0, 1.0),
         (5, 2, 4 / 3, 1.0, 0.0)],
    )
    def test_residuals_vanish(self, n, k, a, C3, C4):
        spec = ProblemSpec(n=n, k=k, a=a, C3=C3, C4=C4)
        t = np.linspace(-1.0, -0.01, 100)
        r1, r2 = weights_ode_residual(t, spec)
        assert np.max(np.abs(r1)) <= 1e-10
        assert np.max(np.abs(r2)) <= 1e-10

    def test_wrong_exponent_fails_ode(self):
        # corrupting p by hand must show up as a nonzero residual; done by
        # evaluating the residual of a spec against weights of another a
        good = ProblemSpec(n=5, k=2, a=2.0)
        bad = ProblemSpec(n=5, k=2, a=2.5)
        t = np.linspace(-0.9, -0.1, 20)
        c1g, c2g = weights(t, good)
        c1b, c2b = weights(t, bad)
        assert not np.allclose(c1g, c1b)
        r1, _ = weights_ode_residual(t, bad)
        assert np.max(np.abs(r1)) <= 1e-10  # each spec solves its own system


class TestLimitBound:
    def test_harmonic_examples(self):
        # (3,1,R=2): a=1 gives 4 pi, a=2 gives pi
        assert limit_bound(ProblemSpec(n=3, k=1, a=1.0), 2.0) == pytest.approx(
            4 * pi, rel=1e-13
        )
        assert limit_bound(ProblemSpec(n=3, k=1, a=2.0), 2.0) == pytest.approx(
            pi, rel=1e-13
        )

    def test_n5_k2_example(self):
        S4 = sphere_measure(4)
        assert limit_bound(ProblemSpec(n=5, k=2, a=2.0), 1.0) == pytest.approx(
            0.5 * S4, rel=1e-13
        )

    def test_scales_linearly_in_C3(self):
        a = limit_bound(ProblemSpec(n=5, k=2, a=2.0, C3=1.0), 1.3)
        b = limit_bound(ProblemSpec(n=5, k=2, a=2.0, C3=2.5), 1.3)
        assert b == pytest.approx(2.5 * a, rel=1e-14)

    def test_independent_of_C4(self):
        a = limit_bound(ProblemSpec(n=5, k=2, a=2.0, C4=0.0), 1.0)
        b = limit_bound(ProblemSpec(n=5, k=2, a=2.0, C4=5.0), 1.0)
        assert a == b
