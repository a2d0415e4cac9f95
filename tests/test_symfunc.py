import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from itertools import combinations
from math import comb

from hesslab.symfunc import (
    newton_maclaurin_gap,
    sigma_all,
    sigma_grad,
    sigma_matrix,
    verify_matrix_identities,
)
from oracles import ConeSpec, _sigma_minors, gamma_cone_contains, sigma


def subset_sum_oracle(v, k):
    """Explicit subset enumeration; exact reference for small n."""
    if k == 0:
        return 1.0
    if k > len(v):
        return 0.0
    return sum(np.prod(c) for c in combinations(v, k))


class TestSigma:
    def test_identity_eigenvalues(self):
        assert sigma((1.0, 1.0, 1.0), 2) == pytest.approx(3.0)

    def test_subset_sum_example(self):
        # 1*2 + 1*3 + 2*3 = 11
        assert sigma((1.0, 2.0, 3.0), 2) == pytest.approx(11.0)

    def test_above_n_is_zero(self):
        assert sigma((1.0, 2.0, 3.0), 4) == 0.0

    def test_s0_convention(self):
        assert sigma((4.0, 5.0), 0) == 1.0

    def test_matches_subset_sum_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 9)
            v = rng.uniform(-2, 2, size=n)
            k = int(rng.integers(0, n + 1))
            got = sigma(v, k)
            want = subset_sum_oracle(v, k)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_sigma_all_consistent(self):
        v = np.array([0.3, -1.2, 2.5, 0.9])
        e = sigma_all(v)
        for k in range(5):
            assert e[k] == pytest.approx(subset_sum_oracle(v, k), rel=1e-13, abs=1e-13)


class TestSigmaMatrix:
    def test_diag_determinant(self):
        assert sigma_matrix(np.diag([1.0, 2.0, 3.0]), 3) == pytest.approx(6.0)

    def test_zero_matrix(self):
        assert sigma_matrix(np.zeros((3, 3)), 1) == 0.0

    def test_identity_binomial(self):
        assert sigma_matrix(np.eye(4), 2) == pytest.approx(6.0)

    def test_minor_and_eigen_paths_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-1, 1, size=(n, n))
            A = 0.5 * (A + A.T)
            for k in range(1, n + 1):
                a = _sigma_minors(A, k)
                b = sigma_matrix(A, k)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_equals_sigma_of_eigenvalues(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, size=(5, 5))
        A = 0.5 * (A + A.T)
        lam = np.linalg.eigvalsh(A)
        for k in range(1, 6):
            assert sigma_matrix(A, k) == pytest.approx(
                sigma(lam, k), rel=1e-10, abs=1e-12
            )


class TestSigmaGrad:
    def test_diag_example(self):
        g = sigma_grad(np.diag([1.0, 2.0, 3.0]), 2)
        assert np.allclose(g, np.diag([5.0, 4.0, 3.0]))

    def test_k1_is_identity(self):
        assert np.allclose(sigma_grad(np.eye(5), 1), np.eye(5))

    def test_trace_example(self):
        g = sigma_grad(np.diag([1.0, 2.0, 3.0]), 2)
        # (n-k+1) S_{k-1} = 2 * 6
        assert np.trace(g) == pytest.approx(12.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        n, h = 4, 1e-6
        A = rng.uniform(-1, 1, size=(n, n))
        A = 0.5 * (A + A.T)
        for k in (1, 2, 3):
            g = sigma_grad(A, k)
            for i in range(n):
                for j in range(n):
                    E = np.zeros((n, n))
                    E[i, j] = h
                    fd = (_sigma_minors(A + E, k) - _sigma_minors(A - E, k)) / (2 * h)
                    assert abs(g[i, j] - fd) < 1e-5


class TestGammaCone:
    def test_all_ones_inside(self):
        assert gamma_cone_contains((1.0, 1.0, 1.0), ConeSpec(3, 3)).contains

    def test_negative_s2_outside(self):
        t = gamma_cone_contains((3.0, -1.0, 1.0), ConeSpec(3, 2))
        assert not t.contains
        assert t.margin == pytest.approx(-1.0)

    def test_k1_only_needs_s1(self):
        assert gamma_cone_contains((3.0, -1.0, 1.0), ConeSpec(3, 1)).contains


class TestNewtonMaclaurin:
    def test_equal_entries_zero_gap(self):
        for c in (0.5, 1.0, 3.7):
            v = np.full(5, c)
            assert newton_maclaurin_gap(v, 2, 4) == pytest.approx(0.0, abs=1e-14)

    def test_arithmetic_examples(self):
        v = (1.0, 2.0, 3.0)
        assert newton_maclaurin_gap(v, 1, 2) == pytest.approx(
            2.0 - np.sqrt(11.0 / 3.0)
        )
        assert newton_maclaurin_gap(v, 2, 3) == pytest.approx(
            np.sqrt(11.0 / 3.0) - 6.0 ** (1.0 / 3.0)
        )

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            newton_maclaurin_gap((3.0, -1.0, 1.0), 1, 2)

    def test_nonnegative_on_cone_battery(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 2000:
            n = int(rng.integers(2, 7))
            v = rng.uniform(-1, 1, size=n) + 1.5  # shifted into the cone region
            l = int(rng.integers(1, n + 1))
            if not gamma_cone_contains(v, ConeSpec(n, l)).contains:
                continue
            m = int(rng.integers(1, l + 1))
            assert newton_maclaurin_gap(v, m, l) >= -1e-12
            count += 1

    def test_equality_rigidity_contrapositive(self):
        # a tiny gap forces nearly equal entries
        rng = np.random.default_rng(23)
        for _ in range(200):
            v = 1.0 + rng.uniform(-0.3, 0.3, size=4)
            gap = newton_maclaurin_gap(v, 1, 4)
            if gap <= 1e-10:
                assert np.max(v) - np.min(v) <= 1e-5


class TestMatrixIdentities:
    def test_identity_matrix(self):
        r = verify_matrix_identities(np.eye(3), 2)
        assert all(x <= 1e-13 for x in r)

    def test_diag_example_contraction_value(self):
        A = np.diag([1.0, 2.0, 3.0])
        g = sigma_grad(A, 2)
        lhs = float(np.sum(g * (A @ A)))
        assert lhs == pytest.approx(48.0)  # 5*1 + 4*4 + 3*9
        r = verify_matrix_identities(A, 2)
        assert all(x <= 1e-12 for x in r)

    def test_random_battery(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            A = rng.uniform(-1, 1, size=(5, 5))
            A = 0.5 * (A + A.T)
            r = verify_matrix_identities(A, 3)
            assert all(x <= 1e-10 for x in r)

    def test_trace_identity_across_orders(self):
        rng = np.random.default_rng(31)
        for n in (3, 4, 5, 6):
            A = rng.uniform(-1, 1, size=(n, n))
            A = 0.5 * (A + A.T)
            for k in range(1, n + 1):
                g = sigma_grad(A, k)
                want = (n - k + 1) * sigma_matrix(A, k - 1)
                assert np.trace(g) == pytest.approx(want, rel=1e-10, abs=1e-10)


def per_item(fn, X, core):
    """fn applied to each core-dimensional item of the stack X, restacked."""
    batch = X.shape[: X.ndim - core]
    out = [fn(X[idx]) for idx in np.ndindex(batch)]
    return np.array(out).reshape(batch + np.shape(out[0]))


class TestStacked:
    """Vectors (..., n) and matrices (..., n, n) with batch axes in front:
    a stack gives what the per-item calls give."""

    @settings(max_examples=30)
    @given(n=st.integers(3, 6), batch=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_per_item(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((batch, 2, n, n))
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
        V = rng.standard_normal((batch, 2, n))
        P = np.abs(V) + 0.1  # inside every Gamma_l

        def same(stacked, fn, X, core):
            np.testing.assert_allclose(stacked, per_item(fn, X, core),
                                       rtol=1e-13, atol=0)

        assert np.array_equal(sigma_all(V), per_item(sigma_all, V, 1))
        for k in range(n + 2):
            same(sigma(V, k), lambda v: sigma(v, k), V, 1)
            same(sigma_matrix(A, k), lambda a: sigma_matrix(a, k), A, 2)
        for k in range(1, n + 1):
            same(sigma_grad(A, k), lambda a: sigma_grad(a, k), A, 2)
            same(np.stack(verify_matrix_identities(A, k), -1),
                 lambda a: verify_matrix_identities(a, k), A, 2)
            cone = gamma_cone_contains(V, ConeSpec(n, k))
            assert np.array_equal(cone.contains, per_item(
                lambda v: gamma_cone_contains(v, ConeSpec(n, k)).contains, V, 1))
            same(cone.margin, lambda v: gamma_cone_contains(v, ConeSpec(n, k)).margin,
                 V, 1)
            for m in range(1, k + 1):
                same(newton_maclaurin_gap(P, m, k),
                     lambda v: newton_maclaurin_gap(v, m, k), P, 1)

    def test_single_item_gives_python_floats(self):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((4, 4))
        v = np.abs(rng.standard_normal(4)) + 0.1
        assert type(sigma(v, 2)) is float
        assert type(sigma(v, 5)) is float
        for k in (0, 2, 5):
            assert type(sigma_matrix(A, k)) is float
        r = verify_matrix_identities(A, 2)
        assert type(r) is tuple and len(r) == 3
        assert all(type(x) is float for x in r)
        cone = gamma_cone_contains(v, ConeSpec(4, 3))
        assert type(cone.contains) is bool and type(cone.margin) is float
        assert type(newton_maclaurin_gap(v, 1, 3)) is float

    def test_stacked_gap_rejects_any_row_outside_cone(self):
        V = np.array([[1.0, 2.0, 3.0], [3.0, -1.0, 1.0], [2.0, 2.0, 1.0]])
        assert newton_maclaurin_gap(V[[0, 2]], 1, 2).shape == (2,)
        with pytest.raises(ValueError, match="Gamma_2"):
            newton_maclaurin_gap(V, 1, 2)


_vector = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    min_size=n, max_size=n)).map(np.array)


def _deleted(v):
    """S_0..S_n of v with entry i deleted (S_n = 0), as row i."""
    return np.array([sigma_all(np.delete(v, i), v.size) for i in range(v.size)])


def _size(v):
    """The largest S_k of |v|: a bound on the products that any S_k of v
    sums, to which its rounding is relative."""
    return 1.0 + float(sigma_all(np.abs(v)).max())


def _margin(v, k):
    """The Garding margin min(S_1, ..., S_k) of v, positive on Gamma_k."""
    return float(np.min(sigma_all(v, k)[1:]))


class TestIdentityProperties:
    """The S_k identities of vectors (the diagonal case of the matrix
    identities) and the Garding cone facts on hypothesis-drawn vectors."""

    @given(_vector)
    def test_deletion_identities(self, v):
        n, e, d = v.size, sigma_all(v), _deleted(v)
        tol = 1e-13 * _size(v) * (1.0 + np.abs(v).max()) ** 2
        for k in range(1, n + 1):
            # S_k = S_k(v|i) + v_i S_(k-1)(v|i), and the three contractions
            # sum_i v_i^p S_(k-1)(v|i) for p = 0, 1, 2
            assert np.abs(d[:, k] + v * d[:, k - 1] - e[k]).max() <= tol
            assert abs(d[:, k - 1].sum() - (n - k + 1) * e[k - 1]) <= tol
            assert abs((v * d[:, k - 1]).sum() - k * e[k]) <= tol
            s_next = e[k + 1] if k < n else 0.0
            assert abs((v * v * d[:, k - 1]).sum()
                       - (e[1] * e[k] - (k + 1) * s_next)) <= tol

    @given(_vector, st.floats(-3.0, 3.0))
    def test_homogeneity(self, v, lam):
        e, scaled = sigma_all(v), sigma_all(lam * v)
        powers = lam ** np.arange(v.size + 1)
        tol = 1e-13 * _size(lam * v)
        assert np.abs(scaled - powers * e).max() <= tol

    @given(_vector)
    def test_newton_inequalities(self, v):
        # (S_k / C(n,k))^2 >= S_(k-1) S_(k+1) / (C(n,k-1) C(n,k+1)) for
        # every real vector
        n, e = v.size, sigma_all(v)
        q = e / np.array([comb(n, k) for k in range(n + 1)])
        tol = 1e-13 * _size(v) ** 2
        for k in range(1, n):
            assert q[k] ** 2 - q[k - 1] * q[k + 1] >= -tol

    @given(_vector, st.floats(0.0, 2.5), st.integers(1, 7), st.data())
    def test_garding_cone(self, w, shift, k, data):
        # Gamma_k is an open convex cone containing the positive cone, on
        # which every dS_k/dv_i = S_(k-1)(v|i) is positive and S_k^(1/k)
        # is concave (Garding)
        n = w.size
        assume(k <= n)
        v = w + shift
        assume(_margin(v, k) > 1e-6)
        assert np.all(_deleted(v)[:, k - 1] > 0.0)
        plus = v + data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        assert _margin(plus, k) >= _margin(v, k) - 1e-12
        other = v + data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n,
                                       max_size=n))
        assume(_margin(other, k) > 1e-6)
        mid = 0.5 * (v + other)
        assert _margin(mid, k) > 0.0
        root = [sigma_all(x, k)[k] ** (1.0 / k) for x in (v, other, mid)]
        assert root[2] >= 0.5 * (root[0] + root[1]) - 1e-12
        for m in range(1, k + 1):
            assert newton_maclaurin_gap(v, m, k) >= -1e-12
