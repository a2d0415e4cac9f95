"""Elementary symmetric functions of vectors and symmetric matrices.

Provides S_k, its derivative matrix S_k^{ij}, the Garding cone test, the
Newton-MacLaurin gap and the classical matrix identities

    S_k^{ij} = S_{k-1} d_ij - sum_l S_{k-1}^{il} a_jl,
    S_k^{ij} a_il a_lj = S_1 S_k - (k+1) S_{k+1},
    tr(S_k^{ij}) = (n-k+1) S_{k-1}.

All operations are pure functions of their (finite, real) inputs.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConeSpec",
    "ConeTest",
    "gamma_cone_contains",
    "newton_maclaurin_gap",
    "sigma",
    "sigma_all",
    "sigma_grad",
    "sigma_matrix",
    "sigma_split",
    "symmetrize",
    "verify_matrix_identities",
]

@dataclass(frozen=True)
class ConeSpec:
    """Garding cone Gamma_k^+ in dimension n."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


class ConeTest(NamedTuple):
    contains: bool
    margin: float  # min over 1 <= i <= k of S_i; positive inside the cone


def sigma_all(v, kmax=None):
    """All S_0..S_kmax of a vector, by the stable prefix recurrence.

    Never enumerates subsets; cost O(n * kmax).
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if kmax is None:
        kmax = n
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    for x in v:
        top = min(kmax, n)
        for j in range(top, 0, -1):
            e[j] += x * e[j - 1]
    return e


def sigma(v, k):
    """k-th elementary symmetric function S_k(v); S_0 = 1, S_k = 0 for k > n."""
    v = np.asarray(v, dtype=float)
    if k < 0:
        raise ValueError("order k must be >= 0")
    if k > v.size:
        return 0.0
    return float(sigma_all(v, k)[k])


class SigmaSplit(NamedTuple):
    levels: list  # S_0 .. S_k
    grad: tuple  # (dS_k/da, dS_k/db, dS_k/dc, dS_k/dkappa), or None


def sigma_split(a, b, c, kappa, mult, k, grad=False) -> SigmaSplit:
    """S_0 .. S_k of [[a, b], [b, c]] (+) kappa I_mult, elementwise.

    S_m = sum_j C(mult, j) kappa^j S_{m-j}(M) needs only S_1(M) = a + c
    and S_2(M) = ac - b^2 of the 2x2 block M.  With grad, the partials of
    S_k too (constant ones may be scalars): with c1 = C(mult, k-1)
    kappa^(k-1) and c2 = C(mult, k-2) kappa^(k-2) they are c1 + c2 c,
    -2 c2 b, c1 + c2 a in (a, b, c), the meridian block of S_k^{ij}, and
    sum_j j C(mult, j) kappa^(j-1) S_{k-j}(M) in kappa.
    """
    block = (1.0, a + c, a * c - b * b if k >= 2 else None)
    pw = [kappa**j for j in range(k + 1)]

    def expand(m, coef, j0):
        """sum_j coef(j) S_{m-j}(M) over j0 <= j <= m."""
        return sum(coef(j) * block[m - j] for j in range(max(j0, m - 2), m + 1))

    levels = [np.ones(np.broadcast(a, kappa).shape)] + [
        expand(m, lambda j: comb(mult, j) * pw[j], 0) for m in range(1, k + 1)
    ]
    if not grad:
        return SigmaSplit(levels, None)
    c1 = comb(mult, k - 1) * pw[k - 1]
    c2 = comb(mult, k - 2) * pw[k - 2] if k >= 2 else 0.0
    dkappa = expand(k, lambda j: j * comb(mult, j) * pw[j - 1], 1)
    return SigmaSplit(levels, (c1 + c2 * c, -2.0 * c2 * b, c1 + c2 * a, dkappa))


def symmetrize(A):
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + A.T)


def _sigma_minors(A, k):
    """Sum of k-by-k principal minors; exact structure, O(C(n,k)) dets."""
    n = A.shape[0]
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    total = 0.0
    for idx in combinations(range(n), k):
        sub = A[np.ix_(idx, idx)]
        total += float(np.linalg.det(sub))
    return total


def _sigma_eig(A, k):
    return sigma(np.linalg.eigvalsh(symmetrize(A)), k)


def sigma_matrix(A, k):
    """S_k(A) = S_k(eigenvalues of A) for symmetric A.

    _sigma_minors, the sum of principal minors, is the independent oracle
    the tests compare against; the two agree to 1e-12 relative on
    well-scaled matrices.
    """
    A = symmetrize(A)
    n = A.shape[0]
    if k < 0:
        raise ValueError("order k must be >= 0")
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    return _sigma_eig(A, k)


def sigma_grad(A, k):
    """Derivative matrix S_k^{ij}(A) = dS_k/da_ij.

    Built from the recursion S_k^{ij} = S_{k-1} d_ij - S_{k-1}^{il} a_jl,
    seeded at S_1^{ij} = d_ij.
    """
    A = symmetrize(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    grad = np.eye(n)  # S_1^{ij}
    for m in range(2, k + 1):
        grad = sigma_matrix(A, m - 1) * np.eye(n) - grad @ A
    return grad


def _sigma_deleted(lam, alpha, k):
    """S_k of the eigenvalue vector with entry alpha removed."""
    return sigma(np.delete(lam, alpha), k)


def _sigma_grad_eigen(A, k):
    """Independent route to S_k^{ij}: sum_a S_{k-1}(lam | a) q_a q_a^T."""
    A = symmetrize(A)
    lam, Q = np.linalg.eigh(A)
    coeffs = np.array([_sigma_deleted(lam, a, k - 1) for a in range(lam.size)])
    return (Q * coeffs) @ Q.T


def gamma_cone_contains(v, spec: ConeSpec) -> ConeTest:
    """Whether v lies in the (open) Garding cone Gamma_k^+.

    The companion margin is min over 1 <= i <= k of S_i(v); boundary cases
    show up as margin approximately zero.
    """
    v = np.asarray(v, dtype=float)
    if v.size != spec.n:
        raise ValueError(f"vector length {v.size} != cone dimension {spec.n}")
    e = sigma_all(v, spec.k)
    margin = float(np.min(e[1 : spec.k + 1]))
    return ConeTest(contains=margin > 0.0, margin=margin)


def newton_maclaurin_gap(v, m, l):
    """Gap (S_m/C(n,m))^(1/m) - (S_l/C(n,l))^(1/l); >= 0 on Gamma_l.

    Zero exactly when all entries of v are equal.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if not 1 <= m <= l <= n:
        raise ValueError(f"need 1 <= m <= l <= n, got m={m}, l={l}, n={n}")
    test = gamma_cone_contains(v, ConeSpec(n, l))
    if not test.contains:
        raise ValueError(
            f"vector not in Gamma_{l}^+ (margin {test.margin:g}); "
            "fractional powers undefined"
        )
    e = sigma_all(v, l)
    lhs = (e[m] / comb(n, m)) ** (1.0 / m)
    rhs = (e[l] / comb(n, l)) ** (1.0 / l)
    return float(lhs - rhs)


def verify_matrix_identities(A, k):
    """Max-abs residuals of the three S_k^{ij} identities.

    Returns (recursion, contraction, trace) residuals:
      * the recursion-built S_k^{ij} against the eigen-projector route,
      * S_k^{ij} a_il a_lj  vs  S_1 S_k - (k+1) S_{k+1},
      * tr(S_k^{ij})  vs  (n-k+1) S_{k-1}.
    """
    A = symmetrize(A)
    n = A.shape[0]
    grad = sigma_grad(A, k)
    r_rec = float(np.max(np.abs(grad - _sigma_grad_eigen(A, k))))
    lhs = float(np.sum(grad * (A @ A)))
    rhs = sigma_matrix(A, 1) * sigma_matrix(A, k) - (k + 1) * sigma_matrix(A, k + 1)
    r_con = abs(lhs - rhs)
    r_tr = abs(float(np.trace(grad)) - (n - k + 1) * sigma_matrix(A, k - 1))
    return (r_rec, r_con, r_tr)
