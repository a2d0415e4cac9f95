"""Elementary symmetric functions of vectors and symmetric matrices.

Provides S_k, its derivative matrix S_k^{ij}, the Newton-MacLaurin gap
and the classical matrix identities

    S_k^{ij} = S_{k-1} d_ij - sum_l S_{k-1}^{il} a_jl,
    S_k^{ij} a_il a_lj = S_1 S_k - (k+1) S_{k+1},
    tr(S_k^{ij}) = (n-k+1) S_{k-1}.

All operations are pure functions of their (finite, real) inputs.  They
take one vector (n,) or matrix (n, n), or a stack (..., n) or
(..., n, n) with the batch axes in front, as numpy's gufuncs do.
"""

from math import comb
from typing import NamedTuple

import numpy as np

__all__ = [
    "newton_maclaurin_gap",
    "sigma_all",
    "sigma_grad",
    "sigma_matrix",
    "sigma_split",
    "symmetrize",
    "verify_matrix_identities",
]


def sigma_all(v, kmax=None):
    """All S_0..S_kmax of each vector of a stack (..., n), by the stable
    prefix recurrence: one vector update per entry.

    Never enumerates subsets; cost O(n * kmax).  Returns (..., kmax + 1).
    """
    v = np.asarray(v, dtype=float)
    kmax = v.shape[-1] if kmax is None else kmax
    e = np.zeros(v.shape[:-1] + (kmax + 1,))
    e[..., 0] = 1.0
    for i in range(v.shape[-1]):
        e[..., 1:] += v[..., i, None] * e[..., :-1]
    return e


def _scalar(x):
    """A 0-d result as a Python float; a stacked one stays an array."""
    return float(x) if np.ndim(x) == 0 else x


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
    """The symmetric part of a matrix or of each matrix of a stack."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def sigma_matrix(A, k):
    """S_k(A) = S_k(eigenvalues of A) for a symmetric A or a stack
    (..., n, n) of them, from one eigvalsh call.

    The sum of principal minors in tests/oracles.py is the independent
    oracle the tests compare against; the two agree to 1e-12 relative on
    well-scaled matrices.
    """
    A = symmetrize(A)
    if k < 0:
        raise ValueError("order k must be >= 0")
    if k == 0 or k > A.shape[-1]:
        return _scalar(np.full(A.shape[:-2], float(k == 0)))
    return _scalar(sigma_all(np.linalg.eigvalsh(A), k)[..., k])


def _grad_recursion(A, k):
    """S_k^{ij} by S_m^{ij} = S_{m-1} d_ij - S_{m-1}^{il} a_jl from S_1^{ij} = d_ij,
    each S_{m-1} read off tr(S_{m-1}^{il} a_jl) = (m - 1) S_{m-1} (Euler's
    identity; the Faddeev-LeVerrier step), so with no eigen call."""
    n = A.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    eye = np.eye(n)
    grad = np.zeros_like(A) + eye
    for m in range(2, k + 1):
        ga = grad @ A
        grad = np.trace(ga, axis1=-2, axis2=-1)[..., None, None] / (m - 1) * eye - ga
    return grad


def sigma_grad(A, k):
    """Derivative matrix S_k^{ij}(A) = dS_k/da_ij, of a matrix or of each
    matrix of a stack (..., n, n), by the recursion of _grad_recursion:
    no eigen call at any k."""
    return _grad_recursion(symmetrize(A), k)


def newton_maclaurin_gap(v, m, l):
    """Gap (S_m/C(n,m))^(1/m) - (S_l/C(n,l))^(1/l) of v or of each vector
    of a stack (..., n); >= 0 on Gamma_l.

    Zero exactly when all entries of v are equal.  Raises ValueError if
    any vector lies outside Gamma_l.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    if not 1 <= m <= l <= n:
        raise ValueError(f"need 1 <= m <= l <= n, got m={m}, l={l}, n={n}")
    e = sigma_all(v, l)
    # the Garding margin min(S_1, ..., S_l), positive inside Gamma_l
    margin = np.min(e[..., 1:], axis=-1)
    if not np.all(margin > 0.0):
        raise ValueError(
            f"vector not in Gamma_{l}^+ (margin {np.min(margin):g}); "
            "fractional powers undefined"
        )
    # np.power, not **: one vector then takes a stack's pow loop, not libm's
    lhs = np.power(e[..., m] / comb(n, m), 1.0 / m)
    rhs = np.power(e[..., l] / comb(n, l), 1.0 / l)
    return _scalar(lhs - rhs)


def verify_matrix_identities(A, k):
    """Max-abs residuals of the three S_k^{ij} identities, for a matrix or
    for each matrix of a stack (..., n, n).

    Returns (recursion, contraction, trace) residuals:
      * the recursion-built S_k^{ij} against the eigen-projector route
        sum_a S_{k-1}(lam | a) q_a q_a^T,
      * S_k^{ij} a_il a_lj  vs  S_1 S_k - (k+1) S_{k+1},
      * tr(S_k^{ij})  vs  (n-k+1) S_{k-1}.
    One eigh gives every S_m and the projectors.
    """
    A = symmetrize(A)
    grad = _grad_recursion(A, k)  # checks 1 <= k <= n
    n = A.shape[-1]
    lam, Q = np.linalg.eigh(A)
    e = sigma_all(lam, k + 1)
    # S_{k-1} of lam with entry a deleted: row a of `rest` omits index a
    rest = np.array([[b for b in range(n) if b != a] for a in range(n)], dtype=int)
    deleted = sigma_all(lam[..., rest], k - 1)[..., k - 1]
    proj = (Q * deleted[..., None, :]) @ np.swapaxes(Q, -1, -2)
    r_rec = np.max(np.abs(grad - proj), axis=(-2, -1))
    lhs = np.sum(grad * (A @ A), axis=(-2, -1))
    r_con = np.abs(lhs - (e[..., 1] * e[..., k] - (k + 1) * e[..., k + 1]))
    r_tr = np.abs(np.trace(grad, axis1=-2, axis2=-1) - (n - k + 1) * e[..., k - 1])
    return tuple(_scalar(r) for r in (r_rec, r_con, r_tr))
