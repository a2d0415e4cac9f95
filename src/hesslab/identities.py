"""Integral identity ledger and ball certification on concrete solutions.

On an overdetermined exterior potential (constant boundary gradient c) the
interior gradient energy, the boundary quermassintegrals and c are tied
together by two exact balance identities, a family of weighted curvature
inequalities with ball rigidity, and a two-sided squeeze that certifies
whether the domain is a round ball.  Every check is reported as a
LedgerEntry carrying both sides, the signed gap and a verdict.

All operations accept either a closed-form radial solution or a solved
grid field; boundary integrals use the surface curvature quadrature and
volume integrals use grid quadrature plus a closed-form power-law tail.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.integrate import simpson

from .errors import NotConvex, NotOverdetermined
from .monotone import ProblemSpec
from .radial import RadialSolution, exterior_skm1_grad2_integral
from .solver import ExteriorField
from .surfaces import (
    RevolutionBody,
    af_gap,
    curvature_samples,
    qiu_xia_gap,
    quermass,
    sphere_measure,
    volume,
)
from .symfunc import sigma_split

__all__ = [
    "CertificationReport",
    "LedgerEntry",
    "TAU_OVERDETERMINED",
    "c_formula",
    "certify_ball",
    "identity_lemma33",
    "inequality_ledger",
    "pohozaev_lemma34",
]

IDENTITY_OK = "identity-ok"
INEQUALITY_OK = "inequality-ok"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"

# relative boundary-gradient spread below which a solution counts as
# overdetermined (constant |grad u| on the boundary) for certification
TAU_OVERDETERMINED = 1e-3

# looser spread guard for the balance identities, which are only asserted
# under the overdetermined condition
_SPREAD_LIMIT = 0.01


@dataclass(frozen=True)
class LedgerEntry:
    """One evaluated identity or inequality.

    residual_or_gap is always lhs - rhs; inequalities are oriented so the
    asserted direction is lhs >= rhs.  The verdict compares the gap with
    tolerance * scale where scale = max(|lhs|, |rhs|, 1).
    """

    name: str
    lhs: float
    rhs: float
    residual_or_gap: float
    verdict: str
    tolerance: float


def _scale(lhs, rhs):
    return max(abs(lhs), abs(rhs), 1.0)


def _identity_entry(name, lhs, rhs, tol):
    gap = lhs - rhs
    verdict = IDENTITY_OK if abs(gap) <= tol * _scale(lhs, rhs) else VIOLATED
    return LedgerEntry(name, lhs, rhs, gap, verdict, tol)


def _inequality_entry(name, lhs, rhs, tol):
    gap = lhs - rhs
    verdict = INEQUALITY_OK if gap >= -tol * _scale(lhs, rhs) else VIOLATED
    return LedgerEntry(name, lhs, rhs, gap, verdict, tol)


def _not_applicable(name, tol):
    return LedgerEntry(name, float("nan"), float("nan"), float("nan"),
                       NOT_APPLICABLE, tol)


def _sphere_body(sol: RadialSolution):
    return RevolutionBody.sphere(sol.R, n=sol.n)


def _boundary_gradient_stats(solution, body):
    """Mean boundary |grad u| (area-weighted) and its relative spread."""
    if isinstance(solution, RadialSolution):
        return solution.c_bdry, 0.0
    s = curvature_samples(body)
    grad = np.asarray(solution.boundary_gradient(s.theta), dtype=float)
    c = s.integrate(grad) / s.area
    spread = float((grad.max() - grad.min()) / abs(c))
    return float(c), spread


def _field_volume_integral(field: ExteriorField, values, decay_power):
    """Integral of an axisymmetric density over the exterior domain.

    values are nodal samples on the (s, theta) grid; the measure is
    |S^(n-2)| (r sin theta)^(n-2) r^2 D(theta) ds dtheta.  Beyond the
    truncation radius the density is modeled as the matched pure power
    r^(-decay_power); the tail needs decay_power > n to be integrable.
    """
    g = field.grid
    n = field.n
    if decay_power <= n:
        raise ValueError(f"tail diverges: decay power {decay_power} <= n={n}")
    r = g.r_nodes
    sin = np.sin(g.theta)[None, :]
    jac = sphere_measure(n - 2) * (r * sin) ** (n - 2) * r**2 * g.D[None, :]
    bulk = simpson(simpson(values * jac, x=g.theta, axis=1), x=g.s)

    # sphere average of the density on the outer rim, then a power tail
    rim_weight = sin[0, :] ** (n - 2)
    rim_mean = simpson(values[-1, :] * rim_weight, x=g.theta) / simpson(
        rim_weight, x=g.theta
    )
    r_out = g.R_out
    tail = (
        rim_mean * sphere_measure(n - 1) * r_out**n / (decay_power - n)
    )
    return float(bulk + tail)


def _gradient_energy_integral(solution, body):
    """int over the exterior of S_{k-1}(Hessian) |grad u|^2 dx."""
    if isinstance(solution, RadialSolution):
        return exterior_skm1_grad2_integral(solution)
    n, k = solution.n, solution.k
    d = solution._derived()
    grad2 = d["uz"] ** 2 + d["urho"] ** 2
    skm1 = sigma_split(
        d["uzz"], d["uzrho"], d["urhorho"], d["kappat"], n - 2, k - 1
    ).levels[-1]
    # density ~ r^(-(alpha+2)(k-1)) * r^(-2(alpha+1)) = r^(-(n + n/k - 2))
    decay = n + n / k - 2.0
    return _field_volume_integral(solution, skm1 * grad2, decay)


def _quermass_fn(solution, body):
    if isinstance(solution, RadialSolution):
        omega = sphere_measure(solution.n - 1)

        def q(m):
            return (
                comb(solution.n - 1, m)
                * omega
                * solution.R ** (solution.n - 1 - m)
            )

        return q
    return lambda m: quermass(body, m)


def _resolve_body(solution, body):
    if body is None:
        if isinstance(solution, RadialSolution):
            return _sphere_body(solution)
        return solution.grid.body
    return body


def _require_overdetermined(solution, body, limit=_SPREAD_LIMIT):
    c, spread = _boundary_gradient_stats(solution, body)
    if spread > limit:
        raise NotOverdetermined(
            f"boundary gradient spread {spread:.3e} exceeds {limit:g}; "
            "the balance identities presume constant boundary gradient"
        )
    return c, spread


def identity_lemma33(solution, body=None, tol=1e-6) -> LedgerEntry:
    """Gradient-energy balance on an overdetermined solution, k >= 2:

        (k+1) int S_{k-1} |grad u|^2 dx + c^(k+1) int H_{k-2}
            = 2 c^k int H_{k-1}.
    """
    n, k = solution.n, solution.k
    if k < 2:
        raise ValueError(f"the balance identity needs k >= 2, got k={k}")
    body = _resolve_body(solution, body)
    c, _ = _require_overdetermined(solution, body)
    q = _quermass_fn(solution, body)
    vol_int = _gradient_energy_integral(solution, body)
    lhs = (k + 1) * vol_int + c ** (k + 1) * q(k - 2)
    rhs = 2.0 * c**k * q(k - 1)
    return _identity_entry("gradient-energy-balance", lhs, rhs, tol)


def pohozaev_lemma34(solution, body=None, tol=1e-6) -> LedgerEntry:
    """Rellich-Pohozaev balance on an overdetermined solution, k >= 2:

        (n-k+1) [int S_{k-1} |grad u|^2 dx + c^(k+1)/(k-1) int H_{k-2}]
            = 2 (n-k) c^k / k int H_{k-1}.
    """
    n, k = solution.n, solution.k
    if k < 2:
        raise ValueError(f"the Pohozaev balance needs k >= 2, got k={k}")
    body = _resolve_body(solution, body)
    c, _ = _require_overdetermined(solution, body)
    q = _quermass_fn(solution, body)
    vol_int = _gradient_energy_integral(solution, body)
    lhs = (n - k + 1) * (vol_int + c ** (k + 1) / (k - 1) * q(k - 2))
    rhs = 2.0 * (n - k) * c**k / k * q(k - 1)
    return _identity_entry("rellich-pohozaev-balance", lhs, rhs, tol)


def c_formula(body: RevolutionBody, k):
    """Boundary gradient constant forced by the quermassintegral ratios:

        c = (n-2k)/k * (k-1)/(n-k+1) * int H_{k-1} / int H_{k-2}   (k >= 2)
        c = (n-2)/n * |boundary| / |body|                          (k = 1)
    """
    n = body.n
    if k < 1 or n <= 2 * k:
        raise ValueError(f"need 1 <= k < n/2, got n={n}, k={k}")
    if k == 1:
        s = curvature_samples(body)
        return (n - 2) / n * s.area / volume(body)
    return (
        (n - 2 * k) / k
        * (k - 1) / (n - k + 1)
        * quermass(body, k - 1) / quermass(body, k - 2)
    )


def _boundary_weighted_integrals(solution, body, exponents_orders):
    """Integrals int_{boundary} |grad u|^a H_m for (a, m) pairs."""
    if isinstance(solution, RadialSolution):
        omega = sphere_measure(solution.n - 1)
        c, R, n = solution.c_bdry, solution.R, solution.n
        return [
            c**a * comb(n - 1, m) * omega * R ** (n - 1 - m)
            for a, m in exponents_orders
        ]
    s = curvature_samples(body)
    grad = np.asarray(solution.boundary_gradient(s.theta), dtype=float)
    return [
        s.integrate(grad**a * s.h_k(m)) for a, m in exponents_orders
    ]


def inequality_ledger(solution, body=None, spec: ProblemSpec = None,
                      tol=1e-6) -> list:
    """Evaluate the inequality battery; every entry is oriented lhs >= rhs.

    Entries: the weighted curvature comparison with exponent a, the
    capacity lower bound at exponent n-k, their scale-invariant
    combination at a = n-k-1, the curvature-ratio lower bound tied to the
    boundary constant, and for k=1 the area-volume-curvature bound.
    """
    if spec is None:
        raise ValueError("inequality_ledger needs a ProblemSpec")
    n, k, a = spec.n, spec.k, spec.a
    body = _resolve_body(solution, body)
    omega = sphere_measure(n - 1)
    ints = _boundary_weighted_integrals(
        solution,
        body,
        [(a, k), (a + 1.0, k - 1), (n - k, k - 1), (n - k - 1.0, k), (0.0, k),
         (0.0, k - 1)],
    )
    int_a_hk, int_a1_hkm1, int_nk_hkm1, int_nkm1_hk, q_k, q_km1 = ints
    entries = [
        _inequality_entry(
            "weighted-curvature-comparison",
            int_a_hk,
            (n - k) / (n - 2 * k) * int_a1_hkm1,
            tol,
        ),
        _inequality_entry(
            "capacity-lower-bound",
            int_nk_hkm1,
            comb(n - 1, k - 1) * (n / k - 2.0) ** (n - k) * omega,
            tol,
        ),
        _inequality_entry(
            "scale-invariant-combination",
            int_nkm1_hk,
            comb(n - 1, k - 1)
            * (n / k - 2.0) ** (n - k - 1)
            * (n - k) / k
            * omega,
            tol,
        ),
    ]

    # the curvature-ratio bound presumes the overdetermined constant c
    c, spread = _boundary_gradient_stats(solution, body)
    if spread <= _SPREAD_LIMIT:
        entries.append(
            _inequality_entry(
                "curvature-ratio-lower-bound",
                q_k / q_km1,
                (n - k) / (n - 2 * k) * c,
                tol,
            )
        )
    else:
        entries.append(_not_applicable("curvature-ratio-lower-bound", tol))

    # k = 1 only; derived from the overdetermined condition, and the
    # opposing classical bound needs convexity
    if k == 1 and spread <= _SPREAD_LIMIT:
        try:
            qiu_xia_gap(body)  # raises NotConvex
            s = curvature_samples(body)
            lhs = volume(body) * s.integrate(s.h_k(1))
            rhs = (n - 1) / n * s.area**2
            entries.append(
                _inequality_entry(
                    "area-volume-curvature-bound", lhs, rhs, tol
                )
            )
        except NotConvex:
            entries.append(_not_applicable("area-volume-curvature-bound", tol))
    else:
        entries.append(_not_applicable("area-volume-curvature-bound", tol))
    return entries


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the ball certification with its supporting numbers."""

    verdict: str
    gradient_spread: float
    profile_deviation: float
    squeeze_lhs: float
    squeeze_rhs: float
    squeeze_rel: float


CERTIFIED_BALL = "certified-ball"
CERTIFIED_NOT_OVERDETERMINED = "certified-not-overdetermined"
INCONCLUSIVE = "inconclusive"


def certify_ball(solution, body=None, spec: ProblemSpec = None,
                 tau_od=TAU_OVERDETERMINED, tol=1e-6) -> CertificationReport:
    """Decide numerically whether the solved domain must be a round ball.

    Chain: (i) measure the boundary-gradient spread; a spread above tau_od
    rules out the overdetermined condition.  (ii) If the spread passes,
    squeeze the quermassintegral combination

        (n-k)(k-1) (int H_{k-1})^2  vs  (n-k+1) k int H_k int H_{k-2}

    between its two opposing bounds (k >= 2), or for k = 1 the
    area-volume-curvature combination against its convexity bound;
    near-equality (squeeze_rel <= tol) certifies the ball, anything else
    is inconclusive.  The profile's deviation from its mean radius is
    reported alongside but does not enter the verdict.
    """
    if spec is None:
        raise ValueError("certify_ball needs a ProblemSpec")
    n, k = spec.n, spec.k
    body = _resolve_body(solution, body)
    _, spread = _boundary_gradient_stats(solution, body)

    gam = body.gamma
    mean_r = body.mean_radius
    profile_dev = float((gam.max() - gam.min()) / mean_r)

    if spread > tau_od:
        return CertificationReport(
            CERTIFIED_NOT_OVERDETERMINED, spread, profile_dev,
            float("nan"), float("nan"), float("nan"),
        )

    try:
        if k >= 2:
            lhs = (n - k) * (k - 1) * quermass(body, k - 1) ** 2
            rhs = (n - k + 1) * k * quermass(body, k) * quermass(body, k - 2)
            # af_gap asserts lhs >= rhs; the overdetermined chain asserts
            # lhs <= rhs; both verified here via the squeeze
            af_gap(body, k)
        else:
            s = curvature_samples(body)
            lhs = volume(body) * s.integrate(s.h_k(1))
            rhs = (n - 1) / n * s.area**2
            qiu_xia_gap(body)
    except NotConvex:
        return CertificationReport(
            INCONCLUSIVE, spread, profile_dev,
            float("nan"), float("nan"), float("nan"),
        )

    squeeze_rel = abs(lhs - rhs) / _scale(lhs, rhs)
    verdict = CERTIFIED_BALL if squeeze_rel <= tol else INCONCLUSIVE
    return CertificationReport(
        verdict, spread, profile_dev, float(lhs), float(rhs), squeeze_rel
    )
