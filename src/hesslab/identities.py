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
from typing import Callable

import numpy as np

from .errors import NotConvex
from .monotone import ProblemSpec
from .radial import RadialSolution, exterior_skm1_grad2_integral
from .solver import ExteriorField
from .surfaces import (
    RevolutionBody,
    SurfaceSampleSet,
    _simpson_weights,
    af_sides,
    curvature_samples,
    qiu_xia_sides,
    sphere_measure,
)

__all__ = [
    "CertificationReport",
    "LedgerEntry",
    "TAU_OVERDETERMINED",
    "certify_ball",
    "identity_lemma33",
    "inequality_ledger",
    "ledger",
    "pohozaev_lemma34",
    "report",
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

# relative tolerance of every ledger verdict and of the certification squeeze
_TOL = 1e-6


@dataclass(frozen=True)
class LedgerEntry:
    """One evaluated identity or inequality.

    residual_or_gap is always lhs - rhs; inequalities are oriented so the
    asserted direction is lhs >= rhs.  With scale = max(|lhs|, |rhs|, 1),
    an identity reads identity-ok when |gap| <= tolerance * scale and an
    inequality reads inequality-ok when gap >= -tolerance * scale; either
    reads violated otherwise.  An entry whose hypotheses fail reads
    not-applicable, with NaN sides and gap.
    """

    name: str
    lhs: float
    rhs: float
    residual_or_gap: float
    verdict: str
    tolerance: float


def _scale(lhs, rhs):
    return max(abs(lhs), abs(rhs), 1.0)


def _entry(name, sides, ok) -> LedgerEntry:
    """The entry of sides = (lhs, rhs), or not applicable for sides None;
    ok (IDENTITY_OK or INEQUALITY_OK) names the rule of LedgerEntry."""
    if sides is None:
        nan = float("nan")
        return LedgerEntry(name, nan, nan, nan, NOT_APPLICABLE, _TOL)
    lhs, rhs = sides
    gap = lhs - rhs
    bar = _TOL * _scale(lhs, rhs)
    holds = abs(gap) <= bar if ok == IDENTITY_OK else gap >= -bar
    return LedgerEntry(name, lhs, rhs, gap, ok if holds else VIOLATED, _TOL)


@dataclass(frozen=True)
class _Boundary:
    """The boundary data of one (solution, body) pair.

    c is the area-weighted mean of |grad u| over the curvature samples and
    spread its relative range; integral(a, m) is int |grad u|^a H_m over
    the boundary.  A RadialSolution has c = c_bdry, spread 0 and closed-form
    integrals on its sphere; its samples are those of the body (by default
    the sphere itself).
    """

    body: RevolutionBody
    samples: SurfaceSampleSet
    c: float
    spread: float
    integral: Callable


def _boundary(solution, body, spec: ProblemSpec = None) -> _Boundary:
    if spec is not None:
        spec.check(solution)
    if isinstance(solution, RadialSolution):
        n, R, c = solution.n, solution.R, solution.c_bdry
        omega = sphere_measure(n - 1)
        if body is None:
            body = RevolutionBody.sphere(R, n=n)

        def integral(a, m):
            return c**a * comb(n - 1, m) * omega * R ** (n - 1 - m)

        return _Boundary(body, curvature_samples(body), c, 0.0, integral)
    if body is None:
        body = solution.grid.body
    s = curvature_samples(body)
    grad = np.asarray(solution.boundary_gradient(s.theta), dtype=float)
    c = s.integrate(grad) / s.area
    spread = float((grad.max() - grad.min()) / abs(c))
    return _Boundary(body, s, c, spread,
                     lambda a, m: s.integrate(grad**a * s.h_k(m)))


def _squeeze_sides(samples: SurfaceSampleSet, k):
    """(lhs, rhs) of the ball squeeze, or None on a non-convex body.

    k >= 2: the Aleksandrov-Fenchel sides.  k = 1: |body| int H_1 against
    (n-1)/n |boundary|^2, the Qiu-Xia sides swapped, which is also the
    ledger's area-volume-curvature bound.
    """
    try:
        if k >= 2:
            return af_sides(samples, k)
        area_term, volume_term = qiu_xia_sides(samples)
        return volume_term, area_term
    except NotConvex:
        return None


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
    sin = np.sin(g.theta)
    jac = sphere_measure(n - 2) * (r * sin) ** (n - 2) * r**2 * g.D
    w_s = _simpson_weights(g.s.size, g.hs)
    w_theta = _simpson_weights(g.theta.size, g.ht)
    bulk = w_s @ (values * jac) @ w_theta

    # sphere average of the density on the outer rim, then a power tail
    rim_weight = sin ** (n - 2)
    rim_mean = (values[-1] * rim_weight) @ w_theta / (rim_weight @ w_theta)
    tail = rim_mean * sphere_measure(n - 1) * g.R_out**n / (decay_power - n)
    return float(bulk + tail)


def _gradient_energy_integral(solution):
    """int over the exterior of S_{k-1}(Hessian) |grad u|^2 dx."""
    if isinstance(solution, RadialSolution):
        return exterior_skm1_grad2_integral(solution)
    n, k = solution.n, solution.k
    jets = solution._node_jets()
    grad2 = jets.uz ** 2 + jets.urho ** 2
    skm1 = jets.split(k - 1).levels[-1]
    # density ~ r^(-(alpha+2)(k-1)) * r^(-2(alpha+1)) = r^(-(n + n/k - 2))
    decay = n + n / k - 2.0
    return _field_volume_integral(solution, skm1 * grad2, decay)


def _balances(solution, b: _Boundary) -> list:
    """The gradient-energy and Rellich-Pohozaev balance entries, k >= 2,
    from one exterior volume integral.  Both presume a constant boundary
    gradient: past _SPREAD_LIMIT they are not applicable, and no volume
    integral is taken."""
    n, k = solution.n, solution.k
    if k < 2:
        raise ValueError(f"the balance identities need k >= 2, got k={k}")
    names = ("gradient-energy-balance", "rellich-pohozaev-balance")
    if b.spread > _SPREAD_LIMIT:
        return [_entry(name, None, IDENTITY_OK) for name in names]
    c, q_km2, q_km1 = b.c, b.integral(0, k - 2), b.integral(0, k - 1)
    vol_int = _gradient_energy_integral(solution)
    sides = (
        ((k + 1) * vol_int + c ** (k + 1) * q_km2, 2.0 * c**k * q_km1),
        ((n - k + 1) * (vol_int + c ** (k + 1) / (k - 1) * q_km2),
         2.0 * (n - k) * c**k / k * q_km1),
    )
    return [_entry(name, lr, IDENTITY_OK) for name, lr in zip(names, sides)]


def identity_lemma33(solution, body=None) -> LedgerEntry:
    """Gradient-energy balance on an overdetermined solution, k >= 2:

        (k+1) int S_{k-1} |grad u|^2 dx + c^(k+1) int H_{k-2}
            = 2 c^k int H_{k-1};

    not applicable when the boundary gradient is not constant.
    """
    return _balances(solution, _boundary(solution, body))[0]


def pohozaev_lemma34(solution, body=None) -> LedgerEntry:
    """Rellich-Pohozaev balance on an overdetermined solution, k >= 2:

        (n-k+1) [int S_{k-1} |grad u|^2 dx + c^(k+1)/(k-1) int H_{k-2}]
            = 2 (n-k) c^k / k int H_{k-1};

    not applicable when the boundary gradient is not constant.
    """
    return _balances(solution, _boundary(solution, body))[1]


def inequality_ledger(solution, body=None, spec: ProblemSpec = None) -> list:
    """Evaluate the inequality battery; every entry is oriented lhs >= rhs.

    Entries: the weighted curvature comparison with exponent a, the
    capacity lower bound at exponent n-k, their scale-invariant
    combination at a = n-k-1, the curvature-ratio lower bound tied to the
    boundary constant, and for k=1 the area-volume-curvature bound.  A
    spec whose (n, k) is not the solution's raises ValueError.
    """
    if spec is None:
        raise ValueError("inequality_ledger needs a ProblemSpec")
    return _inequalities(_boundary(solution, body, spec), spec)


def ledger(solution, body, spec: ProblemSpec) -> list:
    """The entries of identity_lemma33 and pohozaev_lemma34 (for k >= 2)
    and of inequality_ledger, all from one boundary record and one volume
    integral; ValueError unless spec has the (n, k) of solution."""
    b = _boundary(solution, body, spec)
    return (_balances(solution, b) if spec.k >= 2 else []) + _inequalities(b, spec)


def _inequalities(b: _Boundary, spec: ProblemSpec) -> list:
    n, k, a = spec.n, spec.k, spec.a
    omega = sphere_measure(n - 1)
    # the curvature-ratio bound presumes the overdetermined constant c; the
    # area-volume-curvature bound (k = 1 only) is derived from it, and its
    # opposing classical bound needs convexity
    overdetermined = b.spread <= _SPREAD_LIMIT
    rows = (
        ("weighted-curvature-comparison",
         (b.integral(a, k), (n - k) / (n - 2 * k) * b.integral(a + 1.0, k - 1))),
        ("capacity-lower-bound",
         (b.integral(n - k, k - 1),
          comb(n - 1, k - 1) * (n / k - 2.0) ** (n - k) * omega)),
        ("scale-invariant-combination",
         (b.integral(n - k - 1.0, k),
          comb(n - 1, k - 1) * (n / k - 2.0) ** (n - k - 1) * (n - k) / k * omega)),
        ("curvature-ratio-lower-bound",
         (b.integral(0.0, k) / b.integral(0.0, k - 1), (n - k) / (n - 2 * k) * b.c)
         if overdetermined else None),
        ("area-volume-curvature-bound",
         _squeeze_sides(b.samples, k) if k == 1 and overdetermined else None),
    )
    return [_entry(name, sides, INEQUALITY_OK) for name, sides in rows]


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


def certify_ball(solution, body=None,
                 spec: ProblemSpec = None) -> CertificationReport:
    """Decide numerically whether the solved domain must be a round ball.

    Chain: (i) measure the boundary-gradient spread; a spread above
    TAU_OVERDETERMINED rules out the overdetermined condition.  (ii) If the
    spread passes, squeeze the quermassintegral combination

        (n-k)(k-1) (int H_{k-1})^2  vs  (n-k+1) k int H_k int H_{k-2}

    between its two opposing bounds (k >= 2), or for k = 1 the
    area-volume-curvature combination against its convexity bound;
    near-equality (squeeze_rel <= 1e-6) certifies the ball, anything else
    is inconclusive.  A non-convex body is inconclusive with NaN squeeze,
    as the convexity bound does not apply to it.  The profile's deviation
    from its mean radius is reported alongside but does not enter the
    verdict.  A spec whose (n, k) is not the solution's raises ValueError.
    """
    if spec is None:
        raise ValueError("certify_ball needs a ProblemSpec")
    return _certify(_boundary(solution, body, spec), spec)


def report(solution, body, spec: ProblemSpec) -> tuple:
    """(certify_ball, inequality_ledger) of one (solution, body), both from
    one boundary record: the rows of hesslab report; ValueError unless spec
    has the (n, k) of solution."""
    b = _boundary(solution, body, spec)
    return _certify(b, spec), _inequalities(b, spec)


def _certify(b: _Boundary, spec: ProblemSpec) -> CertificationReport:
    gam = b.body.gamma
    profile_dev = float((gam.max() - gam.min()) / b.body.mean_radius)
    # the convexity bound asserts lhs >= rhs and the overdetermined chain
    # lhs <= rhs; the squeeze checks both
    not_overdetermined = b.spread > TAU_OVERDETERMINED
    sides = None if not_overdetermined else _squeeze_sides(b.samples, spec.k)
    if sides is None:
        nan = float("nan")
        verdict = CERTIFIED_NOT_OVERDETERMINED if not_overdetermined else INCONCLUSIVE
        return CertificationReport(verdict, b.spread, profile_dev, nan, nan, nan)
    lhs, rhs = sides
    squeeze_rel = abs(lhs - rhs) / _scale(lhs, rhs)
    verdict = CERTIFIED_BALL if squeeze_rel <= _TOL else INCONCLUSIVE
    return CertificationReport(
        verdict, b.spread, profile_dev, float(lhs), float(rhs), squeeze_rel
    )
