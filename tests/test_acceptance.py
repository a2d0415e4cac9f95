"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail lines; printed summaries carry the measured numbers.
"""

import time
from functools import partial
from math import log2, pi

import numpy as np

from oracles import (
    c_formula,
    levelset_curvature,
    minkowski_residual,
    radial_value,
    weights_ode_residual,
)
from test_fields import spheroid_curvature_oracle, spheroidal_jet

from hesslab.identities import (
    CERTIFIED_BALL,
    CERTIFIED_NOT_OVERDETERMINED,
    certify_ball,
    identity_lemma33,
    inequality_ledger,
    pohozaev_lemma34,
)
from hesslab.monotone import (
    F_boundary,
    F_eval,
    ProblemSpec,
    limit_bound,
    monotonicity_audit,
)
from hesslab.radial import RadialSolution, radial_F
from hesslab.solver import admissibility_margin
from hesslab.surfaces import RevolutionBody, sphere_measure
from hesslab.symfunc import (
    newton_maclaurin_gap,
    sigma_grad,
    sigma_matrix,
    verify_matrix_identities,
)


def _verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label} failed: {detail}"


def test_ac01_symmetric_function_suite():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst_id = 0.0
    worst_fd = 0.0
    worst_nm = 0.0
    for _ in range(10_000):
        n = int(rng.integers(3, 7))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        k = int(rng.integers(1, n))
        worst_id = max(worst_id, max(verify_matrix_identities(A, k)))
    for _ in range(200):
        n = int(rng.integers(3, 7))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        k = int(rng.integers(1, n))
        i, j = rng.integers(0, n, size=2)
        h = 1e-6
        Ap, Am = A.copy(), A.copy()
        Ap[i, j] += h
        Ap[j, i] = Ap[i, j]
        Am[i, j] -= h
        Am[j, i] = Am[i, j]
        fd = (sigma_matrix(Ap, k) - sigma_matrix(Am, k)) / (2 * h)
        g = sigma_grad(A, k)
        analytic = g[i, j] + g[j, i] if i != j else g[i, i]
        worst_fd = max(worst_fd, abs(fd - analytic) / max(1.0, abs(fd)))

        lam = np.abs(rng.standard_normal(n)) + 0.05
        ell = int(rng.integers(1, n + 1))
        m = int(rng.integers(1, ell + 1))
        worst_nm = min(worst_nm, newton_maclaurin_gap(lam, m, ell))
    elapsed = time.monotonic() - t0
    ok = (worst_id <= 1e-10 and worst_fd <= 1e-5 and worst_nm >= -1e-12
          and elapsed < 10.0)
    _verdict(
        "AC1 symmetric-function suite", ok,
        f"identity {worst_id:.2e}, fd {worst_fd:.2e}, "
        f"newton-maclaurin {worst_nm:.2e}, {elapsed:.1f}s",
    )


def test_ac02_levelset_curvature_consistency():
    rng = np.random.default_rng(7)
    a, b = 1.3, 0.8
    worst = 0.0
    count = 0
    for n, k in [(3, 1), (5, 2), (5, 1), (7, 3)]:
        for _ in range(250):
            z = rng.uniform(-1.5, 1.5)
            rho = rng.uniform(0.2, 1.5)
            jet, w = spheroidal_jet(z, rho, a, b, n)
            sk = sigma_matrix(jet.H, k)
            hk, hk1 = levelset_curvature(jet, k, sk)
            s = np.sqrt(w)
            want_k, want_k1 = spheroid_curvature_oracle(
                z, rho, a * s, b * s, n, k
            )
            worst = max(
                worst,
                abs(hk - want_k) / abs(want_k),
                abs(hk1 - want_k1) / abs(want_k1),
            )
            count += 1
    ok = worst <= 1e-6 and count == 1000
    _verdict(
        "AC2 level-set curvature consistency", ok,
        f"{count} points, worst rel err {worst:.2e}",
    )


def test_ac03_minkowski_identity():
    bodies = {
        "sphere": lambda s: RevolutionBody.sphere(1.0, n=5, samples=s),
        "spheroid": lambda s: RevolutionBody.spheroid(1.5, 1.0, n=5, samples=s),
        "cosper": lambda s: RevolutionBody.cos_perturbed(
            n=5, amplitude=0.2, frequency=2, samples=s
        ),
    }
    worst = 0.0
    worst_order = np.inf
    for make in bodies.values():
        for k in range(1, 5):
            r_fine = abs(minkowski_residual(make(2048), k))
            r_coarse = abs(minkowski_residual(make(512), k))
            worst = max(worst, r_fine)
            if r_fine > 1e-14:
                worst_order = min(worst_order, log2(r_coarse / r_fine) / 2.0)
    ok = worst <= 1e-8 and worst_order >= 2.0
    _verdict(
        "AC3 Minkowski identity", ok,
        f"worst residual {worst:.2e} at 2048 samples, order {worst_order:.2f}",
    )


def test_ac04_radial_rigidity_battery():
    t0 = time.monotonic()
    ts = np.linspace(-1.0, -0.05, 24)
    worst_spread = 0.0
    worst_limit = 0.0
    for n, k, R in [(3, 1, 1), (3, 1, 2), (5, 2, 1), (5, 2, 2), (7, 2, 1),
                    (7, 3, 1)]:
        sol = RadialSolution(n=n, k=k, R=float(R))
        for a in (float(k), float(k + 1)):
            for C3, C4 in ((1.0, 0.0), (0.0, 1.0), (0.7, 0.3)):
                spec = ProblemSpec(n=n, k=k, a=a, C3=C3, C4=C4)
                Fs = np.array([radial_F(sol, t, spec) for t in ts])
                scale = max(1.0, np.abs(Fs).max())
                worst_spread = max(
                    worst_spread, (Fs.max() - Fs.min()) / scale
                )
                worst_limit = max(
                    worst_limit,
                    abs(Fs[0] - limit_bound(spec, sol.rho)) / scale,
                )

    v1 = radial_F(RadialSolution(n=3, k=1, R=2.0), -0.5,
                  ProblemSpec(n=3, k=1, a=1.0))
    v2 = radial_F(RadialSolution(n=3, k=1, R=2.0), -0.5,
                  ProblemSpec(n=3, k=1, a=2.0))
    v3 = radial_F(RadialSolution(n=5, k=2, R=1.0), -0.5,
                  ProblemSpec(n=5, k=2, a=2.0))
    values_ok = (
        abs(v1 - 4 * pi) <= 1e-10
        and abs(v2 - pi) <= 1e-10
        and abs(v3 - 0.5 * sphere_measure(4)) <= 1e-10
    )

    worst_gap = 0.0
    worst_lemma = 0.0
    worst_c = 0.0
    for n, k, R in [(3, 1, 1), (3, 1, 2), (5, 2, 1), (5, 2, 2), (7, 2, 1),
                    (7, 3, 1)]:
        sol = RadialSolution(n=n, k=k, R=float(R))
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        for e in inequality_ledger(sol, spec=spec):
            if e.name in ("weighted-curvature-comparison",
                          "capacity-lower-bound"):
                scale = max(1.0, abs(e.lhs), abs(e.rhs))
                worst_gap = max(worst_gap, abs(e.residual_or_gap) / scale)
        if k >= 2:
            for entry in (identity_lemma33(sol), pohozaev_lemma34(sol)):
                scale = max(abs(entry.lhs), abs(entry.rhs))
                worst_lemma = max(
                    worst_lemma, abs(entry.residual_or_gap) / scale
                )
        body = RevolutionBody.sphere(float(R), n=n)
        worst_c = max(worst_c, abs(c_formula(body, k) - (n / k - 2.0) / R))
    elapsed = time.monotonic() - t0
    ok = (worst_spread <= 1e-10 and worst_limit <= 1e-10 and values_ok
          and worst_gap <= 1e-10 and worst_lemma <= 1e-6 and worst_c <= 1e-10
          and elapsed < 60.0)
    _verdict(
        "AC4 radial rigidity battery", ok,
        f"F spread {worst_spread:.2e}, limit {worst_limit:.2e}, "
        f"gaps {worst_gap:.2e}, lemmas {worst_lemma:.2e}, "
        f"c {worst_c:.2e}, {elapsed:.1f}s",
    )


def test_ac05_solver_prolate_oracle(prolate_field):
    a, b = 1.5, 1.0
    f = np.sqrt(a * a - b * b)
    g = prolate_field.grid
    rr = g.r_nodes
    z = rr * np.cos(g.theta)[None, :]
    rho = rr * np.sin(g.theta)[None, :]
    xi = (np.hypot(z + f, rho) + np.hypot(z - f, rho)) / (2 * f)
    exact = -np.arctanh(1.0 / xi) / np.arctanh(f / a)
    sup = float(np.max(np.abs(prolate_field.u - exact)))
    capacity = float(f / np.arctanh(f / a))
    rho_err = abs(prolate_field.rho_hat - capacity)
    ok = sup <= 1e-3 and rho_err <= 1e-3
    _verdict(
        "AC5 solver vs prolate oracle", ok,
        f"sup err {sup:.2e}, rho err {rho_err:.2e}",
    )


def test_ac06_solver_k2_radial_recovery(sphere_k2_field):
    sol = RadialSolution(n=5, k=2, R=1.0)
    exact = np.vectorize(partial(radial_value, sol))(sphere_k2_field.grid.r_nodes)
    sup = float(np.max(np.abs(sphere_k2_field.u - exact)))
    margin = admissibility_margin(sphere_k2_field)
    ok = sup <= 5e-5 and margin >= -1e-12 and sphere_k2_field.eps == 0.02
    _verdict(
        "AC6 solver k=2 radial recovery", ok,
        f"sup err {sup:.2e}, margin {margin:.2e}, eps {sphere_k2_field.eps}",
    )


def test_ac07_monotonicity_on_non_balls(prolate_field, prolate_field_half,
                                        cosper_field, cosper_field_half):
    ts = np.linspace(-0.9, -0.1, 9)
    worst_detail = []
    ok = True
    for fine, half, name in [
        (prolate_field, prolate_field_half, "spheroid"),
        (cosper_field, cosper_field_half, "cosper"),
    ]:
        body = fine.grid.body
        for a in (1.0, 2.0):
            for C3, C4 in ((1.0, 0.0), (0.0, 1.0)):
                spec = ProblemSpec(n=3, k=1, a=a, C3=C3, C4=C4)
                Ff = np.array([F_eval(fine, t, spec).F for t in ts])
                Fc = np.array([F_eval(half, t, spec).F for t in ts])
                tol = float(np.max(np.abs(Ff - Fc)) / 3.0)
                report = monotonicity_audit(fine, spec, tol, t_grid=ts)
                F_bdry = F_boundary(fine, body, spec).F
                strict = F_bdry - report.limit_value
                case_ok = report.non_increasing and strict > 10.0 * tol
                ok = ok and case_ok
                if not case_ok:
                    worst_detail.append(
                        f"{name} a={a} C=({C3},{C4}) up={report.upward_violation:.1e} "
                        f"strict={strict:.1e} tol={tol:.1e}"
                    )
    _verdict(
        "AC7 monotonicity audit on non-balls", ok,
        "all 8 weight/exponent cases non-increasing with strict gap"
        if ok else "; ".join(worst_detail),
    )


def test_ac08_inequality_ledger_non_balls(prolate_field, cosper_field):
    ok = True
    details = []
    for fld, name in [(prolate_field, "spheroid"), (cosper_field, "cosper")]:
        body = fld.grid.body
        spec = ProblemSpec(n=3, k=1, a=1.0)
        entries = {e.name: e for e in inequality_ledger(fld, body, spec)}
        cap = entries["capacity-lower-bound"]
        tol = cap.tolerance * max(abs(cap.lhs), abs(cap.rhs), 1.0)
        cap_ok = cap.lhs > 4 * pi and cap.residual_or_gap > 10.0 * tol
        wc = entries["weighted-curvature-comparison"]
        wc_ok = wc.residual_or_gap > 0.0
        ok = ok and cap_ok and wc_ok
        details.append(
            f"{name}: capacity gap {cap.residual_or_gap:.2e}, "
            f"comparison gap {wc.residual_or_gap:.2e}"
        )
    _verdict("AC8 inequality ledger on non-balls", ok, "; ".join(details))


def test_ac09_certification(prolate_field, cosper_field):
    ok = True
    worst_squeeze = 0.0
    for n, k, R in [(3, 1, 1.0), (3, 1, 2.0), (5, 2, 1.0), (7, 2, 1.0),
                    (7, 3, 1.0)]:
        sol = RadialSolution(n=n, k=k, R=R)
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        report = certify_ball(sol, spec=spec)
        ok = ok and report.verdict == CERTIFIED_BALL
        worst_squeeze = max(worst_squeeze, report.squeeze_rel)
    ok = ok and worst_squeeze <= 1e-6
    for fld in (prolate_field, cosper_field):
        spec = ProblemSpec(n=3, k=1, a=1.0)
        report = certify_ball(fld, fld.grid.body, spec)
        ok = ok and report.verdict == CERTIFIED_NOT_OVERDETERMINED
    _verdict(
        "AC9 ball certification", ok,
        f"spheres certified, squeeze {worst_squeeze:.2e}, "
        "non-balls rejected",
    )


def test_ac10_weight_ode_closed_forms():
    rng = np.random.default_rng(11)
    ts = np.linspace(-0.99, -0.01, 100)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2 * k + 1, 2 * k + 6))
        a_min = k * (n - k - 1) / (n - k)
        a = float(a_min + rng.uniform(0.0, 3.0))
        C3, C4 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        spec = ProblemSpec(n=n, k=k, a=a, C3=C3, C4=C4)
        for t in ts:
            r1, r2 = weights_ode_residual(float(t), spec)
            worst = max(worst, abs(r1), abs(r2))
    ok = worst <= 1e-10
    _verdict(
        "AC10 weight ODE closed forms", ok,
        f"20 tuples x 100 levels, worst residual {worst:.2e}",
    )
