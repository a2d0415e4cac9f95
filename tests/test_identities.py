import numpy as np
import pytest

from hesslab import cli, identities, solver, surfaces
from hesslab.errors import NotConvex
from hesslab.identities import (
    CERTIFIED_BALL,
    CERTIFIED_NOT_OVERDETERMINED,
    IDENTITY_OK,
    INCONCLUSIVE,
    INEQUALITY_OK,
    NOT_APPLICABLE,
    TAU_OVERDETERMINED,
    VIOLATED,
    certify_ball,
    identity_lemma33,
    inequality_ledger,
    ledger,
    pohozaev_lemma34,
    report,
)
from hesslab.monotone import F_boundary, F_eval, ProblemSpec, monotonicity_audit
from hesslab.radial import RadialSolution
from hesslab.solver import ExteriorField
from hesslab.surfaces import (RevolutionBody, af_sides, curvature_samples,
                              qiu_xia_sides, sphere_measure)
from oracles import c_formula

S4 = sphere_measure(4)

RADIAL_BATTERY = [(5, 2, 1.0), (5, 2, 2.0), (7, 2, 1.0), (7, 3, 1.0), (9, 2, 1.5)]


class _GradientStub:
    """Minimal field stand-in with a non-constant boundary gradient."""

    def __init__(self, n, k, spread=0.3):
        self.n = n
        self.k = k
        self._spread = spread

    def boundary_gradient(self, theta):
        return 1.0 + self._spread * np.cos(np.asarray(theta))


class TestEnergyBalance:
    def test_unit_ball_hand_values(self):
        entry = identity_lemma33(RadialSolution(n=5, k=2, R=1.0))
        # (k+1) * 0.625|S4| + (1/8)|S4| = 2|S4| = 2 c^k int H_1
        assert entry.lhs == pytest.approx(2.0 * S4, rel=1e-10)
        assert entry.rhs == pytest.approx(2.0 * S4, rel=1e-10)
        assert entry.verdict == IDENTITY_OK

    @pytest.mark.parametrize("n,k,R", RADIAL_BATTERY)
    def test_radial_battery(self, n, k, R):
        entry = identity_lemma33(RadialSolution(n=n, k=k, R=R))
        scale = max(abs(entry.lhs), abs(entry.rhs))
        assert abs(entry.residual_or_gap) <= 1e-10 * scale
        assert entry.verdict == IDENTITY_OK

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            identity_lemma33(RadialSolution(n=3, k=1, R=1.0))

    def test_varying_gradient_rejected(self):
        # the stub has no field data: the entry is made before any
        # volume integral is taken
        stub = _GradientStub(n=5, k=2)
        body = RevolutionBody.spheroid(1.5, 1.0, n=5)
        entry = identity_lemma33(stub, body)
        assert entry.verdict == NOT_APPLICABLE
        assert np.isnan([entry.lhs, entry.rhs, entry.residual_or_gap]).all()


class TestPohozaevBalance:
    def test_unit_ball_hand_values(self):
        entry = pohozaev_lemma34(RadialSolution(n=5, k=2, R=1.0))
        # (n-k+1)[0.625 + 0.125]|S4| = 3|S4| = 2 (n-k) c^k / k int H_1
        assert entry.lhs == pytest.approx(3.0 * S4, rel=1e-10)
        assert entry.rhs == pytest.approx(3.0 * S4, rel=1e-10)
        assert entry.verdict == IDENTITY_OK

    @pytest.mark.parametrize("n,k,R", RADIAL_BATTERY)
    def test_radial_battery(self, n, k, R):
        entry = pohozaev_lemma34(RadialSolution(n=n, k=k, R=R))
        scale = max(abs(entry.lhs), abs(entry.rhs))
        assert abs(entry.residual_or_gap) <= 1e-10 * scale
        assert entry.verdict == IDENTITY_OK

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            pohozaev_lemma34(RadialSolution(n=3, k=1, R=1.0))

    def test_varying_gradient_rejected(self):
        # the stub has no field data: the entry is made before any
        # volume integral is taken
        stub = _GradientStub(n=5, k=2)
        body = RevolutionBody.spheroid(1.5, 1.0, n=5)
        entry = pohozaev_lemma34(stub, body)
        assert entry.verdict == NOT_APPLICABLE
        assert np.isnan([entry.lhs, entry.rhs, entry.residual_or_gap]).all()


class TestCFormula:
    def test_sphere_n5_k2(self):
        body = RevolutionBody.sphere(1.0, n=5)
        assert c_formula(body, 2) == pytest.approx(0.5, rel=1e-10)

    def test_sphere_scaling(self):
        body = RevolutionBody.sphere(2.0, n=5)
        assert c_formula(body, 2) == pytest.approx(0.25, rel=1e-10)

    @pytest.mark.parametrize("n,k,R", [(3, 1, 1.0), (3, 1, 2.0), (5, 1, 1.5),
                                       (5, 2, 1.0), (7, 3, 1.0), (9, 2, 1.5)])
    def test_matches_radial_gradient(self, n, k, R):
        body = RevolutionBody.sphere(R, n=n)
        sol = RadialSolution(n=n, k=k, R=R)
        assert c_formula(body, k) == pytest.approx(sol.c_bdry, rel=1e-10)

    def test_invalid_order(self):
        body = RevolutionBody.sphere(1.0, n=3)
        with pytest.raises(ValueError):
            c_formula(body, 0)
        with pytest.raises(ValueError):
            c_formula(body, 2)  # needs k < n/2


class TestInequalityLedger:
    def test_unit_ball_k1_equalities(self):
        sol = RadialSolution(n=3, k=1, R=1.0)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        entries = {e.name: e for e in inequality_ledger(sol, spec=spec)}
        cap = entries["capacity-lower-bound"]
        assert cap.lhs == pytest.approx(4.0 * np.pi, rel=1e-10)
        assert cap.rhs == pytest.approx(4.0 * np.pi, rel=1e-10)
        wc = entries["weighted-curvature-comparison"]
        # a=1: both sides 8 pi on the unit ball
        assert wc.lhs == pytest.approx(8.0 * np.pi, rel=1e-10)
        assert abs(wc.residual_or_gap) <= 1e-10 * wc.lhs

    @pytest.mark.parametrize("n,k,R,a", [
        (3, 1, 1.0, 1.0), (3, 1, 2.0, 2.0), (5, 2, 1.0, 2.0),
        (7, 3, 1.0, 3.0), (9, 2, 1.5, 2.5),
    ])
    def test_ball_rigidity_gaps(self, n, k, R, a):
        sol = RadialSolution(n=n, k=k, R=R)
        spec = ProblemSpec(n=n, k=k, a=a)
        for entry in inequality_ledger(sol, spec=spec):
            if entry.verdict == NOT_APPLICABLE:
                continue
            assert entry.verdict == INEQUALITY_OK
            scale = max(abs(entry.lhs), abs(entry.rhs), 1.0)
            assert abs(entry.residual_or_gap) <= 1e-6 * scale

    def test_missing_spec_rejected(self):
        with pytest.raises(ValueError):
            inequality_ledger(RadialSolution(n=3, k=1, R=1.0))

    def test_higher_order_marks_na(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        entries = {e.name: e for e in inequality_ledger(sol, spec=spec)}
        assert entries["area-volume-curvature-bound"].verdict == NOT_APPLICABLE

    def test_entry_invariant(self):
        sol = RadialSolution(n=5, k=2, R=1.0)
        spec = ProblemSpec(n=5, k=2, a=2.0)
        for entry in inequality_ledger(sol, spec=spec):
            if entry.verdict == NOT_APPLICABLE:
                continue
            assert entry.residual_or_gap == pytest.approx(
                entry.lhs - entry.rhs, abs=1e-14
            )


class TestCertifyBall:
    @pytest.mark.parametrize("n,k,R", [(3, 1, 1.0), (3, 1, 2.0), (5, 2, 1.0),
                                       (7, 3, 1.0)])
    def test_spheres_certified(self, n, k, R):
        sol = RadialSolution(n=n, k=k, R=R)
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        report = certify_ball(sol, spec=spec)
        assert report.verdict == CERTIFIED_BALL
        assert report.squeeze_rel <= 1e-6

    def test_varying_gradient_not_overdetermined(self):
        stub = _GradientStub(n=3, k=1)
        body = RevolutionBody.spheroid(1.5, 1.0, n=3)
        spec = ProblemSpec(n=3, k=1, a=1.0)
        report = certify_ball(stub, body, spec)
        assert report.verdict == CERTIFIED_NOT_OVERDETERMINED
        assert report.gradient_spread > 1e-3

    def test_missing_spec_rejected(self):
        with pytest.raises(ValueError):
            certify_ball(RadialSolution(n=3, k=1, R=1.0))

    # a constant boundary gradient (spread 0) passes the overdetermined
    # test, so these reach the convexity bounds and the squeeze

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
    def test_non_convex_body_inconclusive(self, n, k):
        stub = _GradientStub(n=n, k=k, spread=0.0)
        body = RevolutionBody.cos_perturbed(n, 0.2, 4)
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        report = certify_ball(stub, body, spec)
        assert report.verdict == INCONCLUSIVE
        assert report.gradient_spread == 0.0
        assert np.isnan(report.squeeze_lhs)
        assert np.isnan(report.squeeze_rhs)
        assert np.isnan(report.squeeze_rel)

    @pytest.mark.parametrize("n,k,squeeze", [(3, 1, 0.023), (5, 2, 0.0094)])
    def test_convex_non_ball_inconclusive(self, n, k, squeeze):
        stub = _GradientStub(n=n, k=k, spread=0.0)
        body = RevolutionBody.spheroid(1.5, 1.0, n=n)
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        report = certify_ball(stub, body, spec)
        assert report.verdict == INCONCLUSIVE
        assert np.isfinite(report.squeeze_lhs)
        assert np.isfinite(report.squeeze_rhs)
        assert report.squeeze_rel == pytest.approx(squeeze, rel=0.02)

    def test_non_convex_k1_area_volume_not_applicable(self):
        stub = _GradientStub(n=3, k=1, spread=0.0)
        body = RevolutionBody.cos_perturbed(3, 0.2, 4)
        spec = ProblemSpec(n=3, k=1, a=2.0)
        entries = {e.name: e for e in inequality_ledger(stub, body, spec)}
        assert entries["area-volume-curvature-bound"].verdict == NOT_APPLICABLE
        # the overdetermined entry still applies: only convexity is missing
        assert entries["curvature-ratio-lower-bound"].verdict != NOT_APPLICABLE


class TestPaperCaseK2:
    """n=5, k=2 off the ball: the ledger gaps are strict and the
    certification rejects a ball.  Measured gaps at N_s=128 (comparison,
    capacity, scale-invariant): prolate 0.84, 0.13, 1.23; cosper 0.24,
    0.030, 0.33."""

    @pytest.mark.parametrize("fixture", ["prolate_k2_field", "cosper_k2_field"])
    def test_ledger_and_certification(self, request, fixture):
        fld = request.getfixturevalue(fixture)
        body, spec = fld.grid.body, ProblemSpec(n=5, k=2, a=2.0)
        entries = {e.name: e for e in inequality_ledger(fld, body, spec)}
        for name in ("weighted-curvature-comparison", "capacity-lower-bound",
                     "scale-invariant-combination"):
            assert entries[name].verdict == INEQUALITY_OK
            assert entries[name].residual_or_gap > 0.0
        report = certify_ball(fld, body, spec)
        assert report.verdict == CERTIFIED_NOT_OVERDETERMINED


def test_one_boundary_spline_and_boundary_rows_per_field(cosper_k2_field, monkeypatch):
    # the boundary |grad u| spline and the boundary-row jets are per-field caches
    built = {"spline": 0, "boundary": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_ClampedSpline", counted(solver._ClampedSpline, "spline"))
    monkeypatch.setattr(solver, "_boundary_derivs",
                        counted(solver._boundary_derivs, "boundary"))
    fld = cosper_k2_field
    fresh = ExteriorField(grid=fld.grid, u=fld.u.copy(), k=fld.k, eps=fld.eps,
                          rho_hat=fld.rho_hat, cnk=fld.cnk)
    body = fresh.grid.body
    for a in (2.0, 3.0):
        for C3, C4 in ((1.0, 0.0), (0.0, 1.0)):
            F_boundary(fresh, body, ProblemSpec(n=5, k=2, a=a, C3=C3, C4=C4))
    spec = ProblemSpec(n=5, k=2, a=2.0)
    inequality_ledger(fresh, body, spec)
    certify_ball(fresh, body, spec)
    identity_lemma33(fresh, body)
    pohozaev_lemma34(fresh, body)
    assert built == {"spline": 1, "boundary": 1}


@pytest.mark.parametrize("fixture", [None, "sphere_k2_field"])
def test_ledger_computes_the_balance_terms_once(fixture, request, monkeypatch):
    # both balances of one ledger share one exterior volume integral, and
    # read as the two public balances do
    solution = (RadialSolution(n=5, k=2, R=1.0) if fixture is None
                else request.getfixturevalue(fixture))
    calls = []
    real = identities._gradient_energy_integral
    monkeypatch.setattr(identities, "_gradient_energy_integral",
                        lambda sol: calls.append(sol) or real(sol))
    rows = identities.ledger(solution, None, ProblemSpec(n=5, k=2, a=2.0))
    assert calls == [solution]
    assert rows[:2] == [identity_lemma33(solution), pohozaev_lemma34(solution)]


class TestOneBoundaryEvaluation:
    """A public call samples the boundary curvature and |grad u| once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"samples": 0, "gradient": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        samples = counted(surfaces.curvature_samples, "samples")
        monkeypatch.setattr(surfaces, "curvature_samples", samples)
        monkeypatch.setattr(identities, "curvature_samples", samples)
        monkeypatch.setattr(
            ExteriorField, "boundary_gradient",
            counted(ExteriorField.boundary_gradient, "gradient"),
        )
        return counts

    @staticmethod
    def _calls(solution, n, k):
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        calls = [lambda: inequality_ledger(solution, spec=spec),
                 lambda: certify_ball(solution, spec=spec)]
        if k >= 2:
            calls += [lambda: identity_lemma33(solution),
                      lambda: pohozaev_lemma34(solution)]
        if not isinstance(solution, RadialSolution):
            calls.append(lambda: F_boundary(solution, solution.grid.body, spec))
        return calls

    def _check(self, counts, solution, n, k):
        for call in self._calls(solution, n, k):
            counts.update(samples=0, gradient=0)
            call()
            assert counts["samples"] <= 1
            assert counts["gradient"] <= 1

    def test_fields(self, counts, sphere_k2_field, prolate_field):
        self._check(counts, sphere_k2_field, 5, 2)
        self._check(counts, prolate_field, 3, 1)
        # the field path reads |grad u| from the field itself
        assert counts["gradient"] == 1

    def test_F_boundary(self, counts, prolate_field):
        # F(-1) reads the boundary record of the ledger: its curvature
        # sample and its one read of |grad u|
        F_boundary(prolate_field, prolate_field.grid.body,
                   ProblemSpec(n=3, k=1, a=2.0))
        assert counts == {"samples": 1, "gradient": 1}

    @pytest.mark.parametrize("n,k", [(5, 2), (3, 1)])
    def test_radial(self, counts, n, k):
        self._check(counts, RadialSolution(n=n, k=k, R=1.0), n, k)

    def test_cli_ledger(self, counts, tmp_path, capsys):
        # both balances and the inequality battery of one CLI run share
        # one record
        code = cli.run([
            "identities", "--body", "spheroid:1.2,1", "--n", "5", "--k", "2",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        assert counts == {"samples": 1, "gradient": 1}

    def test_cli_report(self, counts, tmp_path, capsys):
        # the certification and the inequality rows of each body share one
        # record: one per body, and |grad u| once per solved (non-sphere) body
        code = cli.run([
            "report", "--n", "3", "--k", "1", "--N-s", "64",
            "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        assert counts == {"samples": 3, "gradient": 2}


class TestVerdictsFollowTheirDocstrings:
    """Every ledger entry reads the verdict that LedgerEntry's docstring
    states, and every certification follows certify_ball's chain."""

    BALANCES = ("gradient-energy-balance", "rellich-pohozaev-balance")
    #: the entries that presume an overdetermined or convex boundary
    CONDITIONAL = BALANCES + ("curvature-ratio-lower-bound",
                              "area-volume-curvature-bound")

    def _check_entry(self, e):
        if e.verdict == NOT_APPLICABLE:
            assert e.name in self.CONDITIONAL
            assert np.isnan([e.lhs, e.rhs, e.residual_or_gap]).all()
            return
        assert e.residual_or_gap == e.lhs - e.rhs
        bar = e.tolerance * max(abs(e.lhs), abs(e.rhs), 1.0)
        if e.name in self.BALANCES:
            ok, holds = IDENTITY_OK, abs(e.residual_or_gap) <= bar
        else:
            ok, holds = INEQUALITY_OK, e.residual_or_gap >= -bar
        assert e.verdict == (ok if holds else VIOLATED)

    @staticmethod
    def _check_report(r, body, k):
        gam = body.gamma
        assert r.profile_deviation == (gam.max() - gam.min()) / body.mean_radius
        squeeze = [r.squeeze_lhs, r.squeeze_rhs, r.squeeze_rel]
        if r.gradient_spread > TAU_OVERDETERMINED:
            assert r.verdict == CERTIFIED_NOT_OVERDETERMINED
            assert np.isnan(squeeze).all()
            return
        samples = curvature_samples(body)
        try:
            af_sides(samples, k) if k >= 2 else qiu_xia_sides(samples)
        except NotConvex:
            assert r.verdict == INCONCLUSIVE
            assert np.isnan(squeeze).all()
            return
        lhs, rhs = r.squeeze_lhs, r.squeeze_rhs
        assert r.squeeze_rel == abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        assert r.verdict == (CERTIFIED_BALL if r.squeeze_rel <= 1e-6 else INCONCLUSIVE)

    def _check(self, solution, body, n, k, rows=identities.ledger):
        spec = ProblemSpec(n=n, k=k, a=float(k + 1))
        for e in rows(solution, body, spec):
            self._check_entry(e)
        self._check_report(certify_ball(solution, body, spec), body, k)

    @pytest.mark.parametrize("n,k,R", RADIAL_BATTERY + [(3, 1, 1.0), (3, 1, 2.0)])
    def test_radial_battery(self, n, k, R):
        self._check(RadialSolution(n=n, k=k, R=R), RevolutionBody.sphere(R, n=n), n, k)

    @pytest.mark.parametrize("fixture", [
        "sphere_k1_field", "sphere_k2_field", "prolate_field", "cosper_field",
        "prolate_k2_field", "cosper_k2_field",
    ])
    def test_solved_fixtures(self, request, fixture):
        fld = request.getfixturevalue(fixture)
        self._check(fld, fld.grid.body, fld.n, fld.k)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
    @pytest.mark.parametrize("spread", [0.0, 0.005, 0.3])
    def test_stubs(self, n, k, spread):
        # the stub has no field data, so only the inequality battery runs;
        # its spreads and bodies reach each branch of the chain and each
        # not-applicable entry
        stub = _GradientStub(n=n, k=k, spread=spread)
        for body in (RevolutionBody.spheroid(1.5, 1.0, n=n),
                     RevolutionBody.cos_perturbed(n, 0.2, 4),
                     RevolutionBody.sphere(1.0, n=n)):
            self._check(stub, body, n, k, inequality_ledger)


@pytest.mark.parametrize("fixture", ["sphere_k2_field", "prolate_field", None])
def test_F_boundary_integrals_are_the_ledger_record(fixture, request):
    # F(-1) and the ledger take their two boundary integrals from one
    # record, so they agree bit for bit on a solved field and on a stub
    if fixture is None:
        solution = _GradientStub(n=5, k=2)
        body = RevolutionBody.spheroid(1.5, 1.0, n=5)
    else:
        solution = request.getfixturevalue(fixture)
        body = solution.grid.body
    n, k = solution.n, solution.k
    for a in (float(k), float(k + 1)):
        result = F_boundary(solution, body, ProblemSpec(n=n, k=k, a=a))
        b = identities._boundary(solution, body)
        assert result.int_hk.hex() == b.integral(a, k).hex()
        assert result.int_hk1.hex() == b.integral(a + 1, k - 1).hex()


@pytest.mark.parametrize("n,k", [(5, 1), (7, 2)])
@pytest.mark.parametrize("call", [
    lambda fld, spec: F_eval(fld, -0.5, spec),
    lambda fld, spec: F_boundary(fld, fld.grid.body, spec),
    lambda fld, spec: monotonicity_audit(fld, spec, 1e-6),
    lambda fld, spec: ledger(fld, fld.grid.body, spec),
    lambda fld, spec: report(fld, fld.grid.body, spec),
    lambda fld, spec: inequality_ledger(fld, fld.grid.body, spec),
    lambda fld, spec: certify_ball(fld, fld.grid.body, spec),
], ids=["F_eval", "F_boundary", "monotonicity_audit", "ledger", "report",
        "inequality_ledger", "certify_ball"])
def test_spec_of_another_n_or_k_raises(call, n, k, sphere_k2_field):
    # the n=5, k=2 ball read with the curvatures of another (n, k) is not
    # a number of either problem
    spec = ProblemSpec(n=n, k=k, a=float(k + 1))
    with pytest.raises(ValueError, match=rf"solution \(n, k\) = \(5, 2\) and problem "
                       rf"spec \(n, k\) = \({n}, {k}\) disagree"):
        call(sphere_k2_field, spec)
