"""The workloads: inputs drawn from the seed, one op, and its checks.

Each `make_<workload>(seed, out_dir)` does the set-up and returns a
`Workload`: `op()` is the timed operation and `check(result)` returns the
list of failed checks for one op's result (empty when correct).  Every
check compares with a closed form or with a property the method must
have; none compares with stored program output.

hesslab is reached through module attributes (`monotone.F_eval`), never
through names bound at import, so that the tracer can switch its wrappers
in and out between ops.
"""

import contextlib
import io
from dataclasses import dataclass
from math import comb, gamma, pi
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from hesslab import cli, identities, monotone, solver, symfunc
from hesslab.errors import HesslabError

CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"

#: Semi-major axis (semi-minor 1) of the `solve_k1` spheroid, the body of
#: the audit's prolate checkpoints.  It is fixed: Newton's sparse-solve
#: count jumps between 28 and 37 on nearby axes (see README), so a drawn
#: axis would move the op time with the seed more than with the code.
PROLATE_A = 1.5

#: Radius of the `solve_k2` ball, fixed for the same reason: the work
#: depends on R although the problem is scale-invariant (53 sparse solves
#: at R = 0.8, 48 at R = 1, 20 at R = 2).
BALL_R = 1.0

#: Newton tolerance of `solve_exterior`, and the admissibility floor the
#: line search keeps.
TOL_NEWTON = 1e-10
MARGIN_FLOOR = -1e-12

#: Oracle bound of the repository's acceptance criterion AC5, set there
#: for N_s = 256; the h^2 error at the command line's N_s = 128 stays below
#: it (sup |u - exact| 2.0e-4, |rho_hat - exact| 3.0e-4).
PROLATE_TOL = 1e-3

#: AC6 bounds the ball's error by 5e-5 at N_s = N_theta = 256; the h^2
#: scaling to the command line's N_s = 128 gives four times that (measured:
#: sup |u - exact| 1.8e-5, |rho_hat - exact| 2.4e-5).
BALL_TOL = 4 * 5e-5

#: Battery size of `matrix_suite`, and the relative agreement required of
#: `sigma_matrix` with the characteristic polynomial.
MATRIX_TRIALS = 1000
SIGMA_TOL = 1e-10


@dataclass
class Workload:
    op: Callable[[], object]
    check: Callable[[object], list]
    checkpoint: Optional[Path] = None


class OpFailed(Exception):
    """The command exited with a configuration (2) or solver (3) failure."""


def _quiet_cli(argv):
    """hesslab.cli.run with its report captured instead of printed.

    Exit codes 2 and 3 fail the op; 0 and 4 (audit violation) return
    (code, text) for the check.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.run(argv)
    if code in (2, 3):
        raise OpFailed(f"exit {code}: {buf.getvalue().strip()[-300:]}")
    return code, buf.getvalue()


def _sphere_measure(m):
    return 2.0 * pi ** ((m + 1) / 2.0) / gamma((m + 1) / 2.0)


def _check_solved(code, text, path, exact_u, exact_rho, tol):
    if code != 0:
        return [f"hesslab solve exited {code}: {text.strip()[-200:]}"]
    field = solver.ExteriorField.load_checkpoint(path)
    errs = []
    sup = float(np.max(np.abs(field.u - exact_u(field.grid))))
    if not sup <= tol:
        errs.append(f"sup |u - exact| = {sup:.3e} > {tol:g}")
    drho = abs(field.rho_hat - exact_rho)
    if not drho <= tol:
        errs.append(f"|rho_hat - exact| = {drho:.3e} > {tol:g}")
    if not field.residual_norm <= TOL_NEWTON:
        errs.append(f"Newton residual {field.residual_norm:.3e} > {TOL_NEWTON:g}")
    if not field.admissible >= MARGIN_FLOOR:
        errs.append(f"admissibility margin {field.admissible:.3e} < {MARGIN_FLOOR:g}")
    return errs


def _make_solve(out, argv, exact_u, exact_rho, tol):
    """A `hesslab solve` op checked against a closed-form solution."""
    argv = ["solve", *argv, "--out", str(out)]
    path = out / "field.txt"

    def check(result):
        code, text = result
        return _check_solved(code, text, path, exact_u, exact_rho, tol)

    return Workload(lambda: _quiet_cli(argv), check, path)


def make_solve_k1(seed, out_dir):
    del seed  # the body is fixed, see PROLATE_A
    a = PROLATE_A
    f = np.sqrt(a * a - 1.0)

    def exact_u(grid):
        # prolate spheroidal coordinate xi of each node; foci at z = +-f
        r = grid.r_nodes
        z = r * np.cos(grid.theta)[None, :]
        rho = r * np.sin(grid.theta)[None, :]
        xi = (np.hypot(z + f, rho) + np.hypot(z - f, rho)) / (2.0 * f)
        return -np.arctanh(1.0 / xi) / np.arctanh(f / a)

    argv = ["--body", f"spheroid:{a!r},1", "--n", "3", "--k", "1"]
    return _make_solve(Path(out_dir) / "solve_k1", argv, exact_u,
                       f / np.arctanh(f / a), PROLATE_TOL)


def make_solve_k2(seed, out_dir):
    del seed  # the body is fixed, see BALL_R
    R, n, k = BALL_R, 5, 2
    alpha = n / k - 2.0

    def exact_u(grid):
        return -((R / grid.r_nodes) ** alpha)

    argv = ["--body", "sphere", "--R", repr(R), "--n", str(n), "--k", str(k)]
    return _make_solve(Path(out_dir) / "solve_k2", argv, exact_u,
                       R**alpha, BALL_TOL)


# -- audit -------------------------------------------------------------

AUDIT_FIELDS = ("prolate-128", "prolate-64", "cosper-128", "cosper-64",
                "ball-k2-128")
WEIGHT_CASES = tuple((a, C3, C4) for a in (1.0, 2.0)
                     for C3, C4 in ((1.0, 0.0), (0.0, 1.0)))
BALL_A = 2.0


def _fresh(field):
    """A new field on the loaded arrays, with empty post-solve caches."""
    return solver.ExteriorField(
        grid=field.grid, u=field.u.copy(), k=field.k, eps=field.eps,
        rho_hat=field.rho_hat, cnk=field.cnk,
        residual_norm=field.residual_norm, admissible=field.admissible,
    )


def _weights(t, n, k, a, C3, C4):
    """Closed-form weights C1(t), C2(t) of the paper's monotone formula."""
    p = ((a - k) * (n - k) + k) / (n - 2 * k)
    q = (a - k + 1) * (n - k) / (n - 2 * k)
    mt = -t
    c1 = C3 * mt ** (-p) + C4 * mt ** (1 - p)
    c2 = (-(p / (a + 1 - k)) * C3 * mt ** (-q)
          - (n - k) / (n - 2 * k) * C4 * mt ** (1 - q))
    return c1, c2


def _limit(n, k, a, C3, rho):
    """t -> 0 limit of F, a lower bound attained by balls."""
    return ((n - 2 * k) / (k * (a + 1 - k)) * comb(n - 1, k - 1)
            * (n / k - 2.0) ** a * rho ** (k * (n - k - a - 1))
            * _sphere_measure(n - 1) * C3)


def _ball_F(t, n, k, a, R):
    """F(t) on the exterior of the ball of radius R, from u = -(R/r)^alpha.

    The level {u = t} is the sphere r_t = R (-t)^(-1/alpha), on which
    |grad u| = alpha R^alpha r_t^(-alpha-1), H_m = C(n-1, m) r_t^(-m) and
    the area is |S^(n-1)| r_t^(n-1).
    """
    alpha = n / k - 2.0
    r = R * (-t) ** (-1.0 / alpha)
    grad = alpha * R**alpha * r ** (-alpha - 1.0)
    area = _sphere_measure(n - 1) * r ** (n - 1)
    c1, c2 = _weights(t, n, k, a, 1.0, 0.0)
    return (c1 * area * comb(n - 1, k) * r ** (-k) * grad**a
            + c2 * area * comb(n - 1, k - 1) * r ** (1 - k) * grad ** (a + 1))


def _bias_bound(field):
    """Relative O(h^2) + O(eps^2) discretisation bias of a solved field.

    h is the coarser of the angular step and the physical radial step at
    the body (the stretched-grid step times log(R_out / gamma)); eps is
    the last continuation level, so eps^2 = 4e-4 at the default schedule.
    """
    g = field.grid
    h = max(g.ht, g.hs * float(np.max(g.D)))
    return h * h + field.eps**2


def make_audit(seed, out_dir):
    del out_dir
    loaded = {name: solver.ExteriorField.load_checkpoint(CHECKPOINTS / f"{name}.txt")
              for name in AUDIT_FIELDS}
    # every level lies strictly between the first interior row (u > -0.908
    # on prolate-64) and the far-field row (u < -0.158 on the ball)
    shift = float(np.random.default_rng(seed).uniform(-0.04, 0.04))
    levels = np.linspace(-0.85, -0.1, 9) + shift
    ball_levels = np.linspace(-0.85, -0.25, 8) + shift

    def op():
        res = {}
        for name in ("prolate", "cosper"):
            fine = _fresh(loaded[f"{name}-128"])
            half = _fresh(loaded[f"{name}-64"])
            # runs the ghost-row post-solve on each fresh field; the value
            # is not checked, as a reloaded field's profile derivatives come
            # from a spline and its margin is no longer the solver's
            solver.admissibility_margin(fine)
            solver.admissibility_margin(half)
            body = fine.grid.body
            cases = []
            for a, C3, C4 in WEIGHT_CASES:
                spec = monotone.ProblemSpec(n=3, k=1, a=a, C3=C3, C4=C4)
                Ff = np.array([monotone.F_eval(fine, t, spec).F for t in levels])
                Fc = np.array([monotone.F_eval(half, t, spec).F for t in levels])
                tol = float(np.max(np.abs(Ff - Fc)) / 3.0)
                report = monotone.monotonicity_audit(fine, spec, tol, t_grid=levels)
                cases.append((a, C3, C4, tol, report.F,
                              monotone.F_boundary(fine, body, spec).F))
            spec = monotone.ProblemSpec(n=3, k=1, a=1.0)
            res[name] = (fine.rho_hat, cases,
                         identities.inequality_ledger(fine, body, spec),
                         identities.certify_ball(fine, body, spec).verdict)
        ball = _fresh(loaded["ball-k2-128"])
        solver.admissibility_margin(ball)
        body = ball.grid.body
        spec = monotone.ProblemSpec(n=5, k=2, a=BALL_A)
        res["ball"] = (
            np.array([monotone.F_eval(ball, t, spec).F for t in ball_levels]),
            identities.identity_lemma33(ball, body),
            identities.pohozaev_lemma34(ball, body),
            identities.certify_ball(ball, body, spec).verdict,
        )
        return res

    ball_R = float(loaded["ball-k2-128"].grid.body.mean_radius)
    ball_exact = np.array([_ball_F(t, 5, 2, BALL_A, ball_R) for t in ball_levels])
    ball_bias = _bias_bound(loaded["ball-k2-128"])

    def check(res):
        errs = []
        for name in ("prolate", "cosper"):
            rho, cases, ledger, verdict = res[name]
            for a, C3, C4, tol, F, F_bdry in cases:
                tag = f"{name} a={a:g} C=({C3:g},{C4:g})"
                upward = float(np.max(np.diff(F)))
                if not upward <= tol:
                    errs.append(f"{tag}: F rises by {upward:.3e} > tol {tol:.3e}")
                gap = F_bdry - _limit(3, 1, a, C3, rho)
                if not gap > tol:
                    errs.append(f"{tag}: F(-1) - limit = {gap:.3e} not > tol {tol:.3e}")
            cap = next(e for e in ledger if e.name == "capacity-lower-bound")
            # n=3, k=1: int |grad u|^2 >= C(2,0) (3/1-2)^2 |S^2| = 4 pi
            if not (abs(cap.rhs - 4 * pi) <= 1e-12 and cap.lhs - 4 * pi > 0):
                errs.append(f"{name}: capacity gap {cap.lhs - 4 * pi:.3e} "
                            f"(bound {cap.rhs:.12g}) not > 0")
            if verdict != "certified-not-overdetermined":
                errs.append(f"{name}: verdict {verdict}")
        F, ident, pohoz, verdict = res["ball"]
        rel = float(np.max(np.abs(F / ball_exact - 1.0)))
        if not rel <= ball_bias:
            errs.append(f"ball: F off the closed form by {rel:.3e} > {ball_bias:.3e}")
        for e in (ident, pohoz):
            r = abs(e.residual_or_gap) / max(abs(e.lhs), abs(e.rhs), 1.0)
            if not r <= ball_bias:
                errs.append(f"ball: {e.name} residual {r:.3e} > {ball_bias:.3e}")
        if verdict != "certified-ball":
            errs.append(f"ball: verdict {verdict}")
        return errs

    return Workload(op, check)


# -- matrix_suite ------------------------------------------------------


def _suite_matrices(seed, trials):
    """The (A, k) pairs of `hesslab matrix-suite`, drawn as it draws them."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        n = int(rng.integers(3, 7))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        k = int(rng.integers(1, n))
        pairs.append((A, k))
        # the gradient probe and the Newton-Maclaurin vector that follow
        rng.integers(0, n, size=2)
        rng.standard_normal(n)
        ell = int(rng.integers(1, n + 1))
        rng.integers(1, ell + 1)
    return pairs


def make_matrix_suite(seed, out_dir):
    del out_dir
    argv = ["matrix-suite", "--trials", str(MATRIX_TRIALS), "--seed", str(seed)]
    # S_k is (-1)^k times the x^(n-k) coefficient of det(x I - A), whose
    # roots eigvalsh gives
    ref = [(A, k, (-1) ** k * np.poly(np.linalg.eigvalsh(A))[k])
           for A, k in _suite_matrices(seed, MATRIX_TRIALS)]

    def check(result):
        code, text = result
        errs = []
        if code != 0 or not text.rstrip().endswith("matrix-suite: ok"):
            errs.append(f"hesslab matrix-suite exited {code}: {text.strip()[-200:]}")
        worst = max(abs(symfunc.sigma_matrix(A, k) - s) / max(1.0, abs(s))
                    for A, k, s in ref)
        if not worst <= SIGMA_TOL:
            errs.append(f"sigma_matrix off the characteristic polynomial "
                        f"by {worst:.3e} > {SIGMA_TOL:g}")
        return errs

    return Workload(lambda: _quiet_cli(argv), check)


WORKLOADS = {
    "solve_k1": make_solve_k1,
    "solve_k2": make_solve_k2,
    "audit": make_audit,
    "matrix_suite": make_matrix_suite,
}

#: Errors an op may raise that count as a failed operation.
OP_ERRORS = (HesslabError, OpFailed)
