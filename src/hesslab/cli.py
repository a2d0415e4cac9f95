"""Batch front door: argument parsing, pipeline orchestration, reports.

Subcommands
    matrix-suite   symmetric-function property battery on random matrices
    radial         closed-form radial oracle table
    solve          solve the exterior problem, save a field checkpoint
    monotone       F(t) table with the monotonicity audit
    identities     identity and inequality ledger
    certify        ball certification verdict
    report         aggregate run over a builtin body battery

Each subcommand takes only the options it reads (see _SUBCOMMANDS).
Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
4 audit violation (an invariant or inequality failed numerically).
All emitted files carry the configuration hash and epsilon.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

from .errors import HesslabError, LevelOutOfRange
from .identities import VIOLATED, certify_ball, ledger, report
from .monotone import (
    F_eval,
    ProblemSpec,
    level_grid,
    limit_bound,
    monotonicity_audit,
    weights,
)
from .radial import RadialSolution, radial_F
from .solver import solve_exterior
from .surfaces import RevolutionBody
from .symfunc import (
    newton_maclaurin_gap,
    sigma_grad,
    sigma_matrix,
    symmetrize,
    verify_matrix_identities,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_AUDIT = 4


def _config_hash(args):
    """Hash of the settings that determine the computation: every option
    but --out, and the subcommand."""
    payload = json.dumps(
        {k: v for k, v in vars(args).items() if k not in ("func", "out")},
        default=str,
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _config_error(message):
    print(json.dumps({"config_errors": [message]}), file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


@contextmanager
def _rejected(errors=ValueError, where=""):
    """An error of the types errors raised inside is a config error, its
    message prefixed by where."""
    try:
        yield
    except errors as exc:
        _config_error(f"{where}{exc}")


def _body(args, src):
    """The body named src: sphere, spheroid:a,b, cosper:amp,freq, or a
    revolution-profile file path prefixed with profile:.  An unknown or
    unreadable one is a config error."""
    n = args.n
    with _rejected((ValueError, OSError)):
        if src == "sphere":
            return RevolutionBody.sphere(args.R, n=n)
        if src.startswith("spheroid:"):
            a, b = (float(v) for v in src.split(":", 1)[1].split(","))
            return RevolutionBody.spheroid(a, b, n=n)
        if src.startswith("cosper:"):
            amp, freq = src.split(":", 1)[1].split(",")
            return RevolutionBody.cos_perturbed(
                n=n, amplitude=float(amp), frequency=int(freq), R=args.R
            )
        if src.startswith("profile:"):
            return RevolutionBody.load_profile(src.split(":", 1)[1])
        raise ValueError(
            f"unknown body {src!r}; expected sphere, spheroid:a,b, "
            "cosper:amp,freq or profile:path"
        )


def _build_spec(args):
    """The ProblemSpec of args: a defaults to k + 1, and the fields that a
    subcommand takes no option for keep ProblemSpec's defaults."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ProblemSpec)
             if getattr(args, f.name, None) is not None}
    given.setdefault("a", args.k + 1.0)
    with _rejected():
        return ProblemSpec(**given)


def _problem(args, src=None, solve=False):
    """(spec, body, solution) of args on the body src, by default --body:
    the closed-form RadialSolution on a sphere unless solve, else a field."""
    src = src or args.body
    spec = _build_spec(args)
    body = _body(args, src)
    if src == "sphere" and not solve:
        return spec, body, RadialSolution(n=args.n, k=args.k, R=args.R)
    return spec, body, _solve(args, spec, body, args.N_s, args.N_theta)


def _header(args):
    """Config hash, then the equation: cnk (where taken; 0 is f = 0) and eps."""
    cnk = f" cnk={args.cnk:g}" if "cnk" in vars(args) else ""
    return f"# config={_config_hash(args)}{cnk} eps={args.eps:g}"


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(args, name, lines):
    """Write the header of args and then lines, one a line, to --out/name;
    returns the path."""
    path = _outdir(args) / name
    path.write_text("\n".join([_header(args), *lines]) + "\n")
    return path


def _t_grid(args):
    """The levels of --t-grid, by default T_GRID; levels that do not parse,
    lie outside [-1, 0) or do not strictly increase are a config error."""
    with _rejected():
        levels = [float(v) for v in args.t_grid.split(",")] if args.t_grid else None
        return level_grid(levels)


def _solve(args, spec, body, N_s, N_theta):
    with _rejected():
        return solve_exterior(body, spec, R_out=args.R_out, N_s=N_s, N_theta=N_theta)


def _levels_on(field, what):
    """A level that the grid of field cannot hold is a config error that
    names the grid."""
    g = field.grid
    return _rejected(LevelOutOfRange, f"{what} (N_s={g.N_s}, N_theta={g.N_theta}): ")


# -- subcommands -------------------------------------------------------


def cmd_matrix_suite(args):
    """The battery draws all its trials in 13 Generator calls, whatever
    --trials is: n in 3..6, k in 1..n-1, the probe entry (i, j), l in 1..n
    and m in 1..l for every trial, then for each size 3..6 the A stack and
    the lam stack of its trials (a seed's draws differ from those of
    versions that drew trial by trial).  It then checks each non-empty
    group of equal shape, (n, k) for the identities and the gradient probe
    and (n, m, l) for the Newton-MacLaurin gaps, with one stacked operation
    per step.  The worst values are max/min reductions, so grouping does
    not change them; newton_maclaurin_min is the smallest gap over the
    trials with m < l."""
    if args.trials < 1:
        _config_error(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        _config_error(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    n = rng.integers(3, 7, size=args.trials)
    k = rng.integers(1, n)
    i, j = rng.integers(0, n, size=(2, args.trials))  # entries of the gradient probes
    ell = rng.integers(1, n + 1)
    m = rng.integers(1, ell + 1)
    worst_identity = worst_grad = 0.0
    worst_nm = np.inf
    for size in range(3, 7):
        on = n == size
        A_on = rng.standard_normal((on.sum(), size, size))
        lam_on = np.abs(rng.standard_normal((on.sum(), size))) + 0.1
        for order in range(1, size):
            group = k[on] == order
            if not group.any():
                continue
            A = symmetrize(A_on[group])
            worst_identity = max(worst_identity,
                                 float(np.max(verify_matrix_identities(A, order))))

            # central difference of S_k along the symmetric direction (i, j),
            # A + h e_ij and A - h e_ij stacked into one sigma_matrix call
            h, b = 1e-6, np.arange(len(A))
            r, c = i[on][group], j[on][group]
            P = np.array([A, A])
            P[:, b, r, c] += [[h], [-h]]
            P[:, b, c, r] = P[:, b, r, c]
            fd = np.subtract(*sigma_matrix(P, order)) / (2 * h)
            g = sigma_grad(A, order)
            analytic = np.where(r != c, g[b, r, c] + g[b, c, r], g[b, r, r])
            err = np.abs(fd - analytic) / np.maximum(1.0, np.abs(fd))
            worst_grad = max(worst_grad, float(np.max(err)))
        for top in range(2, size + 1):  # m = l is a gap of exactly 0
            for low in range(1, top):
                group = (m[on] == low) & (ell[on] == top)
                if group.any():
                    gaps = newton_maclaurin_gap(lam_on[group], low, top)
                    worst_nm = min(worst_nm, float(np.min(gaps)))
    ok = worst_identity <= 1e-10 and worst_grad <= 1e-5 and worst_nm >= -1e-12
    print(f"# config={_config_hash(args)}")
    print(f"trials={args.trials} identity_residual={worst_identity:.3e} "
          f"gradient_fd_error={worst_grad:.3e} newton_maclaurin_min={worst_nm:.3e}")
    print("matrix-suite:", "ok" if ok else "VIOLATION")
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_radial(args):
    spec = _build_spec(args)
    with _rejected():
        sol = RadialSolution(n=args.n, k=args.k, R=args.R)
    limit = limit_bound(spec, sol.rho)
    lines, Fs = ["t,C1,C2,F,limit"], []
    for t in _t_grid(args):
        c1, c2 = weights(t, spec)
        Fs.append(radial_F(sol, t, spec))
        lines.append(f"{t:.12g},{c1:.12g},{c2:.12g},"
                     f"{Fs[-1]:.12g},{limit:.12g}")
    path = _write(args, "radial.csv", lines)
    Fs = np.array(Fs)
    spread = float(Fs.max() - Fs.min())
    print(_header(args))
    print(f"R={args.R} rho={sol.rho:.12g} F_mean={Fs.mean():.12g} "
          f"F_spread={spread:.3e} limit={limit:.12g}")
    print(f"wrote {path}")
    return EXIT_OK if spread <= 1e-10 * max(1.0, abs(Fs.mean())) else EXIT_AUDIT


def cmd_solve(args):
    _, _, field = _problem(args, solve=True)
    path = _outdir(args) / "field.txt"
    # the file stores eps itself, to every digit
    field.save_checkpoint(path, extra_header=f"config={_config_hash(args)}")
    print(_header(args))
    print(f"rho_hat={field.rho_hat:.8g} residual={field.residual_norm:.3e} "
          f"margin={field.admissible:.3e}")
    print(f"factorizations={field.factorizations} "
          f"back_solves={field.back_solves} "
          f"residual_evals={field.residual_evals}")
    print("boundary_rows=body,outer residuals="
          + ",".join(f"{r:.3e}" for r in field.boundary_residuals))
    half = field.unknowns < (field.grid.N_s - 1) * (field.grid.N_theta + 1)
    print(f"newton_unknowns={field.unknowns} meridian={'half' if half else 'full'}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_monotone(args):
    if args.tol_mono is not None and not 0.0 <= args.tol_mono < np.inf:
        _config_error(f"--tol-mono must be finite and >= 0, got {args.tol_mono}")
    ts = _t_grid(args)
    spec, body, field = _problem(args, solve=True)
    with _levels_on(field, "the field"):
        report = monotonicity_audit(field, spec, args.tol_mono or 0.0, t_grid=ts)
    if args.tol_mono is None:
        # Richardson estimate from a companion solve at half the step in s
        # and theta; the audit's F values are the fine half of the pair
        g = field.grid
        if g.N_s % 2 or g.N_theta % 2 or g.N_s < 64 or g.N_theta < 32:
            _config_error(
                f"the N_s/2 Richardson companion (N_s={g.N_s / 2:g}, "
                f"N_theta={g.N_theta / 2:g}) of the grid (N_s={g.N_s}, "
                f"N_theta={g.N_theta}) is not a whole grid of at least (32, 16); "
                "pass --tol-mono instead"
            )
        coarse = _solve(args, spec, body, g.N_s // 2, g.N_theta // 2)
        with _levels_on(coarse, "the N_s/2 Richardson companion"):
            Fc = np.array([F_eval(coarse, t, spec).F for t in ts])
        tol = float(np.max(np.abs(report.F - Fc)) / 3.0)
        report = dataclasses.replace(report, tol_mono=tol)
    rises = [0.0, *np.maximum(np.diff(report.F), 0.0)]
    columns = "t,C1,C2,intHk,intHk1,F,violation,limit_gap"
    path = _write(args, "monotone.csv", [columns] + [
        f"{res.t:.12g},{res.C1:.12g},{res.C2:.12g},{res.int_hk:.12g},"
        f"{res.int_hk1:.12g},{res.F:.12g},{rise:.3e},{res.F - report.limit_value:.12g}"
        for res, rise in zip(report.results, rises)
    ])
    plot = _write(args, "monotone_plot.dat",
                  [f"{t:.12g} {F:.12g}" for t, F in zip(report.t, report.F)])
    print(_header(args))
    print(f"tol_mono={report.tol_mono:.3e} upward={report.upward_violation:.3e} "
          f"limit_gap_min={report.limit_gap_min:.3e} "
          f"constant={report.constant_flag}")
    print(f"wrote {path} and {plot}")
    ok = report.non_increasing and report.limit_respected
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_identities(args):
    spec, body, solution = _problem(args)
    rows = ledger(solution, body, spec)
    path = _write(args, "ledger.csv", ["name,lhs,rhs,gap,verdict,tolerance"] + [
        f"{e.name},{e.lhs:.12g},{e.rhs:.12g},"
        f"{e.residual_or_gap:.12g},{e.verdict},{e.tolerance:g}"
        for e in rows
    ])
    print(_header(args))
    for e in rows:
        print(f"{e.name}: {e.verdict} (gap {e.residual_or_gap:.3e})")
    print(f"wrote {path}")
    bad = any(e.verdict == VIOLATED for e in rows)
    return EXIT_AUDIT if bad else EXIT_OK


def cmd_certify(args):
    spec, body, solution = _problem(args)
    report = certify_ball(solution, body, spec)
    print(_header(args))
    print(f"verdict={report.verdict} gradient_spread={report.gradient_spread:.3e} "
          f"profile_deviation={report.profile_deviation:.3e} "
          f"squeeze_rel={report.squeeze_rel:.3e}")
    return EXIT_OK


def cmd_report(args):
    status = EXIT_OK
    lines = []
    for src in ("sphere", "spheroid:1.2,1", "cosper:0.05,2"):
        spec, body, solution = _problem(args, src)
        cert, rows = report(solution, body, spec)
        bad = [e.name for e in rows if e.verdict == VIOLATED]
        if bad:
            status = EXIT_AUDIT
        lines.append(
            f"{src}: verdict={cert.verdict} spread={cert.gradient_spread:.3e} "
            f"violations={','.join(bad) if bad else 'none'}"
        )
    path = _write(args, "report.txt", lines)
    print(_header(args))
    print("\n".join(lines))
    print(f"wrote {path}")
    return status


# -- parser ------------------------------------------------------------


#: argparse settings of every option; ProblemSpec owns the defaults of its
#: fields.
_OPTIONS = {
    "--trials": dict(type=int, default=10000),
    "--seed": dict(type=int, default=0),
    "--n": dict(type=int, required=True),
    "--k": dict(type=int, required=True),
    "--R": dict(type=float, default=1.0),
    "--eps": dict(type=float, default=ProblemSpec.eps),
    "--a": dict(type=float, default=None),
    "--C3": dict(type=float, default=ProblemSpec.C3),
    "--C4": dict(type=float, default=ProblemSpec.C4),
    "--body": dict(type=str, default="sphere"),
    "--cnk": dict(type=float, default=ProblemSpec.cnk),
    "--N-s": dict(type=int, default=128),
    "--N-theta": dict(type=int, default=None),
    "--R-out": dict(type=float, default=None),
    "--t-grid": dict(type=str, default=None),
    "--tol-mono": dict(type=float, default=None),
    "--out": dict(type=str, default="hesslab-out"),
}

_PROBLEM = ("--n", "--k", "--R", "--eps")
_WEIGHTS = ("--a", "--C3", "--C4")
_GRID = ("--cnk", "--N-s", "--N-theta", "--R-out")

#: (name, handler, help, options) of each subcommand: the options are the
#: ones its computation or its header reads.
_SUBCOMMANDS = (
    ("matrix-suite", cmd_matrix_suite, "symmetric-function battery",
     ("--trials", "--seed")),
    ("radial", cmd_radial, "radial oracle table",
     _PROBLEM + _WEIGHTS + ("--t-grid", "--out")),
    ("solve", cmd_solve, "solve and save a field checkpoint",
     _PROBLEM + ("--body",) + _GRID + ("--out",)),
    ("monotone", cmd_monotone, "F(t) audit table",
     _PROBLEM + _WEIGHTS + ("--body",) + _GRID
     + ("--t-grid", "--tol-mono", "--out")),
    ("identities", cmd_identities, "identity and inequality ledger",
     _PROBLEM + ("--a", "--body") + _GRID + ("--out",)),
    ("certify", cmd_certify, "ball certification verdict",
     _PROBLEM + ("--body",) + _GRID),
    ("report", cmd_report, "aggregate body battery",
     _PROBLEM + ("--a",) + _GRID + ("--out",)),
)


@cache
def build_parser():
    """The parser of every subcommand, built once per process: run only
    reads it, and each parse_args returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="hesslab",
        description="Exterior k-Hessian potential laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except HesslabError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
