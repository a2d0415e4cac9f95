import argparse
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from hesslab import cli, identities, monotone
from hesslab.errors import NewtonStall
from hesslab.solver import AxiGrid, ExteriorField
from hesslab.surfaces import RevolutionBody
from hesslab.symfunc import (
    newton_maclaurin_gap,
    sigma_grad,
    sigma_matrix,
    verify_matrix_identities,
)
from oracles import save_profile


#: The options of each subcommand: the ones its computation or its header
#: reads, 66 in all.
PROBLEM = {"--n", "--k", "--R", "--eps"}
GRID = {"--cnk", "--N-s", "--N-theta", "--R-out"}
OPTIONS = {
    "matrix-suite": {"--trials", "--seed"},
    "radial": PROBLEM | {"--a", "--C3", "--C4", "--t-grid", "--out"},
    "solve": PROBLEM | GRID | {"--body", "--out"},
    "monotone": PROBLEM | GRID | {"--a", "--C3", "--C4", "--body", "--t-grid",
                                  "--tol-mono", "--out"},
    "identities": PROBLEM | GRID | {"--a", "--body", "--out"},
    "certify": PROBLEM | GRID | {"--body"},
    "report": PROBLEM | GRID | {"--a", "--out"},
}


class TestOptions:
    def test_each_subcommand_registers_what_it_reads(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {flag for action in p._actions if action.dest != "help"
                   for flag in action.option_strings}
            for name, p in sub.choices.items()
        }
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 66

    def test_hash_does_not_depend_on_out(self, tmp_path, capsys):
        # the same run in two directories, and a run with another a
        heads = []
        for a, sub in (("2", "one"), ("2", "two"), ("3", "one")):
            code = cli.run(["radial", "--n", "5", "--k", "2", "--R", "1",
                            "--a", a, "--out", str(tmp_path / sub)])
            assert code == cli.EXIT_OK
            heads.append((tmp_path / sub / "radial.csv").read_text().splitlines()[0])
        assert heads[0] == heads[1] != heads[2]

    def test_one_parser_per_process(self, tmp_path, capsys):
        # the parser is built once; a run leaves nothing in it for the next
        # run, whose header is that of a parse on a freshly built parser
        assert cli.build_parser() is cli.build_parser()
        argv = ["radial", "--n", "5", "--k", "2", "--out", str(tmp_path)]
        assert cli.run([*argv, "--a", "3"]) == cli.EXIT_OK
        assert cli.run(argv) == cli.EXIT_OK
        header = (tmp_path / "radial.csv").read_text().splitlines()[0]
        fresh = cli.build_parser.__wrapped__().parse_args(argv)
        assert header == cli._header(fresh)
        assert fresh.a is None

    #: a run of each file-writing subcommand and the files it writes
    WRITERS = {
        "radial": (["--n", "5", "--k", "2", "--a", "2"], ["radial.csv"]),
        "solve": (["--body", "sphere", "--n", "3", "--k", "1", "--N-s", "32"],
                  ["field.txt"]),
        "monotone": (["--body", "spheroid:1.5,1", "--n", "3", "--k", "1",
                      "--N-s", "64", "--t-grid=-0.8,-0.5,-0.3"],
                     ["monotone.csv", "monotone_plot.dat"]),
        "identities": (["--body", "sphere", "--n", "5", "--k", "2", "--a", "2"],
                       ["ledger.csv"]),
        "report": (["--n", "3", "--k", "1", "--a", "1", "--N-s", "64"],
                   ["report.txt"]),
    }

    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_files_do_not_depend_on_out(self, command, tmp_path, capsys):
        # the same run in two directories writes the same bytes, and each
        # file opens with the header line that the run prints first
        argv, names = self.WRITERS[command]
        printed = []
        for sub in ("one", "two"):
            code = cli.run([command, *argv, "--out", str(tmp_path / sub)])
            assert code == cli.EXIT_OK
            printed.append(capsys.readouterr().out.splitlines()[0])
        assert printed[0] == printed[1]
        for name in names:
            one, two = ((tmp_path / sub / name).read_bytes() for sub in ("one", "two"))
            assert one == two
            first = one.decode().splitlines()[0]
            if name == "field.txt":  # the checkpoint's header holds every token
                kv = dict(tok.split("=") for tok in first.split()[3:])
                first = (f"# config={kv['config']} cnk={float(kv['cnk']):g} "
                         f"eps={float(kv['eps']):g}")
            assert first == printed[0]


class TestMatrixSuite:
    def test_passes(self, capsys):
        code = cli.run(["matrix-suite", "--trials", "200", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "matrix-suite: ok" in out
        assert "# config=" in out

    def test_deterministic(self, capsys):
        cli.run(["matrix-suite", "--trials", "50", "--seed", "7"])
        first = capsys.readouterr().out
        cli.run(["matrix-suite", "--trials", "50", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    @staticmethod
    def full_draws(seed, trials):
        """(n, A, k, (i, j), lam, ell, m) of each trial, drawn in the
        battery's block schedule: n, k, the probe entries, ell and m of
        every trial, then the A and lam stacks of each size 3..6; A is
        symmetrised and lam shifted to |lam| + 0.1 trial by trial."""
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 7, size=trials)
        k = rng.integers(1, n)
        probe = rng.integers(0, n, size=(2, trials)).T
        ell = rng.integers(1, n + 1)
        m = rng.integers(1, ell + 1)
        A, lam = [None] * trials, [None] * trials
        for size in range(3, 7):
            on = np.flatnonzero(n == size)
            for t, a in zip(on, rng.standard_normal((len(on), size, size))):
                A[t] = a
            for t, v in zip(on, rng.standard_normal((len(on), size))):
                lam[t] = v
        for t in range(trials):
            yield (int(n[t]), (A[t] + A[t].T) / 2.0, int(k[t]), probe[t],
                   np.abs(lam[t]) + 0.1, int(ell[t]), int(m[t]))

    @classmethod
    def draws(cls, seed, trials):
        """(n, k, lam, ell, m) of each trial, drawn in the battery's order."""
        for n, _, k, _, lam, ell, m in cls.full_draws(seed, trials):
            yield n, k, lam, ell, m

    @classmethod
    def per_trial_line(cls, seed, trials):
        """The battery's result line, rebuilt with its per-trial work: a
        trial symmetrises and shifts its own draws, and each (n, k) group
        makes one public call per function, with separate sigma_matrix
        calls on A + h e_ij and A - h e_ij."""
        by_nk, by_nml = {}, {}
        for n, A, k, probe, lam, ell, m in cls.full_draws(seed, trials):
            by_nk.setdefault((n, k), []).append((A, *probe))
            if m < ell:
                by_nml.setdefault((n, m, ell), []).append(lam)
        worst_identity = worst_grad = 0.0
        for (n, k), group in by_nk.items():
            A, i, j = (np.array(x) for x in zip(*group))
            worst_identity = max(worst_identity,
                                 float(np.max(verify_matrix_identities(A, k))))
            h, b = 1e-6, np.arange(len(group))
            Ap, Am = A.copy(), A.copy()
            Ap[b, i, j] += h
            Ap[b, j, i] = Ap[b, i, j]
            Am[b, i, j] -= h
            Am[b, j, i] = Am[b, i, j]
            fd = (sigma_matrix(Ap, k) - sigma_matrix(Am, k)) / (2 * h)
            g = sigma_grad(A, k)
            analytic = np.where(i != j, g[b, i, j] + g[b, j, i], g[b, i, i])
            err = np.abs(fd - analytic) / np.maximum(1.0, np.abs(fd))
            worst_grad = max(worst_grad, float(np.max(err)))
        worst_nm = min((float(np.min(newton_maclaurin_gap(np.array(lams), m, ell)))
                        for (n, m, ell), lams in by_nml.items()), default=np.inf)
        return (f"trials={trials} identity_residual={worst_identity:.3e} "
                f"gradient_fd_error={worst_grad:.3e} "
                f"newton_maclaurin_min={worst_nm:.3e}")

    @pytest.mark.parametrize("trials", [1, 50, 300])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_line_equals_per_trial_battery(self, seed, trials, capsys):
        # stacking the per-trial work by group keeps the RNG stream and
        # every value bit for bit
        cli.run(["matrix-suite", "--trials", str(trials), "--seed", str(seed)])
        line = capsys.readouterr().out.splitlines()[1]
        assert line == self.per_trial_line(seed, trials)

    def test_newton_maclaurin_min_is_smallest_gap(self, capsys):
        cli.run(["matrix-suite", "--trials", "300", "--seed", "11"])
        out = capsys.readouterr().out
        printed = float(out.split("newton_maclaurin_min=")[1].split()[0])
        want = min(newton_maclaurin_gap(lam, m, ell)
                   for _, _, lam, ell, m in self.draws(11, 300) if m < ell)
        assert printed > 0.0
        assert f"{printed:.3e}" == f"{want:.3e}"

    def test_eigen_calls_per_group(self, capsys, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, fn=fn, **kw: calls.append(1) or fn(*a, **kw))
        assert cli.run(["matrix-suite", "--trials", "200", "--seed", "3"]) == cli.EXIT_OK
        groups = {(n, k) for n, k, *_ in self.draws(3, 200)}
        assert 0 < len(calls) <= 5 * len(groups)

    def test_eigen_calls_per_group_with_stacked_probe(self, capsys, monkeypatch):
        # both sides of the central difference share one sigma_matrix call
        calls = []
        for name in ("eigvalsh", "eigh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, fn=fn, **kw: calls.append(1) or fn(*a, **kw))
        assert cli.run(["matrix-suite", "--trials", "200", "--seed", "3"]) == cli.EXIT_OK
        groups = {(n, k) for n, k, *_ in self.draws(3, 200)}
        assert 0 < len(calls) <= 4 * len(groups)

    @pytest.mark.parametrize("trials", [50, 5000])
    def test_block_draws(self, trials, capsys, monkeypatch):
        # 13 Generator calls whatever the battery's size, and one public
        # symfunc call per non-empty group
        draws, calls = [], []

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                fn = getattr(self.rng, name)
                return lambda *a, **kw: draws.append(name) or fn(*a, **kw)

        default_rng = cli.np.random.default_rng
        monkeypatch.setattr(cli.np.random, "default_rng",
                            lambda seed: Counted(default_rng(seed)))
        for name in ("symmetrize", "verify_matrix_identities", "sigma_matrix",
                     "sigma_grad", "newton_maclaurin_gap"):
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, name=name, fn=fn, **kw:
                                calls.append(name) or fn(*a, **kw))
        assert cli.run(["matrix-suite", "--trials", str(trials), "--seed", "5"]) == 0
        assert Counter(draws) == {"integers": 5, "standard_normal": 8}
        trial = list(self.draws(5, trials))
        nk = len({(n, k) for n, k, *_ in trial})
        nml = len({(n, m, ell) for n, _, _, ell, m in trial if m < ell})
        assert Counter(calls) == {
            "symmetrize": nk, "verify_matrix_identities": nk, "sigma_matrix": nk,
            "sigma_grad": nk, "newton_maclaurin_gap": nml}

    def test_no_gap_trial(self, capsys):
        # two trials, neither with m < l: every empty group is skipped
        assert cli.run(["matrix-suite", "--trials", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "newton_maclaurin_min=inf" in out
        assert out.rstrip().endswith("matrix-suite: ok")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, trials, capsys):
        # a battery of no trials checks nothing and may not print ok
        assert cli.run(["matrix-suite", "--trials", trials]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "config_errors": [f"--trials must be >= 1, got {trials}"]}

    def test_negative_seed_exits_2(self, capsys):
        # numpy refuses a negative seed; the battery says so as a config error
        assert cli.run(["matrix-suite", "--trials", "10", "--seed", "-1"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"config_errors": ["--seed must be >= 0, got -1"]}


@pytest.mark.parametrize("argv,message", [
    (["radial", "--n", "5", "--k", "2", "--R", "-1"], "ball radius must be positive"),
    (["radial", "--n", "5", "--k", "2", "--R", "0"], "ball radius must be positive"),
    (["radial", "--n", "5", "--k", "2", "--t-grid=-0.5,0"],
     "levels must lie in [-1, 0)"),
    (["monotone", "--body", "sphere", "--n", "3", "--k", "1", "--N-s", "32",
      "--t-grid=-0.5,abc"], "could not convert string to float: 'abc'"),
    (["monotone", "--body", "spheroid:1.5,1", "--n", "3", "--k", "1", "--N-s", "64",
      "--t-grid=-0.25,-0.5,-0.9", "--tol-mono", "1e-6"], "levels must strictly increase"),
], ids=["R<0", "R=0", "t=0", "t=abc", "t-decreasing"])
def test_input_errors_exit_2(argv, message, tmp_path, capsys):
    # a bad value of an option is a config error, not a traceback
    code = cli.run([*argv, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err) == {"config_errors": [message]}


NEED_FINITE = "need finite a, C3, C4, eps and cnk >= 0"
NOT_FINITE_BODY = "profile gamma, gamma' and gamma'' must be finite"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    (["solve", "--eps", "nan"], NEED_FINITE),
    (["solve", "--cnk", "nan"], NEED_FINITE),
    (["solve", "--cnk", "-1"], NEED_FINITE),
    (["monotone", "--C3", "nan", "--tol-mono", "1e-6"], NEED_FINITE),
    (["monotone", "--a", "nan", "--tol-mono", "1e-6"], NEED_FINITE),
    (["radial", "--C4", "nan"], NEED_FINITE),
    (["radial", "--R", "nan"], "ball radius must be finite, got nan"),
    (["certify", "--R", "nan"], NOT_FINITE_BODY),
    (["solve", "--R", "nan"], NOT_FINITE_BODY),
    (["solve", "--body", "spheroid:nan,1"], NOT_FINITE_BODY),
    (["solve", "--R-out", "nan"],
     "R_out = nan below 10 * max profile radius 1.0, or not finite"),
    (["solve", "--R-out", "inf"],
     "R_out = inf below 10 * max profile radius 1.0, or not finite"),
    (["monotone", "--tol-mono", "nan"], "--tol-mono must be finite and >= 0, got nan"),
    (["monotone", "--tol-mono", "-1"], "--tol-mono must be finite and >= 0, got -1.0"),
], ids=["eps-nan", "cnk-nan", "cnk<0", "C3-nan", "a-nan", "C4-nan", "radial-R-nan",
        "certify-R-nan", "solve-R-nan", "spheroid-nan", "R_out-nan", "R_out-inf",
        "tol-mono-nan", "tol-mono<0"])
def test_non_finite_options_exit_2(argv, message, tmp_path, capsys):
    # a non-finite value, or a negative cnk or tolerance, is refused before
    # it reaches a solve or an audit
    command, *options = argv
    grid = [] if command == "radial" else ["--N-s", "32"]
    out = [] if command == "certify" else ["--out", str(tmp_path)]
    code = cli.run([command, "--n", "3", "--k", "1", *grid, *options, *out])
    assert code == cli.EXIT_CONFIG
    (got,) = json.loads(capsys.readouterr().err)["config_errors"]
    assert got.startswith(message)


class TestRadial:
    def test_half_s4_value(self, tmp_path, capsys):
        code = cli.run([
            "radial", "--n", "5", "--k", "2", "--R", "1", "--a", "2",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "13.159" in out
        csv = (tmp_path / "radial.csv").read_text()
        assert csv.startswith("# config=")
        assert csv.splitlines()[0].endswith(" eps=0.02")
        assert csv.splitlines()[1] == "t,C1,C2,F,limit"

    def test_invalid_order_exits_2(self, tmp_path, capsys):
        code = cli.run([
            "radial", "--n", "3", "--k", "2", "--R", "1",
            "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "config_errors" in err


class TestSolve:
    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "sphere", "--R", "1", "--n", "3", "--k", "1",
            "--N-s", "64", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        field = ExteriorField.load_checkpoint(tmp_path / "field.txt")
        assert field.rho_hat == pytest.approx(1.0, abs=1e-2)
        header = (tmp_path / "field.txt").read_text().splitlines()[0]
        assert "config=" in header and "eps=0.02" in header

    def test_checkpoint_bytes(self, tmp_path, capsys):
        # the CLI header tokens go through save_checkpoint, whose output
        # for a loaded field is the CLI's file byte for byte
        code = cli.run([
            "solve", "--body", "spheroid:1.5,1", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        written = (tmp_path / "field.txt").read_text()
        header = written.splitlines()[0].split()
        assert header[-1].startswith("config=")
        field = ExteriorField.load_checkpoint(tmp_path / "field.txt")
        field.save_checkpoint(tmp_path / "again.txt", extra_header=header[-1])
        assert (tmp_path / "again.txt").read_text() == written

    def test_prints_solve_counters(self, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "sphere", "--R", "1", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        line = next(ln for ln in out.splitlines() if ln.startswith("factor"))
        counts = dict(tok.split("=") for tok in line.split())
        assert set(counts) == {"factorizations", "back_solves", "residual_evals"}
        assert int(counts["factorizations"]) == 1
        assert int(counts["back_solves"]) >= 1

    def test_prints_boundary_rows(self, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "sphere", "--R", "1", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("boundary_rows="))
        record = dict(tok.split("=") for tok in line.split())
        assert set(record) == {"boundary_rows", "residuals"}
        assert record["boundary_rows"] == "body,outer"
        residuals = [float(r) for r in record["residuals"].split(",")]
        assert len(residuals) == 2 and max(residuals) <= 1e-14

    def test_header_names_the_homogeneous_equation(self, tmp_path, capsys):
        # cnk = 0 is f = 0 whatever eps is: the header says which equation
        # was solved, and the checkpoint stores it
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1", "--N-s", "32",
            "--cnk", "0", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].split()[2:] == ["cnk=0", "eps=0.02"]
        assert out[1].endswith(" margin=inf")  # k = 1 has no cone condition
        assert ExteriorField.load_checkpoint(tmp_path / "field.txt").cnk == 0.0
        code = cli.run(["radial", "--n", "5", "--k", "2", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert "cnk=" not in capsys.readouterr().out  # radial takes no --cnk

    def test_unknown_body_exits_2(self, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "cube", "--n", "3", "--k", "1",
            "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG

    def test_eps_round_trip(self, tmp_path, capsys):
        # the header prints eps at %g; the checkpoint keeps every digit
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1", "--N-s", "32",
            "--eps", "0.0123456789", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0].endswith(" eps=0.0123457")
        assert ExteriorField.load_checkpoint(tmp_path / "field.txt").eps == 0.0123456789

    @pytest.mark.parametrize("eps", ["0", "-0.02"])
    def test_non_positive_eps_exits_2(self, eps, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1", "--N-s", "32",
            "--eps", eps, "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert "eps > 0" in capsys.readouterr().err

    def test_short_truncation_exits_2(self, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1", "--N-s", "32",
            "--R-out", "5", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert "R_out = 5.0 below 10 * max profile radius" in capsys.readouterr().err

    def test_profile_body(self, tmp_path, capsys):
        # a saved spheroid profile solves to the prolate capacity
        path = tmp_path / "profile.txt"
        save_profile(RevolutionBody.spheroid(1.5, 1.0, n=3), path)
        code = cli.run([
            "solve", "--body", f"profile:{path}", "--n", "3", "--k", "1",
            "--N-s", "64", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        f = np.sqrt(1.5**2 - 1.0)
        field = ExteriorField.load_checkpoint(tmp_path / "field.txt")
        assert field.rho_hat == pytest.approx(f / np.arctanh(f / 1.5), abs=1e-2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text,message", [
        ("n=3\n", "rows of theta and gamma"),
        ("n=3\n0\n1\n2\n3.141592653589793\n", "rows of theta and gamma"),
        ("n=3\n0 1\n0.5 1\n1 1\n2 1\n", "from 0 to pi"),
        ("\n0 1\n3.141592653589793 1\n", "not a revolution-profile file"),
    ], ids=["empty", "one-column", "theta-to-2", "no-dimension"])
    def test_malformed_profile_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "profile.txt"
        path.write_text("# revolution-profile v1 " + text)
        code = cli.run([
            "solve", "--body", f"profile:{path}", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unordered_profile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "profile.txt"
        path.write_text("# revolution-profile v1 n=3\n0 1\n1 1\n1 1\n"
                        "3.141592653589793 1\n")
        code = cli.run([
            "solve", "--body", f"profile:{path}", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert "strictly increasing" in capsys.readouterr().err

    def test_singular_newton_jacobian_exits_3(self, tmp_path, monkeypatch, capsys):
        # an exact zero pivot of the band LU is a stall that names the
        # residual and the pivot's node: the
        # sphere solves on the half meridian, rows of W = 16/2 + 1 = 9
        # nodes, so pivot 5 is the fifth node of the first interior row
        import scipy.linalg.lapack

        def singular(ab, *args, **kwargs):
            return ab, None, 5  # info = 5: U[4, 4] is exactly zero

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver failure: singular Newton Jacobian at residual ")
        assert float(err.split("residual ")[1].split()[0]) > 0.0
        assert "(zero pivot at s-row 1, theta column 4)" in err

    @pytest.mark.parametrize("N_s", ["2", "7"])
    def test_grid_coarser_than_shell_exits_2(self, N_s, tmp_path, capsys):
        # no node row in the far-field shell leaves rho nothing to fit
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1",
            "--N-s", N_s, "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        message, = json.loads(capsys.readouterr().err)["config_errors"]
        assert message.startswith("the far-field shell r in [0.6, 0.8]*R_out")
        assert f"N_s={N_s} grid" in message

    @pytest.mark.parametrize("grid,named", [
        (["--N-s", "16", "--N-theta", "0"], "N_theta=0"),
        (["--N-s", "0"], "N_s=0"),
        (["--N-s", "-8"], "N_s=-8"),
    ], ids=["N_theta=0", "N_s=0", "N_s=-8"])
    def test_degenerate_grid_count_exits_2(self, grid, named, tmp_path, capsys):
        # a count below 1 is refused before 1/N_s or pi/N_theta is taken
        code = cli.run(["solve", "--body", "sphere", "--n", "3", "--k", "1",
                        *grid, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        message, = json.loads(capsys.readouterr().err)["config_errors"]
        assert message.startswith("grid counts must be >= 1") and named in message

    @pytest.mark.parametrize("grid,line", [
        (["--N-s", "32"], "newton_unknowns=279 meridian=half"),
        (["--N-s", "32", "--N-theta", "33"], "newton_unknowns=1054 meridian=full"),
    ], ids=["even", "odd-N_theta"])
    def test_prints_newton_unknowns(self, grid, line, tmp_path, capsys):
        # (N_s - 1)(N_theta/2 + 1) = 31 * 9 on the half meridian, and
        # (N_s - 1)(N_theta + 1) = 31 * 34 on the full one
        code = cli.run(["solve", "--body", "sphere", "--R", "1", "--n", "3",
                        "--k", "1", *grid, "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("boundary_rows="))
        assert lines[i + 1] == line

    def test_coarsest_grid_with_shell_solves(self, tmp_path, capsys):
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1",
            "--N-s", "8", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        assert (tmp_path / "field.txt").exists()

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NewtonStall("no admissible step")

        monkeypatch.setattr(cli, "solve_exterior", boom)
        code = cli.run([
            "solve", "--body", "sphere", "--n", "3", "--k", "1",
            "--N-s", "32", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_SOLVER


class TestMonotone:
    def test_spheroid_csv(self, tmp_path, capsys):
        code = cli.run([
            "monotone", "--body", "spheroid:1.5,1", "--n", "3", "--k", "1",
            "--a", "2", "--N-s", "128",
            "--t-grid=-0.9,-0.7,-0.5,-0.3", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "monotone.csv").read_text().splitlines()
        assert lines[1] == "t,C1,C2,intHk,intHk1,F,violation,limit_gap"
        Fs = [float(row.split(",")[5]) for row in lines[2:]]
        assert all(b <= a + 1e-8 for a, b in zip(Fs, Fs[1:]))
        plot = (tmp_path / "monotone_plot.dat").read_text().splitlines()
        assert len(plot[1].split()) == 2

    def test_level_outside_companion_grid_exits_2(self, tmp_path, capsys):
        # the default levels start at -0.9; at N_s = 64 the field holds it,
        # but the first interior row of its N_s = 32 companion is at -0.879
        code = cli.run([
            "monotone", "--body", "cosper:0.05,2", "--n", "3", "--k", "1",
            "--N-s", "64", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "Richardson companion (N_s=32, N_theta=16)" in err
        assert "level -0.9 " in err and "holds the levels in (-0.87" in err

    @pytest.mark.parametrize("grid,companion", [
        (["--N-s", "32"], "(N_s=16, N_theta=8)"),
        (["--N-s", "48"], "(N_s=24, N_theta=12)"),
        (["--N-s", "64", "--N-theta", "33"], "(N_s=32, N_theta=16.5)"),
    ], ids=["N_s=32", "N_s=48", "N_theta=33"])
    def test_companion_not_at_half_the_step_exits_2(self, grid, companion,
                                                    tmp_path, monkeypatch, capsys):
        # the Richardson tolerance's / 3 assumes a companion at exactly half
        # the step: a grid that does not halve into one of at least (32, 16)
        # is refused before any companion solve
        solves = []
        real = cli.solve_exterior
        monkeypatch.setattr(cli, "solve_exterior",
                            lambda *a, **kw: solves.append(kw["N_s"]) or real(*a, **kw))
        code = cli.run([
            "monotone", "--body", "sphere", "--n", "3", "--k", "1", *grid,
            "--t-grid=-0.8,-0.5,-0.3", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"Richardson companion {companion}" in err
        assert "pass --tol-mono" in err
        assert solves == [int(grid[1])]

    def test_level_sets_not_graphs_exit_3(self, tmp_path, monkeypatch, capsys):
        # u falls in s on theta column 3 only, so the level sets of the
        # field are not graphs over theta: the star-shape check refuses it
        def dented_field(body, spec, R_out=None, N_s=256, N_theta=None):
            grid = AxiGrid(body, 40.0, N_s, N_theta)
            u = np.tile(-1.0 + 0.9 * grid.s[:, None], (1, N_theta + 1))
            u[:, 3] += 0.3 * np.exp(-(((grid.s - 0.5) / 0.05) ** 2))
            return ExteriorField(grid=grid, u=u, k=spec.k, eps=0.02, rho_hat=1.0)

        monkeypatch.setattr(cli, "solve_exterior", dented_field)
        code = cli.run([
            "monotone", "--body", "sphere", "--n", "3", "--k", "1",
            "--N-s", "32", "--N-theta", "16", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_SOLVER
        assert "strictly increase in s on theta column 3 " in capsys.readouterr().err

    def test_one_F_eval_per_level_per_field(self, tmp_path, monkeypatch,
                                            capsys):
        calls = {}
        real = monotone.F_eval

        def counting(field, t, spec):
            key = (field.grid.N_s, float(t))
            calls[key] = calls.get(key, 0) + 1
            return real(field, t, spec)

        monkeypatch.setattr(monotone, "F_eval", counting)
        monkeypatch.setattr(cli, "F_eval", counting)
        ts = [-0.8, -0.6, -0.4, -0.3]
        code = cli.run([
            "monotone", "--body", "spheroid:1.5,1", "--n", "3", "--k", "1",
            "--N-s", "64", "--t-grid=" + ",".join(map(str, ts)),
            "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        # the fine field and its half-resolution Richardson companion
        assert calls == {(N, t): 1 for N in (64, 32) for t in ts}
        rows = (tmp_path / "monotone.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == ts
        for row in rows:
            _, c1, c2, int_hk, int_hk1, F = map(float, row.split(",")[:6])
            assert F == pytest.approx(c1 * int_hk + c2 * int_hk1, rel=1e-9)


class TestIdentities:
    def test_sphere_ledger(self, tmp_path, capsys):
        code = cli.run([
            "identities", "--body", "sphere", "--n", "5", "--k", "2",
            "--a", "2", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "gradient-energy-balance: identity-ok" in out
        csv = (tmp_path / "ledger.csv").read_text()
        assert "name,lhs,rhs,gap,verdict,tolerance" in csv

    def test_spheroid_k2_ledger(self, tmp_path, capsys):
        # |grad u| varies by 14% on the boundary: the balances do not apply,
        # and the rest of the ledger still prints
        code = cli.run([
            "identities", "--body", "spheroid:1.2,1", "--n", "5", "--k", "2",
            "--N-s", "64", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "gradient-energy-balance: not-applicable" in out
        assert "rellich-pohozaev-balance: not-applicable" in out
        assert "capacity-lower-bound: inequality-ok" in out


class TestCertify:
    def test_sphere_certified(self, capsys):
        code = cli.run([
            "certify", "--body", "sphere", "--R", "1", "--n", "3", "--k", "1",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "verdict=certified-ball" in out

    def test_spheroid_not_overdetermined(self, capsys):
        code = cli.run([
            "certify", "--body", "spheroid:1.5,1", "--n", "3", "--k", "1",
            "--N-s", "64",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "verdict=certified-not-overdetermined" in out

    def test_singular_ghost_row_exits_3(self, monkeypatch, capsys):
        # on a constant u, S_2 does not depend on U_ss on the body row
        def constant_field(body, spec, R_out=None, N_s=256, N_theta=None):
            grid = AxiGrid(body, 40.0, N_s, N_theta)
            return ExteriorField(grid=grid, u=np.full((N_s + 1, N_theta + 1), -1.0),
                                 k=spec.k, eps=0.02, rho_hat=1.0)

        monkeypatch.setattr(cli, "solve_exterior", constant_field)
        code = cli.run([
            "certify", "--body", "spheroid:1.2,1", "--n", "5", "--k", "2",
            "--N-s", "32", "--N-theta", "16",
        ])
        assert code == cli.EXIT_SOLVER
        assert ("boundary row at s = 0: dS_k/dU_ss = 0.000e+00 at theta column 0"
                in capsys.readouterr().err)

    def test_nan_next_to_the_body_exits_3(self, monkeypatch, capsys):
        # a NaN in the first interior row makes dS_k/dU_ss on the body row
        # non-finite: a solver failure, not a ZeroDivisionError
        def nan_field(body, spec, R_out=None, N_s=256, N_theta=None):
            grid = AxiGrid(body, 40.0, N_s, N_theta)
            u = -(grid.r_nodes ** -0.5)
            u[1, 5] = np.nan
            return ExteriorField(grid=grid, u=u, k=spec.k, eps=0.02, rho_hat=1.0)

        monkeypatch.setattr(cli, "solve_exterior", nan_field)
        code = cli.run([
            "certify", "--body", "spheroid:1.2,1", "--n", "5", "--k", "2",
            "--N-s", "32", "--N-theta", "16",
        ])
        assert code == cli.EXIT_SOLVER
        assert ("boundary row at s = 0: dS_k/dU_ss = nan at theta column 4"
                in capsys.readouterr().err)


class TestReport:
    def test_battery(self, tmp_path, capsys):
        code = cli.run([
            "report", "--n", "3", "--k", "1", "--a", "1", "--N-s", "64",
            "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        text = (tmp_path / "report.txt").read_text()
        assert "sphere: verdict=certified-ball" in text
        assert "certified-not-overdetermined" in text

    def test_violated_row_exits_4(self, tmp_path, capsys, monkeypatch):
        # one violated ledger row on the second body fails the battery and
        # is named on that body's line alone
        real = cli.report
        calls = []

        def planted(solution, body, spec):
            cert, rows = real(solution, body, spec)
            calls.append(body)
            if len(calls) == 2:
                rows = [*rows, dataclasses.replace(rows[0], name="planted",
                                                   verdict=identities.VIOLATED)]
            return cert, rows

        monkeypatch.setattr(cli, "report", planted)
        code = cli.run([
            "report", "--n", "3", "--k", "1", "--a", "1", "--N-s", "32",
            "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_AUDIT
        lines = (tmp_path / "report.txt").read_text().splitlines()[1:]
        assert [ln.split()[-1] for ln in lines] == [
            "violations=none", "violations=planted", "violations=none"]
