"""Benchmark of hesslab: one workload, one seed, one process.

    python3 hessbench/run.py --workload solve_k1 --seed 0 --seconds 25 --trace 0

run from the repository root.  With --trace 0 it reports the end-to-end
metrics (setup_s, op_s_p50, peak_rss_mb); with --trace 1 it wraps the
public functions of every hesslab module, alternates traced and untraced
ops, and reports per-layer counts and self times and the cost of tracing
instead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".hessbench-out"
TRACE_DIR = ROOT / ".hessbench-traces"
WORKLOAD_NAMES = ("solve_k1", "solve_k2", "audit", "matrix_suite")

#: Fresh child processes that repeat the set-up, half before the ops and
#: half after; setup_s is the median of their times and this process's.
SETUP_PROBES = 2

#: Seconds `calibrate()` takes at the reference speed (its median on a
#: 2-vCPU Xeon at 2.1 GHz with Python 3.11).  setup_s and op_s_p50 are
#: wall times scaled to this speed: on a shared machine whose speed drifts
#: by up to 2x over tens of seconds, the scaled figures hold where raw wall
#: times do not (see README).
CAL_REF_S = 0.05


@functools.cache
def _calibration_inputs():
    import numpy as np

    a = np.arange(36.0).reshape(6, 6) % 7.0
    a = a + a.T
    np.linalg.eigvalsh(a)  # the first call of a process loads LAPACK
    np.linalg.det(a[:3, :3])
    # about 11 MB, beyond the per-core caches, visited in shuffled order
    table = {k: float(k) for k in range(100_000)}
    order = [int(k) for k in np.random.default_rng(0).permutation(100_000)]
    return a, table, order


def calibrate():
    """Wall seconds of a fixed kernel of interpreter and small-numpy work.

    It does not touch hesslab, so a change to the program leaves it alone,
    while a slow phase of the machine, in the core or in the caches it
    shares, slows it as it slows the ops.
    """
    import numpy as np

    a, table, order = _calibration_inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(300):
        np.linalg.eigvalsh(a)
        np.linalg.det(a[:3, :3])
    total = 0.0
    for k in order:
        total += table[k]
    return time.perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def setup(args, tracer=None):
    """Import hesslab and build the workload; returns the Workload."""
    src = ROOT / "src"
    if not (src / "hesslab" / "__init__.py").is_file():
        sys.exit(f"hessbench: no hesslab package under {src}")
    sys.path.insert(0, str(src))
    if tracer is not None:
        # wrap before the set-up, so that checkpoint reads are traced
        tracer.install()
    from workloads import WORKLOADS

    out = OUT_DIR / f"{args.workload}-{os.getpid()}"
    return WORKLOADS[args.workload](args.seed, out), out


def setup_probe(args):
    """Scaled set-up time of a fresh process running this workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_ops(workload, seconds, tracer=None):
    """One discarded warm-up op, then ops until `seconds` have passed.

    Returns (untraced ops, traced op wall times, failed count, check
    failures); an untraced op is (wall time, calibration time), where the
    calibration time is the mean of the runs of `calibrate()` just before
    and just after the op.  Without a tracer every op is untraced; with
    one the warm-up is untraced and the timed ops alternate, traced first.
    Every op, the warm-up too, is checked outside its timed region; a
    failed op is counted, not checked.
    """
    from workloads import OP_ERRORS

    untraced, traced_times = [], []
    failed, errors, n_ops = 0, [], 0
    start = None
    cal = calibrate()
    min_ops = 2 if tracer is not None else 1  # a traced and an untraced op
    while (start is None or n_ops < min_ops
           or time.perf_counter() - start < seconds):
        traced = tracer is not None and start is not None and n_ops % 2 == 0
        if tracer is not None:
            tracer.enable(traced)
        gc.collect()
        span = tracer.open_op() if traced else None
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except OP_ERRORS as exc:
            result = None
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        t1 = time.perf_counter()
        if span is not None:
            tracer.close_op(span)
        if result is not None:
            errors.extend(workload.check(result))
        cal_before, cal = cal, calibrate()
        if start is None:
            start = time.perf_counter()  # the warm-up op is not counted
            continue
        n_ops += 1
        if result is None:
            failed += 1
        elif traced:
            traced_times.append(t1 - t0)
        else:
            untraced.append((t1 - t0, 0.5 * (cal_before + cal)))
    return untraced, traced_times, failed, errors


def main(argv=None):
    args = parse_args(argv)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    workload, out = setup(args, tracer)
    setup_wall = time.perf_counter() - T_START
    setup_s = setup_wall * CAL_REF_S / statistics.median(
        calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    n_setup_spans = len(tracer.name_id) if tracer is not None else 0

    setups = [setup_s]
    probes = 0 if tracer is not None else SETUP_PROBES
    try:
        setups += [setup_probe(args) for _ in range(probes // 2)]
        times, traced, failed, errors = run_ops(workload, args.seconds, tracer)
        setups += [setup_probe(args) for _ in range(probes - probes // 2)]
        for err in errors[:20]:
            print(f"check failed: {err}", file=sys.stderr)
        if not times or (tracer is not None and not traced):
            sys.exit("hessbench: every op failed")
        if tracer is not None:
            metrics = trace_metrics(tracer, n_setup_spans, workload,
                                    [wall for wall, _ in times], traced)
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.save(TRACE_DIR / f"{args.workload}-seed{args.seed}.npz")
        else:
            # this process's set-up first, then the probes in order
            print("setup samples: " + " ".join(f"{v:.4f}" for v in setups),
                  file=sys.stderr)
            print(f"op wall s p50: {statistics.median(w for w, _ in times):.4f}, "
                  f"calibration s p50: {statistics.median(c for _, c in times):.5f}",
                  file=sys.stderr)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            op_s = statistics.median(w * CAL_REF_S / c for w, c in times)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_s_p50": {"value": op_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(json.dumps({
        "correct": not errors,
        "attempted": len(times) + len(traced) + failed,
        "failed": failed,
        "metrics": metrics,
    }))


def trace_metrics(tracer, n_setup_spans, workload, untraced, traced):
    """Median over the traced ops of each per-layer metric.

    The cost of tracing is the median traced op minus the median untraced
    op of the same run; the two kinds of op alternate, so a slow phase of
    the machine falls on both.
    """
    from tracing import op_metrics, setup_seconds

    per_op = op_metrics(tracer)
    med = {}
    for key, first in per_op[0].items():
        # counts stay whole numbers
        median = statistics.median_low if isinstance(first, int) else statistics.median
        med[key] = median(m[key] for m in per_op)
    values = dict(med)
    values["solver.checkpoint_bytes"] = (
        workload.checkpoint.stat().st_size if workload.checkpoint else 0)
    values["solver.checkpoint_read_s"] = setup_seconds(
        tracer, "solver.ExteriorField.load_checkpoint", n_setup_spans)
    values["trace.op_s_p50"] = statistics.median(traced)
    values["trace.untraced_op_s_p50"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.op_s_p50"] - values["trace.untraced_op_s_p50"]
    return {key: {"value": val, "unit": _unit(key)}
            for key, val in sorted(values.items())}


def _unit(key):
    if key.endswith(("_s", "_s_p50")):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    main()
