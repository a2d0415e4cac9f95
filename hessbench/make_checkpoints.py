"""Write the solved fields that the `audit` workload loads.

Each field is made by `hesslab solve` at the command line's default grid
(N_theta = N_s / 2, R_out = 40 times the largest body radius):

    python3 hessbench/make_checkpoints.py

run from the repository root.  It rewrites hessbench/checkpoints/*.txt.
The `audit` workload only reads these files, so its set-up time does not
include the five solves (about 12 s on a 2-core machine).
"""

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKPOINTS = HERE / "checkpoints"

#: name -> arguments of `hesslab solve`.  The two k=1 bodies come at two
#: resolutions so the audit can form a Richardson tolerance on F(t).
FIELDS = {
    "prolate-128": ["--body", "spheroid:1.5,1", "--n", "3", "--k", "1", "--N-s", "128"],
    "prolate-64": ["--body", "spheroid:1.5,1", "--n", "3", "--k", "1", "--N-s", "64"],
    "cosper-128": ["--body", "cosper:0.05,2", "--n", "3", "--k", "1", "--N-s", "128"],
    "cosper-64": ["--body", "cosper:0.05,2", "--n", "3", "--k", "1", "--N-s", "64"],
    "ball-k2-128": ["--body", "sphere", "--R", "1", "--n", "5", "--k", "2", "--N-s", "128"],
}


def main():
    # one BLAS/OpenMP thread, as in the benchmark runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    from hesslab.cli import run

    CHECKPOINTS.mkdir(exist_ok=True)
    for name, argv in FIELDS.items():
        # a fixed relative --out keeps the configuration hash in the
        # checkpoint header the same from one regeneration to the next
        out = Path(".hessbench-out") / "checkpoints" / name
        code = run(["solve", *argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"hesslab solve {' '.join(argv)} exited {code}")
        shutil.copyfile(out / "field.txt", CHECKPOINTS / f"{name}.txt")


if __name__ == "__main__":
    main()
