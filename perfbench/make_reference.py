"""Regenerate ``reference/<workload>.csv`` from the program in this checkout.

    python3 perfbench/make_reference.py

Each reference is the ``estimates.csv`` of ``run-study`` at the preset's own
seed, with ``REF_REPS`` replications in one process.  Regenerate only from a
commit whose numbers are known to be right: the benchmark's correctness
check compares every later run against these files.
"""

import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, OUT_ROOT, REF_REPS, WORKLOADS, child_env


def main() -> int:
    root = os.getcwd()
    os.makedirs(OUT_ROOT, exist_ok=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name, workload in WORKLOADS.items():
        work = tempfile.mkdtemp(prefix="reference-", dir=OUT_ROOT)
        try:
            subprocess.run([sys.executable, "-m", "visitsim.cli", "run-study", "--config", workload.preset,
                            "--reps", str(REF_REPS), "--threads", "1", "--out-dir", work],
                           env=child_env(root), check=True)
            shutil.copyfile(os.path.join(work, "estimates.csv"),
                            os.path.join(HERE, "reference", f"{name}.csv"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
