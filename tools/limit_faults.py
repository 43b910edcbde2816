"""Wall time and minor page faults of ``drolimit limit`` on the default config,
one fresh process per run.

    python3 tools/limit_faults.py [RUNS]      (RUNS defaults to 5)

Each run starts ``python -m drolimit.cli limit`` with this checkout's
``src/`` on the path, one BLAS thread and its outputs in a temporary
directory, as ``perfbench/worker.py`` runs a workload, and reaps it with
``os.wait4``.  It prints the run's exit code, its wall time (spawn to reap)
and the child's minor faults (``ru_minflt``), then the medians over the runs.

The kernels of each composition write their run maxima into one array that
they share, but the dual solve still allocates fresh temporaries on every
step, so the time of the default ``limit`` moves with glibc's heap layout: a
run that keeps returning memory to the system and faulting it back in shows
tens of thousands of minor faults more than one that does not.  The
environment is passed on, so glibc tunables (``MALLOC_TRIM_THRESHOLD_``,
``MALLOC_ARENA_MAX``) set by the caller apply.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(out: str) -> tuple:
    """(exit code, wall seconds, minor faults) of one ``limit`` run into ``out``."""
    env = {**os.environ, **dict.fromkeys(BLAS, "1"), "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "drolimit.cli", "limit", "--out", out, "--quiet"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_minflt


def main(argv) -> int:
    runs = argv[0] if argv else "5"
    if len(argv) > 1 or not runs.isdigit() or int(runs) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    walls, faults = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(int(runs)):
            code, wall, minflt = run_once(os.path.join(tmp, str(i)))
            walls.append(wall)
            faults.append(minflt)
            print(f"run {i}: exit {code}, wall {wall:.3f} s, minor faults {minflt}")
    print(f"median: wall {statistics.median(walls):.3f} s,"
          f" minor faults {statistics.median(faults):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
