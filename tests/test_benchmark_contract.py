"""What the benchmark harness under ``perfbench/`` calls of the package.

The harness wraps the package's public functions by name and runs its
workloads through the CLI and the library, so a deleted or renamed name
breaks its runs or silently drops a metric.  These tests read ``perfbench/``
as it stands and change nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ENV = dict(os.environ, PYTHONPATH="src", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def test_every_metric_but_the_known_dead_one_has_its_function():
    # ``operators.reference_step.calls`` keys on a function deleted before
    # this test was written; any other absent metric means a traced name is gone
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import metrics, tracing\n"
        "import drolimit.cli\n"
        "installed = tracing.instrument(lambda name, fn, info: fn)\n"
        "print(json.dumps(metrics.absent_metrics(installed)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["operators.reference_step.calls"]


@pytest.mark.parametrize("workload", ["limit-1d", "props-1d", "game-2d"])
def test_each_workload_sets_up(workload, tmp_path):
    # setup mode runs the workload up to its first call into ``operators``
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), workload, "1", str(tmp_path / "out"),
         str(result), "setup"],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["t_setup"] is not None
