"""drolimit benchmark: entry point.

    python3 perfbench/run.py --workload limit-1d --seed 1 --seconds 44 --trace 0

Runs one workload for about ``--seconds`` seconds as a closed loop with one
client: one fresh single-threaded worker process at a time, each started
only after the previous one exited.  With ``--trace 0`` it reports the
end-to-end metrics (medians over the runs); with ``--trace 1`` it alternates
plain and traced runs and reports the per-module metrics of the traced ones.
Every run's outputs are checked.  The last line of stdout is the JSON result;
the lines before it print every metric by name and unit, the input
properties and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("limit-1d", "props-1d", "game-2d")
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # the whole invocation must end within 180 s
CHILD_ENV = {
    "PYTHONPATH": "src",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class Run:
    """One worker process: its result, and why it failed if it did."""

    def __init__(self, mode: str, rundir: Path, t_spawn: float, result, error: str = ""):
        self.mode = mode
        self.rundir = rundir
        self.t_spawn = t_spawn
        self.result = result
        self.error = error
        self.digest = None

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def wall_s(self) -> float:
        return self.result["t_done"] - self.t_spawn

    @property
    def setup_s(self) -> float:
        return self.result["t_setup"] - self.t_spawn


def run_worker(workload: str, seed: int, mode: str, rundir: Path, deadline: float) -> Run:
    rundir.mkdir(parents=True)
    out, result_path = rundir / "out", rundir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out),
           str(result_path), mode]
    env = {**os.environ, **CHILD_ENV}
    t_spawn = time.monotonic()
    with open(rundir / "log.txt", "wb") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            return Run(mode, rundir, t_spawn, None, "timed out")
    if proc.returncode not in (0, 1):
        tail = (rundir / "log.txt").read_text(errors="replace")[-2000:]
        return Run(mode, rundir, t_spawn, None, f"exit {proc.returncode}: {tail}")
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError) as e:
        return Run(mode, rundir, t_spawn, None, f"no result: {e}")
    run = Run(mode, rundir, t_spawn, result)
    if mode != "setup":
        run.error = check_outputs(run, out)
    return run


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def check_outputs(run: Run, out: Path) -> str:
    """Empty if the run's artifacts are complete and finite; else the reason.
    Sets ``run.digest`` over report.json and every CSV."""
    files = sorted(glob.glob(str(out / "*.csv"))) + [str(out / "report.json")]
    digest = hashlib.sha256()
    for path in files:
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            return f"missing output: {e}"
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        if path.endswith(".json"):
            if not _all_finite(json.loads(data)):
                return f"non-finite value in {os.path.basename(path)}"
            continue
        for line in data.decode().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return f"non-finite value in {os.path.basename(path)}"
    if not math.isfinite(run.result.get("ref_err", float("nan"))):
        return "non-finite reference error"
    run.digest = digest.hexdigest()
    return ""


def checks_failed(out: Path) -> int:
    with open(out / "report.json") as fh:
        return sum(1 for check in json.load(fh) if not check["passed"])


def cache_sizes() -> dict:
    """Data/unified cache sizes of cpu0 by level, in bytes, from sysfs."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "drolimit" / "__init__.py").is_file():
        print(f"error: no drolimit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runs = []

    def launch(mode: str) -> Run:
        run = run_worker(args.workload, args.seed, mode, work / f"{len(runs):03d}-{mode}", hard_deadline)
        runs.append(run)
        if not run.ok:
            print(f"run {len(runs) - 1} ({mode}) failed: {run.error}", file=sys.stderr)
        return run

    if args.trace:
        modes = ("plain", "traced")
    else:
        for _ in range(SETUP_PROBES):
            launch("setup")
        modes = ("plain",)
    # closed loop: start another round only if one more round like the one
    # just measured is expected to end inside the time budget
    while True:
        round_start = time.monotonic()
        for mode in modes:
            launch(mode)
        now = time.monotonic()
        if now + (now - round_start) > start + args.seconds:
            break

    done = [r for r in runs if r.ok and r.mode != "setup"]
    for r in done[1:]:
        if r.digest != done[0].digest:
            r.error = "report.json/CSVs differ from the first run of this seed"
            print(f"{r.mode} run failed: {r.error}", file=sys.stderr)
    done = [r for r in done if r.ok]
    if not all(any(r.mode == mode for r in done) for mode in modes):
        print("error: no run completed", file=sys.stderr)
        return 1
    first = done[0]
    failed = sum(1 for r in runs if not r.ok)
    plain = [r for r in done if r.mode == "plain"]
    n_checks_failed = checks_failed(first.rundir / "out")
    ref_err = first.result["ref_err"]

    if args.trace:
        traced = [r for r in done if r.mode == "traced"]
        layer_runs = [r.result["layers"] for r in traced]
        values = {m: metrics.median(lr[m] for lr in layer_runs) for m in layer_runs[0]}
        values["trace.overhead_s"] = (metrics.median(r.wall_s for r in traced)
                                      - metrics.median(r.wall_s for r in plain))
        values["report.checks_failed"] = n_checks_failed
        values["report.ref_err"] = ref_err
        notes = traced[0].result["notes"]
        reported = {m: (values[m], metrics.PER_LAYER[m]) for m in metrics.PER_LAYER}
        properties = {
            "dual.distinct_cost_share": values["dual.distinct_cost_share"],
            "operators.kernel_cache_hit_share": values["operators.kernel_cache_hit_share"],
            "largest_tensor_bytes": values["dual.solve_batch.max_tensor_bytes"],
            **cache_sizes(),
            "notes": notes,
        }
    else:
        setups = [r.setup_s for r in runs if r.ok and r.result.get("t_setup") is not None]
        reported = {
            "wall_s": (metrics.median(r.wall_s for r in plain), "s"),
            "cpu_s": (metrics.median(r.result["cpu_s"] for r in plain), "s"),
            "setup_s": (metrics.median(setups), "s"),
            "peak_rss_mb": (metrics.median(r.result["maxrss_kb"] / 1024.0 for r in plain), "MB"),
        }
        properties = {**cache_sizes()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": first.result["seed_used"],
        "runs": {mode: sum(1 for r in runs if r.ok and r.mode == mode) for mode in ("setup", "plain", "traced")},
        "wall_s_each": {mode: [round(r.wall_s, 4) for r in done if r.mode == mode] for mode in modes},
        "checks_failed": n_checks_failed,
        "ref_err": ref_err,
        "failed_share": failed / len(runs),
        "outputs_sha256": first.digest,
        "properties": properties,
        "env": {**first.result["env"], "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
    }
    for name, (value, unit) in reported.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
