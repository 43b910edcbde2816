"""Run the same experiments on this checkout's src/ and on a git revision's,
and compare what they write.

    python3 tools/compare_outputs.py REV

REV's ``src/`` is extracted with ``git archive`` into a temporary directory;
the other side is ``src/`` as it stands in this checkout.  Each side runs,
with one BLAS thread: ``drolimit limit``, ``pde`` with snapshots on and off
its step grid and with one at t = 0, ``crosscheck``, ``sensitivity``,
``generator``, ``semigroup``, ``properties --seed 1``, ``certify`` (the
refinement certificates of its default experiments, each base run made
afresh) and ``all`` on the default config, ``limit`` on a one-action
Ornstein-Uhlenbeck model at t = 1/4, ``limit`` at Wasserstein order p = 3
and t = 1/4, ``limit`` at p = 1.5 on the default horizon (there q = 3, so
the first-order worst-case move grows like |grad f|^2 and the candidate
reach binds first), ``limit`` from a config file whose sections set only
some of their keys (written into the temporary directory; its
``manifest.json`` holds the tree merged with the defaults), ``properties
--seed 1`` on a 2-d one-action Ornstein-Uhlenbeck model (17 x 17 nodes,
quadrature order 4, 3 candidates per side, 5 trials of each check), the
same on a 2-d Brownian action with correlated sigma = [[1, 0], [0.6, 0.8]],
and the ``game-2d`` workload of this checkout's ``perfbench/worker.py`` at
seed 29, as it stands (max level 2) and at max level 3, where each 2-d
kernel applies four times and so solves its last two steps through windows.
The two sides run side by side, one process each.  A run whose stderr holds a traceback prints its last
line, so that a crash does not pass for a failed check (both exit 1).

Every output file except ``timings.json`` is compared byte for byte.  For a
file that differs, the largest absolute difference between its numbers is
printed, with how many of them differ; for a JSON file that differs beyond
its numbers, the key paths found on only one side.  The last line gives the
largest absolute difference over all files that differ only in their
numbers, and how many files differ beyond their numbers or exist on one side
only.  Exits 0 when every exit code and every file agree, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "limit": ["limit"],
    "pde": ["pde", "--set", "experiment.parameters.snapshots=[0.1, 0.25]"],
    # a snapshot off the step grid: solve shortens one step to land on it
    "pde-offgrid": ["pde", "--set", "experiment.parameters.snapshots=[0.1234]"],
    # a snapshot at t = 0: solve records the initial field without a step
    "pde-zero": ["pde", "--set", "experiment.parameters.snapshots=[0.0, 0.25]"],
    "crosscheck": ["crosscheck"],
    "sensitivity": ["sensitivity"],
    "generator": ["generator"],
    "semigroup": ["semigroup"],
    "limit-ou": [
        "limit",
        "--set", 'model.actions=[{"label": "a0", "drift": [0.2], "sigma": [[1.0]], "theta": [[1.0]]}]',
        "--set", "experiment.parameters.t=0.25",
    ],
    # the only run at an order p other than 2
    "limit-p3": ["limit", "--set", "ambiguity.p=3", "--set", "experiment.parameters.t=0.25"],
    # the order at which the reach of the candidate lattice binds first
    "limit-p15": ["limit", "--set", "ambiguity.p=1.5"],
    "properties": ["properties", "--seed", "1"],
    # the only run whose steps go through the 2-d point stencil
    "properties-ou-2d": [
        "properties", "--seed", "1",
        "--set", 'model.actions=[{"label": "a0", "drift": [0.2, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],'
        ' "theta": [[1.0, 0.0], [0.0, 0.5]]}]',
        "--set", 'grid={"dim": 2, "lo": [-6.0, -6.0], "hi": [6.0, 6.0], "n": [17, 17],'
        ' "window": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]}}',
        "--set", "numerics.quad_order=4", "--set", "numerics.cand_per_side=3",
        "--set", "experiment.parameters.trials=5", "--set", "experiment.parameters.dual_trials=5",
    ],
    # the only shift-stencil run whose atoms are not a tensor grid: the law
    # is rotated, so every atom has its own shift along the last axis
    "properties-corr-2d": [
        "properties", "--seed", "1",
        "--set", 'model.actions=[{"label": "a0", "drift": [0.2, 0.0],'
        ' "sigma": [[1.0, 0.0], [0.6, 0.8]]}]',
        "--set", 'grid={"dim": 2, "lo": [-6.0, -6.0], "hi": [6.0, 6.0], "n": [17, 17],'
        ' "window": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]}}',
        "--set", "numerics.quad_order=4", "--set", "numerics.cand_per_side=3",
        "--set", "experiment.parameters.trials=5", "--set", "experiment.parameters.dual_trials=5",
    ],
    "certify": ["certify"],
    "all": ["all"],
}
# read from a file by the ``limit-config`` run; every other section and key
# keeps its default
PARTIAL_CONFIG = {"numerics": {"max_level": 6}, "experiment": {"parameters": {"t": 0.5}}}
GAME_SEED = 29
# the game-2d workload with its max level raised to 3
GAME_LEVEL3 = (
    "import sys; sys.path.insert(0, sys.argv[1]); import worker; worker.GAME_MAX_LEVEL = 3;"
    " sys.exit(worker._game_2d(int(sys.argv[2]), sys.argv[3])[0])"
)
SKIP = {"timings.json"}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|NaN|inf|nan)")


def _env(src: Path) -> dict:
    threads = dict.fromkeys(
        ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"], "1"
    )
    return {**os.environ, **threads, "PYTHONPATH": str(src)}


def _run(cmd: list, src: Path) -> tuple:
    """The exit code of ``cmd`` run with ``src`` on the path, and the last
    line of its stderr if that holds a traceback (else None)."""
    proc = subprocess.run(cmd, env=_env(src), capture_output=True, text=True)
    lines = [line for line in proc.stderr.splitlines() if line.strip()]
    crashed = any(line.startswith("Traceback (most recent call last)") for line in lines)
    return proc.returncode, lines[-1] if crashed else None


def _run_side(src: Path, out: Path, config: Path) -> dict:
    """Run every experiment with ``src`` on the path, each into its own
    directory under ``out``, the ``limit-config`` run from the file
    ``config``; per run, ``_run``'s exit code and crash line."""
    runs = {}
    for name, args in {**RUNS, "limit-config": ["limit", "--config", str(config)]}.items():
        cmd = [sys.executable, "-m", "drolimit.cli", *args, "--out", str(out / name), "--quiet"]
        runs[name] = _run(cmd, src)
    worker = ROOT / "perfbench" / "worker.py"
    cmd = [sys.executable, str(worker), "game-2d", str(GAME_SEED), str(out / "game-2d"),
           str(out.parent / f"{out.name}-worker.json"), "plain"]  # timings, not compared
    runs["game-2d"] = _run(cmd, src)
    (out / "game-2d-level3").mkdir()
    cmd = [sys.executable, "-c", GAME_LEVEL3, str(worker.parent), str(GAME_SEED),
           str(out / "game-2d-level3")]
    runs["game-2d-level3"] = _run(cmd, src)
    return runs


def _extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest / "src"


def _numbers_diff(a: str, b: str):
    """(largest absolute difference, differing numbers, numbers) between two
    texts that differ only in their numbers, or None if their words differ."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    pairs = list(zip(_NUMBER.findall(a), _NUMBER.findall(b)))
    diffs = [abs(float(x) - float(y)) for x, y in pairs if x != y]
    return max(diffs, default=0.0), len(diffs), len(pairs)


def _key_paths(obj, prefix: str = "") -> set:
    """The dotted path of every key in a JSON value, list items by index."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return set()
    paths = set()
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        paths |= {path} | _key_paths(value, path)
    return paths


def compare(old: Path, new: Path) -> bool:
    """Print one line per output file and a summary line; True if every file
    is identical."""
    same, largest, beyond = True, 0.0, 0
    files = sorted({p.relative_to(side) for side in (old, new) for p in side.rglob("*")
                    if p.is_file() and p.name not in SKIP})
    for rel in files:
        a, b = old / rel, new / rel
        if not (a.exists() and b.exists()):
            print(f"{rel}: only in {'new' if b.exists() else 'old'}")
            same, beyond = False, beyond + 1
        elif a.read_bytes() == b.read_bytes():
            print(f"{rel}: identical")
        else:
            same = False
            diff = _numbers_diff(a.read_text(), b.read_text())
            if diff is None:
                line = f"{rel}: DIFFERS beyond its numbers"
                beyond += 1
                if rel.suffix == ".json":
                    old_keys = _key_paths(json.loads(a.read_text()))
                    new_keys = _key_paths(json.loads(b.read_text()))
                    line += "".join(f"; {k} only in old" for k in sorted(old_keys - new_keys))
                    line += "".join(f"; {k} only in new" for k in sorted(new_keys - old_keys))
                print(line)
            else:
                print(f"{rel}: DIFFERS, max abs diff {diff[0]:.3g} in {diff[1]} of {diff[2]} numbers")
                largest = max(largest, diff[0])
    print(f"summary: max abs diff {largest:.3g} over the files that differ only in their"
          f" numbers; {beyond} files differ beyond their numbers or exist on one side only")
    return same


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = _extract_src(argv[0], tmp / "rev")
        config = tmp / "partial.json"
        config.write_text(json.dumps(PARTIAL_CONFIG))
        sides = {"old": (old_src, tmp / "old"), "new": (ROOT / "src", tmp / "new")}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                k: pool.submit(_run_side, src, out, config) for k, (src, out) in sides.items()
            }
            runs = {k: f.result() for k, f in futures.items()}
        same = True
        for name, (old_code, old_crash) in runs["old"].items():
            new_code, new_crash = runs["new"][name]
            same = same and old_code == new_code
            print(f"exit codes {name}: old {old_code}, new {new_code}")
            for side, crash in (("old", old_crash), ("new", new_crash)):
                if crash is not None:
                    print(f"  {side} crashed: {crash}")
        return 0 if compare(tmp / "old", tmp / "new") and same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
