"""Command-line front end: dispatch experiments, write CSV/JSON artifacts.

Exit codes: 0 all executed checks pass, 1 a check failed, 2 refused input
(``InputError``) or an unwritable output, 3 internal error.  Identical
(config, seed, subcommand) runs produce identical manifest/report/CSV files;
wall-clock timings go to a separate timings.json.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import traceback
from typing import List, Optional

import numpy as np

from . import validation as val
from .config import (
    build_operator_config,
    build_scheme,
    build_window,
    check_values,
    load_config,
)
from .errors import InputError
from .fields import save_csv
from .operators import scaling_limit
from .pde import snapshot_schedule, solve, time_step
from .validation import CheckReport, named_field


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, (int, np.integer)):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _run_rates(check, table, cfg, op, params, args) -> List[CheckReport]:
    """A rate check (sensitivity or generator), with its error at each t
    written to ``table``."""
    report = check(op, params["function"], t_list=params["t_list"], window=build_window(cfg))
    errors = [v for k, v in report.measured if k.startswith("error_t=")]
    rows = zip(report.parameters["t_list"], errors)
    _write_table(os.path.join(args.out, table), ["t", "error"], rows)
    return [report]


def _run_semigroup(cfg, op, params, args) -> List[CheckReport]:
    report = val.check_semigroup(
        op, params["function"], pairs=params["pairs"], window=build_window(cfg),
        stop_tol=float(cfg["numerics"]["stop_tol"]),
        max_level=int(cfg["numerics"]["max_level"]),
    )
    return [report]


def _run_limit(cfg, op, params, args) -> List[CheckReport]:
    t0 = time.perf_counter()
    horizon = float(params["t"])
    res = scaling_limit(
        op, horizon, params["function"],
        max_level=int(cfg["numerics"]["max_level"]),
        stop_tol=float(cfg["numerics"]["stop_tol"]),
        window=build_window(cfg),
    )
    _write_table(
        os.path.join(args.out, "limit_gaps.csv"), ["level", "gap"],
        list(zip(res.levels[1:], res.level_gaps)),
    )
    save_csv(res.field, os.path.join(args.out, "limit_field.csv"))
    measured = [("final_gap", res.level_gaps[-1] if res.level_gaps else 0.0)]
    thresholds = {"final_gap": float(cfg["numerics"]["stop_tol"])}
    params = {"t": horizon, "levels": res.levels, "converged": res.converged}
    return [val._finish("scaling_limit", params, measured, thresholds, t0)]


def _run_pde(cfg, op, params, args) -> List[CheckReport]:
    t0 = time.perf_counter()
    cfl_safety = build_scheme(cfg)
    horizon = float(params["horizon"])
    run = solve(op, cfl_safety, params["function"], horizon, snapshot_times=params["snapshots"])
    run.save_csv(os.path.join(args.out, "pde_snapshots.csv"))
    summary = {"dt": run.dt, "steps": run.steps, "cfl_safety": cfl_safety, "horizon": horizon}
    _write_json(os.path.join(args.out, "pde_summary.json"), summary)
    return [val._finish("pde_solve", summary, [("completed", 0.0)], {"completed": 1.0}, t0)]


def _run_crosscheck(cfg, op, params, args) -> List[CheckReport]:
    report = val.cross_check_pde(
        op, params["function"], float(params["horizon"]), window=build_window(cfg),
        stop_tol=float(cfg["numerics"]["stop_tol"]),
        max_level=int(cfg["numerics"]["max_level"]),
        cfl_safety=build_scheme(cfg),
    )
    save_csv(report.artifacts["limit"].field, os.path.join(args.out, "crosscheck_limit.csv"))
    save_csv(report.artifacts["pde"], os.path.join(args.out, "crosscheck_pde.csv"))
    return [report]


def _run_properties(cfg, op, params, args) -> List[CheckReport]:
    return [
        val.check_operator_properties(op, trials=int(params["trials"]), seed=args.seed),
        val.check_dual_oracle(trials=int(params["dual_trials"]), seed=args.seed),
    ]


def _run_certify(cfg, op, params, args) -> List[CheckReport]:
    return [val.refinement_certificates(
        op, build_window(cfg), experiments=params["experiments"], cfl_safety=build_scheme(cfg),
    )]


def _run_all(cfg, op, params, args) -> List[CheckReport]:
    return val.acceptance(op, build_window(cfg), build_scheme(cfg), args.seed)


# subcommand -> (runner, the experiment.parameters it reads with their
# defaults, {parameter: its range check on all parameters, the config and the
# operator}); the checks run before any output, and ``limit`` and ``pde``
# bound the steps a run takes (operators.MAX_GAPS, pde.MAX_STEPS)
_SUBCOMMANDS = {
    "sensitivity": (
        functools.partial(_run_rates, val.check_sensitivity, "sensitivity.csv"),
        {"function": "sin", "t_list": [0.2, 0.1, 0.05, 0.025]},
        {"t_list": lambda p, cfg, op: val.validate_times(p["t_list"])},
    ),
    "generator": (
        functools.partial(_run_rates, val.check_generator, "generator.csv"),
        {"function": "cos", "t_list": [0.2, 0.1, 0.05]},
        {"t_list": lambda p, cfg, op: val._validate_generator_times(p["t_list"])},
    ),
    "semigroup": (
        _run_semigroup, {"function": "tanh", "pairs": [[0.25, 0.25], [0.5, 0.25]]},
        {"pairs": lambda p, cfg, op: val.validate_pairs(p["pairs"], cfg["numerics"]["max_level"])},
    ),
    "limit": (
        _run_limit, {"function": "tanh", "t": 1.0},
        {"t": lambda p, cfg, op: val.validate_limit_time(p["t"], cfg["numerics"]["max_level"])},
    ),
    "pde": (
        _run_pde, {"function": "cos", "horizon": 0.5, "snapshots": []},
        {"horizon": lambda p, cfg, op: time_step(op, build_scheme(cfg), p["horizon"]),
         "snapshots": lambda p, cfg, op: snapshot_schedule(p["horizon"], p["snapshots"])},
    ),
    "crosscheck": (
        _run_crosscheck, {"function": "tanh", "horizon": 0.5},
        {"horizon": lambda p, cfg, op: val.validate_horizon(p["horizon"], cfg["numerics"]["max_level"])},
    ),
    "properties": (
        _run_properties, {"trials": 100, "dual_trials": 200},
        {"trials": lambda p, cfg, op: val.validate_trials(p["trials"]),
         "dual_trials": lambda p, cfg, op: val.validate_trials(p["dual_trials"])},
    ),
    "certify": (
        _run_certify, {"experiments": list(val._ANCHORS)},
        {"experiments": lambda p, cfg, op: val.validate_experiments(p["experiments"])},
    ),
    "all": (_run_all, {}, {}),
}


def _parameters(subcommand: str, cfg: dict, op) -> dict:
    """The subcommand's experiment.parameters over its defaults, with the
    ``function`` name replaced by its field; InputError if it cannot run."""
    _, defaults, ranges = _SUBCOMMANDS[subcommand]
    params = check_values(cfg["experiment"]["parameters"], defaults, "experiment.parameters")
    grid = op.grid
    if subcommand != "properties" and grid.dim != 1:
        raise InputError(f"{subcommand} runs on 1-d grids only, got grid.dim={grid.dim}")
    for key, validate in ranges.items():
        try:
            validate(params, cfg, op)
        except (TypeError, ValueError) as e:
            raise InputError(f"experiment.parameters.{key}: {e}") from e
    if "function" in params:
        try:
            params["function"] = named_field(grid, params["function"])
        except InputError as e:
            raise InputError(f"experiment.parameters.function: {e}") from e
    return params


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drolimit",
        description="Multi-period Wasserstein-DRO scaling limits: experiments and checks",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path (defaults built in)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY.PATH=VALUE", help="dotted config override (repeatable)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        cfg = load_config(args.config, args.overrides)
        op = build_operator_config(cfg)
        build_window(cfg).validate_for(op.grid)
        params = _parameters(args.subcommand, cfg, op)
        args.out = args.out or cfg["output"]["directory"]
        os.makedirs(args.out, exist_ok=True)
        reports = _SUBCOMMANDS[args.subcommand][0](cfg, op, params, args)
        # after the run, so that a run refused on its way writes none
        manifest = {"subcommand": args.subcommand, "seed": args.seed, "config": cfg}
        _write_json(os.path.join(args.out, "manifest.json"), manifest)
        _write_json(os.path.join(args.out, "report.json"), [r.to_dict() for r in reports])
        _write_json(
            os.path.join(args.out, "timings.json"),
            [[r.name, r.runtime_seconds] for r in reports],
        )
        _write_table(
            os.path.join(args.out, "summary.csv"),
            ["check", "passed", "worst_label", "worst_margin"],
            [_summary_row(r) for r in reports],
        )
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3

    ok = all(r.passed for r in reports)
    if not args.quiet:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: " + ", ".join(f"{k}={v:.3g}" for k, v in r.measured))
    return 0 if ok else 1


def _summary_row(r: CheckReport):
    worst_label, worst_margin = "", -np.inf
    for label, value in r.measured:
        if label in r.thresholds:
            margin = value - r.thresholds[label]
            if margin > worst_margin:
                worst_label, worst_margin = label, margin
    return [r.name, str(r.passed), worst_label, worst_margin]


if __name__ == "__main__":
    sys.exit(main())
