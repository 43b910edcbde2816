"""Command-line front end: dispatch experiments, write CSV/JSON artifacts.

Exit codes: 0 all executed checks pass, 1 a check failed, 2 configuration or
input error, 3 internal error.  Identical (config, seed, subcommand) runs
produce identical manifest/report/CSV files; wall-clock timings go to a
separate timings.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import validation as val
from .config import (
    build_grid,
    build_operator_config,
    build_scheme,
    build_window,
    load_config,
)
from .errors import ConfigError, InputError, ModelError
from .fields import save_csv
from .operators import scaling_limit
from .pde import cfl_time_step, solve
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
            w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating)) else v for v in row])


def _exp_params(cfg: dict) -> dict:
    return cfg.get("experiment", {}).get("parameters", {}) or {}


def _field_from_cfg(cfg: dict, default_name: str):
    name = _exp_params(cfg).get("function", default_name)
    return named_field(build_grid(cfg), name), name


def _run_sensitivity(cfg, op, args) -> List[CheckReport]:
    window = build_window(cfg)
    f, _ = _field_from_cfg(cfg, "sin")
    params = _exp_params(cfg)
    report = val.check_sensitivity(
        op, f, t_list=params.get("t_list", (0.2, 0.1, 0.05, 0.025)), window=window,
        final_factor=params.get("final_factor", 0.05),
    )
    rows = [(float(k.split("=")[1]), v) for k, v in report.measured if k.startswith("error_t=")]
    _write_table(os.path.join(args.out, "sensitivity.csv"), ["t", "error"], rows)
    return [report]


def _run_generator(cfg, op, args) -> List[CheckReport]:
    window = build_window(cfg)
    f, _ = _field_from_cfg(cfg, "cos")
    params = _exp_params(cfg)
    report = val.check_generator(
        op, f, t_list=params.get("t_list", (0.2, 0.1, 0.05)), window=window,
        stop_tol=params.get("stop_tol", 2e-5),
    )
    rows = [(float(k.split("=")[1]), v) for k, v in report.measured if k.startswith("error_t=")]
    _write_table(os.path.join(args.out, "generator.csv"), ["t", "error"], rows)
    return [report]


def _run_semigroup(cfg, op, args) -> List[CheckReport]:
    window = build_window(cfg)
    f, _ = _field_from_cfg(cfg, "tanh")
    params = _exp_params(cfg)
    pairs = [tuple(p) for p in params.get("pairs", [(0.25, 0.25), (0.5, 0.25)])]
    report = val.check_semigroup(
        op, f, pairs=pairs, window=window,
        stop_tol=float(cfg["numerics"]["stop_tol"]),
        max_level=int(cfg["numerics"]["max_level"]),
    )
    return [report]


def _run_limit(cfg, op, args) -> List[CheckReport]:
    import time

    t0 = time.perf_counter()
    window = build_window(cfg)
    f, _ = _field_from_cfg(cfg, "tanh")
    params = _exp_params(cfg)
    horizon = float(params.get("t", 1.0))
    res = scaling_limit(
        op, horizon, f,
        max_level=int(cfg["numerics"]["max_level"]),
        stop_tol=float(cfg["numerics"]["stop_tol"]),
        window=window,
    )
    _write_table(
        os.path.join(args.out, "limit_gaps.csv"), ["level", "gap"],
        list(zip(res.levels[1:], res.level_gaps)),
    )
    save_csv(res.field, os.path.join(args.out, "limit_field.csv"))
    measured = [("final_gap", res.level_gaps[-1] if res.level_gaps else 0.0)]
    thresholds = {"final_gap": float(cfg["numerics"]["stop_tol"])}
    report = CheckReport(
        name="scaling_limit",
        parameters={"t": horizon, "levels": res.levels, "converged": res.converged},
        measured=measured,
        thresholds=thresholds,
        passed=res.converged,
        runtime_seconds=time.perf_counter() - t0,
    )
    return [report]


def _run_pde(cfg, op, args) -> List[CheckReport]:
    import time

    t0 = time.perf_counter()
    scheme = build_scheme(cfg)
    f, _ = _field_from_cfg(cfg, "cos")
    params = _exp_params(cfg)
    horizon = float(params.get("horizon", 0.5))
    snaps = params.get("snapshots", [horizon])
    run = solve(op, scheme, f, horizon, snapshot_times=snaps)
    run.save_csv(os.path.join(args.out, "pde_snapshots.csv"))
    bound = cfl_time_step(op, scheme)
    dt = scheme.dt if scheme.dt is not None else bound
    summary = {
        "dt": dt,
        "steps": int(np.ceil(horizon / dt)) if np.isfinite(dt) else 0,
        "cfl_bound": bound,
        "cfl_margin": bound - dt,
        "cfl_safety": scheme.cfl_safety,
        "horizon": horizon,
    }
    _write_json(os.path.join(args.out, "pde_summary.json"), summary)
    report = CheckReport(
        name="pde_solve", parameters=summary, measured=[("completed", 0.0)],
        thresholds={"completed": 1.0}, passed=True,
        runtime_seconds=time.perf_counter() - t0,
    )
    return [report]


def _run_crosscheck(cfg, op, args) -> List[CheckReport]:
    window = build_window(cfg)
    f, _ = _field_from_cfg(cfg, "tanh")
    params = _exp_params(cfg)
    report = val.cross_check_pde(
        op, f, float(params.get("horizon", 0.5)), window=window,
        stop_tol=float(cfg["numerics"]["stop_tol"]),
        max_level=int(cfg["numerics"]["max_level"]),
        scheme=build_scheme(cfg),
        tol=float(params.get("tol", 2e-2)),
    )
    if report.artifacts:
        save_csv(report.artifacts["limit"].field, os.path.join(args.out, "crosscheck_limit.csv"))
        save_csv(report.artifacts["pde"], os.path.join(args.out, "crosscheck_pde.csv"))
    return [report]


def _run_properties(cfg, op, args) -> List[CheckReport]:
    params = _exp_params(cfg)
    trials = int(params.get("trials", 100))
    dual_trials = int(params.get("dual_trials", 200))
    return [
        val.check_operator_properties(op, trials=trials, seed=args.seed),
        val.check_dual_oracle(trials=dual_trials, seed=args.seed),
    ]


def _run_certify(cfg, op, args) -> List[CheckReport]:
    window = build_window(cfg)
    params = _exp_params(cfg)
    experiments = tuple(
        params.get("experiments", ("heat_anchor", "cdf_anchor", "game_crosscheck"))
    )
    return [val.refinement_certificates(op, window, experiments=experiments)]


def _run_all(cfg, op, args) -> List[CheckReport]:
    window = build_window(cfg)
    grid = op.grid
    fine_grid = grid.refined()
    reports: List[CheckReport] = []
    reports.append(val.check_dual_oracle(trials=200, seed=args.seed))
    reports.append(val.check_operator_properties(op, trials=100, seed=args.seed))
    # refinement monotonicity: first six comparisons at the config grid, the
    # seventh at doubled resolution (see check_refinement_monotonicity notes)
    reports.append(
        val.check_refinement_monotonicity(
            val.with_model(op, [[0.0]], [[1.0]], m=0.5), named_field(grid, "tanh"),
            t=1.0, levels=6, window=window,
        )
    )
    reports.append(
        val.check_refinement_monotonicity(
            val.with_model(replace(op, grid=fine_grid), [[0.0]], [[1.0]], m=0.5),
            named_field(fine_grid, "tanh"), t=1.0, levels=7, window=window,
        )
    )
    reports.append(
        val.check_sensitivity(
            val.with_model(op, [[0.0]], [[1.0]], m=1.0), named_field(grid, "sin"),
            window=window,
        )
    )
    reports.append(
        val.check_generator(
            val.with_model(op, [[0.0]], [[1.0]], m=0.5), named_field(grid, "cos"),
            t_list=(0.2, 0.1, 0.05), window=window,
        )
    )
    reports.append(
        val.check_semigroup(
            val.with_model(op, [[0.0]], [[1.0]], m=0.5), named_field(grid, "tanh"),
            pairs=((0.25, 0.25),), window=window, stop_tol=1e-3,
        )
    )
    heat = val.heat_anchor_check(op, window)
    cdf = val.cdf_anchor_check(op, window)
    game = val.game_crosscheck(op, window)
    reports += [heat, cdf, game]
    reports.append(
        val.refinement_certificates(
            op, window,
            base_reports={"heat_anchor": heat, "cdf_anchor": cdf, "game_crosscheck": game},
        )
    )
    return reports


_SUBCOMMANDS = {
    "sensitivity": _run_sensitivity,
    "generator": _run_generator,
    "semigroup": _run_semigroup,
    "limit": _run_limit,
    "pde": _run_pde,
    "crosscheck": _run_crosscheck,
    "properties": _run_properties,
    "certify": _run_certify,
    "all": _run_all,
}


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
        cfg = load_config(args.config, args.overrides)
        op = build_operator_config(cfg)
        build_window(cfg).validate_for(op.grid)
    except (ConfigError, InputError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3

    args.out = args.out or cfg["output"]["directory"]
    os.makedirs(args.out, exist_ok=True)

    manifest = {"subcommand": args.subcommand, "seed": args.seed, "config": cfg}
    _write_json(os.path.join(args.out, "manifest.json"), manifest)

    try:
        reports = _SUBCOMMANDS[args.subcommand](cfg, op, args)
    except (ConfigError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3

    _write_json(
        os.path.join(args.out, "report.json"),
        [r.to_dict(include_runtime=False) for r in reports],
    )
    _write_json(
        os.path.join(args.out, "timings.json"),
        [[r.name, r.runtime_seconds] for r in reports],
    )
    _write_table(
        os.path.join(args.out, "summary.csv"),
        ["check", "passed", "worst_label", "worst_margin"],
        [_summary_row(r) for r in reports],
    )

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
