"""One run of one workload in a fresh process; started by ``run.py``.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is ``setup`` (stop at the first call into ``operators``), ``plain``
(untraced run) or ``traced`` (every public function wrapped in spans).  The
process exits with the workload's own code (0 all checks passed, 1 a check
failed) and writes its timings to RESULT_JSON; times are CLOCK_MONOTONIC
stamps, so the parent can subtract its own spawn stamp.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import tracing

# game-2d: the 2-d smoke-test geometry (49x49 on [-6,6]^2, quad 8, 4 per
# side), two actions that differ only in the sign of the x drift
GAME_OVERRIDES = [
    'model.actions=[{"label": "left", "drift": [-0.5, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},'
    ' {"label": "right", "drift": [0.5, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}]',
    "ambiguity.m=0.25",
    "grid.dim=2",
    "grid.lo=[-6.0, -6.0]",
    "grid.hi=[6.0, 6.0]",
    "grid.n=[49, 49]",
    'grid.window={"lo": [-3.0, -3.0], "hi": [3.0, 3.0]}',
    "numerics.quad_order=8",
    "numerics.cand_per_side=4",
]
GAME_HORIZON = 0.5
GAME_MAX_LEVEL = 2
GAME_WAVENUMBER = 2

PROPS_TRIALS = 6
LIMIT_HORIZON = 1.0  # the CLI's default experiment.parameters.t


class SetupDone(BaseException):
    """Ends a setup-mode run; a BaseException so the CLI's handlers let it by."""


def _first_call_stamp(state: dict, stop: bool):
    """Wrapper factory for ``tracing.instrument``: stamps the first call into
    ``operators`` (the end of set-up) and, in setup mode, stops the workload
    there by raising ``SetupDone``."""

    def wrap(name, fn, info):
        def stamped(*args, **kwargs):
            if state.get("t_setup") is None:
                state["t_setup"] = time.monotonic()
                if stop:
                    raise SetupDone
            return fn(*args, **kwargs)

        stamped.__wrapped__ = fn
        return stamped

    return wrap


# Each workload returns its exit code and a function that computes the
# reference error once the timed part is over.

def _limit_1d(seed, out):
    from drolimit import cli, config, fields, pde, validation

    def ref_err():
        cfg = config.load_config(None)
        op = config.build_operator_config(cfg)
        u0 = validation.named_field(op.grid, "tanh")
        exact = pde.solve(op, config.build_scheme(cfg), u0, LIMIT_HORIZON).at(LIMIT_HORIZON)
        limit = fields.load_csv(os.path.join(out, "limit_field.csv"))
        return fields.sup_distance(limit, exact, config.build_window(cfg))

    return cli.main(["limit", "--out", out, "--quiet"]), ref_err


def _props_1d(seed, out):
    from drolimit import cli

    def ref_err():
        with open(os.path.join(out, "report.json")) as fh:
            for check in json.load(fh):
                for label, value in check["measured"]:
                    if label == "excess_over_resolution":
                        return value
        raise KeyError("excess_over_resolution missing from report.json")

    code = cli.main([
        "properties", "--seed", str(seed), "--out", out, "--quiet",
        "--set", f"experiment.parameters.trials={PROPS_TRIALS}",
    ])
    return code, ref_err


def _game_2d(seed, out):
    import numpy as np

    from drolimit import config, fields, operators, pde, validation

    cfg = config.load_config(None, GAME_OVERRIDES)
    op = config.build_operator_config(cfg)
    window = config.build_window(cfg)
    f0 = validation.fourier_field(op.grid, np.random.default_rng(seed), GAME_WAVENUMBER)
    res = operators.scaling_limit(
        op, GAME_HORIZON, f0, max_level=GAME_MAX_LEVEL,
        stop_tol=float(cfg["numerics"]["stop_tol"]), window=window,
    )
    exact = pde.solve(op, config.build_scheme(cfg), f0, GAME_HORIZON).at(GAME_HORIZON)
    fields.save_csv(res.field, os.path.join(out, "limit_field.csv"))
    fields.save_csv(exact, os.path.join(out, "pde_field.csv"))
    report = [{
        "name": "game_scaling_limit",
        "parameters": {"t": GAME_HORIZON, "levels": res.levels, "seed": seed},
        "measured": [[f"gap_level{n}", float(g)] for n, g in zip(res.levels[1:], res.level_gaps)],
        "passed": bool(res.converged),
    }]
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if res.converged else 1), lambda: fields.sup_distance(res.field, exact, window)


# name -> (run, whether the seed changes the inputs)
WORKLOADS = {
    "limit-1d": (_limit_1d, False),
    "props-1d": (_props_1d, True),
    "game-2d": (_game_2d, True),
}


def _env() -> dict:
    import numpy as np

    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in blas},
    }


def main(argv) -> int:
    workload, seed, out, result_path, mode = argv
    seed = int(seed)
    run, seed_used = WORKLOADS[workload]
    os.makedirs(out, exist_ok=True)
    import drolimit.cli  # noqa: F401  (loads every module the wrappers patch)

    state: dict = {"t_setup": None}
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        installed = tracing.instrument(tracer.wrap)
    else:
        tracing.instrument(_first_call_stamp(state, stop=mode == "setup"), modules=("operators",))

    result = {"workload": workload, "seed": seed, "seed_used": seed_used, "mode": mode}
    try:
        code, ref_err = run(seed, out)
    except SetupDone:
        code, ref_err = 0, None
    t_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        code=code, t_setup=state["t_setup"], t_done=t_done,
        cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss, env=_env(),
    )
    if mode != "setup":
        if tracer is not None:
            tracer.enabled = False
            layers, notes = _traced_layers(tracer, installed, out)
            result.update(layers=layers, notes=notes)
        result["ref_err"] = float(ref_err())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


def _traced_layers(tracer, installed, out):
    """Per-module metrics of the traced run; the raw spans go to spans.json
    next to the run's outputs."""
    import metrics

    with open(os.path.join(out, os.pardir, "spans.json"), "w") as fh:
        json.dump([list(s) for s in tracer.spans], fh)
    layers, notes = metrics.layer_metrics(tracer.spans)
    notes["absent"] = metrics.absent_metrics(installed)
    return layers, notes


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
