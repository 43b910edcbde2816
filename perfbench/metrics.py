"""Metric names, units, and the per-module metrics computed from spans.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from tracing import Span, percentile, self_times, tail_percentile

END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LEVELS = range(9)

PER_LAYER: Dict[str, str] = {
    "dual.solve_batch.calls": "count",
    "dual.solve_batch.elems": "count",
    "dual.solve_batch.s": "s",
    "dual.solve_batch.ns_per_elem": "ns",
    "dual.solve_batch.bytes_computed": "bytes",
    "dual.solve_batch.max_tensor_bytes": "bytes",
    "dual.distinct_cost_share": "share",
    "dual.wasserstein_sup.calls": "count",
    "dual.wasserstein_sup.s": "s",
    "dual.brute_force_sup.s": "s",
    "fields.eval.calls": "count",
    "fields.eval.points": "count",
    "fields.eval.s": "s",
    "fields.eval.ns_per_point": "ns",
    "fields.eval.max_points_per_call": "count",
    "models.law.calls": "count",
    "models.law.s": "s",
    "models.psi.s": "s",
    "operators.dro_step.calls": "count",
    "operators.dro_step.ms_p50": "ms",
    "operators.dro_step.ms_tail": "ms",
    "operators.dro_step.self_s": "s",
    "operators.scaling_limit.levels_run": "count",
    "operators.scaling_limit.converged": "count",
    "operators.compose.steps": "count",
    **{f"operators.compose.level{n}_s": "s" for n in LEVELS},
    "operators.kernel_cache_hit_share": "share",
    "operators.reference_step.calls": "count",
    "pde.step_forward.calls": "count",
    "pde.step_forward.s": "s",
    "pde.step_forward.us_per_node_step": "us",
    "pde.cfl_time_step.calls": "count",
    "validation.self_s": "s",
    "config.load_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
    "report.checks_failed": "count",
    "report.ref_err": "1",
}

# metric -> span whose absence makes it absent; None means always present.
# Unlisted metrics depend on the span named by their name minus the last part.
_SOURCE: Dict[str, Optional[str]] = {
    "dual.distinct_cost_share": "dual.solve_batch",
    "operators.kernel_cache_hit_share": "models.law",
    "validation.self_s": None,
    "config.load_s": "config.load_config",
    "cli.write_s": "cli._write_json",
    "trace.overhead_s": None,
    "report.checks_failed": None,
    "report.ref_err": None,
    **{f"operators.compose.level{n}_s": "operators.compose" for n in LEVELS},
}

BYTES_PER_ELEM = 8  # float64 integrand tensor


def source_span(metric: str) -> Optional[str]:
    return _SOURCE[metric] if metric in _SOURCE else metric.rsplit(".", 1)[0]


def absent_metrics(installed: Iterable[str]) -> List[str]:
    """Per-layer metrics whose traced function no longer exists."""
    have = set(installed)
    return [m for m in PER_LAYER if source_span(m) is not None and source_span(m) not in have]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-module metrics of one traced run (all but ``trace.overhead_s`` and
    ``report.*``, which run.py adds), plus notes on how tails were taken."""
    by: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    own = self_times(spans)

    def dur(name: str) -> float:
        return sum(s.end - s.start for s in by[name])

    def info_sum(name: str, key: str) -> int:
        return sum((s.info or {}).get(key, 0) for s in by[name])

    out: Dict[str, float] = {}
    notes: Dict[str, str] = {}

    sb = by["dual.solve_batch"]
    elems = info_sum("dual.solve_batch", "elems")
    out["dual.solve_batch.calls"] = len(sb)
    out["dual.solve_batch.elems"] = elems
    out["dual.solve_batch.s"] = dur("dual.solve_batch")
    out["dual.solve_batch.ns_per_elem"] = _ratio(dur("dual.solve_batch") * 1e9, elems)
    out["dual.solve_batch.bytes_computed"] = elems * BYTES_PER_ELEM
    out["dual.solve_batch.max_tensor_bytes"] = max(
        [(s.info or {}).get("elems", 0) * BYTES_PER_ELEM for s in sb], default=0
    )
    weighted = sum(
        s.info["elems"] * s.info["distinct"] / s.info["cands"]
        for s in sb if s.info and s.info.get("cands")
    )
    out["dual.distinct_cost_share"] = _ratio(weighted, elems)
    out["dual.wasserstein_sup.calls"] = len(by["dual.wasserstein_sup"])
    out["dual.wasserstein_sup.s"] = dur("dual.wasserstein_sup")
    out["dual.brute_force_sup.s"] = dur("dual.brute_force_sup")

    points = info_sum("fields.eval", "points")
    out["fields.eval.calls"] = len(by["fields.eval"])
    out["fields.eval.points"] = points
    out["fields.eval.s"] = dur("fields.eval")
    out["fields.eval.ns_per_point"] = _ratio(dur("fields.eval") * 1e9, points)
    out["fields.eval.max_points_per_call"] = max(
        [(s.info or {}).get("points", 0) for s in by["fields.eval"]], default=0
    )

    out["models.law.calls"] = len(by["models.law"])
    out["models.law.s"] = dur("models.law")
    out["models.psi.s"] = dur("models.psi")

    steps_ms = [(s.end - s.start) * 1e3 for s in by["operators.dro_step"]]
    out["operators.dro_step.calls"] = len(steps_ms)
    out["operators.dro_step.ms_p50"] = percentile(steps_ms, 50.0) if steps_ms else 0.0
    tail = tail_percentile(len(steps_ms))
    if steps_ms:
        out["operators.dro_step.ms_tail"] = percentile(steps_ms, tail) if tail else max(steps_ms)
        notes["operators.dro_step.ms_tail"] = (
            f"p{tail:g} of {len(steps_ms)}" if tail else f"max of {len(steps_ms)} (fewer than 20)"
        )
    else:
        out["operators.dro_step.ms_tail"] = 0.0
    out["operators.dro_step.self_s"] = sum(own[s.id] for s in by["operators.dro_step"])

    out["operators.scaling_limit.levels_run"] = info_sum("operators.scaling_limit", "levels")
    out["operators.scaling_limit.converged"] = info_sum("operators.scaling_limit", "converged")
    out["operators.compose.steps"] = info_sum("operators.compose", "steps")
    level_of: Dict[int, int] = {}
    per_level = defaultdict(float)
    for s in sorted(by["operators.dyadic_partition"] + by["operators.compose"], key=lambda s: s.start):
        info = s.info or {}
        if s.name == "operators.dyadic_partition":
            level_of[info.get("partition")] = info.get("level")
        elif info.get("partition") in level_of:
            per_level[level_of[info["partition"]]] += s.end - s.start
    for n in LEVELS:
        out[f"operators.compose.level{n}_s"] = per_level.get(n, 0.0)

    applications = len(by["operators.dro_step_single_action"]) + len(by["operators.reference_step"])
    out["operators.kernel_cache_hit_share"] = (
        1.0 - _ratio(len(by["models.law"]), applications) if applications else 0.0
    )
    out["operators.reference_step.calls"] = len(by["operators.reference_step"])

    node_steps = info_sum("pde.step_forward", "nodes")
    out["pde.step_forward.calls"] = len(by["pde.step_forward"])
    out["pde.step_forward.s"] = dur("pde.step_forward")
    out["pde.step_forward.us_per_node_step"] = _ratio(dur("pde.step_forward") * 1e6, node_steps)
    out["pde.cfl_time_step.calls"] = len(by["pde.cfl_time_step"])

    out["validation.self_s"] = sum(own[s.id] for s in spans if s.name.startswith("validation."))
    out["config.load_s"] = dur("config.load_config")
    out["cli.write_s"] = dur("cli._write_json") + dur("cli._write_table") + dur("cli.save_csv")
    return out, notes


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))
