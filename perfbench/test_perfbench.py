"""Self-tests of the benchmark harness arithmetic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import metrics
import tracing
from tracing import Span

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, -1, "root", 0.0, 10.0, None),
        Span(1, 0, "child", 1.0, 4.0, None),
        Span(2, 1, "grandchild", 2.0, 3.0, None),
        Span(3, 0, "child", 5.0, 9.0, None),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert top.parent == -1
    assert [s.parent for s in by_name["inner"]] == [top.id, top.id]
    # clock: outer 0..5, inner 1..2 and 3..4
    assert tracing.self_times(tracer.spans)[top.id] == pytest.approx(3.0)


def test_tracer_off_records_nothing():
    tracer = tracing.Tracer()
    fn = tracer.wrap("f", lambda: 7)
    tracer.enabled = False
    assert fn() == 7 and tracer.spans == []


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (511, 90.0),
     (999, 90.0), (1000, 99.0), (10000, 99.9), (10 ** 6, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


def test_names_units_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    names = list(e2e) + list(layer) + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and NAME_RE.fullmatch(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT_RE.fullmatch(unit), unit
    assert all(0 < m["bound"] <= 0.25 and m["better"] == "lower" for m in bench["end_to_end"])
    import run

    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS


def test_layer_metrics_levels_and_cache_share():
    part_a, part_b = 111, 222
    spans = [
        Span(0, -1, "operators.dyadic_partition", 0.0, 0.1, {"level": 0, "partition": part_a}),
        Span(1, -1, "operators.compose", 0.2, 1.2, {"steps": 1, "partition": part_a}),
        Span(2, 1, "operators.dro_step_single_action", 0.3, 1.1, None),
        Span(3, 2, "models.law", 0.3, 0.4, None),
        Span(4, -1, "operators.dyadic_partition", 1.3, 1.4, {"level": 2, "partition": part_b}),
        Span(5, -1, "operators.compose", 1.5, 3.5, {"steps": 4, "partition": part_b}),
        *[Span(6 + i, 5, "operators.dro_step_single_action", 1.5 + i / 2, 2.0 + i / 2, None) for i in range(4)],
        Span(10, 6, "models.law", 1.5, 1.6, None),
        Span(11, -1, "dual.solve_batch", 4.0, 5.0, {"elems": 100, "cands": 33, "distinct": 17}),
    ]
    out, _ = metrics.layer_metrics(spans)
    assert out["operators.compose.level0_s"] == pytest.approx(1.0)
    assert out["operators.compose.level1_s"] == 0.0
    assert out["operators.compose.level2_s"] == pytest.approx(2.0)
    assert out["operators.compose.steps"] == 5
    assert out["operators.kernel_cache_hit_share"] == pytest.approx(1 - 2 / 5)
    assert out["dual.distinct_cost_share"] == pytest.approx(17 / 33)
    assert out["dual.solve_batch.ns_per_elem"] == pytest.approx(1e7)
    assert out["dual.solve_batch.bytes_computed"] == 800
    assert set(out) | {"trace.overhead_s", "report.checks_failed", "report.ref_err"} == set(metrics.PER_LAYER)


def test_absent_names_mark_their_metrics_absent():
    installed = ["dual.solve_batch", "fields.eval", "models.law", "models.psi",
                 "operators.dro_step", "operators.compose", "operators.scaling_limit",
                 "operators.reference_step", "pde.step_forward", "pde.cfl_time_step",
                 "config.load_config", "cli._write_json", "dual.brute_force_sup"]
    assert metrics.absent_metrics(installed) == ["dual.wasserstein_sup.calls", "dual.wasserstein_sup.s"]


def test_instrument_rebinds_by_name_imports(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "dual.py").write_text("def solve(x):\n    return 2 * x\n\ndef _private(x):\n    return x\n")
    (pkg / "operators.py").write_text(
        "from .dual import solve\n\ndef step(x):\n    return solve(x) + 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        ops = importlib.import_module("fakepkg.operators")
        tracer = tracing.Tracer()
        installed = tracing.instrument(tracer.wrap, package="fakepkg", modules=("dual", "operators", "gone"))
        assert sorted(installed) == ["dual.solve", "operators.step"]
        assert ops.step(3) == 7
        names = {s.id: s.name for s in tracer.spans}
        assert [(s.name, names.get(s.parent)) for s in tracer.spans] == [
            ("dual.solve", "operators.step"), ("operators.step", None)]
    finally:
        for name in [n for n in sys.modules if n.startswith("fakepkg")]:
            del sys.modules[name]
