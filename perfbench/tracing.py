"""In-memory span tracer that wraps drolimit's public functions from outside.

Nothing here edits the package's source.  ``instrument`` replaces each
public function of the listed modules with a timing wrapper, and rebinds it
in every module that imported the function by name (``operators`` imports
``solve_batch``, ``law`` and ``psi`` that way, ``validation`` the step
functions, ``cli`` ``scaling_limit``), so calls are traced where the caller
looks the name up.  A name that a later version renames or deletes simply
produces no spans; the metric layer reports it as absent.

A span is ``(id, parent, name, start, end, info)``.  Spans stay in a list
until the run ends; ``self_times`` subtracts the children's durations.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

MODULES = ("config", "models", "fields", "dual", "operators", "pde", "validation", "cli")


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    info: Optional[dict]


class Tracer:
    """Collects nested spans; single-threaded, like the program it traces."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.enabled = True
        self._stack: List[int] = []
        self._next = 0

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.  ``info`` maps the
        call's arguments (and result, as keyword ``result``) to a small dict
        of counts stored with the span."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            t0 = tracer.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = tracer.clock()
                tracer._stack.pop()
                extra = None
                if info is not None:
                    try:
                        extra = info(*args, result=result, **kwargs)
                    except Exception as e:  # a changed signature must not stop the run
                        extra = {"info_error": repr(e)}
                tracer.spans.append(Span(sid, parent, name, t0, t1, extra))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children.

    Spans of one thread nest, so the children's durations are exactly the
    part of the parent's interval they cover."""
    spans = list(spans)
    child_total: Dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_total.get(s.id, 0.0) for s in spans}


TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int) -> Optional[float]:
    """Highest listed percentile with at least ten samples beyond it, or None
    when there are fewer than twenty samples."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least p% of the
    samples at or below it)."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no samples")
    k = max(1, math.ceil(p / 100.0 * len(v) - 1e-9))
    return v[k - 1]


# ----------------------------------------------------------------------
# span payloads: counts recorded where the work happens

def _solve_batch_info(gvals, costs, *args, result=None, **kwargs):
    import numpy as np

    c = len(costs)
    return {"elems": int(gvals.size), "cands": c, "distinct": int(np.unique(costs).size)}


def _eval_info(field, x, result=None):
    import numpy as np

    return {"points": max(1, int(np.size(x)) // field.grid.dim)}


def _step_forward_info(cfg, scheme, v, *args, result=None, **kwargs):
    return {"nodes": int(v.values.size)}


def _compose_info(cfg, pi, *args, result=None, **kwargs):
    return {"steps": len(pi.gaps), "partition": id(pi)}


def _dyadic_info(t, level, result=None):
    return {"level": int(level), "partition": id(result)}


def _limit_info(*args, result=None, **kwargs):
    return {"levels": int(result.levels_used), "converged": int(bool(result.converged))}


INFO = {
    "dual.solve_batch": _solve_batch_info,
    "fields.eval": _eval_info,
    "pde.step_forward": _step_forward_info,
    "operators.compose": _compose_info,
    "operators.dyadic_partition": _dyadic_info,
    "operators.scaling_limit": _limit_info,
}

# private helpers traced because a metric needs them: the CLI's artifact
# writers (cli.write_s)
EXTRA = {"cli": ("_write_json", "_write_table")}


def _public_functions(mod) -> Dict[str, Callable]:
    names = {
        name: obj for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        and not name.startswith("_")
    }
    for name in EXTRA.get(mod.__name__.rsplit(".", 1)[-1], ()):
        if inspect.isfunction(vars(mod).get(name)):
            names[name] = vars(mod)[name]
    return names


def instrument(wrap: Callable, package: str = "drolimit", modules=MODULES) -> List[str]:
    """Wrap the public functions of ``package.<module>`` for each listed
    module (plus ``ScalarField.eval`` when ``fields`` is listed) with
    ``wrap(span_name, fn, info)``, and rebind every by-name import of them
    inside the package.  Returns the span names installed."""
    import importlib

    wrappers: Dict[int, Callable] = {}
    installed = []
    for short in modules:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for name, fn in _public_functions(mod).items():
            span = f"{short}.{name}"
            wrappers[id(fn)] = wrap(span, fn, INFO.get(span))
            installed.append(span)
    for mod in [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]:
        for name, obj in list(vars(mod).items()):
            if callable(obj) and id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
    fields = sys.modules.get(f"{package}.fields")
    if "fields" in modules and hasattr(getattr(fields, "ScalarField", None), "eval"):
        cls = fields.ScalarField
        cls.eval = wrap("fields.eval", cls.eval, INFO["fields.eval"])
        installed.append("fields.eval")
    # the CLI writes its field CSVs through fields.save_csv; give that lookup
    # site its own span so cli.write_s counts only the CLI's writes
    cli = sys.modules.get(f"{package}.cli")
    if "cli" in modules and hasattr(cli, "save_csv"):
        cli.save_csv = wrap("cli.save_csv", getattr(cli.save_csv, "__wrapped__", cli.save_csv), None)
        installed.append("cli.save_csv")
    return installed
