"""Span tracing around the public functions of diqkd_bounds, from outside.

`Tracer.install` replaces each traced function at the module attribute its
caller looks it up under (``from x import f`` binds ``f`` in the caller at
import time, so wrapping the defining module alone would miss those calls)
and `Tracer.restore` puts the originals back.  Spans hold a name, a start,
an end and the index of the enclosing span; they stay in memory until
`Tracer.totals` or `Tracer.dump` at the end of the run.

Work the tracer does on its own behalf (the untimed ``refine=False`` call
behind ``measures.intrinsic_info.refine_useful``) is timed and subtracted
from every span open around it, and from the operation's latency.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

# (module the caller looks the name up in, attribute, metric name)
PATCHES = (
    ("diqkd_bounds.cli", "main", "cli.main"),
    ("diqkd_bounds.cli", "bound_curve", "bounds.bound_curve"),
    ("diqkd_bounds.bounds", "bound_curve", "bounds.bound_curve"),
    ("diqkd_bounds.bounds", "fbjl_bound", "bounds.fbjl_bound"),
    ("diqkd_bounds.bounds", "al_bound", "bounds.al_bound"),
    ("diqkd_bounds.bounds", "convex_hull_bound", "bounds.convex_hull_bound"),
    ("diqkd_bounds.bounds", "fractional_er_bound", "bounds.fractional_er_bound"),
    ("diqkd_bounds.bounds", "pironio_er_bound", "bounds.pironio_er_bound"),
    ("diqkd_bounds.bounds", "channel_di_bound", "bounds.channel_di_bound"),
    ("diqkd_bounds.cli", "dephasing_simulation", "bounds.dephasing_simulation"),
    ("diqkd_bounds.bounds", "behavior_from", "devices.behavior_from"),
    ("diqkd_bounds.cli", "behavior_from", "devices.behavior_from"),
    ("diqkd_bounds.bounds", "assemble_ccq", "devices.assemble_ccq"),
    ("diqkd_bounds.bounds", "max_local_weight_with_residual",
     "polytope.max_local_weight_with_residual"),
    ("diqkd_bounds.cli", "max_local_weight", "polytope.max_local_weight"),
    ("diqkd_bounds.polytope", "simplex_solve", "polytope.simplex_solve"),
    ("diqkd_bounds.bounds", "intrinsic_info", "measures.intrinsic_info"),
    ("diqkd_bounds.measures", "intrinsic_info", "measures.intrinsic_info"),
    ("diqkd_bounds.bounds", "cmi_ccq", "measures.cmi_ccq"),
    ("diqkd_bounds.cli", "er_numeric", "measures.er_numeric"),
    ("diqkd_bounds.measures", "minimize", "measures.minimize"),
    ("diqkd_bounds.fileio", "load_state", "fileio.load_state"),
    ("diqkd_bounds.fileio", "load_behavior", "fileio.load_behavior"),
)

# Every traced run reports all of these, 0 where the workload never calls
# the layer; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("measures.intrinsic_info", ("calls", "ms", "self_ms", "refine_useful")),
    ("measures.minimize.nelder-mead", ("calls", "nfev", "ms")),
    ("measures.er_numeric", ("calls", "ms")),
    ("measures.minimize.l-bfgs-b", ("calls", "nfev", "nit", "ms")),
    ("measures.cmi_ccq", ("calls", "ms")),
    ("polytope.max_local_weight_with_residual", ("calls", "ms")),
    ("polytope.max_local_weight", ("calls", "ms")),
    ("polytope.simplex_solve", ("calls", "ms")),
    ("devices.behavior_from", ("calls", "ms")),
    ("devices.assemble_ccq", ("calls", "ms")),
    ("bounds.bound_curve", ("calls", "ms")),
    ("bounds.fbjl_bound", ("calls", "ms", "self_ms")),
    ("bounds.al_bound", ("calls", "ms")),
    ("bounds.convex_hull_bound", ("ms",)),
    ("bounds.fractional_er_bound", ("ms",)),
    ("bounds.pironio_er_bound", ("ms",)),
    ("bounds.channel_di_bound", ("ms",)),
    ("bounds.dephasing_simulation", ("ms",)),
    ("cli.main", ("self_ms",)),
    ("fileio.load_state", ("ms",)),
    ("fileio.load_behavior", ("ms",)),
)
UNITS = {"calls": "count", "nfev": "count", "nit": "count", "refine_useful": "count",
         "ms": "ms", "self_ms": "ms"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, excluded]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.excluded = 0.0  # seconds of tracer-only work so far
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.excluded])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            s = self.spans[idx]
            s[2] = time.perf_counter()
            s[4] = self.excluded - s[4]

    def _wrap(self, metric: str, fn):
        if metric == "measures.minimize":
            return functools.wraps(fn)(lambda *a, **k: self._minimize(fn, *a, **k))
        if metric == "measures.intrinsic_info":
            return functools.wraps(fn)(lambda *a, **k: self._intrinsic(fn, *a, **k))
        return functools.wraps(fn)(lambda *a, **k: self.span(metric, fn, *a, **k))

    def _minimize(self, fn, *args, **kwargs):
        name = f"measures.minimize.{str(kwargs.get('method', 'default')).lower()}"
        res = self.span(name, fn, *args, **kwargs)
        self.counts[f"{name}.nfev"] += int(getattr(res, "nfev", 0))
        self.counts[f"{name}.nit"] += int(getattr(res, "nit", 0))
        return res

    def _intrinsic(self, fn, *args, **kwargs):
        value = self.span("measures.intrinsic_info", fn, *args, **kwargs)
        t0 = time.perf_counter()
        unrefined = fn(*args, **{**kwargs, "refine": False})
        self.excluded += time.perf_counter() - t0
        if value < unrefined - 1e-12:
            self.counts["measures.intrinsic_info.refine_useful"] += 1
        return value

    def install(self):
        originals = {}
        for module_name, attr, metric in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.setdefault(id(fn), self._wrap(metric, fn))
            self._saved.append((module, attr, fn))
            setattr(module, attr, originals[id(fn)])

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self) -> dict[str, float]:
        """calls, ms and self_ms per span name, plus the counters."""
        durations = [(end - start - excl) * 1e3 for _, start, end, _, excl in self.spans]
        child_ms = [0.0] * len(self.spans)
        for (_, _, _, parent, _), ms in zip(self.spans, durations):
            if parent >= 0:
                child_ms[parent] += ms
        out: dict[str, float] = defaultdict(float, self.counts)
        for (name, *_), ms, inner in zip(self.spans, durations, child_ms):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += ms
            out[f"{name}.self_ms"] += ms - inner
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(totals: list[dict[str, float]], import_ms: list[float]) -> dict:
    """Per-layer metrics summed over the given span totals.

    ``import.ms`` is the median over fresh interpreters of the time to import
    diqkd_bounds.cli, not a sum.
    """
    merged: dict[str, float] = defaultdict(float)
    for t in totals:
        for key, value in t.items():
            merged[key] += value
    metrics = {}
    for name, fields in LAYER_METRICS:
        for field in fields:
            value = merged.get(f"{name}.{field}", 0.0)
            unit = UNITS[field]
            metrics[f"{name}.{field}"] = {
                "value": int(value) if unit == "count" else value, "unit": unit}
    metrics["import.ms"] = {"value": statistics.median(import_ms), "unit": "ms"}
    return metrics
