"""Per-layer spans recorded from outside the program.

The tracer replaces module-level functions of qoptools with timing
wrappers (setattr on the module object, in this process only), so every
call a layer makes through its module globals is timed.  Spans are not
kept one by one: each finished span is folded into per-name totals and
into per-(parent, child) edges, which is all the metrics need and keeps
memory flat on runs with hundreds of thousands of calls.
"""
from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")
ROOT = "cli.main"
# self time may come out a hair negative from clock rounding; anything
# beyond this means spans were not nested and the accounting is broken
ACCOUNTING_SLACK_S = 1e-6


def load_layers() -> dict:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)


@dataclass
class _Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    worst_self_s: float = 0.0


@dataclass
class _Span:
    name: str
    start: float
    children_s: float = 0.0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _restore: list = field(default_factory=list)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; parent is the enclosing span."""
        stack = self._stack()
        span = _Span(name, time.perf_counter())
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            dur = time.perf_counter() - span.start
            own = dur - span.children_s
            stat = self.stats.setdefault(name, _Stat())
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += own
            stat.worst_self_s = min(stat.worst_self_s, own)
            parent = stack[-1].name if stack else None
            if stack:
                stack[-1].children_s += dur
            edge = self.edges.setdefault((parent, name), [0, 0.0])
            edge[0] += 1
            edge[1] += dur

    def wrap(self, module, name: str, label: str, after=None) -> None:
        """Replace module.name by a timed wrapper; a missing name is recorded, not raised."""
        original = getattr(module, name, None)
        if not callable(original):
            self.missing.append(label)
            return

        def wrapper(*args, **kwargs):
            result = self.span(label, original, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        setattr(module, name, wrapper)
        self._restore.append((module, name, original))

    def unwrap(self) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def accounting_errors(self) -> list[str]:
        """Check that each span's children plus its self time make up its duration."""
        errors = []
        for name, stat in self.stats.items():
            children = sum(t for (parent, _), (_, t) in self.edges.items() if parent == name)
            gap = stat.total_s - stat.self_s - children
            if abs(gap) > ACCOUNTING_SLACK_S * max(stat.calls, 1):
                errors.append(f"{name}: self + children differ from duration by {gap:.3e} s")
            if stat.worst_self_s < -ACCOUNTING_SLACK_S:
                errors.append(f"{name}: children outlast the span by {-stat.worst_self_s:.3e} s")
        return errors

    def edge_table(self) -> list[dict]:
        return [
            {"parent": parent, "child": child, "calls": calls, "total_s": total}
            for (parent, child), (calls, total) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]
            )
        ]


def _after_minimize(tracer: Tracer, res) -> None:
    tracer.count("bell.minimize.nit_sum", float(getattr(res, "nit", 0)))
    tracer.count("bell.minimize.successes", float(bool(getattr(res, "success", False))))


def _after_strategy_matrix(tracer: Tracer, rows) -> None:
    tracer.count("bell.strategy_rows_sum", float(len(rows)))


def _after_lhv_value(tracer: Tracer, result) -> None:
    value = result[0]
    tracer.count("bell.feasible", float(value >= -1e-9))


AFTER = {
    "bell.minimize": _after_minimize,
    "bell._strategy_matrix": _after_strategy_matrix,
    "bell._lhv_value_and_strategy": _after_lhv_value,
}


def install(tracer: Tracer, modules: dict, layers: dict) -> None:
    """Wrap every function named in layers.json on the given module objects."""
    for entry in layers["functions"]:
        label = f"{entry['module']}.{entry['function']}"
        tracer.wrap(modules[entry["module"]], entry["function"], label, AFTER.get(label))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _labels(layers: dict) -> list[tuple[str, bool]]:
    return [(ROOT, True)] + [
        (f"{e['module']}.{e['function']}", e["parent"]) for e in layers["functions"]
    ]


def metric_specs(layers: dict) -> list[dict]:
    """Every per-layer metric, in output order; BENCHMARK.json lists the same."""
    specs = []
    for label, parent in _labels(layers):
        specs.append({"name": f"{label}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{label}.ms", "unit": "ms", "better": "lower"})
        if label != ROOT:
            specs.append({"name": f"{label}.share", "unit": "fraction", "better": "lower"})
        if parent:
            specs.append({"name": f"{label}.self_ms", "unit": "ms", "better": "lower"})
    for counter in layers["counters"]:
        specs.append({"name": counter["name"], "unit": counter["unit"], "better": counter["better"]})
    return specs


def layer_metrics(tracer: Tracer, layers: dict, traced_wall_s: float, untraced_wall_s: float,
                  iterations: int) -> dict:
    """Value and unit of every per-layer metric.

    A function that did not run on this workload, or that no longer
    exists, reports zero calls and zero time.
    """
    values = {}
    for label, _ in _labels(layers):
        stat = tracer.stats.get(label, _Stat())
        values[f"{label}.calls"] = stat.calls
        values[f"{label}.ms"] = 1e3 * _ratio(stat.total_s, stat.calls)
        values[f"{label}.share"] = _ratio(stat.total_s, traced_wall_s)
        values[f"{label}.self_ms"] = 1e3 * _ratio(stat.self_s, stat.calls)

    def calls(label):
        return tracer.stats.get(label, _Stat()).calls

    c = tracer.counters
    values.update({
        "qmp.iterations": iterations,
        "bell.minimize.nit": _ratio(c.get("bell.minimize.nit_sum", 0.0), calls("bell.minimize")),
        "bell.minimize.success_frac": _ratio(c.get("bell.minimize.successes", 0.0),
                                             calls("bell.minimize")),
        "bell.strategy_rows": _ratio(c.get("bell.strategy_rows_sum", 0.0),
                                     calls("bell._strategy_matrix")),
        "bell.feasible_frac": _ratio(c.get("bell.feasible", 0.0),
                                     calls("bell._lhv_value_and_strategy")),
        "trace.overhead_frac": _ratio(traced_wall_s, untraced_wall_s) - 1.0,
        "trace.missing": len(tracer.missing),
    })
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in metric_specs(layers)
    }
