"""In-memory span recorder wrapped around d2dcache's cross-module bindings.

Tracing is installed from outside the program. Every public function that
one d2dcache module binds from another (``cli.best_method``,
``optimizer.make_code``, ``simulator.build_geometry_table``, ...) and every
function the package re-exports is replaced by a wrapper that records a
span: its name, layer, start, end and parent. Calls inside one module go
through that module's own globals and stay inside the caller's span, except
the few listed in ``_SELF_BINDINGS``: ``replicate`` calls ``simulate`` once
per replication, and the benchmark enters the CLI through ``cli.main``.

A layer's self time is the duration of its spans minus the time their
child spans cover. Spans stay in memory until the run is summarised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("geometry", "codes", "cost_model", "optimizer", "markov", "simulator", "cli")

_SELF_BINDINGS = {("simulator", "simulate"), ("cli", "main")}


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int  # index into Recorder.spans, -1 for a top-level span
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    counts: dict | None = None  # read from the returned object, for a few names

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while installed; ``uninstall`` restores the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, layer, parent)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every cross-module function binding of ``package``'s layers."""
        prefix = package.__name__ + "."
        modules = [package] + [importlib.import_module(prefix + layer) for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = obj.__module__ or ""
                layer = origin[len(prefix):] if origin.startswith(prefix) else None
                if layer not in LAYERS:
                    continue
                if mod.__name__ == origin and (layer, attr) not in _SELF_BINDINGS:
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, layer, f"{layer}.{attr}"))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span; two marks delimit a phase of the run."""
        return len(self.spans)


def _table_counts(args, kwargs, table) -> dict:
    return {"entries": len(table.entries)}


def _chain_counts(args, kwargs, state) -> dict:
    return {"states": len(state.lower) + len(state.upper) - 1}


def _frontier_counts(args, kwargs, result) -> dict:
    if hasattr(result, "frontier"):
        return {"candidates": len(result.frontier)}
    parts = (result.replication, result.msr, result.mbr)
    return {"candidates": sum(len(r.frontier) for r in parts)}


def _sim_counts(args, kwargs, result) -> dict:
    config = args[0] if args else kwargs["config"]
    c = result.counters
    return {
        "events": c["arrivals"] + c["departures"] + c["requests"],
        "repairs": c["repairs"],
        "repair_starvations": c["repair_starvations"],
        "fidelity": config.fidelity,
    }


_COUNTERS = {
    "geometry.build_geometry_table": _table_counts,
    "markov.simple_caching_steady_state": _chain_counts,
    "optimizer.best_method": _frontier_counts,
    "optimizer.optimize_replication": _frontier_counts,
    "optimizer.optimize_regenerating": _frontier_counts,
    "simulator.simulate": _sim_counts,
}

# Counters named before any optimisation, so a later change can claim a
# count moved. Each is a pure function of an operation's inputs.
PREREGISTERED = (
    "simulator.geometry_rebuilds",
    "geometry.entries",
    "optimizer.candidates",
    "simulator.events",
)


def preregistered_counts(spans: list[Span], lo: int, hi: int) -> dict[str, int]:
    """The pre-registered counters over spans[lo:hi]."""
    out = dict.fromkeys(PREREGISTERED, 0)
    for s in spans[lo:hi]:
        if s.counts is None:
            continue
        if s.name == "geometry.build_geometry_table":
            out["geometry.entries"] += s.counts["entries"]
            if s.parent >= 0 and spans[s.parent].layer == "simulator":
                out["simulator.geometry_rebuilds"] += 1
        elif "candidates" in s.counts:
            out["optimizer.candidates"] += s.counts["candidates"]
        elif "events" in s.counts:
            out["simulator.events"] += s.counts["events"]
    return out


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def span_medians(spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Median milliseconds of each span name in spans[lo:hi]; chain solves
    are split by state count, since their cost grows with it."""
    by: dict[str, list[float]] = {}
    for s in spans[lo:hi]:
        name = s.name
        if s.counts is not None and "states" in s.counts:
            name += f"[{s.counts['states']} states]"
        by.setdefault(name, []).append(s.duration)
    return {name: round(1e3 * _median(d), 4) for name, d in sorted(by.items())}


def layer_metrics(spans: list[Span], lo: int, hi: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics over spans[lo:hi], which cover ``wall_s`` seconds.

    Times in seconds are given only for layers every workload exercises
    (geometry, codes, cost_model, optimizer); the others give counts,
    rates and shares, which keep their meaning where the layer is idle.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy = dict.fromkeys(LAYERS, 0.0)  # time inside the layer, nesting counted once
    durations: dict[str, list[float]] = {}
    cost_us: list[float] = []
    calls = {"cost_model": 0, "optimizer": 0}
    sim = {"chain": [0, 0.0], "spatial": [0, 0.0]}  # events, event-loop seconds
    repairs = starvations = states = 0
    for s in spans[lo:hi]:
        d = s.duration
        self_s[s.layer] += d - s.child_s
        p = s.parent
        while p >= 0 and spans[p].layer != s.layer:
            p = spans[p].parent
        if p < 0:
            busy[s.layer] += d
        durations.setdefault(s.name, []).append(d)
        if s.layer in calls:
            calls[s.layer] += 1
            if s.layer == "cost_model":
                cost_us.append(1e6 * d)
        if s.counts is not None and "events" in s.counts:
            acc = sim[s.counts["fidelity"]]
            acc[0] += s.counts["events"]
            acc[1] += d - s.child_s
            repairs += s.counts["repairs"]
            starvations += s.counts["repair_starvations"]
        elif s.counts is not None and "states" in s.counts:
            states += s.counts["states"]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    def n_calls(name: str) -> int:
        return len(durations.get(name, ()))

    counts = preregistered_counts(spans, lo, hi)
    builds = durations.get("geometry.build_geometry_table", [])
    out = {
        "geometry.builds": len(builds),
        "geometry.entries": counts["geometry.entries"],
        "geometry.busy_s": busy["geometry"],
        "geometry.build_s_p50": _median(builds),
        "geometry.entries_per_s": rate(counts["geometry.entries"], busy["geometry"]),
        "markov.solves": n_calls("markov.simple_caching_steady_state"),
        "markov.states": states,
        "markov.states_per_s": rate(states, busy["markov"]),
        "codes.make_code_calls": n_calls("codes.make_code"),
        "codes.busy_s": busy["codes"],
        "cost_model.evals": calls["cost_model"],
        "cost_model.busy_s": busy["cost_model"],
        "cost_model.eval_us_p50": _median(cost_us),
        "optimizer.calls": calls["optimizer"],
        "optimizer.candidates": counts["optimizer.candidates"],
        "optimizer.busy_s": busy["optimizer"],
        "optimizer.self_s": self_s["optimizer"],
        "optimizer.candidates_per_s": rate(counts["optimizer.candidates"], busy["optimizer"]),
        "simulator.runs": n_calls("simulator.simulate"),
        "simulator.replicate_calls": n_calls("simulator.replicate"),
        "simulator.events": counts["simulator.events"],
        "simulator.chain_events_per_s": rate(*sim["chain"]),
        "simulator.spatial_events_per_s": rate(*sim["spatial"]),
        "simulator.geometry_rebuilds": counts["simulator.geometry_rebuilds"],
        "simulator.repairs": repairs,
        "simulator.repair_starvations": starvations,
        "cli.invocations": n_calls("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = 100.0 * self_s[layer] / wall_s
    out["trace.spans"] = hi - lo
    out["trace.unattributed_share"] = 100.0 * (wall_s - sum(self_s.values())) / wall_s
    return out
