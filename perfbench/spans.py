"""Spans around riderflow's public API, recorded from outside the package.

`traced(spans)` wraps every public function and method of each layer
module and rebinds the wrapper in every riderflow module that holds the
original, so calls between modules (for example `denominator` calling
the `trace` it imported by name) are recorded too.  Each call becomes a
span: name, start, end and parent.  Spans stay in compact arrays until
the benchmark writes them out; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "geometry", "dynamics", "arrangement", "denominator",
    "counting", "floatsim", "svgrender", "cli",
)
# Root span around each benchmark step; its self time is the harness's
# share of a traced pass (argument plumbing, stdout capture, wrappers).
BENCH = "bench"


class Spans:
    """In-memory span store plus counts observed at span boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self.counts = defaultdict(int)
        self._stack = []
        self._active = defaultdict(int)

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        """`fn` with a span per call; `observe` sees each call's result."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            stack, active = self._stack, self._active
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.outermost.append(active[nid] == 0)
            self.end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start = perf_counter()
            self.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if observe is not None:
                observe(self.counts, args, kwargs, result, end - start)
            return result

        return traced

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self):
        """name -> {"calls", "s" (outermost inclusive), "self_s"}."""
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        own = self.self_times()
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i]
            if self.outermost[i]:
                row["s"] += self.end[i] - self.start[i]
        return out

    def write(self, path):
        """Spans as tab-separated rows: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def _public_callables(module, layer):
    """(owner, attribute, span name, function, rewrap) for one module."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{layer}.{attr}", obj, None
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_"):
                    continue
                name = f"{layer}.{obj.__name__}.{mattr}"
                if inspect.isfunction(mobj):
                    yield obj, mattr, name, mobj, None
                elif isinstance(mobj, (classmethod, staticmethod)):
                    yield obj, mattr, name, mobj.__func__, type(mobj)


@contextlib.contextmanager
def traced(spans, observers=None, package="riderflow"):
    """Record spans for every public riderflow call inside the block."""
    observers = observers or {}
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    undo = []
    replaced = {}
    try:
        for layer, module in modules.items():
            for owner, attr, name, fn, rewrap in _public_callables(module, layer):
                wrapper = spans.wrap(name, fn, observers.get(name))
                if owner is module:
                    replaced[id(fn)] = wrapper
                else:
                    undo.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and callable(obj):
                    undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        yield spans
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics.  Each maps to the span it reads and the statistic.

SPAN_METRICS = {
    "geometry.classify.calls": ("geometry.Board.classify", "calls"),
    "geometry.classify.s": ("geometry.Board.classify", "s"),
    "geometry.side_of.calls": ("geometry.Edge.side_of", "calls"),
    "dynamics.trace.calls": ("dynamics.trace", "calls"),
    "dynamics.trace.s": ("dynamics.trace", "s"),
    "dynamics.antipode.calls": ("dynamics.antipode", "calls"),
    "dynamics.antipode.self_s": ("dynamics.antipode", "self_s"),
    "arrangement.enumerate_rigid_cycles.calls": ("arrangement.enumerate_rigid_cycles", "calls"),
    "arrangement.enumerate_rigid_cycles.s": ("arrangement.enumerate_rigid_cycles", "s"),
    "arrangement.classify_cycle.calls": ("arrangement.classify_cycle", "calls"),
    "arrangement.classify_cycle.s": ("arrangement.classify_cycle", "s"),
    "arrangement.matrix_rank.calls": ("arrangement.matrix_rank", "calls"),
    "arrangement.matrix_rank.s": ("arrangement.matrix_rank", "s"),
    "arrangement.solve_square_system.calls": ("arrangement.solve_square_system", "calls"),
    "arrangement.solve_square_system.s": ("arrangement.solve_square_system", "s"),
    "denominator.denominator.calls": ("denominator.denominator", "calls"),
    "denominator.denominator.self_s": ("denominator.denominator", "self_s"),
    "denominator.vertex_oracle.calls": ("denominator.vertex_oracle", "calls"),
    "denominator.vertex_oracle.s": ("denominator.vertex_oracle", "s"),
    "counting.count.calls": ("counting.count", "calls"),
    "counting.count.s": ("counting.count", "s"),
    "counting.attack_masks.s": ("counting.attack_masks", "s"),
    "counting.fit.calls": ("counting.fit", "calls"),
    "counting.fit.s": ("counting.fit", "s"),
    "counting.minimal_period.s": ("counting.minimal_period", "s"),
    "floatsim.simulate_float.s": ("floatsim.simulate_float", "s"),
    "svgrender.render_svg.s": ("svgrender.render_svg", "s"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _max_den_bits(points):
    return max(
        (max(p.x.denominator.bit_length(), p.y.denominator.bit_length()) for p in points),
        default=0,
    )


def _observe_trace(counts, args, kwargs, result, dt):
    counts["dynamics.trace.points"] += len(result.points)
    bits = _max_den_bits(result.points)
    if bits > counts["dynamics.trace.max_den_bits"]:
        counts["dynamics.trace.max_den_bits"] = bits


def _observe_count(counts, args, kwargs, result, dt):
    q = kwargs["q"] if "q" in kwargs else args[1]
    if q in (2, 3):
        counts[f"counting.count.q{q}_s"] += dt


def _tally(key, measure):
    def observe(counts, args, kwargs, result, dt):
        counts[key] += measure(result)
    return observe


OBSERVERS = {
    "dynamics.trace": _observe_trace,
    "arrangement.enumerate_rigid_cycles": _tally(
        "arrangement.enumerate_rigid_cycles.cycles", len),
    "arrangement.solve_square_system": _tally(
        "arrangement.solve_square_system.nonsingular", lambda r: r is not None),
    "denominator.denominator": _tally(
        "denominator.denominator.contributions", lambda r: len(r.contributions)),
    "counting.count": _observe_count,
    "counting.fit": _tally("counting.fit.accepted", lambda r: r is not None),
    "floatsim.simulate_float": _tally(
        "floatsim.simulate_float.steps", lambda r: len(r.points) - 1),
    "svgrender.render_svg": _tally("svgrender.render_svg.bytes", lambda r: len(r.encode())),
}

COUNT_METRICS = (
    "dynamics.trace.points",
    "dynamics.trace.max_den_bits",
    "arrangement.enumerate_rigid_cycles.cycles",
    "denominator.denominator.contributions",
    "counting.count.q2_s",
    "counting.count.q3_s",
    "floatsim.simulate_float.steps",
    "svgrender.render_svg.bytes",
    "cli.stdout_bytes",
)
RATIO_METRICS = {  # name -> (numerator count, denominator span)
    "arrangement.solve_square_system.nonsingular_frac": (
        "arrangement.solve_square_system.nonsingular", "arrangement.solve_square_system"),
    "counting.fit.accepted_frac": ("counting.fit.accepted", "counting.fit"),
}
LAYER_METRICS = tuple(f"layer.{name}.self_s" for name in LAYERS + (BENCH,))


def layer_metrics(spans):
    """Every per-layer metric of one traced pass, as name -> number."""
    summary = spans.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        out[metric] = summary.get(span, empty)[stat]
    for metric in COUNT_METRICS:
        out[metric] = spans.counts.get(metric, 0)
    for metric, (count, span) in RATIO_METRICS.items():
        calls = summary.get(span, empty)["calls"]
        out[metric] = spans.counts.get(count, 0) / calls if calls else 0.0
    for layer in LAYERS + (BENCH,):
        out[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in summary.items()
            if name.split(".", 1)[0] == layer
        )
    out["spans"] = len(spans)
    return out
