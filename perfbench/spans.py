"""In-memory spans around calls into mgbary's layers, and the metrics read off them.

A span is (name, parent, start, end). Spans are appended in the order they
open, so the spans of one pass over a workload form one contiguous index
range. A span's self time is its duration minus the time covered by its
direct children; everything runs on one thread, so children of one span
never overlap and that time is the sum of their durations.

``installed`` wraps every public function of every mgbary module as it is
bound in each mgbary module (the package namespace included), and
``scipy.optimize.linprog`` as bound in ``barycenter`` (the joint LP) and
``transport`` (the transport LP). Wrappers read ``Tracer.enabled``, so output
checks can run untraced between operations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("barycenter", "covering", "transport", "metric_graph", "line_ot", "cli")

# linprog as bound in these modules -> (span name, prefix of its LP counters)
LINPROG = {
    "barycenter": ("highs.joint", "barycenter.lp"),
    "transport": ("highs.transport", "transport.lp"),
}

# LP solution entries at or below this count as zero, as in the library
ACTIVE_TOL = 1e-13

# Per-layer metrics of the traced run, in the order they are reported:
# (name, unit, better). BENCHMARK.json lists the same names.
PER_LAYER = [
    ("highs.joint.calls", "count", "lower"),
    ("highs.joint.busy_s", "s", "lower"),
    ("highs.joint.iterations", "count", "lower"),
    ("highs.transport.calls", "count", "lower"),
    ("highs.transport.busy_s", "s", "lower"),
    ("highs.transport.iterations", "count", "lower"),
    ("barycenter.solve_lp.calls", "count", "lower"),
    ("barycenter.solve_lp.busy_s", "s", "lower"),
    ("barycenter.solve_lp.self_s", "s", "lower"),
    ("barycenter.cost_matrix_s", "s", "lower"),
    ("barycenter.candidate_support.busy_s", "s", "lower"),
    ("barycenter.lp.vars", "count", "lower"),
    ("barycenter.lp.rows", "count", "lower"),
    ("barycenter.lp.nnz", "count", "lower"),
    ("barycenter.lp.active_frac", "ratio", "higher"),
    ("barycenter.solve_edge_fixed_point.calls", "count", "lower"),
    ("barycenter.solve_edge_fixed_point.busy_s", "s", "lower"),
    ("barycenter.solve_edge_fixed_point.self_s", "s", "lower"),
    ("barycenter.fixed_point.iterations", "count", "lower"),
    ("barycenter.fixed_point.converged_frac", "ratio", "higher"),
    ("barycenter.clamp_quantile.busy_s", "s", "lower"),
    ("barycenter.regularity_report.busy_s", "s", "lower"),
    ("barycenter.objective.busy_s", "s", "lower"),
    ("metric_graph.build_graph.calls", "count", "lower"),
    ("metric_graph.build_graph.busy_s", "s", "lower"),
    ("metric_graph.distance.calls", "count", "lower"),
    ("metric_graph.distance.busy_s", "s", "lower"),
    ("metric_graph.self_s", "s", "lower"),
    ("transport.discretize.busy_s", "s", "lower"),
    ("transport.w2_graph.calls", "count", "lower"),
    ("transport.w2_graph.busy_s", "s", "lower"),
    ("transport.w2_graph.self_s", "s", "lower"),
    ("transport.lp.vars", "count", "lower"),
    ("transport.lp.rows", "count", "lower"),
    ("transport.lp.nnz", "count", "lower"),
    ("transport.plan.active_frac", "ratio", "higher"),
    ("transport.classify_pair.calls", "count", "lower"),
    ("transport.classify_pair.busy_s", "s", "lower"),
    ("covering.phi.calls", "count", "lower"),
    ("covering.phi.busy_s", "s", "lower"),
    ("covering.phi.self_s", "s", "lower"),
    ("covering.make_cover_context.busy_s", "s", "lower"),
    ("covering.measure_on_edge_as_line.busy_s", "s", "lower"),
    ("line_ot.average_quantile.calls", "count", "lower"),
    ("line_ot.average_quantile.busy_s", "s", "lower"),
    ("line_ot.measure_from_quantile.busy_s", "s", "lower"),
    ("line_ot.w2_line.busy_s", "s", "lower"),
    ("line_ot.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# ratio metric -> (numerator counter, denominator counter or span name)
RATIOS = {
    "barycenter.lp.active_frac": ("barycenter.lp.active", "barycenter.lp.vars"),
    "transport.plan.active_frac": ("transport.lp.active", "transport.lp.vars"),
    "barycenter.fixed_point.converged_frac": (
        "barycenter.fixed_point.converged",
        "barycenter.solve_edge_fixed_point",
    ),
}


class Tracer:
    """Spans of one process, kept in flat arrays until the run writes them out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.enabled = True

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus that of its direct children.

    ``parent`` holds indices into the same arrays; a negative entry marks a
    root of this range.
    """
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


class SpanTable:
    """Spans ``lo:hi`` of a tracer as arrays, with per-name totals."""

    def __init__(self, tr: Tracer, lo: int, hi: int):
        self.names = list(tr.names)
        self.name = np.asarray(tr.name[lo:hi], dtype=np.int64)
        parent = np.asarray(tr.parent[lo:hi], dtype=np.int64) - lo
        self.parent = np.where(parent >= 0, parent, -1)
        self.duration = np.asarray(tr.end[lo:hi]) - np.asarray(tr.start[lo:hi])
        self.self_time = self_times(self.parent, self.duration)
        k = len(tr.names)
        self.calls = np.bincount(self.name, minlength=k)
        self.busy = np.bincount(self.name, weights=self.duration, minlength=k)
        self.own = np.bincount(self.name, weights=self.self_time, minlength=k)

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def total(self, name: str, per_name: np.ndarray) -> float:
        i = self._id(name)
        return float(per_name[i]) if i is not None else 0.0

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.own[ids].sum()) if ids else 0.0

    def child_time(self, child: str, parent: str) -> float:
        """Total duration of ``child`` spans whose direct parent is a ``parent`` span."""
        c, p = self._id(child), self._id(parent)
        if c is None or p is None:
            return 0.0
        mask = (self.name == c) & (self.parent >= 0)
        mask[mask] = self.name[self.parent[mask]] == p
        return float(self.duration[mask].sum())

    def top_self(self, k: int = 3) -> dict[str, list]:
        """For each root span, the ``k`` names with the largest self time in its tree.

        Spans open in order, so the tree of a root is the run of indices up
        to the next root.
        """
        roots = list(np.flatnonzero(self.parent < 0)) + [len(self.name)]
        out = {}
        for lo, hi in zip(roots, roots[1:]):
            own = np.bincount(
                self.name[lo:hi], weights=self.self_time[lo:hi], minlength=len(self.names)
            )
            order = np.argsort(-own)[:k]
            out[self.names[self.name[lo]]] = [
                [self.names[i], float(own[i])] for i in order if own[i] > 0.0
            ]
        return out


def layer_metrics(table: SpanTable, counts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric but the tracing overhead, for one traced pass."""
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if metric in RATIOS:
            num, den = RATIOS[metric]
            d = counts.get(den, table.total(den, table.calls))
            out[metric] = counts.get(num, 0.0) / d if d else 0.0
        elif metric == "barycenter.cost_matrix_s":
            out[metric] = table.child_time("metric_graph.distance", "barycenter.solve_lp")
        elif metric.endswith(".calls"):
            out[metric] = table.total(metric[: -len(".calls")], table.calls)
        elif metric.endswith(".busy_s"):
            out[metric] = table.total(metric[: -len(".busy_s")], table.busy)
        elif metric.endswith(".self_s"):
            owner = metric[: -len(".self_s")]
            if owner in LAYERS:
                out[metric] = table.layer_self(owner)
            else:
                out[metric] = table.total(owner, table.own)
        else:
            out[metric] = counts.get(metric, 0.0)
    return out


def _timed(tracer: Tracer, fn, name: str, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return traced


def _observe_fixed_point(tracer, args, kwargs, result):
    tracer.count("barycenter.fixed_point.iterations", result.iterations)
    tracer.count("barycenter.fixed_point.converged", float(result.converged))


def _lp_observer(highs: str, lp: str):
    def observe(tracer, args, kwargs, res):
        c, a_eq = args[0], kwargs["A_eq"]
        tracer.count(f"{highs}.iterations", res.nit)
        tracer.count(f"{lp}.vars", len(c))
        tracer.count(f"{lp}.rows", a_eq.shape[0])
        tracer.count(f"{lp}.nnz", a_eq.nnz)
        if res.x is not None:
            tracer.count(f"{lp}.active", int(np.count_nonzero(res.x > ACTIVE_TOL)))

    return observe


OBSERVERS = {"barycenter.solve_edge_fixed_point": _observe_fixed_point}


def public_functions(mod) -> dict[str, object]:
    return {
        attr: fn
        for attr, fn in vars(mod).items()
        if not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
    }


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Wrap mgbary's public functions and its linprog calls for the duration."""
    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
    wrappers = {}
    for short, mod in modules.items():
        for attr, fn in public_functions(mod).items():
            name = f"{short}.{attr}"
            wrappers[fn] = _timed(tracer, fn, name, OBSERVERS.get(name))
    patched = []
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    for short, (highs, lp) in LINPROG.items():
        mod = modules[short]
        patched.append((mod, "linprog", mod.linprog))
        mod.linprog = _timed(tracer, mod.linprog, highs, _lp_observer(highs, lp))
    try:
        yield
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)
