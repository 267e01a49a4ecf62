"""Span recording around the program's layer boundaries, from outside.

:func:`install` replaces public functions and methods of each layer
(``core``, ``index``, ``geometry``, ``delaunay``, ``engine``, ``query``,
``server``, ``live``, ``io``) with wrappers that record one span per
call: name, start, end, span id, parent span id, request id, and a few
counts taken where the work happens (candidates, points handed to a
kernel, batch size).  Nothing under ``src/`` changes; :func:`uninstall`
restores the originals.  Functions imported by name into a caller's
module are wrapped at that call site too, since that is the binding the
caller uses.

What a wrapper cannot see is not reported as a layer: per-neighbour
list indexing inside Algorithm 1's loop and the scalar per-point
containment tests of small BFS waves stay in ``core`` self time.

Both processes use ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on
Linux), so server spans and client phase marks share one time base.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter_ns

from measure import percentile, self_time

FIELDS = ("name", "start_ns", "end_ns", "id", "parent", "request", "attrs")


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names = []
        self._index = {}
        self.spans = []
        self.samples = defaultdict(list)
        self.request = None
        self._stack = []
        self._next_id = 1
        self._installed = []

    def _name(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, fn, attrs=None, request=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``attrs(args, kwargs, result)`` returns a tuple of counts;
        ``request(args, result)`` overrides the span's request id.
        """
        index = self._name(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((index, start, perf_counter_ns(), span_id, parent, self.request, ()))
                raise
            end = perf_counter_ns()
            stack.pop()
            counts = attrs(args, kwargs, result) if attrs else ()
            req = request(args, result) if request else self.request
            spans.append((index, start, end, span_id, parent, req, counts))
            return result

        traced.__wrapped__ = fn
        return traced

    def sample(self, name: str, value: float) -> None:
        """Record one timestamped value (exact samples the program takes)."""
        self.samples[name].append((perf_counter_ns(), value))

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "fields": list(FIELDS),
            "spans": [list(s[:6]) + [list(s[6])] for s in self.spans],
            "samples": {k: [list(v) for v in vs] for k, vs in self.samples.items()},
        }

    def dump(self, path: str) -> None:
        """Write every span and sample as JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, separators=(",", ":"))


# -- count extractors ---------------------------------------------------------


def _query_stats(args, kwargs, result):
    s = result.stats
    return (s.candidates, s.result_size, s.segment_tests, s.index_node_accesses)


def _points_in(args, kwargs, result):
    return (len(args[1]),)


def _batch_size(args, kwargs, result):
    return (len(args[1]),)


def _plan(args, kwargs, result):
    return (int(args[1].kind == "area"), int(result == "voronoi"))


def _events(args, kwargs, result):
    return (len(result),)


def _first_call():
    """Counts 1 on the first call per (backend object, size): a build."""
    seen = weakref.WeakKeyDictionary()

    def attrs(args, kwargs, result):
        backend = args[0]
        key = backend.size
        sizes = seen.setdefault(backend, set())
        if key in sizes:
            return (0,)
        sizes.add(key)
        return (1,)

    return attrs


def _frame_id(args, result):
    frame = result if isinstance(result, dict) else args[0]
    return frame.get("id") if isinstance(frame, dict) else None


# (module[:class], attribute, span name, counts, request id)
def _targets():
    return [
        ("repro.query.executor", "voronoi_area_query", "core.voronoi", _query_stats, None),
        ("repro.engine.batch", "voronoi_area_query", "core.voronoi", _query_stats, None),
        ("repro.query.executor", "traditional_area_query", "core.traditional", _query_stats, None),
        ("repro.core.database:SpatialDatabase", "insert", "core.insert", None, None),
        ("repro.core.database:SpatialDatabase", "delete", "core.delete", None, None),
        ("repro.core.database:SpatialDatabase", "prepare", "core.prepare", None, None),
        ("repro.index.rtree:RTree", "window_ids_array", "index.window", None, None),
        ("repro.index.rtree:RTree", "window_query", "index.window", None, None),
        ("repro.index.rtree:RTree", "nearest_neighbor", "index.nearest", None, None),
        ("repro.index.rtree:RTree", "k_nearest_neighbors", "index.knn", None, None),
        ("repro.index.rtree:RTree", "insert", "index.insert", None, None),
        ("repro.index.rtree:RTree", "delete", "index.delete", None, None),
        ("repro.index.rtree:RTree", "bulk_load", "index.bulk_load", None, None),
        ("repro.geometry.polygon:Polygon", "contains_many", "geometry.contains", _points_in, None),
        ("repro.geometry.rectangle:Rect", "contains_many", "geometry.contains", _points_in, None),
        ("repro.geometry.circle:Circle", "contains_many", "geometry.contains", _points_in, None),
        ("repro.engine.batch", "_rect_mask", "geometry.contains", _points_in, None),
        ("repro.core.database", "make_backend", "delaunay.build", None, None),
        ("repro.delaunay.backends:DelaunayBackend", "neighbor_table", "delaunay.neighbors", _first_call(), None),
        ("repro.delaunay.backends:DelaunayBackend", "neighbor_csr", "delaunay.neighbors", _first_call(), None),
        ("repro.engine.batch:BatchQueryEngine", "run_specs", "engine.run_specs", _batch_size, None),
        ("repro.engine.planner:QueryPlanner", "plan", "engine.plan", _plan, None),
        ("repro.query.executor", "execute_spec", "query.execute", None, None),
        ("repro.engine.batch", "execute_spec", "query.execute", None, None),
        ("repro.server.app", "decode_frame", "server.decode", None, _frame_id),
        ("repro.server.app", "encode_frame", "server.encode", None, _frame_id),
        ("repro.server.coalescer:BatchCoalescer", "enqueue", "server.enqueue", None, None),
        ("repro.server.coalescer:BatchCoalescer", "apply_write", "server.apply_write", None, None),
        ("repro.live.registry:SubscriptionRegistry", "apply_write", "live.apply_write", _events, None),
        ("repro.live.registry:SubscriptionRegistry", "register", "live.register", None, None),
        ("repro.io.persist", "load_database", "io.load", None, None),
    ]


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; missing targets are reported and skipped."""
    for path, attribute, name, attrs, request in _targets():
        try:
            owner = _owner(path)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        except (ImportError, AttributeError, KeyError):
            print(f"trace: no {path}.{attribute}; {name} not recorded there", file=sys.stderr)
            continue
        setattr(owner, attribute, tracer.wrap(name, original, attrs, request))
        tracer._installed.append((owner, attribute, original))
    _hook_admission_wait(tracer)


def _hook_admission_wait(tracer: Tracer) -> None:
    """Keep the exact admission waits each coalescer records."""
    from repro.server.coalescer import BatchCoalescer

    original_init = BatchCoalescer.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.admission_wait = _RecordingHistogram(self.admission_wait, tracer)

    BatchCoalescer.__init__ = init
    tracer._installed.append((BatchCoalescer, "__init__", original_init))


class _RecordingHistogram:
    """A histogram proxy that also keeps every recorded value."""

    def __init__(self, histogram, tracer: Tracer) -> None:
        self._histogram = histogram
        self._tracer = tracer

    def record_ms(self, ms: float) -> None:
        self._tracer.sample("server.admission_wait_ms", ms)
        self._histogram.record_ms(ms)

    def __getattr__(self, name):
        return getattr(self._histogram, name)


def uninstall(tracer: Tracer) -> None:
    """Restore every wrapped attribute."""
    for owner, attribute, original in reversed(tracer._installed):
        setattr(owner, attribute, original)
    tracer._installed.clear()


# -- per-layer aggregation ----------------------------------------------------

PER_LAYER = (
    "core.voronoi.self_ms",
    "core.voronoi.candidates_per_result",
    "core.voronoi.segment_tests_per_query",
    "core.traditional.self_ms",
    "core.traditional.candidates_per_result",
    "index.window_ms",
    "index.nearest_ms",
    "index.node_accesses_per_query",
    "index.insert_ms",
    "geometry.contains_ms_per_query",
    "geometry.points_tested_per_result",
    "delaunay.neighbors_ms_per_query",
    "delaunay.build_s",
    "delaunay.rebuilds",
    "delaunay.rebuild_ms",
    "engine.cache_hit_frac",
    "engine.exec_ms_per_query",
    "engine.plan_voronoi_frac",
    "query.execute_self_ms",
    "server.decode_ms",
    "server.encode_ms",
    "server.admission_wait_p50_ms",
    "server.mean_batch_size",
    "server.apply_write_ms",
    "live.apply_write_ms",
    "live.fanout_per_write",
    "io.load_s",
    "harness.client_cpu_ms_per_req",
    "trace.overhead_pct",
)

UNITS = {
    "candidates_per_result": "ratio",
    "points_tested_per_result": "ratio",
    "segment_tests_per_query": "count",
    "node_accesses_per_query": "count",
    "rebuilds": "count",
    "cache_hit_frac": "frac",
    "plan_voronoi_frac": "frac",
    "mean_batch_size": "count",
    "fanout_per_write": "count",
    "overhead_pct": "%",
}


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    leaf = metric.split(".")[-1]
    if leaf in UNITS:
        return UNITS[leaf]
    return "s" if leaf.endswith("_s") else "ms"


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(trace: dict, t0: int, t1: int, *, queries: int, results: int) -> dict:
    """Per-layer figures from a dumped trace over the phase ``[t0, t1]``.

    ``queries`` and ``results`` are the client's read count and the
    rows those reads returned in that phase; layers idle in the phase
    report 0.  Spans ending before ``t0`` are set-up spans.
    """
    names = trace["names"]
    spans = trace["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    phase = defaultdict(list)
    setup = defaultdict(list)
    for s in spans:
        if s[1] >= t0 and s[2] <= t1:
            phase[names[s[0]]].append(s)
        elif s[2] < t0:
            setup[names[s[0]]].append(s)

    def dur(s):
        return s[2] - s[1]

    def total_ms(group):
        return sum(dur(s) for s in group) / 1e6

    def mean_ms(group):
        return _div(total_ms(group), len(group))

    def self_ms(group, only=None):
        total = 0
        for s in group:
            kids = [(c[1], c[2]) for c in children[s[3]] if only is None or names[c[0]] == only]
            total += self_time(s[1], s[2], kids)
        return _div(total / 1e6, len(group))

    def attr_sum(group, i):
        return sum(s[6][i] for s in group if len(s[6]) > i)

    vor, trad = phase["core.voronoi"], phase["core.traditional"]
    neighbors = phase["delaunay.neighbors"]
    plans = phase["engine.plan"]
    setup_builds = setup["delaunay.build"]
    setup_neighbor_builds = [s for s in setup["delaunay.neighbors"] if s[6] and s[6][0]]
    phase_neighbor_builds = [s for s in neighbors if s[6] and s[6][0]]
    waits = [v for t, v in trace.get("samples", {}).get("server.admission_wait_ms", []) if t0 <= t <= t1]
    rebuilds = len(phase["delaunay.build"])
    return {
        "core.voronoi.self_ms": self_ms(vor),
        "core.voronoi.candidates_per_result": _div(attr_sum(vor, 0), attr_sum(vor, 1)),
        "core.voronoi.segment_tests_per_query": _div(attr_sum(vor, 2), len(vor)),
        "core.traditional.self_ms": self_ms(trad),
        "core.traditional.candidates_per_result": _div(attr_sum(trad, 0), attr_sum(trad, 1)),
        "index.window_ms": mean_ms(phase["index.window"]),
        "index.nearest_ms": mean_ms(phase["index.nearest"]),
        "index.node_accesses_per_query": _div(attr_sum(vor, 3) + attr_sum(trad, 3), len(vor) + len(trad)),
        "index.insert_ms": mean_ms(phase["index.insert"]),
        "geometry.contains_ms_per_query": _div(total_ms(phase["geometry.contains"]), queries),
        "geometry.points_tested_per_result": _div(attr_sum(phase["geometry.contains"], 0), results),
        "delaunay.neighbors_ms_per_query": _div(total_ms(neighbors), len(vor)),
        "delaunay.build_s": _div(total_ms(setup_builds) + total_ms(setup_neighbor_builds), len(setup_builds)) / 1e3,
        "delaunay.rebuilds": rebuilds,
        "delaunay.rebuild_ms": _div(total_ms(phase["delaunay.build"]) + total_ms(phase_neighbor_builds), rebuilds),
        "engine.exec_ms_per_query": _div(total_ms(phase["engine.run_specs"]), queries),
        "engine.plan_voronoi_frac": _div(attr_sum(plans, 1), attr_sum(plans, 0)),
        "query.execute_self_ms": _div(self_ms(phase["query.execute"]) * len(phase["query.execute"]), queries),
        "server.decode_ms": mean_ms(phase["server.decode"]),
        "server.encode_ms": mean_ms(phase["server.encode"]),
        "server.admission_wait_p50_ms": percentile(sorted(waits), 50.0) if waits else 0.0,
        "server.mean_batch_size": _div(attr_sum(phase["engine.run_specs"], 0), len(phase["engine.run_specs"])),
        "server.apply_write_ms": self_ms(phase["server.apply_write"], only="engine.run_specs"),
        "live.apply_write_ms": mean_ms(phase["live.apply_write"]),
        "io.load_s": mean_ms(setup["io.load"]) / 1e3,
    }
