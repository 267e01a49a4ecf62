"""``paper_area``: the paper's Section IV experiment, in process.

One closed-loop caller answers every polygon of the op list twice
through ``SpatialDatabase.query`` -- once with ``method="voronoi"`` and
once with ``method="traditional"``, alternating which goes first -- and
checks both answers against a numpy brute-force scan, outside the timed
region.  Set-up (bulk load plus Voronoi preparation) runs three times
and reports its median.  The server, coalescer, result cache, live
subscriptions and writes are bypassed.
"""

from __future__ import annotations

import gc
import os
import resource
from time import perf_counter, perf_counter_ns, process_time, thread_time

import numpy as np

import oplists
import spans
from measure import boundary_warnings, normalized, normalized_setup, reference_ms, summarize
from oracle import polygon_rows

SETUPS = 3


def _setup(xy):
    from repro import SpatialDatabase

    before = reference_ms()
    started = perf_counter()
    db = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1], backend_kind="scipy")
    db.prepare()
    elapsed = perf_counter() - started
    return db, (elapsed, (before + reference_ms()) / 2.0)


def _pass(db, areas, order, xy, check, tracer=None):
    """Run every polygon with both methods.

    Returns per-method latencies, the timed blocks ``(latencies,
    seconds querying, reference_ms)`` of :data:`oplists.PAPER_BLOCK`
    polygons each (the reference is timed at every block boundary and a
    block gets the mean of its two), failures, result rows and the
    harness's own CPU time.  With a ``tracer``, each query's spans carry
    the query's index in the pass as their request id.
    """
    from repro import AreaQuery

    latencies = {"voronoi": [], "traditional": []}
    blocks = []
    block, block_seconds = [], 0.0
    failed = results = 0
    busy_cpu = 0.0
    cpu0 = process_time()
    previous = reference_ms()
    for i, (polygon, vertices) in enumerate(areas):
        expected = polygon_rows(xy[:, 0], xy[:, 1], vertices) if check else None
        for k, method in enumerate(order[i]):
            if tracer is not None:
                tracer.request = 2 * i + k
            spec = AreaQuery(polygon, method=method)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                ids = db.query(spec).ids()
            except Exception:  # counted as not answered
                ids = None
            elapsed = perf_counter() - t0
            busy_cpu += thread_time() - c0
            latencies[method].append(elapsed * 1e3)
            block.append(elapsed * 1e3)
            block_seconds += elapsed
            if ids is None or (check and not np.array_equal(ids, expected)):
                failed += 1
            else:
                results += len(ids)
        if (i + 1) % oplists.PAPER_BLOCK == 0 or i + 1 == len(areas):
            current = reference_ms()
            blocks.append((block, block_seconds, (previous + current) / 2.0))
            block, block_seconds, previous = [], 0.0, current
    harness_cpu = process_time() - cpu0 - busy_cpu
    return latencies, blocks, failed, results, harness_cpu


def run(seed: int, seconds: int, trace: bool, spans_dir: str) -> dict:
    from repro.geometry.polygon import Polygon

    ops = oplists.paper_area(seed, seconds)
    xy = oplists.points(seed)
    areas = [(Polygon(v), v) for v in ops["polygons"]]
    warmup = [(Polygon(v), v) for v in ops["warmup"]]
    order = [
        ("voronoi", "traditional") if first == "voronoi" else ("traditional", "voronoi")
        for first in ops["first"]
    ]
    tracer = spans.Tracer() if trace else None
    if tracer:
        spans.install(tracer)
    setups = []
    db = None
    for _ in range(1 if trace else SETUPS):
        db = None
        gc.collect()
        db, sample = _setup(xy)
        setups.append(sample)
    _pass(db, warmup, order, xy, check=False)
    if not tracer:
        return _report(setups, *_pass(db, areas, order, xy, check=True))

    spans.uninstall(tracer)
    plain = _pass(db, areas, order, xy, check=False)[1]
    spans.install(tracer)
    t0 = perf_counter_ns()
    _, blocks, failed, results, harness_cpu = _pass(db, areas, order, xy, check=True, tracer=tracer)
    t1 = perf_counter_ns()
    spans.uninstall(tracer)
    tracer.dump(os.path.join(spans_dir, "paper_area-client.json"))
    queries = 2 * len(areas)
    metrics = spans.layer_metrics(tracer.to_json(), t0, t1, queries=queries, results=results)
    metrics.update({
        "engine.cache_hit_frac": 0.0,
        "live.fanout_per_write": 0.0,
        "harness.client_cpu_ms_per_req": harness_cpu * 1e3 / queries,
        "trace.overhead_pct": 100.0 * (normalized(plain)[0]["rate"] / normalized(blocks)[0]["rate"] - 1.0),
    })
    return {
        "attempted": queries,
        "failed": failed,
        "metrics": metrics,
        "context": {"trace_spans": len(tracer.spans)},
    }


def _report(setups, latencies, blocks, failed, results, harness_cpu) -> dict:
    reads = latencies["voronoi"] + latencies["traditional"]
    figures, context = normalized(blocks, oplists.PAPER_WINDOW // oplists.PAPER_BLOCK)
    context.update({
        "setup_s_raw": [round(s, 4) for s, _ in setups],
        "harness_cpu_ms_per_req": round(harness_cpu * 1e3 / len(reads), 4),
        "warnings": boundary_warnings("read", latencies),
    })
    for method, values in latencies.items():
        context[method] = summarize(values)
    return {
        "attempted": len(reads),
        "failed": failed,
        "metrics": {
            "setup_s": normalized_setup(setups),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "answered_frac": (len(reads) - failed) / len(reads),
            "read_p50_ms": figures["p50"],
            "read_tail_ms": figures["tail"],
            "read_rps": figures["rate"],
        },
        "context": context,
    }
