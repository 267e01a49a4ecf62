"""Seeded, count-bounded operation lists for every workload.

Everything the program receives is generated here from ``(seed,
seconds)`` alone, with numpy's PCG64 generator and no import of the
program: a change under ``src/`` can never change the inputs it is
measured on.  Each list is plain data (floats, ints, strings), so
:func:`canonical_bytes` gives a byte-exact fingerprint that the
self-tests compare across calls.

Operation counts are fixed from ``seconds`` through nominal rates (what
the parent program sustains on a 2-CPU box), never from a clock: two
runs with one seed execute exactly the same operations, and a faster
program simply finishes its list sooner.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: rows in every workload's data set (the paper's 1E5 scale)
N_POINTS = 100_000

#: paper_area: Voronoi + traditional query pairs per nominal second
#: (one pair at 1-32 % costs about 23 ms on the parent)
PAPER_PAIRS_PER_S = 40
PAPER_WARMUP = 16
PAPER_MIN_SIZE, PAPER_MAX_SIZE = 0.01, 0.32
#: polygons per timed block (one reference timing after each block)
PAPER_BLOCK = 2
#: polygons per window: each window is a full stratified sample of the
#: size range, and the tail and rate are medians over windows
PAPER_WINDOW = 100

SERVED_MIN_SIZE, SERVED_MAX_SIZE = 0.001, 0.01
KNN_K = 8

#: served_writes: one write cycle (insert, read-your-write probe, two
#: deletes) per nominal second, at least WRITE_MIN_CYCLES of them.  Every
#: insert stalls the server for one Delaunay rebuild, which delays one
#: reader read; 16 cycles keep the read tail (10 samples beyond) six
#: samples inside that stalled population instead of on its edge.
WRITE_MIN_CYCLES = 16
WRITE_DELETES_PER_CYCLE = 2
READS_PER_CYCLE = 50
#: reads timed beside a cycle's writes, then per block after them
WRITE_FIRST_BLOCK_READS = 20
WRITE_BLOCK_READS = 10
SUB_AREAS, SUB_WINDOWS, SUB_KNN = 3, 3, 3
SUB_MIN_SIZE, SUB_MAX_SIZE = 0.01, 0.04

_TAGS = {"points": 0, "paper_area": 1, "served_writes": 3}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[tag]])


def points(seed: int) -> np.ndarray:
    """The ``(N_POINTS, 2)`` uniform data set of ``seed``."""
    return _rng(seed, "points").random((N_POINTS, 2))


def _log_uniform(rng, low: float, high: float) -> float:
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def _stratified(rng, low: float, high: float, count: int) -> list:
    """``count`` log-uniform sizes over ``[low, high]``, one per
    equal-width stratum of the log range (jittered inside it), in random
    order.

    Every seed then covers the size range the same way: a percentile
    moves with the program, not with which sizes a seed happened to draw.
    """
    order = _van_der_corput(count)
    u = (np.asarray(order) + rng.random(count)) / count
    sizes = np.exp(math.log(low) + u * (math.log(high) - math.log(low)))
    return [float(v) for v in rng.permutation(sizes)]


def _van_der_corput(count: int) -> list:
    """The strata ``0..count-1`` in bit-reversed (low-discrepancy) order."""
    bits = max(1, (count - 1).bit_length())
    keys = sorted(range(count), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return keys


def star_polygon(rng, size: float, center=None, n: int = 10):
    """An irregular ``n``-vertex star polygon whose MBR covers ``size``.

    The paper's query shape: vertices at jittered angles around an
    interior point with jittered radii, so the polygon is simple and
    usually concave.  Placed uniformly in the unit square, or around
    ``center`` (which then lies strictly inside it).
    """
    steps = rng.uniform(0.4, 1.6, n)
    angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(
        steps * (2.0 * math.pi / steps.sum())
    )
    radii = np.clip(rng.normal(1.0, 0.45, n), 0.15, 2.0)
    xs = radii * np.cos(angles)
    ys = radii * np.sin(angles)
    width, height = float(np.ptp(xs)), float(np.ptp(ys))
    factor = min(math.sqrt(size / (width * height)), 1.0 / width, 1.0 / height)
    xs, ys = xs * factor, ys * factor
    if center is None:
        dx = rng.uniform(0.0, 1.0 - width * factor) - xs.min()
        dy = rng.uniform(0.0, 1.0 - height * factor) - ys.min()
    else:
        dx, dy = center
    return [[float(x + dx), float(y + dy)] for x, y in zip(xs, ys)]


def window(rng, size: float):
    """An axis-aligned window covering ``size`` of the unit square."""
    aspect = _log_uniform(rng, 0.5, 2.0)
    width = min(1.0, math.sqrt(size * aspect))
    height = min(1.0, size / width)
    x0 = float(rng.uniform(0.0, 1.0 - width))
    y0 = float(rng.uniform(0.0, 1.0 - height))
    return [x0, y0, x0 + width, y0 + height]


def paper_area(seed: int, seconds: int) -> dict:
    """Section IV: 10-vertex polygons, size log-uniform over 1-32 %."""
    rng = _rng(seed, "paper_area")
    count = max(1, int(seconds) * PAPER_PAIRS_PER_S // PAPER_WINDOW) * PAPER_WINDOW

    def polygons(k):
        return [
            star_polygon(rng, size)
            for size in _stratified(rng, PAPER_MIN_SIZE, PAPER_MAX_SIZE, k)
        ]

    warmup = polygons(PAPER_WARMUP)
    timed = [p for _ in range(count // PAPER_WINDOW) for p in polygons(PAPER_WINDOW)]
    return {
        "warmup": warmup,
        "polygons": timed,
        # alternate which method runs first, so neither always runs
        # on caches the other warmed
        "first": ["voronoi" if i % 2 == 0 else "traditional" for i in range(count)],
    }


def _spec(kind: str, geometry, method: str = "auto") -> dict:
    return {"kind": kind, "geometry": geometry, "method": method}


def served_writes(seed: int, seconds: int) -> dict:
    """Write cycles on one connection, distinct reads on another."""
    rng = _rng(seed, "served_writes")
    cycles = max(WRITE_MIN_CYCLES, int(seconds))
    subscriptions = []
    for size in _stratified(rng, SUB_MIN_SIZE, SUB_MAX_SIZE, SUB_AREAS):
        subscriptions.append(_spec("area", star_polygon(rng, size)))
    for size in _stratified(rng, SUB_MIN_SIZE, SUB_MAX_SIZE, SUB_WINDOWS):
        subscriptions.append(_spec("window", window(rng, size)))
    for _ in range(SUB_KNN):
        subscriptions.append(_spec("knn", [float(rng.random()), float(rng.random()), KNN_K]))
    deleted = rng.choice(N_POINTS, size=cycles * WRITE_DELETES_PER_CYCLE, replace=False)
    probe_sizes = _stratified(rng, SERVED_MIN_SIZE, SERVED_MAX_SIZE, cycles)
    writer = []
    for c in range(cycles):
        x, y = (float(v) for v in rng.uniform(0.05, 0.95, 2))
        probe = star_polygon(rng, probe_sizes[c], center=(x, y))
        writer.append({
            "insert": [x, y],
            "probe": _spec("area", probe, method="voronoi"),
            "deletes": [int(r) for r in deleted[c * WRITE_DELETES_PER_CYCLE:(c + 1) * WRITE_DELETES_PER_CYCLE]],
        })

    def reads(k):
        return [
            _spec("area", star_polygon(rng, size))
            for size in _stratified(rng, SERVED_MIN_SIZE, SERVED_MAX_SIZE, k)
        ]

    timed = reads(cycles * READS_PER_CYCLE)
    return {
        "subscriptions": subscriptions,
        "warmup": reads(20),
        "writer": writer,
        "reader": [timed[c * READS_PER_CYCLE:(c + 1) * READS_PER_CYCLE] for c in range(cycles)],
    }


BUILDERS = {"paper_area": paper_area, "served_writes": served_writes}


def build(workload: str, seed: int, seconds: int) -> dict:
    """The op list of ``workload`` for ``(seed, seconds)``."""
    return BUILDERS[workload](seed, seconds)


def canonical_bytes(oplist) -> bytes:
    """A byte-exact serialisation (floats in shortest round-trip form)."""
    return json.dumps(oplist, sort_keys=True, separators=(",", ":")).encode()
