"""Percentiles, tail choice, the reference clock, population-boundary
checks and span self time.

Percentiles use the nearest-rank definition: the ``q``-th percentile of
``n`` sorted samples is the sample at 1-based rank ``ceil(q / 100 * n)``.
A reported tail is the highest percentile that still has
:data:`TAIL_BEYOND` samples strictly above it, so it is never a single
outlier, and its percentile and sample count are reported with it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: samples that must lie beyond a reported tail
TAIL_BEYOND = 10
#: a reported rank this close to a population boundary is ambiguous
BOUNDARY_MARGIN = 5


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the ``q``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(q / 100.0 * n)))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of already-sorted values."""
    return sorted_values[nearest_rank(len(sorted_values), q) - 1]


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Optional[Tuple[int, float]]:
    """``(rank, percentile)`` of the highest percentile with ``beyond``
    samples above it, or ``None`` when there are too few samples."""
    if n < beyond + 1:
        return None
    rank = n - beyond
    return rank, 100.0 * rank / n


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """p50 and tail of ``values`` with the tail's percentile and count."""
    ordered = sorted(values)
    n = len(ordered)
    out: Dict[str, float] = {"n": n}
    if not n:
        return out
    out["p50"] = percentile(ordered, 50.0)
    out["p50_rank"] = nearest_rank(n, 50.0)
    tail = tail_rank(n)
    if tail is not None:
        rank, pct = tail
        out["tail"] = ordered[rank - 1]
        out["tail_rank"] = rank
        out["tail_pct"] = round(pct, 3)
    return out


#: what :func:`reference_ms` takes on a quiet 2-CPU box of the kind the
#: benchmark was sized on; normalised times read as milliseconds there
REFERENCE_NOMINAL_MS = 1.4
_REFERENCE_ARRAY = np.arange(200_000, dtype=np.float64)


def reference_ms() -> float:
    """Time a fixed kernel (an interpreter loop plus a numpy pass).

    The machine a benchmark shares changes speed by tens of percent
    within a minute: on a shared 2-CPU virtual machine a plain loop
    ranged 0.13-0.23 s between samples.  Timing this kernel between blocks of operations
    tells how fast the machine was while those operations ran; it never
    touches the program, so a change to the program cannot move it.
    """
    start = perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    float((np.sqrt(_REFERENCE_ARRAY) * _REFERENCE_ARRAY).sum())
    return (perf_counter() - start) * 1e3


def normalized(blocks: Sequence[Tuple[Sequence[float], float, float]], window: Optional[int] = None) -> Tuple[Dict[str, float], dict]:
    """p50, tail and rate of a run, in reference-normalised time.

    ``blocks`` holds ``(latencies_ms, seconds, reference_ms)`` per
    consecutive block of the op list, ``reference_ms`` timed around the
    block.  Each block's times are scaled by
    ``REFERENCE_NOMINAL_MS / reference_ms``: what they would have read on
    the machine at its nominal speed.  The raw figures are returned in
    the context.

    The p50 is taken over every sample.  With ``window`` the tail and the
    rate are medians over consecutive windows of that many blocks: a
    burst of load on a neighbour lasts a fraction of a second, too short
    for the reference to see, and it moves the tenth-largest sample of a
    whole run (or its mean rate) but not the median window.  Without
    ``window`` both are taken over the whole run.
    """
    scaled_blocks = []
    for latencies, block_seconds, reference in blocks:
        factor = REFERENCE_NOMINAL_MS / reference
        scaled_blocks.append(([v * factor for v in latencies], block_seconds * factor))
    window = window or len(blocks)
    groups = [scaled_blocks[i:i + window] for i in range(0, len(blocks) - window + 1, window)]
    tails, rates = [], []
    for group in groups:
        samples = [v for latencies, _ in group for v in latencies]
        tails.append(summarize(samples))
        rates.append(len(samples) / sum(s for _, s in group))
    summary = summarize([v for latencies, _ in scaled_blocks for v in latencies])
    references = sorted(reference for _, _, reference in blocks)
    raw = [v for latencies, _, _ in blocks for v in latencies]
    context = {
        "normalized": summary,
        "windows": {"blocks": window, "count": len(groups), "tail_rank": tails[0]["tail_rank"], "tail_pct": tails[0]["tail_pct"], "n": tails[0]["n"]},
        "raw": dict(summarize(raw), rate=len(raw) / sum(s for _, s, _ in blocks)),
        "reference_ms": {"p50": percentile(references, 50.0), "min": references[0], "max": references[-1], "n": len(references)},
    }
    figures = {
        "p50": summary["p50"],
        "tail": statistics.median(t["tail"] for t in tails),
        "rate": statistics.median(rates),
    }
    return figures, context


def normalized_setup(samples: Sequence[Tuple[float, float]]) -> float:
    """Median set-up time over ``(seconds, reference_ms)`` samples, each
    scaled to the nominal machine speed."""
    return statistics.median(s * REFERENCE_NOMINAL_MS / r for s, r in samples)


def separated(lower: Sequence[float], upper: Sequence[float]) -> bool:
    """Whether two latency populations barely overlap.

    True when the faster population's 90th percentile lies below the
    slower one's 10th: a percentile falling between them would jump
    from one population to the other with a handful of samples.
    """
    if not lower or not upper:
        return False
    return percentile(sorted(lower), 90.0) < percentile(sorted(upper), 10.0)


def population_boundaries(populations: Dict[str, Sequence[float]]) -> List[int]:
    """Ranks at which the sorted union of ``populations`` changes
    population, for each adjacent pair (by median) that is separated.

    A boundary ``b`` means samples at ranks ``<= b`` come from the faster
    populations.  Overlapping populations mix smoothly and give none.
    """
    ordered = sorted(
        (pop for pop in populations.values() if pop), key=statistics.median
    )
    boundaries: List[int] = []
    below = 0
    for lower, upper in zip(ordered, ordered[1:]):
        below += len(lower)
        if separated(lower, upper):
            boundaries.append(below)
    return boundaries


def near_boundary(rank: int, boundaries: Sequence[int], margin: int = BOUNDARY_MARGIN) -> bool:
    """Whether the sample at ``rank`` sits within ``margin`` samples of a
    boundary: the ranks ``b - margin + 1 .. b + margin`` are ambiguous."""
    return any(b - margin < rank <= b + margin for b in boundaries)


def boundary_warnings(name: str, populations: Dict[str, Sequence[float]]) -> List[str]:
    """Warnings for each reported percentile of the union of
    ``populations`` that sits near one of their boundaries."""
    union = [v for pop in populations.values() for v in pop]
    summary = summarize(union)
    boundaries = population_boundaries(populations)
    warnings = []
    for key in ("p50", "tail"):
        rank = summary.get(key + "_rank")
        if rank is not None and near_boundary(int(rank), boundaries):
            warnings.append(
                f"{name} {key} at rank {rank}/{summary['n']} is within "
                f"{BOUNDARY_MARGIN} samples of a population boundary {boundaries}"
            )
    return warnings


def covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)
