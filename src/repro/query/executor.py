"""Spec execution: one code path shared by every query surface.

:func:`execute_spec` turns a declarative :class:`~repro.query.spec.Query`
into an eager :class:`~repro.core.stats.QueryResult` record by
dispatching on the spec's kind and (planner-resolved) method.  The lazy
:class:`~repro.query.result.QueryResult`, the batch engine and the
planner's ``EXPLAIN ANALYZE`` all call into this module, so results
are identical no matter which surface issued the query.

Composite specs (:class:`~repro.query.spec.UnionQuery` /
``Intersection`` / ``Difference``) execute by **decomposition**: the
batch engine answers all leaves of one composite as a heterogeneous
batch (shared window frontiers and Voronoi seed-walk reuse apply across
siblings) and the sorted leaf id lists merge with lazy set semantics
(:mod:`repro.query.merge`).  :func:`stream_spec` is the lazy sibling of
:func:`execute_spec` for the specs that support it (composites,
``KnnQuery(k=None)``): it yields result row ids on demand without ever
materialising the full result.

Common options are applied uniformly by :func:`finalize_record`:
``predicate`` filters the already-refined points (it never sees a point
outside the query geometry), ``limit`` truncates in the result order of
the kind (ascending row id for region kinds, nearest-first for point
kinds).
"""

from __future__ import annotations

import time
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.core.knn_query import incremental_nearest, voronoi_knn_query
from repro.core.stats import QueryResult, QueryStats
from repro.core.traditional_query import traditional_area_query
from repro.core.voronoi_query import voronoi_area_query
from repro.geometry.polygon import Polygon
from repro.query.merge import (
    difference_sorted,
    intersection_sorted,
    union_sorted,
)
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    UnionQuery,
    WindowQuery,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase
    from repro.core.store import PointStore


def _columnar_store(
    database: "SpatialDatabase",
) -> Optional["PointStore"]:
    """The database's point store when the vectorized paths are on.

    Every execution helper threads this into the core algorithms: a
    store means columnar hot paths (bulk index probes, array refinement
    kernels, batched distances); ``None`` means the scalar per-point
    fallbacks — the equivalence oracle
    (``SpatialDatabase(vectorized=False)``).
    """
    return database.store if database.vectorized else None


def _tombstones(database: "SpatialDatabase"):
    """The store's tombstone map, or ``None`` when nothing was deleted.

    Threaded into the Voronoi algorithms so deleted rows act as transit
    vertices (expanded through, filtered from results) — the spatial
    index forgets them physically, but the Delaunay graph cannot remap
    positional ids and keeps them forever.
    """
    return database.store.deleted_rows or None


def resolve_method(database: "SpatialDatabase", spec: Query) -> str:
    """The concrete execution method for ``spec`` on ``database``.

    An explicit ``spec.method`` is returned as-is (it was validated at
    spec construction); ``"auto"`` asks the database's cost-based planner
    (:meth:`repro.engine.planner.QueryPlanner.plan`).
    """
    if spec.method != "auto":
        return spec.method
    return database.engine.planner.plan(spec)


def execute_spec(
    database: "SpatialDatabase",
    spec: Query,
    *,
    method: Optional[str] = None,
    seed_id: Optional[int] = None,
) -> QueryResult:
    """Execute ``spec`` and return the eager result record.

    Parameters
    ----------
    database:
        The target :class:`~repro.core.database.SpatialDatabase`.
    method:
        Override for the execution method (the planner's batch path and
        ``explain(execute=True)`` pass it explicitly); defaults to
        :func:`resolve_method`.
    seed_id:
        Optional known Voronoi seed (row id of the nearest point to the
        query geometry), used by the batch engine to skip the index NN
        descent after a successful neighbour-graph walk.  Only meaningful
        for voronoi-method executions.

    Returns
    -------
    QueryResult
        Ids plus :class:`~repro.core.stats.QueryStats` whose ``method``
        names the concrete method that ran.
    """
    if not isinstance(spec, Query):
        raise TypeError(f"not a query spec: {spec!r}")
    if method is None:
        method = resolve_method(database, spec)
    # Region kinds produce the raw geometric result and get the common
    # options applied here; point kinds weave predicate and limit into
    # their own expansion (a kNN must keep expanding until k rows *pass*
    # the filter), so finalize_record must NOT run again on top — the
    # predicate contract is one invocation per examined candidate.
    if isinstance(spec, AreaQuery):
        return finalize_record(
            database, spec, _execute_area(database, spec, method, seed_id)
        )
    if isinstance(spec, WindowQuery):
        return finalize_record(
            database, spec, _execute_window(database, spec, method, seed_id)
        )
    if isinstance(spec, KnnQuery):
        return _execute_knn(database, spec, method, seed_id)
    if isinstance(spec, NearestQuery):
        return _execute_nearest(database, spec)
    if isinstance(spec, CompositeQuery):
        return _execute_composite(database, spec)
    raise TypeError(f"not a query spec: {spec!r}")


def finalize_record(
    database: "SpatialDatabase", spec: Query, record: QueryResult
) -> QueryResult:
    """Apply the spec's common options (``predicate``, ``limit``).

    Only for **raw region-kind records** (area/window — the geometric
    result before user-level options); point kinds weave both options
    into their own expansion and must not pass through here, so that a
    spec's predicate is invoked exactly once per examined candidate.
    Mutates and returns ``record``; the per-method counters are left as
    the underlying algorithm reported them (the predicate is a
    user-level filter, not part of the geometric work being measured).
    """
    ids = record.ids
    if spec.predicate is not None:
        predicate = spec.predicate
        point = database.point
        ids = [i for i in ids if predicate(point(i))]
    if spec.limit is not None and len(ids) > spec.limit:
        ids = ids[: spec.limit]
    if ids is not record.ids:
        record.ids = ids
        record.stats.result_size = len(ids)
    return record


# -- per-kind execution -------------------------------------------------------


def _execute_area(
    database: "SpatialDatabase",
    spec: AreaQuery,
    method: str,
    seed_id: Optional[int],
) -> QueryResult:
    """Run an area query with ``method`` (non-empty database, positive area)."""
    if not len(database):
        raise EmptyDatabaseError("area query on an empty database")
    if spec.region.area <= 0.0:
        raise InvalidQueryAreaError("query area has zero area")
    if method == "traditional":
        return traditional_area_query(
            database.index, spec.region, store=_columnar_store(database)
        )
    return voronoi_area_query(
        database.index,
        database.backend,
        database.store.rows(),
        spec.region,
        seed_id=seed_id,
        store=_columnar_store(database),
        deleted=_tombstones(database),
    )


def _execute_window(
    database: "SpatialDatabase",
    spec: WindowQuery,
    method: str,
    seed_id: Optional[int],
) -> QueryResult:
    """Run a window query natively on the index or as a Voronoi expansion."""
    if method == "voronoi":
        if not len(database):
            raise EmptyDatabaseError("voronoi window query on an empty database")
        if spec.rect.area <= 0.0:
            raise InvalidQueryAreaError(
                "voronoi execution needs a positive-area window; "
                "degenerate rectangles route to method='index'"
            )
        return voronoi_area_query(
            database.index,
            database.backend,
            database.store.rows(),
            Polygon.from_rect(spec.rect),
            seed_id=seed_id,
            store=_columnar_store(database),
            deleted=_tombstones(database),
        )
    stats = QueryStats(method="index")
    index = database.index
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    if database.vectorized:
        import numpy as np

        id_array = index.window_ids_array(spec.rect)
        candidates = int(id_array.shape[0])
        id_array = np.sort(id_array)
        if spec.limit is not None and spec.predicate is None:
            # The limit would truncate the very same ascending prefix in
            # finalize_record; applying it on the array side skips
            # materialising thousands of Python ints for a first-page
            # response (finalize's own truncation becomes a no-op).
            id_array = id_array[: spec.limit]
        ids = id_array.tolist()
    else:
        entries = index.window_query(spec.rect)
        ids = sorted(item_id for _, item_id in entries)
        candidates = len(ids)
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.candidates = candidates
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = len(ids)
    return QueryResult(ids=ids, stats=stats)


def _effective_k(spec: KnnQuery) -> Optional[int]:
    """The row budget of a kNN spec (``k`` capped by ``limit``).

    ``None`` means *unbounded*: the spec streams (``k=None``) and no
    ``limit`` caps it either.
    """
    if spec.k is None:
        return spec.limit
    if spec.limit is not None:
        return min(spec.k, spec.limit)
    return spec.k


def _execute_knn(
    database: "SpatialDatabase",
    spec: KnnQuery,
    method: str,
    seed_id: Optional[int],
) -> QueryResult:
    """Run a kNN query via the index or the Voronoi neighbour graph.

    An unbounded spec (``k=None``, no ``limit``) materialises the full
    distance ranking here — the streaming consumption path is
    :func:`stream_spec`, which never calls this.
    """
    k = _effective_k(spec)
    if k is None:
        k = len(database)
    if k == 0 or not len(database):
        return QueryResult(ids=[], stats=QueryStats(method=method))
    if method == "voronoi":
        if spec.predicate is None:
            return voronoi_knn_query(
                database.index,
                database.backend,
                database.store.rows(),
                spec.point,
                k,
                seed_id=seed_id,
                store=_columnar_store(database),
                deleted=_tombstones(database),
            )
        return _knn_voronoi_filtered(database, spec, k)
    return _knn_index(database, spec, k)


def _knn_index(
    database: "SpatialDatabase", spec: KnnQuery, k: int
) -> QueryResult:
    """Best-first index kNN; predicates retry with a doubled ``k``.

    The index search takes ``k`` up front, so a predicate that rejects
    candidates may leave the result short; doubling until the result is
    full (or the database is exhausted) keeps the contract "the ``k``
    nearest points satisfying the predicate".  The result prefix of a
    larger search equals the smaller search (deterministic tie-breaks),
    so each doubling round examines — and hands to the predicate — only
    the candidates beyond the previous round: one invocation per
    examined candidate, even across retries.
    """
    stats = QueryStats(method="index")
    index = database.index
    predicate = spec.predicate
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    fetch = k
    n = len(database)
    ids: List[int] = []
    examined = 0
    while True:
        entries = index.k_nearest_neighbors(spec.point, fetch)
        for point, item_id in entries[examined:]:
            if len(ids) >= k:
                break
            if predicate is None or predicate(point):
                ids.append(item_id)
        examined = max(examined, len(entries))
        stats.candidates = examined
        if len(ids) >= k or fetch >= n:
            break
        fetch = min(n, fetch * 2)
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = len(ids)
    return QueryResult(ids=ids, stats=stats)


def _knn_voronoi_filtered(
    database: "SpatialDatabase", spec: KnnQuery, k: int
) -> QueryResult:
    """Streaming Voronoi kNN with a predicate: expand until ``k`` pass.

    Uses the lazy distance-ordered generator
    (:func:`repro.core.knn_query.incremental_nearest`), so only as many
    candidates are examined as the filter forces.
    """
    stats = QueryStats(method="voronoi")
    index = database.index
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    ids: List[int] = []
    predicate = spec.predicate
    point_of = database.point
    for row_id in incremental_nearest(
        index,
        database.backend,
        database.store.rows(),
        spec.point,
        store=_columnar_store(database),
        deleted=_tombstones(database),
    ):
        stats.candidates += 1
        if predicate is None or predicate(point_of(row_id)):
            ids.append(row_id)
            if len(ids) >= k:
                break
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = len(ids)
    return QueryResult(ids=ids, stats=stats)


def _execute_nearest(
    database: "SpatialDatabase", spec: NearestQuery
) -> QueryResult:
    """Run a 1-NN query (index best-first; predicate via doubling kNN)."""
    stats = QueryStats(method="index")
    if not len(database) or spec.limit == 0:
        return QueryResult(ids=[], stats=stats)
    if spec.predicate is not None:
        knn = KnnQuery(
            spec.point, 1, method="index", predicate=spec.predicate
        )
        return _knn_index(database, knn, 1)
    index = database.index
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    entry = index.nearest_neighbor(spec.point)
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    ids = [entry[1]] if entry is not None else []
    stats.candidates = len(ids)
    stats.result_size = len(ids)
    return QueryResult(ids=ids, stats=stats)


# -- composite execution ------------------------------------------------------


def merge_sorted_ids(
    spec: CompositeQuery, part_ids: List[Iterator[int]]
) -> Iterator[int]:
    """The lazy set-semantics merge of ``spec`` over sorted id streams.

    Dispatches on the composite kind to the generators of
    :mod:`repro.query.merge`; the eager batch path and the streaming
    path both run through here, so their semantics cannot drift.
    """
    if isinstance(spec, UnionQuery):
        return union_sorted(part_ids)
    if isinstance(spec, IntersectionQuery):
        return intersection_sorted(part_ids)
    if isinstance(spec, DifferenceQuery):
        return difference_sorted(part_ids[0], part_ids[1:])
    raise TypeError(f"not a composite spec: {spec!r}")


def _execute_composite(
    database: "SpatialDatabase", spec: CompositeQuery
) -> QueryResult:
    """Eagerly answer a composite by batch-decomposing its leaves.

    Delegates to the batch engine so the leaves of the composite are
    executed as one heterogeneous batch — siblings share window
    frontiers and Voronoi seed walks, and duplicate leaves execute once.
    The cross-batch LRU cache is not consulted (single-spec execution
    through :func:`execute_spec` never is, for any kind).
    """
    return database.engine.run_specs([spec], use_cache=False).results[0]


# -- streaming consumption ----------------------------------------------------


def stream_spec(
    database: "SpatialDatabase", spec: Query
) -> Iterator[int]:
    """Yield the result row ids of ``spec`` lazily, in result order.

    The streaming sibling of :func:`execute_spec`, used by
    :meth:`repro.query.result.QueryResult.first` and streaming
    iteration.  For an unbounded :class:`KnnQuery` the ranking is
    produced incrementally (:func:`repro.core.knn_query.incremental_nearest`)
    — stopping after ``n`` rows examines only ~``n`` candidates; for a
    composite, leaves execute on first demand and the set-merge itself
    never materialises.  Specs with nothing to gain from streaming
    (bounded leaf kinds) fall back to one eager execution and iterate
    its record; ids are identical to :func:`execute_spec` in every case.
    """
    if isinstance(spec, KnnQuery):
        return _stream_knn(database, spec)
    if isinstance(spec, CompositeQuery):
        return _stream_composite(database, spec)
    return iter(execute_spec(database, spec).ids)


def _stream_knn(
    database: "SpatialDatabase", spec: KnnQuery
) -> Iterator[int]:
    """Stream a kNN ranking lazily over the Voronoi neighbour graph.

    Always runs the incremental expansion regardless of ``spec.method``
    — the method field governs *eager* execution; a best-first index
    descent has no incremental form in this codebase.  The yielded order
    (distance, ties by row id) matches both eager methods.

    The generator body runs on the first ``next()`` — at the server this
    is synchronous with stream admission — and captures an MVCC
    :meth:`~repro.core.store.PointStore.snapshot` right there, so a
    stream that stays suspended across later writes keeps yielding
    exactly the admission-time version: rows inserted later never
    appear, rows deleted later still do (see
    :func:`repro.core.knn_query.incremental_nearest`).
    """
    if not len(database):
        return
    k = _effective_k(spec)
    if k == 0:
        return
    predicate = spec.predicate
    point_of = database.point
    produced = 0
    snapshot = database.store.snapshot()
    for row_id in incremental_nearest(
        database.index,
        database.backend,
        database.store.rows(),
        spec.point,
        store=_columnar_store(database),
        deleted=_tombstones(database),
        snapshot=snapshot,
    ):
        if predicate is not None and not predicate(point_of(row_id)):
            continue
        yield row_id
        produced += 1
        if k is not None and produced >= k:
            return


def _stream_composite(
    database: "SpatialDatabase", spec: CompositeQuery
) -> Iterator[int]:
    """Stream a composite's merged ids without materialising the merge.

    The *leaves* still execute through the batch engine — one shared
    heterogeneous batch on the first ``next()``, so streaming keeps the
    cross-sibling sharing (window frontiers, seed walks, leaf dedup)
    that eager execution gets — but the set-merge over their sorted id
    lists stays a lazy iterator: abandoning the stream (``first(n)``,
    ``takewhile``) abandons the remaining merge work, and the merged
    result is never materialised.  Nested composites merge recursively;
    every level's ``predicate``/``limit`` apply to its merged stream in
    the same order :func:`finalize_record` applies them eagerly.
    """

    def deferred() -> Iterator[int]:
        leaves = list(spec.iter_leaves())
        records = iter(
            database.engine.run_specs(leaves, use_cache=False).results
        )

        def build(node: Query) -> Iterator[int]:
            if isinstance(node, CompositeQuery):
                merged = merge_sorted_ids(
                    node, [build(part) for part in node.parts]
                )
                if node is spec:
                    return merged  # options applied once, below
                return _apply_stream_options(database, node, merged)
            return iter(next(records).ids)

        return _apply_stream_options(database, spec, build(spec))

    return _lazy_iter(deferred)


def _apply_stream_options(
    database: "SpatialDatabase", spec: Query, ids: Iterator[int]
) -> Iterator[int]:
    """Apply ``predicate``/``limit`` to a lazy id stream (in that order,
    matching :func:`finalize_record`)."""
    if spec.predicate is not None:
        predicate = spec.predicate
        point_of = database.point
        ids = (i for i in ids if predicate(point_of(i)))
    if spec.limit is not None:
        ids = islice(ids, spec.limit)
    return ids


def _lazy_iter(factory) -> Iterator[int]:
    """An iterator that calls ``factory`` only on the first ``next()``."""
    yield from factory()
