"""The user-facing spatial database.

:class:`SpatialDatabase` owns the pieces every query strategy shares:

* the **point table** — a columnar :class:`~repro.core.store.PointStore`
  (contiguous float64 ``xs``/``ys``, row id = array index); the hot
  paths gather coordinates straight from its arrays, while
  :attr:`SpatialDatabase.points` / :meth:`SpatialDatabase.point`
  materialize :class:`Point` objects at the API edge (see the
  conversion-boundary note in :mod:`repro.geometry.point`),
* a **spatial index** (R-tree by default — the paper's choice for both the
  window query of the baseline and the NN seed of the Voronoi method),
* a **Voronoi neighbour backend** (built lazily on first use, since the
  traditional method never needs it), and
* a **batch query engine** (also lazy — see :mod:`repro.engine`) holding
  the cost-based planner and the spec-keyed result cache.

Queries are issued as declarative spec objects (:mod:`repro.query`)
through the single entry point :meth:`SpatialDatabase.query` (or
:meth:`SpatialDatabase.query_batch` for heterogeneous batches)::

    from repro import SpatialDatabase, AreaQuery, KnnQuery, random_query_polygon

    db = SpatialDatabase.from_points(points)
    area = random_query_polygon(query_size=0.01)
    result = db.query(AreaQuery(area))          # planner picks the method
    print(result.ids(), result.stats.candidates)
    print(result.explain().render())            # predicted vs measured
    near = db.query(KnnQuery((0.5, 0.5), 8)).points()

Specs compose: ``UnionQuery`` / ``IntersectionQuery`` /
``DifferenceQuery`` combine region queries with set semantics (the batch
engine decomposes them so sibling leaves share work), and
``KnnQuery(point, k=None)`` streams the distance ranking incrementally —
``db.query(spec).first(10)`` examines only ~10 candidates::

    ring = db.query(DifferenceQuery((AreaQuery(outer), AreaQuery(inner))))
    closest = db.query(KnnQuery((0.5, 0.5), None)).first(10)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.region import QueryRegion
from repro.index import make_index
from repro.index.base import SpatialIndex
from repro.delaunay.backends import DelaunayBackend, make_backend
from repro.core.exceptions import EmptyDatabaseError
from repro.core.store import PointStore, PointsView
from repro.query.result import BatchQueryResults
from repro.query.result import QueryResult as LazyQueryResult
from repro.query.spec import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.batch import BatchQueryEngine
    from repro.engine.planner import PlanExplanation


class SpatialDatabase:
    """A point database answering area queries by either paper method.

    Parameters
    ----------
    index_kind:
        Registry name of the spatial index (default ``"rtree"``, as in the
        paper).  See :data:`repro.index.INDEX_REGISTRY`.
    backend_kind:
        Voronoi-neighbour backend: ``"pure"`` (our Bowyer–Watson, default)
        or ``"scipy"`` (Qhull-accelerated, identical neighbour sets).
    vectorized:
        When ``True`` (the default) queries run the columnar hot paths —
        array refinement kernels, bulk index probes, batched distances —
        over the :class:`~repro.core.store.PointStore` columns.
        ``False`` forces the scalar per-point fallbacks everywhere; the
        two modes return byte-identical results (pinned by
        ``tests/core/test_columnar_equivalence.py``), so the flag exists
        as the equivalence oracle and for debugging, not as a tuning
        knob.
    index_kwargs:
        Extra constructor arguments for the index (e.g. ``max_entries``).
    """

    def __init__(
        self,
        index_kind: str = "rtree",
        backend_kind: str = "pure",
        *,
        vectorized: bool = True,
        **index_kwargs,
    ) -> None:
        self._store = PointStore()
        self._index: SpatialIndex = make_index(index_kind, **index_kwargs)
        self._index_kind = index_kind
        self._backend_kind = backend_kind
        self._backend: Optional[DelaunayBackend] = None
        self._engine: Optional["BatchQueryEngine"] = None
        #: run the columnar/vectorized hot paths (scalar oracle if False)
        self.vectorized = bool(vectorized)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        points: Iterable[Point] | Iterable[Tuple[float, float]],
        *,
        index_kind: str = "rtree",
        backend_kind: str = "pure",
        vectorized: bool = True,
        **index_kwargs,
    ) -> "SpatialDatabase":
        """Bulk-build a database from an iterable of points or (x, y) pairs."""
        db = cls(
            index_kind, backend_kind, vectorized=vectorized, **index_kwargs
        )
        db.extend(points)
        return db

    @classmethod
    def from_arrays(
        cls,
        xs,
        ys,
        *,
        index_kind: str = "rtree",
        backend_kind: str = "pure",
        vectorized: bool = True,
        **index_kwargs,
    ) -> "SpatialDatabase":
        """Bulk-build from coordinate arrays (row id = array index).

        The columnar loading edge: the arrays land in the
        :class:`~repro.core.store.PointStore` with one numpy copy each —
        no per-point Python conversion — and only the index bulk load
        materializes :class:`Point` objects (once, via the store's
        cached view).  Snapshot restores
        (:func:`repro.io.persist.load_database`, ``repro serve --load``)
        come through here.
        """
        db = cls(
            index_kind, backend_kind, vectorized=vectorized, **index_kwargs
        )
        rows = db._store.extend_array(xs, ys)
        view = db._store.view()
        db._index.bulk_load((view[row], row) for row in rows)
        db._backend = None
        return db

    def insert(self, point: Point | Tuple[float, float]) -> int:
        """Add one point; returns its row id.

        The paper treats the Voronoi diagram as a precomputed structure
        over a static dataset; we go one step further: when the (pure)
        backend is already built, the diagram is maintained *incrementally*
        (expected O(1) cavity work per insert).  The scipy backend, and
        points falling far outside the original extent, fall back to
        lazy rebuild-on-next-use.
        """
        p = point if isinstance(point, Point) else Point(*map(float, point))
        row_id = self._store.append(p.x, p.y)
        self._index.insert(p, row_id)
        backend = self._backend
        if backend is not None:
            add_point = getattr(backend, "add_point", None)
            if add_point is not None:
                try:
                    add_point(p)
                    return row_id
                except ValueError:
                    pass  # outside the incremental-safe extent
            self._backend = None
        return row_id

    def extend(
        self, points: Iterable[Point] | Iterable[Tuple[float, float]]
    ) -> List[int]:
        """Add many points via the index's bulk loader; returns their row ids.

        Like :meth:`insert`, an already-built pure backend is maintained
        *incrementally* (one cavity insertion per point) instead of being
        discarded for a full rebuild; the scipy backend, and points far
        outside the original extent, fall back to lazy rebuild-on-next-use.
        """
        normalized = [
            p if isinstance(p, Point) else Point(float(p[0]), float(p[1]))
            for p in points
        ]
        rows = self._store.extend_points(normalized)
        self._index.bulk_load(
            (p, row) for p, row in zip(normalized, rows)
        )
        backend = self._backend
        if backend is not None and normalized:
            add_point = getattr(backend, "add_point", None)
            if add_point is None or backend.size != rows.start:
                self._backend = None
            else:
                try:
                    for p in normalized:
                        add_point(p)
                except ValueError:  # outside the incremental-safe extent
                    self._backend = None
        return list(rows)

    def delete(self, row_id: int) -> None:
        """Tombstone one row: remove it from every live read path.

        The row is deleted *physically* from the spatial index (window,
        traditional and index-kNN paths never see it again) and
        *logically* from the point table — its coordinates stay
        addressable so the Delaunay graph keeps the vertex as a transit
        node (the Voronoi expansions traverse through it but filter it
        from results; the paper's coverage argument holds over the
        superset point set) and so MVCC snapshot readers admitted before
        the delete still see it.  Raises :class:`IndexError` for an
        out-of-range id, :class:`ValueError` if already deleted; a
        rejected delete changes nothing.
        """
        point = self._store.point(row_id)  # IndexError when out of range
        self._store.delete(row_id)  # ValueError when already deleted
        self._index.delete(point, row_id)

    def __len__(self) -> int:
        """The number of *live* rows (inserted minus deleted).

        Tombstoned rows keep their ids (``db.store`` still addresses
        them) but no longer count — this is the cardinality every query
        answer is drawn from.
        """
        return self._store.live_count

    @property
    def version(self) -> int:
        """Monotonic data version, bumped by every mutation.

        The engine's result cache stamps entries with this value, so any
        ``insert``/``extend`` implicitly invalidates cached query results.
        (Delegates to the :class:`~repro.core.store.PointStore` stamp —
        the store is the single source of truth for the table.)
        """
        return self._store.version

    def point(self, row_id: int) -> Point:
        """The point stored at ``row_id`` (materialized once, then cached)."""
        return self._store.point(row_id)

    @property
    def points(self) -> PointsView:
        """The full point table as an immutable view (row id = index).

        A live, read-only :class:`~repro.core.store.PointsView` over the
        columnar store: indexing, slicing, iteration and equality behave
        like the list this property used to return, but there are no
        mutators — callers cannot desynchronise the table from the
        spatial index (or the engine's version-stamped cache) by
        appending to what they were handed.  ``Point`` objects
        materialize lazily on first access and stay cached (the store is
        append-only, so they never invalidate).
        """
        return self._store.view()

    @property
    def store(self) -> PointStore:
        """The columnar coordinate store (the hot paths' data plane)."""
        return self._store

    @property
    def index(self) -> SpatialIndex:
        """The underlying spatial index."""
        return self._index

    @property
    def backend(self) -> DelaunayBackend:
        """The Voronoi neighbour backend (built on first access)."""
        if self._backend is None:
            if not len(self._store):
                raise EmptyDatabaseError(
                    "cannot build a Voronoi diagram over an empty database"
                )
            self._backend = make_backend(
                self._backend_kind, self._store.view()
            )
        return self._backend

    def prepare(self) -> "SpatialDatabase":
        """Force-build the Voronoi backend now (otherwise lazy); returns self.

        Experiments call this so that backend construction is excluded from
        per-query timings, matching the paper's setting where the Voronoi
        diagram is a precomputed database structure like the R-tree.
        """
        self.backend.neighbor_table()
        return self

    # -- queries -----------------------------------------------------------

    @property
    def engine(self) -> "BatchQueryEngine":
        """The batch query engine over this database (built on first use).

        One engine (and thus one result cache and one planner) is shared
        by every :meth:`query`, :meth:`query_batch` and :meth:`explain`
        call.
        """
        if self._engine is None:
            from repro.engine.batch import BatchQueryEngine

            self._engine = BatchQueryEngine(self)
        return self._engine

    def query(self, spec: Query) -> LazyQueryResult:
        """The single entry point: answer any declarative query spec.

        ``spec`` is an :class:`~repro.query.spec.AreaQuery`,
        :class:`~repro.query.spec.WindowQuery`,
        :class:`~repro.query.spec.KnnQuery`,
        :class:`~repro.query.spec.NearestQuery`, or a composite
        (:class:`~repro.query.spec.UnionQuery` /
        :class:`~repro.query.spec.IntersectionQuery` /
        :class:`~repro.query.spec.DifferenceQuery`).  Returns a **lazy**
        :class:`~repro.query.result.QueryResult` immediately; execution
        happens on first consumption (iteration, ``.ids()``,
        ``.points()``, ``.stats``, ...) and is memoised on the handle.
        ``spec.method="auto"`` routes through the cost-based planner;
        ``result.explain()`` shows the decision with predicted (and, once
        executed, measured) costs — for a composite, one nested
        explanation per part.  Streaming-capable specs (composites,
        ``KnnQuery(k=None)``) additionally support lazy consumption:
        ``result.first(n)`` / plain iteration produce rows on demand
        without materialising the full result.
        """
        return LazyQueryResult(self, spec)

    def query_batch(
        self, specs: Sequence[Query], *, use_cache: bool = True
    ) -> BatchQueryResults:
        """Answer a (possibly heterogeneous) batch of query specs.

        Executes eagerly through the batch engine — that is where
        cross-query sharing lives: Hilbert-ordered tours, shared window
        frontiers, Voronoi seed reuse, intra-batch dedup, and the
        spec-keyed LRU result cache (disable with ``use_cache=False``).
        Composite specs are decomposed into the same job pool, so their
        leaves share work with each other *and* with the rest of the
        batch (see :mod:`repro.engine.batch`).
        Returns a :class:`~repro.query.result.BatchQueryResults` of
        already-executed lazy handles in submission order, id-identical
        to calling :meth:`query` per spec, plus batch-level
        :class:`~repro.engine.batch.BatchStats` in ``.stats``.
        """
        batch = self.engine.run_specs(specs, use_cache=use_cache)
        handles = [
            LazyQueryResult(self, spec, record=record)
            for spec, record in zip(specs, batch.results)
        ]
        return BatchQueryResults(handles, batch.stats)

    def explain(
        self, target: "Query | QueryRegion", *, execute: bool = False
    ) -> "PlanExplanation":
        """The planner's cost breakdown and method choice for ``target``.

        ``target`` is a query spec (any kind) or a bare query region
        (treated as ``AreaQuery(region)``).  With ``execute=True`` every
        executable method is also run and its measured costs reported
        next to the predictions (``EXPLAIN ANALYZE``).
        """
        if isinstance(target, Query):
            return self.engine.planner.explain_spec(target, execute=execute)
        return self.engine.planner.explain(target, execute=execute)

    def voronoi_neighbors(self, row_id: int) -> Tuple[int, ...]:
        """Row ids of the Voronoi neighbours of ``row_id``.

        Not a query in the spec sense — it exposes the database's Voronoi
        adjacency *structure* (Algorithm 1's substrate).
        """
        return self.backend.neighbors(row_id)

    # -- maintenance ---------------------------------------------------------

    def classify_against(
        self, area: QueryRegion
    ) -> Dict[str, List[int]]:
        """Partition all rows into the paper's three classes w.r.t. ``area``.

        Returns a dict with keys ``internal`` (inside the area), ``boundary``
        (outside but Voronoi-adjacent to an internal point or crossing the
        boundary along an adjacency edge), and ``external`` (everything
        else).  Used by tests for Properties 7–9 and by examples for
        visualisation.
        """
        internal: List[int] = []
        boundary: List[int] = []
        external: List[int] = []
        points = self._store.view()
        contains_many = (
            getattr(area, "contains_many", None) if self.vectorized else None
        )
        if contains_many is not None:
            mask = contains_many(self._store.xs, self._store.ys)
            inside = set(map(int, mask.nonzero()[0]))
        else:
            inside = {
                row_id
                for row_id, p in enumerate(points)
                if area.contains_point(p)
            }
        deleted = self._store.deleted_rows
        if deleted:
            inside -= deleted.keys()
        from repro.geometry.segment import Segment

        for row_id, p in enumerate(points):
            if row_id in deleted:
                continue  # tombstones are transit vertices, not members
            if row_id in inside:
                internal.append(row_id)
                continue
            adjacent = False
            for neighbor in self.backend.neighbors(row_id):
                if neighbor in inside or area.intersects_segment(
                    Segment(p, points[neighbor])
                ):
                    adjacent = True
                    break
            if adjacent:
                boundary.append(row_id)
            else:
                external.append(row_id)
        return {
            "internal": internal,
            "boundary": boundary,
            "external": external,
        }
