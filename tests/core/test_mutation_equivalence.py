"""Mutation equivalence: random write/query interleavings vs brute force.

The MVCC serving work (tombstone deletes, incremental inserts, snapshot
streams) only holds together if *every* query kind keeps agreeing with a
trivially-correct model database across arbitrary mutation histories.
This suite drives a :class:`SpatialDatabase` and a plain ``dict`` model
through the same interleaved insert/extend/delete sequences — Hypothesis
chooses the interleavings — and checks area, window, kNN (all methods),
composite, and streaming-kNN answers against the model after every
phase, across every registered index kind and both execution modes
(``vectorized=True/False``).
"""

import random

import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.index import INDEX_REGISTRY
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    UnionQuery,
    WindowQuery,
)
from repro.workloads.generators import uniform_points

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _build(index_kind, vectorized, n=40, seed=101):
    """A small prepared database plus its brute-force model dict."""
    points = uniform_points(n, seed=seed)
    db = SpatialDatabase.from_points(
        points, index_kind=index_kind, vectorized=vectorized
    ).prepare()
    model = {i: (p.x, p.y) for i, p in enumerate(points)}
    return db, model


def _apply(db, model, operations):
    """Apply one operation list to the database and the model alike."""
    for op in operations:
        kind = op[0]
        if kind == "insert":
            _, x, y = op
            row = db.insert((x, y))
            assert row not in model
            model[row] = (x, y)
        elif kind == "extend":
            _, pairs = op
            rows = db.extend(pairs)
            for row, (x, y) in zip(rows, pairs):
                assert row not in model
                model[row] = (x, y)
        else:  # delete: op carries an index into the sorted live rows
            _, pick = op
            live = sorted(model)
            if len(live) <= 3:  # keep the Delaunay graph non-degenerate
                continue
            victim = live[pick % len(live)]
            db.delete(victim)
            del model[victim]


def _check_all_kinds(db, model, rng):
    """Every query kind against the model, at the current version."""
    assert len(db) == len(model)
    assert db.store.live_count == len(model)

    # Area query, both methods, against brute force over the model.
    disc = Circle(
        Point(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
        rng.uniform(0.08, 0.3),
    )
    expected = sorted(
        row
        for row, (x, y) in model.items()
        if disc.contains_point(Point(x, y))
    )
    assert db.query(AreaQuery(disc, method="voronoi")).record.ids == expected
    assert db.query(AreaQuery(disc, method="traditional")).record.ids == expected

    # Window query.
    x0, y0 = rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6)
    rect = (x0, y0, x0 + 0.35, y0 + 0.35)
    in_window = sorted(
        row
        for row, (x, y) in model.items()
        if x0 <= x <= rect[2] and y0 <= y <= rect[3]
    )
    assert db.query(WindowQuery(rect)).ids() == in_window

    # kNN: voronoi graph walk and index best-first must both match the
    # model ranking (ties broken by row id, exactly like the kernels).
    q = Point(rng.random(), rng.random())
    k = min(8, len(model))
    ranked = sorted(
        model,
        key=lambda row: (
            (model[row][0] - q.x) ** 2 + (model[row][1] - q.y) ** 2,
            row,
        ),
    )
    assert db.query(KnnQuery(q, k, method="voronoi")).ids() == ranked[:k]
    assert db.query(KnnQuery(q, k, method="index")).ids() == ranked[:k]

    # Streaming (unbounded) kNN: the lazy generator path with tombstones.
    first = db.query(KnnQuery((q.x, q.y), None)).first(k)
    assert first == ranked[:k]

    # Composites over two overlapping windows.
    a = WindowQuery((x0, y0, x0 + 0.35, y0 + 0.35))
    b = WindowQuery((x0 + 0.15, y0 + 0.15, x0 + 0.5, y0 + 0.5))
    in_b = {
        row
        for row, (x, y) in model.items()
        if x0 + 0.15 <= x <= x0 + 0.5 and y0 + 0.15 <= y <= y0 + 0.5
    }
    assert db.query(UnionQuery((a, b))).ids() == sorted(
        set(in_window) | in_b
    )
    assert db.query(IntersectionQuery((a, b))).ids() == sorted(
        set(in_window) & in_b
    )
    assert db.query(DifferenceQuery((a, b))).ids() == sorted(
        set(in_window) - in_b
    )


# One operation: insert one point, extend a small batch, or delete the
# pick-th live row.  Coordinates stay off exact duplicates often enough
# for the Delaunay superset graph to remain well-formed.
_coord = st.floats(
    min_value=0.001, max_value=0.999, allow_nan=False, allow_infinity=False
)
_operation = st.one_of(
    st.tuples(st.just("insert"), _coord, _coord),
    st.tuples(
        st.just("extend"),
        st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10_000)),
)


class TestRandomInterleavings:
    """Hypothesis-chosen mutation histories, checked phase by phase."""

    @given(
        index_kind=st.sampled_from(sorted(INDEX_REGISTRY)),
        vectorized=st.booleans(),
        phases=st.lists(
            st.lists(_operation, min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_query_kinds_match_model(
        self, index_kind, vectorized, phases, seed
    ):
        db, model = _build(index_kind, vectorized)
        rng = random.Random(seed)
        for operations in phases:
            _apply(db, model, operations)
            _check_all_kinds(db, model, rng)


class TestEveryIndexKind:
    """Deterministic sweep: one fixed history on every registered index.

    The Hypothesis test samples kinds; this sweep guarantees each of the
    registered index implementations survives the same delete-heavy
    history in both execution modes on every run.
    """

    @pytest.mark.parametrize("index_kind", sorted(INDEX_REGISTRY))
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_fixed_history(self, index_kind, vectorized):
        db, model = _build(index_kind, vectorized, n=60, seed=202)
        rng = random.Random(7)
        history = [
            [("insert", 0.41, 0.43), ("delete", 11), ("delete", 5)],
            [
                ("extend", [(0.21, 0.84), (0.84, 0.22), (0.5, 0.51)]),
                ("delete", 0),
                ("insert", 0.52, 0.49),
            ],
            [("delete", 17), ("delete", 17), ("delete", 17)],
        ]
        for operations in history:
            _apply(db, model, operations)
            _check_all_kinds(db, model, rng)
        assert db.store.deleted_count == 6

    def test_delete_then_reinsert_near_tombstone(self):
        """A new point lands almost exactly on a tombstone: the live
        point must win every ranking, the tombstone none."""
        db, model = _build("rtree", True, n=50, seed=303)
        x, y = model[20]
        db.delete(20)
        del model[20]
        row = db.insert((x + 1e-6, y))
        model[row] = (x + 1e-6, y)
        q = Point(x, y)
        assert db.query(KnnQuery(q, 1, method="voronoi")).ids() == [row]
        assert db.query(KnnQuery((x, y), None)).first(1) == [row]
        _check_all_kinds(db, model, random.Random(9))
