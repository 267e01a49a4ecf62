"""Unit tests for the SpatialDatabase facade."""

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.core.database import SpatialDatabase
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.query.spec import AreaQuery, KnnQuery, NearestQuery, WindowQuery
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db_300():
    return SpatialDatabase.from_points(uniform_points(300, seed=71)).prepare()


class TestConstruction:
    def test_from_points(self):
        db = SpatialDatabase.from_points([(0.1, 0.2), (0.3, 0.4)])
        assert len(db) == 2
        assert db.point(0) == Point(0.1, 0.2)

    def test_insert_returns_row_ids(self):
        db = SpatialDatabase()
        assert db.insert(Point(0.5, 0.5)) == 0
        assert db.insert((0.6, 0.6)) == 1
        assert len(db) == 2

    def test_extend_returns_row_ids(self):
        db = SpatialDatabase()
        ids = db.extend([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
        assert ids == [0, 1, 2]

    def test_unknown_index_kind(self):
        with pytest.raises(ValueError):
            SpatialDatabase(index_kind="btree")

    def test_index_kwargs_forwarded(self):
        db = SpatialDatabase(max_entries=4)
        assert db.index.max_entries == 4


class TestQueries:
    def test_area_query_methods_agree(self, db_300, concave_polygon):
        voronoi = db_300.query(AreaQuery(concave_polygon, method="voronoi")).record
        traditional = db_300.query(AreaQuery(concave_polygon, method="traditional")).record
        assert voronoi.ids == traditional.ids

    def test_default_method_is_voronoi(self, db_300, concave_polygon):
        result = db_300.query(AreaQuery(concave_polygon, method="voronoi")).record
        assert result.stats.method == "voronoi"

    def test_unknown_method(self, db_300, concave_polygon):
        with pytest.raises(ValueError, match="unknown method"):
            db_300.query(AreaQuery(concave_polygon, method="magic")).record

    def test_window_query(self, db_300):
        window = Rect(0.25, 0.25, 0.5, 0.5)
        expected = sorted(
            i
            for i in range(len(db_300))
            if window.contains_point(db_300.point(i))
        )
        assert db_300.query(WindowQuery(window, method="index")).ids() == expected

    def test_nearest_neighbor(self, db_300):
        q = Point(0.4, 0.6)
        row = next(iter(db_300.query(NearestQuery(q))), None)
        best = min(
            range(len(db_300)),
            key=lambda i: db_300.point(i).squared_distance_to(q),
        )
        assert db_300.point(row).squared_distance_to(
            q
        ) == db_300.point(best).squared_distance_to(q)

    def test_k_nearest_neighbors(self, db_300):
        q = Point(0.1, 0.9)
        rows = db_300.query(KnnQuery(q, 5, method="index")).ids()
        assert len(rows) == 5
        distances = [db_300.point(i).distance_to(q) for i in rows]
        assert distances == sorted(distances)

    def test_voronoi_neighbors_symmetric(self, db_300):
        for i in range(0, 300, 30):
            for j in db_300.voronoi_neighbors(i):
                assert i in db_300.voronoi_neighbors(j)


class TestErrors:
    def test_empty_database_area_query(self, concave_polygon):
        with pytest.raises(EmptyDatabaseError):
            SpatialDatabase().query(AreaQuery(concave_polygon, method="voronoi")).record

    def test_empty_database_backend(self):
        with pytest.raises(EmptyDatabaseError):
            _ = SpatialDatabase().backend

    def test_nearest_neighbor_empty(self):
        empty = SpatialDatabase()
        assert next(iter(empty.query(NearestQuery(Point(0, 0)))), None) is None

    def test_zero_area_polygon_rejected(self, db_300):
        degenerate = Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        assert degenerate.area == pytest.approx(0.0)
        with pytest.raises(InvalidQueryAreaError):
            db_300.query(AreaQuery(degenerate, method="voronoi")).record


class TestBackendLifecycle:
    def test_insert_grows_pure_backend_incrementally(self):
        db = SpatialDatabase.from_points(uniform_points(50, seed=73))
        backend_before = db.backend
        db.insert(Point(0.5, 0.5))
        # The pure backend is maintained in place, not rebuilt.
        assert db.backend is backend_before
        assert db.backend.size == 51

    def test_insert_invalidates_scipy_backend(self):
        db = SpatialDatabase.from_points(
            uniform_points(50, seed=73), backend_kind="scipy"
        )
        backend_before = db.backend
        db.insert(Point(0.5, 0.5))
        assert db.backend is not backend_before
        assert db.backend.size == 51

    def test_far_outside_insert_falls_back_to_rebuild(self):
        db = SpatialDatabase.from_points(uniform_points(50, seed=73))
        backend_before = db.backend
        db.insert(Point(1e9, 1e9))
        assert db.backend is not backend_before
        assert db.backend.size == 51

    def test_queries_stay_correct_across_inserts(self, concave_polygon):
        db = SpatialDatabase.from_points(uniform_points(80, seed=74)).prepare()
        rng = __import__("random").Random(75)
        for _ in range(40):
            db.insert(Point(rng.random(), rng.random()))
        voronoi = db.query(AreaQuery(concave_polygon, method="voronoi")).record
        traditional = db.query(AreaQuery(concave_polygon, method="traditional")).record
        expected = sorted(
            i
            for i in range(len(db))
            if concave_polygon.contains_point(db.point(i))
        )
        assert voronoi.ids == expected
        assert traditional.ids == expected

    def test_prepare_is_idempotent(self):
        db = SpatialDatabase.from_points(uniform_points(30, seed=75))
        assert db.prepare() is db
        backend = db.backend
        db.prepare()
        assert db.backend is backend

    def test_scipy_backend_option(self, concave_polygon):
        points = uniform_points(100, seed=77)
        pure_db = SpatialDatabase.from_points(points, backend_kind="pure")
        scipy_db = SpatialDatabase.from_points(points, backend_kind="scipy")
        assert (
            pure_db.query(AreaQuery(concave_polygon, method="voronoi")).record.ids
            == scipy_db.query(AreaQuery(concave_polygon, method="voronoi")).record.ids
        )


class TestClassification:
    def test_classes_partition_rows(self, db_300, concave_polygon):
        classes = db_300.classify_against(concave_polygon)
        all_rows = sorted(
            classes["internal"] + classes["boundary"] + classes["external"]
        )
        assert all_rows == list(range(300))

    def test_internal_matches_query(self, db_300, concave_polygon):
        classes = db_300.classify_against(concave_polygon)
        result = db_300.query(AreaQuery(concave_polygon, method="voronoi")).record
        assert classes["internal"] == result.ids

    def test_property7_internal_not_adjacent_to_external(
        self, db_300, concave_polygon
    ):
        """The paper's key structural conclusion: no internal point is a
        Voronoi neighbour of an external point."""
        classes = db_300.classify_against(concave_polygon)
        external = set(classes["external"])
        for row in classes["internal"]:
            assert not (set(db_300.voronoi_neighbors(row)) & external)


class TestPointsImmutability:
    """The point table is exposed as an immutable view (regression).

    ``db.points`` used to hand out the internal mutable list — a caller
    appending to it silently desynchronised ``len(db)`` and the spatial
    index.  The property now returns a read-only materialized view over
    the columnar store: mutation attempts fail loudly and nothing can
    drift.
    """

    def test_mutation_attempts_fail_and_nothing_desyncs(self):
        from repro.geometry.rectangle import Rect
        from repro.query.spec import WindowQuery

        db = SpatialDatabase.from_points(uniform_points(60, seed=8))
        everything = Rect(-1.0, -1.0, 2.0, 2.0)
        baseline = db.query(WindowQuery(everything)).ids()
        view = db.points

        with pytest.raises(AttributeError):
            view.append(Point(0.5, 0.5))  # type: ignore[attr-defined]
        with pytest.raises(AttributeError):
            view.extend([Point(0.5, 0.5)])  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            view[0] = Point(0.5, 0.5)  # type: ignore[index]
        with pytest.raises(AttributeError):
            view.pop()  # type: ignore[attr-defined]

        assert len(db) == 60
        assert len(db.points) == 60
        assert db.query(WindowQuery(everything)).ids() == baseline
        assert baseline == list(range(60))

    def test_view_tracks_legitimate_inserts(self):
        db = SpatialDatabase.from_points(uniform_points(10, seed=9))
        view = db.points
        row = db.insert(Point(0.25, 0.75))
        assert len(view) == 11
        assert view[row] == Point(0.25, 0.75)
        assert db.point(row) == Point(0.25, 0.75)

    def test_view_equality_with_lists(self):
        points = uniform_points(15, seed=10)
        db = SpatialDatabase.from_points(points)
        assert db.points == points
        assert points == db.points
