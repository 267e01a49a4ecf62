"""Failure injection and degenerate-input behaviour of the core queries."""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.core.database import SpatialDatabase
from repro.core.exceptions import (
    EmptyDatabaseError,
    InvalidQueryAreaError,
    ReproError,
)
from repro.core.voronoi_query import interior_position, voronoi_area_query
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import AreaQuery, KnnQuery
from repro.workloads.generators import uniform_points


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        assert issubclass(EmptyDatabaseError, ReproError)
        assert issubclass(InvalidQueryAreaError, ReproError)

    def test_catchable_as_base(self, concave_polygon):
        with pytest.raises(ReproError):
            SpatialDatabase().query(AreaQuery(concave_polygon, method="voronoi")).record


class TestDegenerateAreas:
    def test_sliver_polygon(self):
        db = SpatialDatabase.from_points(uniform_points(200, seed=131)).prepare()
        sliver = Polygon([(0.0, 0.5), (1.0, 0.500001), (1.0, 0.5)])
        voronoi = db.query(AreaQuery(sliver, method="voronoi")).record
        traditional = db.query(AreaQuery(sliver, method="traditional")).record
        assert voronoi.ids == traditional.ids

    def test_polygon_with_collinear_run(self):
        # Redundant collinear vertices on an edge must not break anything.
        db = SpatialDatabase.from_points(uniform_points(200, seed=133)).prepare()
        area = Polygon(
            [
                (0.2, 0.2),
                (0.5, 0.2),  # collinear with previous and next
                (0.8, 0.2),
                (0.8, 0.8),
                (0.2, 0.8),
            ]
        )
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        assert voronoi.ids == traditional.ids

    def test_query_vertex_coincides_with_data_point(self):
        points = uniform_points(100, seed=135)
        db = SpatialDatabase.from_points(points).prepare()
        anchor = points[0]
        area = Polygon(
            [
                anchor,  # polygon vertex exactly on a data point
                Point(anchor.x + 0.2, anchor.y),
                Point(anchor.x + 0.2, anchor.y + 0.2),
                Point(anchor.x, anchor.y + 0.2),
            ]
        )
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        assert voronoi.ids == traditional.ids
        assert 0 in voronoi.ids  # boundary-inclusive semantics

    def test_data_point_on_query_edge(self):
        db = SpatialDatabase()
        db.extend([(0.5, 0.5), (0.25, 0.5), (0.9, 0.9)])
        db.prepare()
        area = Polygon([(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)])
        # (0.25, 0.5) lies exactly on the left edge; closed semantics
        # include it.
        result = db.query(AreaQuery(area, method="voronoi")).record
        assert result.ids == [0, 1]
        assert db.query(AreaQuery(area, method="traditional")).record.ids == [0, 1]


class TestRefinementFaults:
    def test_always_false_contains(self):
        """If refinement rejects everything, the Voronoi expansion must
        still terminate (expansion only proceeds over crossing links)."""
        points = uniform_points(150, seed=137)
        db = SpatialDatabase.from_points(points).prepare()
        area = random_query_polygon(0.1, rng=random.Random(139))
        result = voronoi_area_query(
            db.index,
            db.backend,
            db.points,
            area,
            contains=lambda polygon, p: False,
        )
        assert result.ids == []
        # It still validated the shell it could reach.
        assert result.stats.validations >= 1

    def test_always_true_contains(self):
        """If refinement accepts everything, the expansion floods the whole
        connected graph and returns every row — bounded, terminating."""
        points = uniform_points(150, seed=141)
        db = SpatialDatabase.from_points(points).prepare()
        area = random_query_polygon(0.1, rng=random.Random(143))
        result = voronoi_area_query(
            db.index,
            db.backend,
            db.points,
            area,
            contains=lambda polygon, p: True,
        )
        assert result.ids == list(range(150))

    def test_counting_hook_sees_every_candidate(self):
        points = uniform_points(200, seed=145)
        db = SpatialDatabase.from_points(points).prepare()
        area = random_query_polygon(0.05, rng=random.Random(147))
        seen = []

        def counting(polygon, p):
            seen.append(p)
            return polygon.contains_point(p)

        result = voronoi_area_query(
            db.index, db.backend, db.points, area, contains=counting
        )
        assert len(seen) == result.stats.validations


class TestInteriorPositionFailure:
    def test_interior_position_raises_on_zero_area(self):
        degenerate = Polygon([(0, 0), (1, 0), (0.5, 0), (0.25, 0)])
        with pytest.raises((InvalidQueryAreaError, ValueError)):
            interior_position(degenerate)


class TestExtremeScales:
    def test_very_small_coordinates(self):
        rng = random.Random(149)
        points = [
            Point(rng.random() * 1e-9, rng.random() * 1e-9) for _ in range(80)
        ]
        db = SpatialDatabase.from_points(points).prepare()
        area = Polygon(
            [(0.0, 0.0), (5e-10, 0.0), (5e-10, 5e-10), (0.0, 5e-10)]
        )
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        assert voronoi.ids == traditional.ids

    def test_very_large_coordinates(self):
        rng = random.Random(151)
        points = [
            Point(rng.random() * 1e9, rng.random() * 1e9) for _ in range(80)
        ]
        db = SpatialDatabase.from_points(points).prepare()
        area = Polygon(
            [(0.0, 0.0), (5e8, 0.0), (5e8, 5e8), (0.0, 5e8)]
        )
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        assert voronoi.ids == traditional.ids

    def test_negative_coordinate_space(self):
        rng = random.Random(153)
        points = [
            Point(rng.random() - 5.0, rng.random() - 5.0) for _ in range(80)
        ]
        db = SpatialDatabase.from_points(points).prepare()
        area = Polygon(
            [(-4.8, -4.8), (-4.2, -4.8), (-4.2, -4.2), (-4.8, -4.2)]
        )
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        assert voronoi.ids == traditional.ids


class TestWritePathFaults:
    """Rejected mutations must leave the store and index bit-identical."""

    def _snapshot_state(self, db):
        return (
            db.version,
            len(db.store),
            db.store.deleted_count,
            db.store.xs.tobytes(),
            db.store.ys.tobytes(),
        )

    def test_nan_insert_leaves_everything_untouched(self):
        db = SpatialDatabase.from_points(
            uniform_points(60, seed=71)
        ).prepare()
        before = self._snapshot_state(db)
        for x, y in [
            (float("nan"), 0.5),
            (0.5, float("inf")),
            (float("-inf"), float("nan")),
        ]:
            with pytest.raises(ValueError):
                db.insert((x, y))
        assert self._snapshot_state(db) == before
        # The index answers exactly as before (no phantom entries).
        assert db.query(KnnQuery(Point(0.5, 0.5), 5, method="index")).ids() == sorted(
            range(len(db)),
            key=lambda i: (
                db.point(i).squared_distance_to(Point(0.5, 0.5)),
                i,
            ),
        )[:5]

    def test_extend_with_one_bad_row_is_atomic(self):
        """A batch containing one non-finite coordinate inserts nothing:
        no rows, no version bump, no index entries."""
        db = SpatialDatabase.from_points(
            uniform_points(60, seed=73)
        ).prepare()
        before = self._snapshot_state(db)
        with pytest.raises(ValueError):
            db.extend([(0.1, 0.2), (0.3, float("nan")), (0.5, 0.6)])
        assert self._snapshot_state(db) == before
        area = random_query_polygon(0.3, rng=random.Random(5))
        assert (
            db.query(AreaQuery(area, method="voronoi")).record.ids
            == db.query(AreaQuery(area, method="traditional")).record.ids
        )

    def test_delete_out_of_range_and_double_delete(self):
        db = SpatialDatabase.from_points(uniform_points(40, seed=77))
        with pytest.raises(IndexError):
            db.delete(len(db.store))
        with pytest.raises(IndexError):
            db.delete(-1)
        db.delete(7)
        before = self._snapshot_state(db)
        with pytest.raises(ValueError):
            db.delete(7)
        assert self._snapshot_state(db) == before
        assert db.store.is_deleted(7)
        assert db.store.live_count == 39

    def test_failed_write_does_not_invalidate_result_cache(self):
        """The engine's version-stamped cache stays warm across rejected
        writes (the version did not move)."""
        db = SpatialDatabase.from_points(
            uniform_points(80, seed=79)
        ).prepare()
        from repro.query.spec import WindowQuery

        spec = WindowQuery((0.2, 0.2, 0.6, 0.6))
        first = db.query_batch([spec])[0].ids()
        with pytest.raises(ValueError):
            db.insert((float("nan"), 0.1))
        hits_before = db.engine.totals.as_dict()["cache_hits"]
        assert db.query_batch([spec])[0].ids() == first
        assert db.engine.totals.as_dict()["cache_hits"] > hits_before
