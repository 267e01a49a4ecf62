"""Integration stress test: interleaved inserts and queries.

A live GIS ingests points while serving queries.  This module drives a
:class:`SpatialDatabase` through mixed insert/area-query/kNN workloads and
checks every answer against brute force — exercising the incremental
Delaunay maintenance, the R-tree's dynamic inserts, and the neighbor-table
patching together, which no single-module test covers.
"""

import random


from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.core.knn_query import voronoi_knn_query
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import AreaQuery, KnnQuery
from repro.workloads.generators import uniform_points


def _check_area(db, area):
    voronoi = db.query(AreaQuery(area, method="voronoi")).record
    traditional = db.query(AreaQuery(area, method="traditional")).record
    expected = sorted(
        i for i in range(len(db)) if area.contains_point(db.point(i))
    )
    assert voronoi.ids == expected
    assert traditional.ids == expected


class TestInterleavedWorkload:
    def test_insert_query_cycles(self):
        rng = random.Random(331)
        db = SpatialDatabase.from_points(uniform_points(150, seed=333)).prepare()
        for cycle in range(12):
            for _ in range(15):
                db.insert(Point(rng.random(), rng.random()))
            area = random_query_polygon(
                rng.choice([0.02, 0.08, 0.2]), rng=rng
            )
            _check_area(db, area)
        assert len(db) == 150 + 12 * 15

    def test_inserts_inside_active_query_area(self):
        """Insert points *into* the query region between queries; they must
        appear in the next answer."""
        rng = random.Random(335)
        db = SpatialDatabase.from_points(uniform_points(200, seed=337)).prepare()
        area = random_query_polygon(0.1, rng=rng)
        before = db.query(AreaQuery(area, method="voronoi")).record
        added = [
            db.insert(p) for p in area.sample_interior(10, rng)
        ]
        after = db.query(AreaQuery(area, method="voronoi")).record
        assert set(after.ids) == set(before.ids) | set(added)
        _check_area(db, area)

    def test_duplicate_inserts_during_queries(self):
        rng = random.Random(339)
        base = uniform_points(120, seed=341)
        db = SpatialDatabase.from_points(base).prepare()
        for i in range(0, 60, 5):
            db.insert(base[i])  # exact duplicates
            area = random_query_polygon(0.05, rng=rng)
            _check_area(db, area)

    def test_knn_stays_exact_across_inserts(self):
        rng = random.Random(343)
        db = SpatialDatabase.from_points(uniform_points(180, seed=345)).prepare()
        for _ in range(8):
            for _ in range(10):
                db.insert(Point(rng.random(), rng.random()))
            q = Point(rng.random(), rng.random())
            got = voronoi_knn_query(db.index, db.backend, db.points, q, 12)
            expected = sorted(
                range(len(db)),
                key=lambda i: (db.point(i).squared_distance_to(q), i),
            )[:12]
            assert got.ids == expected

    def test_circle_queries_across_inserts(self):
        rng = random.Random(347)
        db = SpatialDatabase.from_points(uniform_points(150, seed=349)).prepare()
        for _ in range(6):
            for _ in range(12):
                db.insert(Point(rng.random(), rng.random()))
            disc = Circle(
                Point(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
                rng.uniform(0.05, 0.2),
            )
            voronoi = db.query(AreaQuery(disc, method="voronoi")).record
            expected = sorted(
                i
                for i in range(len(db))
                if disc.contains_point(db.point(i))
            )
            assert voronoi.ids == expected

    def test_hull_expanding_inserts(self):
        """Points inserted outside the current hull (but within the
        incremental-safe extent) keep everything consistent."""
        rng = random.Random(351)
        db = SpatialDatabase.from_points(uniform_points(100, seed=353)).prepare()
        for step in range(1, 6):
            db.insert(Point(1.0 + step * 0.5, 1.0 + step * 0.5))
            db.insert(Point(-step * 0.5, -step * 0.5))
        area = random_query_polygon(0.2, rng=rng)
        _check_area(db, area)
        # And the far-flung points are reachable via kNN.
        q = Point(3.0, 3.0)
        nearest = voronoi_knn_query(db.index, db.backend, db.points, q, 3)
        expected = sorted(
            range(len(db)),
            key=lambda i: (db.point(i).squared_distance_to(q), i),
        )[:3]
        assert nearest.ids == expected


class TestLongRunningConsistency:
    def test_thousand_operation_soak(self):
        """A longer soak mixing all operation types with periodic full
        verification."""
        rng = random.Random(355)
        db = SpatialDatabase.from_points(uniform_points(100, seed=357)).prepare()
        operations = 0
        for round_number in range(5):
            # ~200 operations per round: 150 inserts, 50 queries.
            for _ in range(150):
                if rng.random() < 0.1 and len(db) > 0:
                    db.insert(db.point(rng.randrange(len(db))))  # duplicate
                else:
                    db.insert(Point(rng.random(), rng.random()))
                operations += 1
            for _ in range(50):
                kind = rng.random()
                if kind < 0.5:
                    area = random_query_polygon(0.05, rng=rng)
                    voronoi = db.query(AreaQuery(area, method="voronoi")).record
                    # Spot-check against the traditional method (cheaper
                    # than brute force at this frequency).
                    assert voronoi.ids == db.query(
                        AreaQuery(area, method="traditional")
                    ).record.ids
                else:
                    q = Point(rng.random(), rng.random())
                    assert db.query(
                        KnnQuery(q, 5, method="voronoi")
                    ).ids() == db.query(KnnQuery(q, 5, method="index")).ids()
                operations += 1
            # Full verification once per round.
            area = random_query_polygon(0.1, rng=rng)
            _check_area(db, area)
        assert operations == 5 * 200
        assert len(db) == 100 + 5 * 150
