"""Unit tests for the Voronoi-based kNN query."""

import random

import pytest

from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.core.knn_query import incremental_nearest, voronoi_knn_query
from repro.query.spec import KnnQuery
from repro.workloads.generators import clustered_points, uniform_points


@pytest.fixture(scope="module")
def db_400():
    return SpatialDatabase.from_points(uniform_points(400, seed=171)).prepare()


def _brute_knn(db, query, k):
    order = sorted(
        range(len(db)),
        key=lambda i: (db.point(i).squared_distance_to(query), i),
    )
    return order[:k]


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5, 20, 100])
    def test_matches_brute_force(self, db_400, k):
        rng = random.Random(173)
        for _ in range(10):
            q = Point(rng.random(), rng.random())
            got = voronoi_knn_query(
                db_400.index, db_400.backend, db_400.points, q, k
            )
            assert got.ids == _brute_knn(db_400, q, k)

    def test_k_exceeds_database(self, db_400):
        q = Point(0.5, 0.5)
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.points, q, 10_000
        )
        assert len(got.ids) == 400
        assert got.ids == _brute_knn(db_400, q, 400)

    def test_k_zero(self, db_400):
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.points, Point(0.5, 0.5), 0
        )
        assert got.ids == []

    def test_query_outside_data_extent(self, db_400):
        q = Point(3.0, -2.0)
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.points, q, 7
        )
        assert got.ids == _brute_knn(db_400, q, 7)

    def test_clustered_data(self):
        db = SpatialDatabase.from_points(
            clustered_points(300, seed=175, clusters=6)
        ).prepare()
        rng = random.Random(177)
        for _ in range(10):
            q = Point(rng.random(), rng.random())
            got = voronoi_knn_query(db.index, db.backend, db.points, q, 15)
            assert got.ids == _brute_knn(db, q, 15)

    def test_agrees_with_index_knn(self, db_400):
        rng = random.Random(179)
        for _ in range(10):
            q = Point(rng.random(), rng.random())
            assert db_400.query(
                KnnQuery(q, 9, method="voronoi")
            ).ids() == db_400.query(KnnQuery(q, 9, method="index")).ids()

    def test_unknown_method_rejected(self, db_400):
        with pytest.raises(ValueError):
            db_400.query(KnnQuery(Point(0.5, 0.5), 3, method="magic")).ids()


class TestStats:
    def test_candidate_count_small(self, db_400):
        """Expansion locality: confirming k results should only evaluate
        O(k) candidates (~6 neighbours per confirmation), not O(n)."""
        q = Point(0.4, 0.6)
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.points, q, 10
        )
        assert got.stats.candidates < 10 * 8

    def test_method_label(self, db_400):
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.points, Point(0.5, 0.5), 3
        )
        # Unified method naming across the query API: the kNN kind's
        # Voronoi execution reports plain "voronoi".
        assert got.stats.method == "voronoi"


class TestIncrementalNearest:
    def test_streams_in_distance_order(self, db_400):
        q = Point(0.31, 0.62)
        stream = incremental_nearest(
            db_400.index, db_400.backend, db_400.points, q
        )
        first_25 = [next(stream) for _ in range(25)]
        assert first_25 == _brute_knn(db_400, q, 25)

    def test_exhausts_database(self, db_400):
        q = Point(0.9, 0.1)
        everything = list(
            incremental_nearest(db_400.index, db_400.backend, db_400.points, q)
        )
        assert sorted(everything) == list(range(400))

    def test_empty_database(self):
        db = SpatialDatabase()
        assert (
            list(incremental_nearest(db.index, None, db.points, Point(0, 0)))
            == []
        )
