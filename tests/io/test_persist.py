"""Round-trip tests for database persistence."""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.io.persist import (
    load_database,
    load_points,
    save_database,
    save_points,
)
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import AreaQuery
from repro.workloads.generators import uniform_points


class TestPointsRoundTrip:
    def test_round_trip(self, tmp_path):
        points = uniform_points(100, seed=251)
        path = tmp_path / "points.npz"
        save_points(path, points)
        assert load_points(path) == points

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_points(path, [])
        assert load_points(path) == []

    def test_exact_float_preservation(self, tmp_path):
        points = [Point(0.1 + 0.2, 1e-300), Point(-1e300, 3.141592653589793)]
        path = tmp_path / "exact.npz"
        save_points(path, points)
        assert load_points(path) == points


class TestDatabaseRoundTrip:
    def test_row_ids_preserved(self, tmp_path):
        db = SpatialDatabase.from_points(uniform_points(200, seed=253))
        path = tmp_path / "db.npz"
        save_database(path, db)
        restored = load_database(path)
        assert len(restored) == 200
        for i in range(200):
            assert restored.point(i) == db.point(i)

    def test_config_preserved(self, tmp_path):
        db = SpatialDatabase.from_points(
            uniform_points(50, seed=255),
            index_kind="kdtree",
            backend_kind="scipy",
        )
        path = tmp_path / "db.npz"
        save_database(path, db)
        restored = load_database(path)
        assert restored._index_kind == "kdtree"
        assert restored._backend_kind == "scipy"

    def test_queries_identical_after_restore(self, tmp_path):
        import random

        db = SpatialDatabase.from_points(uniform_points(300, seed=257)).prepare()
        path = tmp_path / "db.npz"
        save_database(path, db)
        restored = load_database(path, prepare=True)
        rng = random.Random(259)
        for _ in range(5):
            area = random_query_polygon(0.05, rng=rng)
            assert (
                restored.query(AreaQuery(area, method="voronoi")).record.ids
                == db.query(AreaQuery(area, method="voronoi")).record.ids
            )
            assert (
                restored.query(AreaQuery(area, method="traditional")).record.ids
                == db.query(AreaQuery(area, method="traditional")).record.ids
            )

    def test_prepare_flag(self, tmp_path):
        db = SpatialDatabase.from_points(uniform_points(30, seed=261))
        path = tmp_path / "db.npz"
        save_database(path, db)
        lazy = load_database(path)
        assert lazy._backend is None
        eager = load_database(path, prepare=True)
        assert eager._backend is not None

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            xy=np.zeros((1, 2)),
            config=np.asarray('{"version": 99, "count": 1}'),
        )
        with pytest.raises(ValueError, match="version"):
            load_database(path)

    def test_extensionless_path_round_trips(self, tmp_path):
        """Regression: save appends .npz via numpy, so loading the same
        extensionless name used to raise FileNotFoundError."""
        db = SpatialDatabase.from_points(uniform_points(40, seed=263))
        bare = tmp_path / "snapshot"
        written = save_database(bare, db)
        assert written == str(bare) + ".npz"
        for path in (bare, written):
            restored = load_database(path)
            assert [restored.point(i) for i in range(40)] == db.points

    def test_save_points_returns_written_path(self, tmp_path):
        points = uniform_points(10, seed=265)
        written = save_points(tmp_path / "pts", points)
        assert written.endswith(".npz")
        assert load_points(tmp_path / "pts") == points

    def test_missing_file_still_reports_requested_name(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_database(tmp_path / "nowhere")

    def test_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(
            path,
            xy=np.zeros((2, 2)),
            config=np.asarray(
                '{"version": 1, "index_kind": "rtree", '
                '"backend_kind": "pure", "count": 5}'
            ),
        )
        with pytest.raises(ValueError, match="corrupt"):
            load_database(path)
