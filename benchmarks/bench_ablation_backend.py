"""Ablation — pure Bowyer–Watson vs scipy (Qhull) Delaunay construction.

The Voronoi neighbour graph is a build-time structure (the paper treats it
as part of the database).  This bench quantifies the build-speed gap
between our from-scratch triangulator and the Qhull-backed one, and the
shape test re-asserts that the choice cannot affect queries: identical
neighbour sets (general position) and identical query results.
"""

import random

import pytest

from repro.delaunay.backends import PureDelaunayBackend, ScipyDelaunayBackend
from repro.core.database import SpatialDatabase
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import AreaQuery
from repro.workloads.generators import uniform_points

BUILD_SIZES = (1_000, 5_000)


@pytest.mark.parametrize("n", BUILD_SIZES)
def test_build_pure(benchmark, n):
    points = uniform_points(n, seed=7)
    benchmark(PureDelaunayBackend, points)


@pytest.mark.parametrize("n", BUILD_SIZES)
def test_build_scipy(benchmark, n):
    points = uniform_points(n, seed=7)
    benchmark(ScipyDelaunayBackend, points)


def test_backends_identical_neighbors():
    points = uniform_points(2_000, seed=9)
    pure = PureDelaunayBackend(points)
    scipy_backend = ScipyDelaunayBackend(points)
    for i in range(len(points)):
        assert set(pure.neighbors(i)) == set(scipy_backend.neighbors(i))


def test_backends_identical_query_results():
    points = uniform_points(3_000, seed=11)
    pure_db = SpatialDatabase.from_points(points, backend_kind="pure").prepare()
    scipy_db = SpatialDatabase.from_points(points, backend_kind="scipy").prepare()
    rng = random.Random(13)
    for _ in range(10):
        area = random_query_polygon(0.05, rng=rng)
        assert (
            pure_db.query(AreaQuery(area, method="voronoi")).record.ids
            == scipy_db.query(AreaQuery(area, method="voronoi")).record.ids
        )
