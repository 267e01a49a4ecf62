"""Unit tests for circular query regions."""

import math
import random

import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.geometry.region import QueryRegion, interior_seed_position
from repro.geometry.segment import Segment
from repro.query.spec import AreaQuery

UNIT_CIRCLE = Circle(Point(0.0, 0.0), 1.0)


class TestConstruction:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), 0.0)
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)

    def test_conforms_to_query_region(self):
        assert isinstance(UNIT_CIRCLE, QueryRegion)


class TestMeasures:
    def test_area(self):
        assert UNIT_CIRCLE.area == pytest.approx(math.pi)

    def test_perimeter(self):
        assert UNIT_CIRCLE.perimeter == pytest.approx(2 * math.pi)

    def test_mbr(self):
        assert Circle(Point(1, 2), 0.5).mbr == Rect(0.5, 1.5, 1.5, 2.5)

    def test_centroid_is_center(self):
        assert Circle(Point(3, 4), 2).centroid == Point(3, 4)


class TestContainment:
    def test_interior(self):
        assert UNIT_CIRCLE.contains_point(Point(0.3, 0.4))

    def test_exterior(self):
        assert not UNIT_CIRCLE.contains_point(Point(0.8, 0.8))

    def test_boundary_inclusive(self):
        assert UNIT_CIRCLE.contains_point(Point(1.0, 0.0))
        assert UNIT_CIRCLE.contains_point(Point(0.0, -1.0))

    def test_boundary_exclusive_option(self):
        assert not UNIT_CIRCLE.contains_point(Point(1.0, 0.0), boundary=False)
        assert UNIT_CIRCLE.contains_point(Point(0.5, 0.0), boundary=False)

    def test_point_on_boundary(self):
        assert UNIT_CIRCLE.point_on_boundary(Point(0.0, 1.0))
        assert not UNIT_CIRCLE.point_on_boundary(Point(0.0, 0.5))


class TestBoundaryCrossing:
    def test_crossing_segment(self):
        assert UNIT_CIRCLE.crosses_boundary_xy(0.0, 0.0, 2.0, 0.0)

    def test_outside_segment(self):
        assert not UNIT_CIRCLE.crosses_boundary_xy(2.0, 2.0, 3.0, 3.0)

    def test_interior_chord_does_not_cross(self):
        assert not UNIT_CIRCLE.crosses_boundary_xy(-0.5, 0.0, 0.5, 0.0)

    def test_through_segment_crosses(self):
        # Both endpoints outside, passing through the disc.
        assert UNIT_CIRCLE.crosses_boundary_xy(-2.0, 0.0, 2.0, 0.0)

    def test_tangent_touches(self):
        assert UNIT_CIRCLE.crosses_boundary_xy(-2.0, 1.0, 2.0, 1.0)

    def test_near_tangent_misses(self):
        assert not UNIT_CIRCLE.crosses_boundary_xy(-2.0, 1.0001, 2.0, 1.0001)

    def test_intersects_segment(self):
        assert UNIT_CIRCLE.intersects_segment(
            Segment(Point(0.1, 0.1), Point(0.2, 0.2))
        )
        assert not UNIT_CIRCLE.intersects_segment(
            Segment(Point(5, 5), Point(6, 6))
        )


class TestSeedPosition:
    def test_interior_seed_is_center(self):
        assert interior_seed_position(UNIT_CIRCLE) == Point(0.0, 0.0)


class TestTransforms:
    def test_scaled(self):
        assert UNIT_CIRCLE.scaled(2.0).radius == 2.0
        with pytest.raises(ValueError):
            UNIT_CIRCLE.scaled(0.0)

    def test_translated(self):
        assert Circle(Point(1, 1), 2).translated(1, -1).center == Point(2, 0)


class TestCircleAreaQueries:
    """Circles plug into both area-query methods unchanged."""

    @pytest.fixture(scope="class")
    def db(self):
        from repro.core.database import SpatialDatabase
        from repro.workloads.generators import uniform_points

        return SpatialDatabase.from_points(
            uniform_points(400, seed=161)
        ).prepare()

    def test_methods_agree_with_brute_force(self, db):
        rng = random.Random(163)
        for _ in range(10):
            circle = Circle(
                Point(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
                rng.uniform(0.05, 0.2),
            )
            voronoi = db.query(AreaQuery(circle, method="voronoi")).record
            traditional = db.query(AreaQuery(circle, method="traditional")).record
            expected = sorted(
                i
                for i in range(len(db))
                if circle.contains_point(db.point(i))
            )
            assert voronoi.ids == expected
            assert traditional.ids == expected

    def test_voronoi_shell_smaller_than_mbr_corners(self):
        # A disc covers pi/4 of its MBR, so the traditional method wastes
        # ~21 % of its candidates in the corners; at sufficient density the
        # Voronoi shell (perimeter-proportional) is thinner than that.
        from repro.core.database import SpatialDatabase
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(4000, seed=165), backend_kind="scipy"
        ).prepare()
        circle = Circle(Point(0.5, 0.5), 0.25)
        voronoi = db.query(AreaQuery(circle, method="voronoi")).record
        traditional = db.query(AreaQuery(circle, method="traditional")).record
        assert voronoi.ids == traditional.ids
        assert voronoi.stats.candidates < traditional.stats.candidates
