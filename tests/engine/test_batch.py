"""Batch engine correctness: batching must never change any answer.

The anchor property is id-identity: for every region mix, every method
(fixed or planned), and every sharing path (shared window frontier, seed
walk, intra-batch dedup), ``run_specs`` returns exactly the ids the
one-query-at-a-time loop returns, in submission order.
"""

import pytest

from repro import AreaQuery, SpatialDatabase
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.engine.batch import BatchQueryEngine, greedy_seed_walk
from repro.engine.order import hilbert_index, locality_order
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload


@pytest.fixture(scope="module")
def db():
    """1k uniform points, prepared, shared by the whole module."""
    return SpatialDatabase.from_points(
        uniform_points(1_000, seed=3)
    ).prepare()


@pytest.fixture(scope="module")
def mixed_regions():
    """Stars, rectangles, and a circle — every QueryRegion flavour."""
    regions = QueryWorkload(query_size=0.03, seed=21).areas(12)
    regions += QueryWorkload(
        query_size=0.05, shape="rectangle", seed=22
    ).areas(4)
    regions.append(Circle(Point(0.4, 0.6), 0.1))
    return regions


@pytest.mark.parametrize("method", AreaQuery.methods)
def test_batch_ids_identical_to_loop(db, mixed_regions, method):
    loop = [
        db.query(AreaQuery(region, method="voronoi")).record.ids
        for region in mixed_regions
    ]
    batch = db.engine.run_specs(
        [AreaQuery(r, method=method) for r in mixed_regions], use_cache=False
    )
    assert len(batch) == len(mixed_regions)
    assert [result.ids for result in batch] == loop


def test_batch_handles_duplicates_once(db, mixed_regions):
    trace = mixed_regions + mixed_regions + mixed_regions[:3]
    batch = db.engine.run_specs(
        [AreaQuery(r, method="voronoi") for r in trace], use_cache=False
    )
    assert [r.ids for r in batch] == [
        db.query(AreaQuery(region, method="voronoi")).record.ids
        for region in trace
    ]
    assert batch.stats.duplicate_hits == len(mixed_regions) + 3
    assert batch.stats.executed == len(mixed_regions)


def test_batch_stats_record_sharing(db):
    # Overlapping rectangle windows at one hotspot: must form shared groups.
    overlapping = [
        Polygon.from_rect(
            Rect(0.3 + 0.01 * i, 0.3, 0.5 + 0.01 * i, 0.5)
        )
        for i in range(5)
    ]
    batch = db.engine.run_specs(
        [AreaQuery(r, method="traditional") for r in overlapping],
        use_cache=False,
    )
    assert batch.stats.shared_window_groups >= 1
    assert batch.stats.shared_window_queries >= 2
    assert [r.ids for r in batch] == [
        db.query(AreaQuery(region, method="traditional")).record.ids
        for region in overlapping
    ]


def test_batch_voronoi_reuses_seeds(db, mixed_regions):
    batch = db.engine.run_specs(
        [AreaQuery(r, method="voronoi") for r in mixed_regions],
        use_cache=False,
    )
    # first seed needs the index; later ones should mostly walk
    assert batch.stats.seed_index_lookups >= 1
    assert batch.stats.seed_walk_reuses >= len(mixed_regions) // 2
    assert (
        batch.stats.seed_walk_reuses + batch.stats.seed_index_lookups
        == batch.stats.executed
    )


def test_batch_result_is_a_sequence(db, mixed_regions):
    batch = db.engine.run_specs(
        [AreaQuery(r, method="voronoi") for r in mixed_regions[:4]]
    )
    assert len(batch) == 4
    assert batch[0].ids == list(batch)[0].ids
    assert [r.ids for r in batch[:2]] == [r.ids for r in batch.results[:2]]


def test_batch_rejects_unknown_method(db, mixed_regions):
    with pytest.raises(ValueError, match="unknown method"):
        db.engine.run_specs([AreaQuery(mixed_regions[0], method="fastest")])


def test_batch_rejects_zero_area_region(db):
    degenerate = Circle(Point(0.5, 0.5), 1e-12)
    object.__setattr__(degenerate, "radius", 0.0)  # bypass ctor guard
    with pytest.raises(InvalidQueryAreaError):
        db.engine.run_specs([AreaQuery(degenerate)])


def test_batch_on_empty_database_raises():
    empty = SpatialDatabase()
    with pytest.raises(EmptyDatabaseError):
        empty.engine.run_specs(
            [AreaQuery(Polygon.from_rect(Rect(0.1, 0.1, 0.2, 0.2)))]
        )


def test_empty_batch_returns_empty_result(db):
    batch = db.engine.run_specs([])
    assert len(batch) == 0
    assert batch.stats.total_queries == 0


def test_greedy_seed_walk_finds_true_nearest_neighbor(db):
    """The walk must land exactly where the index NN search would."""
    points = db.points
    table = db.backend.neighbor_table()
    rng_targets = [
        (0.05 + 0.9 * ((i * 37) % 97) / 97.0, 0.05 + 0.9 * ((i * 61) % 89) / 89.0)
        for i in range(40)
    ]
    start = 0
    for tx, ty in rng_targets:
        walked = greedy_seed_walk(table, points, start, tx, ty, 4_000)
        entry = db.index.nearest_neighbor(Point(tx, ty))
        assert walked is not None
        assert points[walked].squared_distance_to(
            Point(tx, ty)
        ) == pytest.approx(
            entry[0].squared_distance_to(Point(tx, ty))
        )
        start = walked


def test_greedy_seed_walk_hop_budget_exhaustion_returns_none(db):
    table = db.backend.neighbor_table()
    assert (
        greedy_seed_walk(table, db.points, 0, 0.99, 0.99, max_hops=0)
        in (None, 0)
    )


def test_hilbert_index_is_locality_preserving():
    # Adjacent cells along the curve differ by exactly one grid step.
    side = 1 << 4
    positions = {}
    for xi in range(side):
        for yi in range(side):
            key = hilbert_index(
                (xi + 0.5) / side, (yi + 0.5) / side, order=4
            )
            positions[key] = (xi, yi)
    assert len(positions) == side * side
    for distance in range(side * side - 1):
        x1, y1 = positions[distance]
        x2, y2 = positions[distance + 1]
        assert abs(x1 - x2) + abs(y1 - y2) == 1


def test_locality_order_is_a_stable_permutation(db, mixed_regions):
    order = locality_order(mixed_regions)
    assert sorted(order) == list(range(len(mixed_regions)))
    # identical regions keep submission order (stable sort)
    duplicated = [mixed_regions[0]] * 3
    assert locality_order(duplicated) == [0, 1, 2]


def test_sliding_tile_chains_do_not_snowball_into_one_group(db):
    """Pairwise-overlapping tiles must not merge transitively: the union
    is bounded by the largest member window, so a sliding chain (each
    tile overlapping the next by half) stays ungrouped and no member
    ever scans the whole strip's frontier."""
    chain = [
        Polygon.from_rect(Rect(0.05 + 0.1 * i, 0.4, 0.25 + 0.1 * i, 0.6))
        for i in range(7)  # each overlaps the next by half its width
    ]
    batch = db.engine.run_specs(
        [AreaQuery(r, method="traditional") for r in chain], use_cache=False
    )
    assert batch.stats.shared_window_groups == 0
    assert [r.ids for r in batch] == [
        db.query(AreaQuery(region, method="traditional")).record.ids
        for region in chain
    ]


def test_window_slack_zero_disables_grouping(db, mixed_regions):
    engine = BatchQueryEngine(db, window_slack=0.0, cache_capacity=0)
    batch = engine.run_specs(
        [AreaQuery(r, method="traditional") for r in mixed_regions]
    )
    assert batch.stats.shared_window_groups == 0
    assert [r.ids for r in batch] == [
        db.query(AreaQuery(region, method="traditional")).record.ids
        for region in mixed_regions
    ]
