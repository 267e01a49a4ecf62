"""Unit tests for the Guttman R-tree."""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import BruteForceIndex
from repro.index.rtree import RTree


def _random_entries(n, seed=0):
    rng = random.Random(seed)
    return [(Point(rng.random(), rng.random()), i) for i in range(n)]


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)  # > M/2
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=0)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.nearest_neighbor(Point(0, 0)) is None
        assert tree.height == 1

    def test_insertions_counted(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(100):
            tree.insert(point, item_id)
        assert len(tree) == 100

    def test_invariants_after_insertions(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(300, seed=3):
            tree.insert(point, item_id)
        tree.check_invariants()

    def test_tree_grows_in_height(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(200):
            tree.insert(point, item_id)
        assert tree.height >= 3

    def test_node_count_positive(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(50):
            tree.insert(point, item_id)
        assert tree.node_count() > 50 / 4


class TestBulkLoad:
    def test_str_pack_correctness(self):
        entries = _random_entries(500, seed=5)
        tree = RTree()
        tree.bulk_load(entries)
        assert len(tree) == 500
        tree.check_invariants()
        oracle = BruteForceIndex()
        oracle.bulk_load(entries)
        window = Rect(0.2, 0.2, 0.7, 0.7)
        assert sorted(i for _, i in tree.window_query(window)) == sorted(
            i for _, i in oracle.window_query(window)
        )

    def test_bulk_load_empty(self):
        tree = RTree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_single(self):
        tree = RTree()
        tree.bulk_load([(Point(0.5, 0.5), 7)])
        assert len(tree) == 1
        assert tree.nearest_neighbor(Point(0, 0))[1] == 7

    def test_bulk_load_on_nonempty_falls_back_to_insert(self):
        tree = RTree(max_entries=4)
        tree.insert(Point(0.1, 0.1), 0)
        tree.bulk_load(_random_entries(50, seed=1))
        assert len(tree) == 51
        tree.check_invariants()

    def test_bulk_load_on_nonempty_repacks_large_batches(self):
        entries = _random_entries(400, seed=3)
        small = RTree(max_entries=4)
        for point, item_id in entries[:390]:
            small.insert(point, item_id)
        small.bulk_load(entries[390:])  # 10 * 32 < 390: inserted
        assert not small._packed
        large = RTree(max_entries=4)
        large.bulk_load(entries[:200])
        large.bulk_load(entries[200:])  # as large as the tree: re-packed
        assert large._packed
        oracle = BruteForceIndex()
        oracle.bulk_load(entries)
        window = Rect(0.1, 0.3, 0.6, 0.8)
        expected = sorted(i for _, i in oracle.window_query(window))
        for tree in (small, large):
            assert len(tree) == 400
            tree.check_invariants()
            assert sorted(i for _, i in tree.window_query(window)) == expected

    def test_bulk_load_height_logarithmic(self):
        tree = RTree(max_entries=16)
        tree.bulk_load(_random_entries(4096, seed=2))
        assert tree.height <= 4


class TestWindowQuery:
    def test_matches_brute_force(self):
        entries = _random_entries(400, seed=7)
        tree = RTree(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in entries:
            tree.insert(point, item_id)
            oracle.insert(point, item_id)
        for window in (
            Rect(0, 0, 1, 1),
            Rect(0.3, 0.3, 0.4, 0.4),
            Rect(0.9, 0.9, 1.5, 1.5),
            Rect(-1, -1, -0.5, -0.5),
        ):
            assert sorted(i for _, i in tree.window_query(window)) == sorted(
                i for _, i in oracle.window_query(window)
            )

    def test_empty_window(self):
        tree = RTree()
        for point, item_id in _random_entries(50):
            tree.insert(point, item_id)
        assert tree.window_query(Rect(2, 2, 3, 3)) == []

    def test_node_accesses_less_than_full_scan(self):
        tree = RTree(max_entries=16)
        tree.bulk_load(_random_entries(2000, seed=9))
        tree.stats.reset()
        tree.window_query(Rect(0.4, 0.4, 0.45, 0.45))
        # A selective window must not visit every node.
        assert tree.stats.node_accesses < tree.node_count() / 2


class TestNearestNeighbor:
    def test_matches_brute_force(self):
        entries = _random_entries(300, seed=11)
        tree = RTree(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in entries:
            tree.insert(point, item_id)
            oracle.insert(point, item_id)
        rng = random.Random(99)
        for _ in range(50):
            q = Point(rng.random(), rng.random())
            expected = oracle.nearest_neighbor(q)
            got = tree.nearest_neighbor(q)
            assert got[0].distance_to(q) == expected[0].distance_to(q)

    def test_knn_matches_brute_force(self):
        entries = _random_entries(200, seed=13)
        tree = RTree(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in entries:
            tree.insert(point, item_id)
            oracle.insert(point, item_id)
        q = Point(0.31, 0.62)
        for k in (1, 5, 20, 200, 500):
            got = [i for _, i in tree.k_nearest_neighbors(q, k)]
            expected = [i for _, i in oracle.k_nearest_neighbors(q, k)]
            assert got == expected

    def test_nn_of_exact_point(self):
        tree = RTree()
        for point, item_id in _random_entries(100):
            tree.insert(point, item_id)
        point, item_id = _random_entries(100)[42]
        assert tree.nearest_neighbor(point)[1] == item_id


class TestDeletion:
    def test_delete_returns_presence(self):
        tree = RTree(max_entries=4)
        tree.insert(Point(0.5, 0.5), 1)
        assert tree.delete(Point(0.5, 0.5), 1)
        assert not tree.delete(Point(0.5, 0.5), 1)
        assert len(tree) == 0

    def test_delete_requires_matching_id(self):
        tree = RTree()
        tree.insert(Point(0.5, 0.5), 1)
        assert not tree.delete(Point(0.5, 0.5), 2)
        assert len(tree) == 1

    def test_delete_half_preserves_queries(self):
        entries = _random_entries(200, seed=17)
        tree = RTree(max_entries=4)
        for point, item_id in entries:
            tree.insert(point, item_id)
        for point, item_id in entries[:100]:
            assert tree.delete(point, item_id)
        tree.check_invariants()
        remaining = sorted(i for _, i in tree.items())
        assert remaining == list(range(100, 200))
        window = Rect(0.1, 0.1, 0.9, 0.9)
        expected = sorted(
            i for p, i in entries[100:] if window.contains_point(p)
        )
        assert sorted(i for _, i in tree.window_query(window)) == expected

    def test_delete_all(self):
        entries = _random_entries(64, seed=19)
        tree = RTree(max_entries=4)
        for point, item_id in entries:
            tree.insert(point, item_id)
        for point, item_id in entries:
            assert tree.delete(point, item_id)
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []

    def test_reinsert_after_delete(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(50):
            tree.insert(point, item_id)
        for point, item_id in _random_entries(50)[:25]:
            tree.delete(point, item_id)
        for point, item_id in _random_entries(50, seed=23)[:25]:
            tree.insert(point, item_id)
        assert len(tree) == 50
        tree.check_invariants()


class TestDuplicates:
    def test_duplicate_points_distinct_ids(self):
        tree = RTree(max_entries=4)
        for i in range(20):
            tree.insert(Point(0.5, 0.5), i)
        hits = tree.window_query(Rect(0.5, 0.5, 0.5, 0.5))
        assert sorted(i for _, i in hits) == list(range(20))

    def test_delete_specific_duplicate(self):
        tree = RTree(max_entries=4)
        for i in range(5):
            tree.insert(Point(0.5, 0.5), i)
        assert tree.delete(Point(0.5, 0.5), 3)
        remaining = sorted(i for _, i in tree.items())
        assert remaining == [0, 1, 2, 4]
