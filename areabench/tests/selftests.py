"""Self-tests of the benchmark's own arithmetic and determinism.

Run from the repository root (they need numpy, not the program)::

    python3 -m pytest areabench/tests/selftests.py -q
    python3 areabench/tests/selftests.py
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import measure  # noqa: E402
import oplists  # noqa: E402
import spans  # noqa: E402


class OpListDeterminism(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in oplists.BUILDERS:
            first = oplists.canonical_bytes(oplists.build(workload, 7, 2))
            second = oplists.canonical_bytes(oplists.build(workload, 7, 2))
            self.assertEqual(first, second, workload)
        self.assertEqual(oplists.points(7).tobytes(), oplists.points(7).tobytes())

    def test_other_seed_gives_other_list(self):
        for workload in oplists.BUILDERS:
            self.assertNotEqual(
                oplists.canonical_bytes(oplists.build(workload, 7, 2)),
                oplists.canonical_bytes(oplists.build(workload, 8, 2)),
                workload,
            )
        self.assertNotEqual(oplists.points(7).tobytes(), oplists.points(8).tobytes())

    def test_counts_follow_seconds_not_clock(self):
        self.assertEqual(len(oplists.paper_area(1, 10)["polygons"]), 10 * oplists.PAPER_PAIRS_PER_S)
        self.assertEqual(len(oplists.served_writes(1, 1)["writer"]), oplists.WRITE_MIN_CYCLES)

    def test_paper_sizes_are_continuous(self):
        # No size classes: every polygon's MBR area is distinct and in range.
        areas = []
        for vertices in oplists.paper_area(3, 5)["polygons"]:
            xs = [v[0] for v in vertices]
            ys = [v[1] for v in vertices]
            areas.append(round((max(xs) - min(xs)) * (max(ys) - min(ys)), 9))
        self.assertEqual(len(set(areas)), len(areas))
        self.assertTrue(all(0.0099 < a < 0.3201 for a in areas))


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(measure.nearest_rank(100, 50), 50)
        self.assertEqual(measure.nearest_rank(101, 50), 51)
        self.assertEqual(measure.nearest_rank(1, 99), 1)
        self.assertEqual(measure.nearest_rank(10, 0), 1)
        self.assertEqual(measure.percentile(list(range(1, 11)), 50), 5)
        self.assertEqual(measure.percentile(list(range(1, 11)), 100), 10)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertIsNone(measure.tail_rank(10))
        self.assertEqual(measure.tail_rank(11), (1, 100.0 / 11))
        self.assertEqual(measure.tail_rank(1000), (990, 99.0))
        summary = measure.summarize(range(1, 1001))
        self.assertEqual(summary["tail"], 990)
        self.assertEqual(sum(v > summary["tail"] for v in range(1, 1001)), 10)
        self.assertEqual(summary["tail_pct"], 99.0)
        self.assertEqual(summary["p50"], 500)


class ReferenceNormalisation(unittest.TestCase):
    def test_blocks_scale_by_their_reference(self):
        nominal = measure.REFERENCE_NOMINAL_MS
        # the same work timed on a machine at half speed reads the same
        quiet = [([1.0] * 20, 0.02, nominal) for _ in range(6)]
        slow = [([2.0] * 20, 0.04, 2 * nominal) for _ in range(6)]
        self.assertEqual(measure.normalized(quiet)[0], measure.normalized(slow)[0])
        figures, context = measure.normalized(slow)
        self.assertAlmostEqual(figures["p50"], 1.0)
        self.assertAlmostEqual(figures["rate"], 1000.0)
        self.assertAlmostEqual(context["raw"]["p50"], 2.0)

    def test_windows_take_the_median(self):
        nominal = measure.REFERENCE_NOMINAL_MS
        blocks = [([float(i % 20 + 1) for i in range(20)], 0.21, nominal) for _ in range(9)]
        # one burst of load inflates a single window
        blocks[0] = ([100.0] * 20, 2.0, nominal)
        figures, context = measure.normalized(blocks, window=3)
        self.assertEqual(context["windows"]["count"], 3)
        self.assertEqual(figures["tail"], 17.0)  # 60 samples, rank 50
        self.assertAlmostEqual(figures["rate"], 60 / 0.63)
        self.assertEqual(measure.normalized(blocks)[0]["tail"], 100.0)


class SelfTime(unittest.TestCase):
    def test_union_of_children_is_subtracted_once(self):
        # children overlap (10-30) and one sticks out past the parent
        self.assertEqual(measure.self_time(0, 100, [(10, 20), (15, 30), (90, 120)]), 70)
        self.assertEqual(measure.self_time(0, 100, []), 100)
        self.assertEqual(measure.self_time(0, 100, [(0, 100)]), 0)

    def test_layer_self_time_from_a_trace(self):
        names = ["core.voronoi", "index.nearest", "geometry.contains"]
        trace = {
            "names": names,
            "spans": [
                # name, start, end, id, parent, request, attrs
                [1, 1_000_000, 2_000_000, 2, 1, 0, []],
                [2, 3_000_000, 5_000_000, 3, 1, 0, [40]],
                [0, 0, 10_000_000, 1, 0, 0, [12, 10, 7, 30]],
            ],
            "samples": {},
        }
        metrics = spans.layer_metrics(trace, 0, 10_000_000, queries=1, results=10)
        self.assertAlmostEqual(metrics["core.voronoi.self_ms"], 7.0)
        self.assertAlmostEqual(metrics["core.voronoi.candidates_per_result"], 1.2)
        self.assertAlmostEqual(metrics["index.nearest_ms"], 1.0)
        self.assertAlmostEqual(metrics["geometry.contains_ms_per_query"], 2.0)
        self.assertAlmostEqual(metrics["geometry.points_tested_per_result"], 4.0)
        self.assertEqual(metrics["delaunay.rebuilds"], 0)


class PopulationBoundaries(unittest.TestCase):
    def test_flags_a_percentile_on_a_boundary(self):
        fast = [1.0 + i * 1e-3 for i in range(52)]
        slow = [10.0 + i * 1e-3 for i in range(48)]
        self.assertEqual(measure.population_boundaries({"a": fast, "b": slow}), [52])
        warnings = measure.boundary_warnings("read", {"a": fast, "b": slow})
        self.assertTrue(any("p50" in w for w in warnings))

    def test_clear_percentiles_pass(self):
        fast = [1.0 + i * 1e-3 for i in range(70)]
        slow = [10.0 + i * 1e-3 for i in range(30)]
        self.assertEqual(measure.boundary_warnings("read", {"a": fast, "b": slow}), [])

    def test_overlapping_populations_have_no_boundary(self):
        a = [float(i) for i in range(100)]
        b = [float(i) + 0.5 for i in range(100)]
        self.assertEqual(measure.population_boundaries({"a": a, "b": b}), [])

    def test_margin(self):
        self.assertTrue(measure.near_boundary(50, [52]))
        self.assertTrue(measure.near_boundary(57, [52]))
        self.assertFalse(measure.near_boundary(47, [52]))
        self.assertFalse(measure.near_boundary(58, [52]))

    def test_write_op_list_keeps_the_read_tail_off_the_stall_boundary(self):
        # Each insert stalls one reader read, so the stalled reads are
        # the top `cycles` samples of the read latencies.
        for seconds in (1, 15, 20, 40):
            ops = oplists.served_writes(1, seconds)
            cycles = len(ops["writer"])
            reads = sum(len(block) for block in ops["reader"])
            rank, _ = measure.tail_rank(reads)
            self.assertFalse(measure.near_boundary(rank, [reads - cycles]), seconds)
            self.assertFalse(measure.near_boundary(measure.nearest_rank(reads, 50), [reads - cycles]))


if __name__ == "__main__":
    unittest.main()
