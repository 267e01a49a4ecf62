"""Guttman R-tree with quadratic split.

This is the index the paper's experiments use for **both** methods: the
traditional baseline runs its MBR window query on it, and the Voronoi method
uses its nearest-neighbour search to find the seed point ("For fairness, the
index used to provide the NN query in our method is also R-tree").

Implemented features:

* insertion with Guttman's ChooseLeaf + quadratic node split,
* deletion with CondenseTree re-insertion,
* window (range) query,
* best-first (priority-queue) nearest-neighbour and k-NN search, and
* STR (sort-tile-recursive) bulk loading for fast construction of the large
  experimental datasets.

Nodes count their accesses in :attr:`SpatialIndex.stats` so experiments can
report page-read proxies.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect, union_all
from repro.index.base import Entry, SpatialIndex

_DEFAULT_MAX_ENTRIES = 16

#: A batch bulk-loaded into a non-empty tree re-packs the whole tree
#: once it holds at least ``1 / _REPACK_RATIO`` as many entries as the
#: tree: one dynamic insertion costs roughly 60 packed entries here, so
#: below that size inserting is cheaper, above it re-packing is.
_REPACK_RATIO = 32


class _Node:
    """One R-tree node: a leaf holds ``Entry`` tuples, an internal node holds
    child nodes.  ``mbr`` is kept tight at all times."""

    __slots__ = ("is_leaf", "entries", "children", "mbr", "parent", "_weight")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: List[Entry] = []
        self.children: List["_Node"] = []
        self.mbr: Optional[Rect] = None
        self.parent: Optional["_Node"] = None
        self._weight = 0  # entries below an internal node (leaves count live)

    def weight(self) -> int:
        """Number of entries in this subtree (supports counting queries)."""
        return len(self.entries) if self.is_leaf else self._weight

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            if self.entries:
                self.mbr = Rect.from_points(p for p, _ in self.entries)
            else:
                self.mbr = None
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
            self.mbr = union_all(rects) if rects else None
            self._weight = sum(child.weight() for child in self.children)

    def extend_mbr(self, rect: Rect) -> None:
        self.mbr = rect if self.mbr is None else self.mbr.union(rect)

    def size(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


def _mask_boundary_entries(window: Rect, sure_ids: List[int], entries):
    """Finish a bulk window probe: mask boundary-leaf entries in one pass.

    ``sure_ids`` came from fully-contained subtrees (no tests needed);
    ``entries`` are the candidates from partially-overlapping leaves.
    Packs the candidates into coordinate/id columns and applies one
    vectorized closed-bounds mask — the same comparison
    ``Rect.contains_point`` performs, at C speed per entry.  Shared by
    the R-tree family and the quadtree.
    """
    import numpy as np

    sure = np.fromiter(sure_ids, dtype=np.int64, count=len(sure_ids))
    count = len(entries)
    if not count:
        return sure
    if count < 32:  # numpy packing overhead beats tiny leaf scans
        matched = [
            item_id
            for point, item_id in entries
            if window.contains_point(point)
        ]
        inside = np.fromiter(matched, dtype=np.int64, count=len(matched))
        return np.concatenate((sure, inside)) if sure.size else inside
    from repro.geometry.kernels import rect_contains_many

    xs = np.fromiter((p.x for p, _ in entries), np.float64, count)
    ys = np.fromiter((p.y for p, _ in entries), np.float64, count)
    ids = np.fromiter((i for _, i in entries), np.int64, count)
    inside = ids[rect_contains_many(window, xs, ys)]
    return np.concatenate((sure, inside)) if sure.size else inside


class RTree(SpatialIndex):
    """Dynamic R-tree over 2-D points.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``; a node splits when it would exceed this.
    min_entries:
        Minimum fill ``m`` (default ``ceil(M * 0.4)``); underfull nodes are
        dissolved and their contents re-inserted on deletion.
    """

    def __init__(
        self,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
        min_entries: Optional[int] = None,
    ) -> None:
        super().__init__()
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries
            if min_entries is not None
            else max(1, math.ceil(max_entries * 0.4))
        )
        if not 1 <= self.min_entries <= self.max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, max_entries/2], got "
                f"{self.min_entries} for max_entries={max_entries}"
            )
        self._root = _Node(is_leaf=True)
        self._count = 0
        self._packed = False  # STR bulk loads may legally underfill nodes

    # -- construction ------------------------------------------------------

    def insert(self, point: Point, item_id: int) -> None:
        leaf = self._choose_leaf(self._root, point)
        leaf.entries.append((point, item_id))
        leaf.extend_mbr(Rect.from_point(point))
        self._count += 1
        if leaf.size() > self.max_entries:
            self._split_and_propagate(leaf)
        else:
            self._tighten_upwards(leaf.parent)

    def bulk_load(self, entries) -> None:
        """STR (sort-tile-recursive) packing.

        Into a non-empty tree, a batch small next to the tree (see
        :data:`_REPACK_RATIO`) is inserted one entry at a time; a larger
        one is packed together with the current entries into a new tree
        (a chunked bulk load, such as a cluster worker receiving one
        ``extend`` frame per chunk, would otherwise pay a dynamic
        insertion per point).
        """
        entries = list(entries)
        if not entries:
            return
        if self._count > 0:
            if len(entries) * _REPACK_RATIO < self._count:
                for point, item_id in entries:
                    self.insert(point, item_id)
                return
            entries = list(self.items()) + entries
        self._root = self._str_pack(entries)
        self._root.parent = None
        self._count = len(entries)
        self._packed = True

    def _str_pack(self, entries: List[Entry]) -> _Node:
        capacity = self.max_entries
        if len(entries) <= capacity:
            leaf = _Node(is_leaf=True)
            leaf.entries = list(entries)
            leaf.recompute_mbr()
            return leaf

        # Leaf level: sort by x, slice into vertical strips, sort each strip
        # by y, and cut into runs of `capacity`.
        leaf_count = math.ceil(len(entries) / capacity)
        strip_count = math.ceil(math.sqrt(leaf_count))
        by_x = sorted(entries, key=lambda e: (e[0].x, e[0].y))
        strip_size = math.ceil(len(by_x) / strip_count)
        leaves: List[_Node] = []
        for i in range(0, len(by_x), strip_size):
            strip = sorted(
                by_x[i : i + strip_size], key=lambda e: (e[0].y, e[0].x)
            )
            for j in range(0, len(strip), capacity):
                leaf = _Node(is_leaf=True)
                leaf.entries = strip[j : j + capacity]
                leaf.recompute_mbr()
                leaves.append(leaf)

        # Pack upper levels the same way on node centres.
        level = leaves
        while len(level) > 1:
            parent_count = math.ceil(len(level) / capacity)
            strip_count = math.ceil(math.sqrt(parent_count))
            by_x_nodes = sorted(
                level, key=lambda n: (n.mbr.center.x, n.mbr.center.y)
            )
            strip_size = math.ceil(len(by_x_nodes) / strip_count)
            parents: List[_Node] = []
            for i in range(0, len(by_x_nodes), strip_size):
                strip = sorted(
                    by_x_nodes[i : i + strip_size],
                    key=lambda n: (n.mbr.center.y, n.mbr.center.x),
                )
                for j in range(0, len(strip), capacity):
                    parent = _Node(is_leaf=False)
                    parent.children = strip[j : j + capacity]
                    for child in parent.children:
                        child.parent = parent
                    parent.recompute_mbr()
                    parents.append(parent)
            level = parents
        return level[0]

    def delete(self, point: Point, item_id: int) -> bool:
        leaf = self._find_leaf(self._root, point, item_id)
        if leaf is None:
            return False
        leaf.entries.remove((point, item_id))
        self._count -= 1
        self._condense_tree(leaf)
        # The root may have become a lone internal node; shrink the tree.
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        return True

    def __len__(self) -> int:
        return self._count

    # -- queries -----------------------------------------------------------

    def window_query(self, window: Rect) -> List[Entry]:
        results: List[Entry] = []
        if self._root.mbr is None:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.node_accesses += 1
            if node.is_leaf:
                self.stats.entry_tests += len(node.entries)
                results.extend(
                    entry
                    for entry in node.entries
                    if window.contains_point(entry[0])
                )
            else:
                stack.extend(
                    child
                    for child in node.children
                    if child.mbr is not None and window.intersects(child.mbr)
                )
        return results

    def window_ids_array(self, window: Rect):
        """Bulk window probe: ids only, fully-contained subtrees wholesale.

        Same id set as :meth:`window_query`, but subtrees whose MBR lies
        entirely inside the window dump their entries' ids without a
        single per-point containment test (the MBR containment already
        proves membership — the trick :meth:`window_count` uses for
        aggregates, here applied to materialization).  Only boundary
        leaves pay per-entry tests.  Returns an int64 array in
        unspecified order for the columnar refine paths to gather
        coordinates by row id.
        """
        import numpy as np

        ids: List[int] = []
        boundary_entries: List[Entry] = []
        if self._root.mbr is None:
            return np.empty(0, dtype=np.int64)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not window.intersects(node.mbr):
                continue
            self.stats.node_accesses += 1
            if window.contains_rect(node.mbr):
                self._collect_subtree_ids(node, ids)
                continue
            if node.is_leaf:
                self.stats.entry_tests += len(node.entries)
                boundary_entries.extend(node.entries)
            else:
                stack.extend(node.children)
        return _mask_boundary_entries(window, ids, boundary_entries)

    def _collect_subtree_ids(self, node: _Node, ids: List[int]) -> None:
        """Append every entry id below ``node`` (no geometric tests)."""
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                ids.extend([item_id for _, item_id in current.entries])
            else:
                self.stats.node_accesses += len(current.children)
                stack.extend(current.children)

    def window_count(self, window: Rect) -> int:
        """Number of entries inside ``window`` without materialising them.

        Subtrees whose MBR is fully contained in the window contribute
        their maintained weight and are not descended — a COUNT(*)
        aggregate query in O(perimeter) node visits instead of
        O(result size).
        """
        if self._root.mbr is None:
            return 0
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not window.intersects(node.mbr):
                continue
            self.stats.node_accesses += 1
            if window.contains_rect(node.mbr):
                total += node.weight()
                continue
            if node.is_leaf:
                self.stats.entry_tests += len(node.entries)
                total += sum(
                    1
                    for point, _ in node.entries
                    if window.contains_point(point)
                )
            else:
                stack.extend(node.children)
        return total

    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        results = self.k_nearest_neighbors(query, 1)
        return results[0] if results else None

    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        """Best-first k-NN (Hjaltason & Samet style) over squared MINDIST.

        Deterministic tie-breaking: equidistant entries are returned in
        ascending id order (nodes sort before entries at equal distance so
        no closer-or-equal entry can be missed), matching the brute-force
        oracle and the Voronoi kNN exactly even on duplicate locations.
        """
        if k <= 0 or self._root.mbr is None:
            return []
        counter = itertools.count()  # heap never compares node objects
        heap: List[Tuple[float, int, int, object]] = [
            (
                self._root.mbr.squared_distance_to_point(query),
                0,
                next(counter),
                self._root,
            )
        ]
        results: List[Entry] = []
        while heap and len(results) < k:
            distance, kind, _, item = heapq.heappop(heap)
            if kind == 0:
                node: _Node = item  # type: ignore[assignment]
                self.stats.node_accesses += 1
                if node.is_leaf:
                    self.stats.entry_tests += len(node.entries)
                    for entry in node.entries:
                        heapq.heappush(
                            heap,
                            (
                                entry[0].squared_distance_to(query),
                                1,
                                entry[1],
                                entry,
                            ),
                        )
                else:
                    for child in node.children:
                        if child.mbr is not None:
                            heapq.heappush(
                                heap,
                                (
                                    child.mbr.squared_distance_to_point(query),
                                    0,
                                    next(counter),
                                    child,
                                ),
                            )
            else:
                results.append(item)  # type: ignore[arg-type]
        return results

    def items(self) -> Iterator[Entry]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    # -- introspection (used by tests and benches) --------------------------

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if any structural invariant fails.

        Checked: tight MBRs, parent pointers, fill bounds (except the root,
        and except minimum fill after an STR bulk load, whose trailing slices
        may legally underfill), and uniform leaf depth.
        """
        leaf_depths: List[int] = []
        stack: List[Tuple[_Node, int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            if (
                not self._packed
                and node is not self._root
                and node.size() < self.min_entries
            ):
                raise AssertionError(
                    f"underfull node: {node.size()} < {self.min_entries}"
                )
            if node.size() > self.max_entries:
                raise AssertionError(
                    f"overfull node: {node.size()} > {self.max_entries}"
                )
            if node.is_leaf:
                leaf_depths.append(depth)
                if node.entries:
                    expected = Rect.from_points(p for p, _ in node.entries)
                    if node.mbr != expected:
                        raise AssertionError("stale leaf MBR")
            else:
                expected = union_all(
                    c.mbr for c in node.children if c.mbr is not None
                )
                if node.mbr != expected:
                    raise AssertionError("stale internal MBR")
                expected_weight = sum(c.weight() for c in node.children)
                if node.weight() != expected_weight:
                    raise AssertionError(
                        f"stale subtree weight: {node.weight()} != "
                        f"{expected_weight}"
                    )
                for child in node.children:
                    if child.parent is not node:
                        raise AssertionError("broken parent pointer")
                    stack.append((child, depth + 1))
        if leaf_depths and len(set(leaf_depths)) != 1:
            raise AssertionError(f"unbalanced leaf depths: {set(leaf_depths)}")

    # -- internals ----------------------------------------------------------

    def _choose_leaf(self, node: _Node, point: Point) -> _Node:
        """Guttman ChooseLeaf: descend by least enlargement, ties by area."""
        rect = Rect.from_point(point)
        while not node.is_leaf:
            node = min(
                node.children,
                key=lambda child: (
                    child.mbr.enlargement(rect) if child.mbr else 0.0,
                    child.mbr.area if child.mbr else 0.0,
                ),
            )
        return node

    def _tighten_upwards(self, node: Optional[_Node]) -> None:
        while node is not None:
            node.recompute_mbr()
            node = node.parent

    def _split_and_propagate(self, node: _Node) -> None:
        while node.size() > self.max_entries:
            sibling = self._quadratic_split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(is_leaf=False)
                new_root.children = [node, sibling]
                node.parent = sibling.parent = new_root
                new_root.recompute_mbr()
                self._root = new_root
                return
            parent.children.append(sibling)
            sibling.parent = parent
            parent.recompute_mbr()
            node = parent
        self._tighten_upwards(node)

    def _quadratic_split(self, node: _Node) -> _Node:
        """Split ``node`` in place, returning the new sibling."""
        if node.is_leaf:
            rects = [Rect.from_point(p) for p, _ in node.entries]
            payload: Sequence = node.entries
        else:
            rects = [c.mbr for c in node.children]
            payload = node.children

        seed_a, seed_b = _pick_seeds(rects)
        group_a = [seed_a]
        group_b = [seed_b]
        mbr_a = rects[seed_a]
        mbr_b = rects[seed_b]
        remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]

        while remaining:
            # If one group must absorb the rest to reach minimum fill, do so.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(remaining):
                group_a.extend(remaining)
                for i in remaining:
                    mbr_a = mbr_a.union(rects[i])
                break
            if need_b >= len(remaining):
                group_b.extend(remaining)
                for i in remaining:
                    mbr_b = mbr_b.union(rects[i])
                break
            # PickNext: the entry with the largest preference difference.
            best_index = max(
                range(len(remaining)),
                key=lambda idx: abs(
                    mbr_a.enlargement(rects[remaining[idx]])
                    - mbr_b.enlargement(rects[remaining[idx]])
                ),
            )
            i = remaining.pop(best_index)
            growth_a = mbr_a.enlargement(rects[i])
            growth_b = mbr_b.enlargement(rects[i])
            if (growth_a, mbr_a.area, len(group_a)) <= (
                growth_b,
                mbr_b.area,
                len(group_b),
            ):
                group_a.append(i)
                mbr_a = mbr_a.union(rects[i])
            else:
                group_b.append(i)
                mbr_b = mbr_b.union(rects[i])

        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            entries = node.entries
            node.entries = [entries[i] for i in group_a]
            sibling.entries = [entries[i] for i in group_b]
        else:
            children = node.children
            node.children = [children[i] for i in group_a]
            sibling.children = [children[i] for i in group_b]
            for child in sibling.children:
                child.parent = sibling
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    def _find_leaf(
        self, node: _Node, point: Point, item_id: int
    ) -> Optional[_Node]:
        if node.mbr is None or not node.mbr.contains_point(point):
            return None
        if node.is_leaf:
            return node if (point, item_id) in node.entries else None
        for child in node.children:
            found = self._find_leaf(child, point, item_id)
            if found is not None:
                return found
        return None

    def _condense_tree(self, leaf: _Node) -> None:
        """Guttman CondenseTree: dissolve underfull nodes, re-insert orphans."""
        orphans: List[Entry] = []
        node = leaf
        while node.parent is not None:
            parent = node.parent
            if node.size() < self.min_entries:
                parent.children.remove(node)
                orphans.extend(_collect_entries(node))
            else:
                node.recompute_mbr()
            node = parent
        self._root.recompute_mbr()
        for point, item_id in orphans:
            self._count -= 1  # insert() will re-increment
            self.insert(point, item_id)


def _pick_seeds(rects: Sequence[Rect]) -> Tuple[int, int]:
    """Guttman PickSeeds: the pair wasting the most area together."""
    best_pair = (0, 1)
    worst_waste = -math.inf
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            waste = (
                rects[i].union(rects[j]).area - rects[i].area - rects[j].area
            )
            if waste > worst_waste:
                worst_waste = waste
                best_pair = (i, j)
    return best_pair


def _collect_entries(node: _Node) -> List[Entry]:
    """All leaf entries beneath ``node``."""
    collected: List[Entry] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            collected.extend(current.entries)
        else:
            stack.extend(current.children)
    return collected
