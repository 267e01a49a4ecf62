"""Brute-force numpy answers, independent of the program's code paths.

A :class:`Oracle` holds the rows of a database (tombstones as a dead
mask, inserts appended with row id = position, as the program assigns
them) and answers area, window and kNN specs by scanning every live row.
Points exactly on a polygon edge have probability zero for the
benchmark's random inputs, so the even-odd test needs no boundary rule.
"""

from __future__ import annotations

import numpy as np


def polygon_rows(xs, ys, vertices) -> np.ndarray:
    """Ascending indices of the points strictly inside ``vertices``."""
    vx = np.asarray([v[0] for v in vertices])
    vy = np.asarray([v[1] for v in vertices])
    candidates = np.nonzero(
        (xs >= vx.min()) & (xs <= vx.max()) & (ys >= vy.min()) & (ys <= vy.max())
    )[0]
    px, py = xs[candidates], ys[candidates]
    inside = np.zeros(len(candidates), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(vx)):
            x1, y1, x2, y2 = vx[i], vy[i], vx[i - 1], vy[i - 1]
            crosses = (y1 > py) != (y2 > py)
            x_at = (x2 - x1) * (py - y1) / (y2 - y1) + x1
            inside ^= crosses & (px < x_at)
    return candidates[inside]


def window_rows(xs, ys, rect) -> np.ndarray:
    """Ascending indices of the points in the closed rectangle ``rect``."""
    x0, y0, x1, y1 = rect
    return np.nonzero((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))[0]


def knn_rows(xs, ys, point, k, alive=None) -> np.ndarray:
    """The ``k`` nearest rows, nearest first, ties by row id."""
    d2 = (xs - point[0]) ** 2 + (ys - point[1]) ** 2
    if alive is not None:
        d2 = np.where(alive, d2, np.inf)
    near = np.argpartition(d2, k)[: k + 1] if len(d2) > k else np.arange(len(d2))
    order = np.lexsort((near, d2[near]))
    return near[order][:k]


class Oracle:
    """Live rows of one database, mutated in the program's write order."""

    def __init__(self, xy: np.ndarray) -> None:
        self.xs = np.array(xy[:, 0], dtype=np.float64)
        self.ys = np.array(xy[:, 1], dtype=np.float64)
        self.alive = np.ones(len(self.xs), dtype=bool)

    def insert(self, x: float, y: float) -> int:
        self.xs = np.append(self.xs, x)
        self.ys = np.append(self.ys, y)
        self.alive = np.append(self.alive, True)
        return len(self.xs) - 1

    def delete(self, row: int) -> None:
        self.alive[row] = False

    def answer(self, spec: dict) -> list:
        """Row ids of ``spec`` in the program's result order."""
        kind, geometry = spec["kind"], spec["geometry"]
        if kind == "knn":
            x, y, k = geometry
            return knn_rows(self.xs, self.ys, (x, y), k, self.alive).tolist()
        if kind == "window":
            rows = window_rows(self.xs, self.ys, geometry)
        else:
            rows = polygon_rows(self.xs, self.ys, geometry)
        return rows[self.alive[rows]].tolist()
