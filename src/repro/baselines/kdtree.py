"""Throwaway k-d tree baseline.

One of the memory-based spatial indexes the paper lists as candidates for the
rebuild-every-step strategy (Section II-A, [4]).  Median-split bucket k-d tree
rebuilt from scratch after every simulation step.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.result import QueryCounters
from ..errors import SpatialIndexError
from ..mesh import Box3D, boxes_to_arrays, points_in_box, points_in_boxes
from .index_executor import _ThrowawayIndexExecutor

__all__ = ["KDTree", "ThrowawayKDTreeExecutor"]


class _KDNode:
    __slots__ = ("axis", "split", "left", "right", "entry_ids")

    def __init__(self) -> None:
        self.axis = -1
        self.split = 0.0
        self.left: "_KDNode | None" = None
        self.right: "_KDNode | None" = None
        self.entry_ids: np.ndarray | None = None


class KDTree:
    """Median-split bucket k-d tree over a point set."""

    def __init__(self, bucket_size: int = 128) -> None:
        if bucket_size < 1:
            raise SpatialIndexError("bucket_size must be at least 1")
        self.bucket_size = bucket_size
        self.root: _KDNode | None = None
        self.n_nodes = 0
        self.n_points = 0
        self.build_time = 0.0

    def build(self, positions: np.ndarray) -> float:
        start = time.perf_counter()
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise SpatialIndexError("kd-tree build needs a non-empty (n, 3) position array")
        self.n_points = pts.shape[0]
        self.n_nodes = 0
        self.root = self._build_node(pts, np.arange(pts.shape[0], dtype=np.int64), 0)
        self.build_time = time.perf_counter() - start
        return self.build_time

    def _build_node(self, pts: np.ndarray, ids: np.ndarray, depth: int) -> _KDNode:
        node = _KDNode()
        self.n_nodes += 1
        if ids.size <= self.bucket_size:
            node.entry_ids = ids
            return node
        axis = depth % 3
        values = pts[ids, axis]
        median = float(np.median(values))
        left_mask = values <= median
        # Guard against all points collapsing onto one side (duplicate coords).
        if left_mask.all() or not left_mask.any():
            node.entry_ids = ids
            return node
        node.axis = axis
        node.split = median
        node.left = self._build_node(pts, ids[left_mask], depth + 1)
        node.right = self._build_node(pts, ids[~left_mask], depth + 1)
        return node

    def query(
        self, box: Box3D, positions: np.ndarray, counters: QueryCounters | None = None
    ) -> np.ndarray:
        if self.root is None:
            raise SpatialIndexError("kd-tree has not been built")
        pts = np.asarray(positions)
        found: list[np.ndarray] = []
        nodes_visited = 0
        scanned = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes_visited += 1
            if node.entry_ids is not None:
                scanned += node.entry_ids.size
                inside = points_in_box(pts[node.entry_ids], box)
                if inside.any():
                    found.append(node.entry_ids[inside])
                continue
            if box.lo[node.axis] <= node.split and node.left is not None:
                stack.append(node.left)
            if box.hi[node.axis] >= node.split and node.right is not None:
                stack.append(node.right)
        if counters is not None:
            counters.index_nodes_visited += nodes_visited
            counters.vertices_scanned += scanned
        return np.sort(np.concatenate(found)) if found else np.empty(0, dtype=np.int64)

    def query_many(
        self,
        boxes: Sequence[Box3D],
        positions: np.ndarray,
        counters_list: Sequence[QueryCounters | None] | None = None,
    ) -> list[np.ndarray]:
        """Batch of range queries via one shared descent (see ``RTree.query_many``).

        Each node carries its still-active query set; the split-plane test is
        evaluated for all active queries at once and bucket positions are
        gathered once per leaf and broadcast-tested.  Results and per-query
        counters match sequential :meth:`query` exactly.
        """
        box_list = list(boxes)
        if not box_list:
            return []
        if self.root is None:
            raise SpatialIndexError("kd-tree has not been built")
        pts = np.asarray(positions)
        los, his = boxes_to_arrays(box_list)
        n_queries = len(box_list)
        nodes_visited = np.zeros(n_queries, dtype=np.int64)
        scanned = np.zeros(n_queries, dtype=np.int64)
        found: list[list[np.ndarray]] = [[] for _ in range(n_queries)]

        stack: list[tuple[_KDNode, np.ndarray]] = [(self.root, np.arange(n_queries))]
        while stack:
            node, active = stack.pop()
            nodes_visited[active] += 1
            if node.entry_ids is not None:
                # Sequential query() scans a popped bucket unconditionally.
                scanned[active] += node.entry_ids.size
                inside = points_in_boxes(pts[node.entry_ids], los[active], his[active])
                for row, query_index in enumerate(active):
                    mask = inside[row]
                    if mask.any():
                        found[query_index].append(node.entry_ids[mask])
                continue
            left_active = active[los[active, node.axis] <= node.split]
            if left_active.size and node.left is not None:
                stack.append((node.left, left_active))
            right_active = active[his[active, node.axis] >= node.split]
            if right_active.size and node.right is not None:
                stack.append((node.right, right_active))

        if counters_list is not None:
            for query_index, counters in enumerate(counters_list):
                if counters is not None:
                    counters.index_nodes_visited += int(nodes_visited[query_index])
                    counters.vertices_scanned += int(scanned[query_index])
        return [
            np.sort(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64)
            for pieces in found
        ]

    def memory_bytes(self) -> int:
        if self.root is None:
            return 0
        stored_entries = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.entry_ids is not None:
                stored_entries += int(node.entry_ids.size)
            else:
                stack.extend([node.left, node.right])
        return self.n_nodes * 64 + stored_entries * 8


class ThrowawayKDTreeExecutor(_ThrowawayIndexExecutor):
    """k-d tree rebuilt from scratch after every simulation step."""

    name = "kd-tree"

    def __init__(self, bucket_size: int = 128) -> None:
        super().__init__()
        self.bucket_size = bucket_size

    def _new_index(self) -> KDTree:
        return KDTree(bucket_size=self.bucket_size)
