"""Throwaway bucket Octree, rebuilt from scratch at every time step.

The paper's "lightweight throwaway index" baseline (Dittrich et al., SSTD
2009): when almost everything moves, rebuilding a cheap index each step can
beat maintaining a sophisticated one.  The Octree here uses a bucket strategy
— a node splits into its eight octants when it holds more than
``bucket_size`` vertices — exactly as described in Section V-A (the paper uses
a 10,000-vertex bucket; the default here is scaled down with the datasets).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.result import QueryCounters
from ..errors import SpatialIndexError
from ..mesh import Box3D, boxes_to_arrays, points_in_box, points_in_boxes
from .index_executor import _ThrowawayIndexExecutor

__all__ = ["Octree", "ThrowawayOctreeExecutor"]


class _OctreeNode:
    __slots__ = ("lo", "hi", "children", "entry_ids")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi
        self.children: list["_OctreeNode"] = []
        self.entry_ids: np.ndarray | None = None


class Octree:
    """Bucket octree over a point set."""

    def __init__(self, bucket_size: int = 256, max_depth: int = 16) -> None:
        if bucket_size < 1:
            raise SpatialIndexError("bucket_size must be at least 1")
        self.bucket_size = bucket_size
        self.max_depth = max_depth
        self.root: _OctreeNode | None = None
        self.n_nodes = 0
        self.n_points = 0
        self.build_time = 0.0

    def build(self, positions: np.ndarray) -> float:
        start = time.perf_counter()
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise SpatialIndexError("octree build needs a non-empty (n, 3) position array")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        self.n_points = pts.shape[0]
        self.n_nodes = 0
        self.root = self._build_node(pts, np.arange(pts.shape[0], dtype=np.int64), lo, hi, 0)
        self.build_time = time.perf_counter() - start
        return self.build_time

    def _build_node(
        self, pts: np.ndarray, ids: np.ndarray, lo: np.ndarray, hi: np.ndarray, depth: int
    ) -> _OctreeNode:
        node = _OctreeNode(lo, hi)
        self.n_nodes += 1
        if ids.size <= self.bucket_size or depth >= self.max_depth:
            node.entry_ids = ids
            return node
        center = (lo + hi) / 2.0
        coords = pts[ids]
        octant = (
            (coords[:, 0] > center[0]).astype(np.int64)
            + 2 * (coords[:, 1] > center[1]).astype(np.int64)
            + 4 * (coords[:, 2] > center[2]).astype(np.int64)
        )
        for code in range(8):
            members = ids[octant == code]
            if members.size == 0:
                continue
            child_lo = lo.copy()
            child_hi = hi.copy()
            for axis in range(3):
                if (code >> axis) & 1:
                    child_lo[axis] = center[axis]
                else:
                    child_hi[axis] = center[axis]
            node.children.append(self._build_node(pts, members, child_lo, child_hi, depth + 1))
        return node

    def query(
        self, box: Box3D, positions: np.ndarray, counters: QueryCounters | None = None
    ) -> np.ndarray:
        if self.root is None:
            raise SpatialIndexError("octree has not been built")
        pts = np.asarray(positions)
        stack = [self.root]
        found: list[np.ndarray] = []
        nodes_visited = 0
        scanned = 0
        while stack:
            node = stack.pop()
            nodes_visited += 1
            if not (np.all(node.lo <= box.hi) and np.all(box.lo <= node.hi)):
                continue
            if node.entry_ids is not None:
                scanned += node.entry_ids.size
                inside = points_in_box(pts[node.entry_ids], box)
                if inside.any():
                    found.append(node.entry_ids[inside])
            else:
                stack.extend(node.children)
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
        """Batch of range queries via one shared traversal (see ``RTree.query_many``).

        Nodes carry the set of still-active queries, node extents are tested
        against all active boxes in one pass, and each bucket's positions are
        gathered once and broadcast-tested against every intersecting box.
        Results and per-query counters match sequential :meth:`query` exactly.
        """
        box_list = list(boxes)
        if not box_list:
            return []
        if self.root is None:
            raise SpatialIndexError("octree has not been built")
        pts = np.asarray(positions)
        los, his = boxes_to_arrays(box_list)
        n_queries = len(box_list)
        nodes_visited = np.zeros(n_queries, dtype=np.int64)
        scanned = np.zeros(n_queries, dtype=np.int64)
        found: list[list[np.ndarray]] = [[] for _ in range(n_queries)]

        stack: list[tuple[_OctreeNode, np.ndarray]] = [(self.root, np.arange(n_queries))]
        while stack:
            node, active = stack.pop()
            nodes_visited[active] += 1
            hit = np.all((node.lo <= his[active]) & (los[active] <= node.hi), axis=1)
            live = active[hit]
            if live.size == 0:
                continue
            if node.entry_ids is not None:
                scanned[live] += node.entry_ids.size
                inside = points_in_boxes(pts[node.entry_ids], los[live], his[live])
                for row, query_index in enumerate(live):
                    mask = inside[row]
                    if mask.any():
                        found[query_index].append(node.entry_ids[mask])
            else:
                for child in node.children:
                    stack.append((child, live))

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
        per_node = 2 * 3 * 8 + 64
        stored_entries = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.entry_ids is not None:
                stored_entries += int(node.entry_ids.size)
            stack.extend(node.children)
        return self.n_nodes * per_node + stored_entries * 8


class ThrowawayOctreeExecutor(_ThrowawayIndexExecutor):
    """Octree rebuilt from scratch after every simulation step."""

    name = "octree"

    def __init__(self, bucket_size: int = 256) -> None:
        super().__init__()
        self.bucket_size = bucket_size

    def _new_index(self) -> Octree:
        return Octree(bucket_size=self.bucket_size)
