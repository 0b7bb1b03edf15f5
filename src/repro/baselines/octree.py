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

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.result import QueryCounters
from ..errors import SpatialIndexError
from ..mesh import Box3D, boxes_to_arrays, points_in_boxes
from .index_executor import _IndexExecutor

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

    def query_many(
        self,
        boxes: Sequence[Box3D],
        positions: np.ndarray,
        counters_list: Sequence[QueryCounters | None] | None = None,
    ) -> list[np.ndarray]:
        """Range queries by one shared traversal (see ``RTree.query_many``).

        Nodes carry the set of still-active queries, node extents are tested
        against all active boxes in one pass, and each bucket's positions are
        gathered once and broadcast-tested against every intersecting box.
        A box's result and counters do not depend on the rest of the batch.
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


class ThrowawayOctreeExecutor(_IndexExecutor):
    """Octree rebuilt from scratch when the positions change.

    The octree is built at ``prepare`` (nothing is built on an empty mesh).
    ``on_step`` rebuilds it unless nothing moved; ``on_restructure`` rebuilds
    it unless the delta is sparse and appended no vertex, since cell removal
    keeps every id and position.  Either skip also needs the built size to
    equal ``mesh.n_vertices``, so a changed vertex set always forces a
    rebuild.
    """

    name = "octree"

    def __init__(self, bucket_size: int = 256) -> None:
        super().__init__()
        self.bucket_size = bucket_size
        self._index: Octree | None = None

    @property
    def index(self) -> Octree:
        """The octree (raises before prepare())."""
        if self._index is None:
            raise RuntimeError(f"{self.name}: prepare() has not been called")
        return self._index

    def _build(self) -> float:
        self._index = Octree(bucket_size=self.bucket_size)
        if self.mesh.n_vertices == 0:
            return 0.0
        return self._index.build(self.mesh.vertices)

    def on_step(self, delta: DeformationDelta) -> float:
        return self._rebuild_unless(delta.n_moved == 0)

    def on_restructure(self, delta: TopologyDelta) -> float:
        return self._rebuild_unless(not delta.is_full and delta.n_vertices_added == 0)

    def _rebuild_unless(self, unchanged: bool) -> float:
        """Rebuild over the live positions unless ``unchanged`` holds and the
        built size still matches; returns the seconds charged."""
        n = self.mesh.n_vertices
        if n == 0 or (unchanged and self.index.n_points == n):
            return 0.0
        elapsed = self.index.build(self.mesh.vertices)
        self.maintenance_time += elapsed
        self.maintenance_entries += n
        return elapsed

    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        return self.index.query_many(boxes, self.mesh.vertices, counters_list)

    def memory_overhead_bytes(self) -> int:
        return self._index.memory_bytes() if self._index is not None else 0
