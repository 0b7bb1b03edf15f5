"""The query path and lifecycles the index baselines share.

Every index baseline answers a box with one search of its index, so
:class:`_IndexExecutor` implements ``query`` and ``query_many`` once over a
search each executor supplies.  :class:`_ThrowawayIndexExecutor` adds the
rebuild lifecycle of the octree, kd-tree and grid baselines, and
:class:`_RTreeExecutor` the in-place upkeep the LUR-Tree and QU-Trade share.
"""

from __future__ import annotations

import time
from abc import abstractmethod
from typing import Sequence

import numpy as np

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.executor import ExecutionStrategy
from ..core.resilience import check_query_box, check_query_boxes
from ..core.result import QueryCounters, QueryResult
from ..mesh import Box3D
from .rtree import RTree


class _IndexExecutor(ExecutionStrategy):
    """Answers each box with one search of the strategy's index.

    A subclass supplies :meth:`_search` for one box and :meth:`_search_many`
    for a batch.  This class checks the boxes, answers an empty mesh with
    empty results, and reports the search's seconds as both ``index_time``
    and ``total_time``.  A batch of two or more boxes runs one shared search
    whose time is split evenly across its boxes; its results and counters
    equal those of sequential :meth:`query` calls.
    """

    @abstractmethod
    def _search(self, box: Box3D, counters: QueryCounters) -> np.ndarray:
        """Sorted ids of the vertices in ``box``, with the work counted."""

    @abstractmethod
    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        """:meth:`_search` for every box, by one shared search of the index."""

    def query(self, box: Box3D) -> QueryResult:
        check_query_box(box)
        counters = QueryCounters()
        if self.mesh.n_vertices == 0:
            return QueryResult(vertex_ids=np.empty(0, dtype=np.int64), counters=counters)
        start = time.perf_counter()
        ids = self._search(box, counters)
        elapsed = time.perf_counter() - start
        return QueryResult(
            vertex_ids=ids, counters=counters, index_time=elapsed, total_time=elapsed
        )

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        box_list = check_query_boxes(boxes)
        if len(box_list) <= 1 or self.mesh.n_vertices == 0:
            return [self.query(box) for box in box_list]
        counters_list = [QueryCounters() for _ in box_list]
        start = time.perf_counter()
        ids_list = self._search_many(box_list, counters_list)
        elapsed = (time.perf_counter() - start) / len(box_list)
        return [
            QueryResult(vertex_ids=ids, counters=counters, index_time=elapsed, total_time=elapsed)
            for ids, counters in zip(ids_list, counters_list)
        ]


class _ThrowawayIndexExecutor(_IndexExecutor):
    """An index over the positions, rebuilt from scratch when they change.

    The octree, kd-tree and grid baselines.  The index is built at
    ``prepare`` (nothing is built on an empty mesh).  ``on_step`` rebuilds
    it unless nothing moved; ``on_restructure`` rebuilds it unless the delta
    is sparse and appended no vertex, since cell removal keeps every id and
    position.  Either skip also needs the built size to equal
    ``mesh.n_vertices``, so a changed vertex set always forces a rebuild.
    """

    def __init__(self) -> None:
        super().__init__()
        self._index = None

    @abstractmethod
    def _new_index(self):
        """An unbuilt index with this executor's parameters."""

    @property
    def index(self):
        """The index (raises before prepare())."""
        if self._index is None:
            raise RuntimeError(f"{self.name}: prepare() has not been called")
        return self._index

    def _build(self) -> float:
        self._index = self._new_index()
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

    def _search(self, box: Box3D, counters: QueryCounters) -> np.ndarray:
        return self.index.query(box, self.mesh.vertices, counters)

    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        return self.index.query_many(boxes, self.mesh.vertices, counters_list)

    def memory_overhead_bytes(self) -> int:
        return self._index.memory_bytes() if self._index is not None else 0


class _RTreeExecutor(_IndexExecutor):
    """An R-tree over the live positions, updated in place (LUR-Tree, QU-Trade).

    Only moved vertices can leave the region their leaf covers, so each
    step's upkeep reinserts the escapees that :meth:`_escapees` finds, in
    ascending id order; a restructuring inserts the appended vertices.
    """

    def __init__(self, fanout: int) -> None:
        super().__init__()
        self.fanout = fanout
        self._tree: RTree | None = None

    @property
    def tree(self) -> RTree:
        if self._tree is None:
            raise RuntimeError(f"{self.name}: prepare() has not been called")
        return self._tree

    def _load_tree(self) -> tuple[float, float]:
        """Bulk-load a fresh tree over the mesh; returns the seconds spent and
        the mesh's bounding-box diagonal.  An empty mesh carries no tree."""
        self._tree = RTree(fanout=self.fanout)
        if self.mesh.n_vertices == 0:
            return 0.0, 0.0
        seconds = self._tree.bulk_load(self.mesh.vertices)
        return seconds, float(np.linalg.norm(self.mesh.bounding_box().extents))

    @abstractmethod
    def _escapees(
        self, delta: DeformationDelta, positions: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """The moved vertices to reinsert, and the entries touched finding them.

        A sparse delta narrows the check to its moved ids; a full one checks
        every leaf.  Both must find the same escapees, so both paths leave
        the same tree.
        """

    def on_step(self, delta: DeformationDelta) -> float:
        """Reinsert the vertices that escaped their leaf; bulk-reload when
        restructuring changed the vertex set behind the pipeline's back."""
        if self.mesh.n_vertices == 0:
            return 0.0
        tree = self.tree
        positions = self.mesh.vertices
        start = time.perf_counter()
        if len(tree._leaf_of) != positions.shape[0]:
            tree.bulk_load(positions)
            touched = positions.shape[0]
        elif delta.n_moved == 0:
            touched = 0
        else:
            escapees, touched = self._escapees(delta, positions)
            if escapees.size:
                touched += tree.reinsert(escapees, positions)
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += touched
        return elapsed

    def on_restructure(self, delta: TopologyDelta) -> float:
        """Insert the appended tail in ascending id order, or bulk-reload.

        Restructuring never moves a pre-existing vertex, so the entries and
        MBRs stay exact: a removal-only delta costs nothing, and appended
        vertices are inserted one by one.  A full delta (the delta-blind
        reference) bulk-loads from scratch.  The inserts answer queries
        exactly but grow a different tree *shape* than an STR re-pack, so
        the restructuring-parity suite holds these trees to result parity.
        """
        if self.mesh.n_vertices == 0:
            return 0.0
        tree = self.tree
        positions = self.mesh.vertices
        start = time.perf_counter()
        n = positions.shape[0]
        if (
            not delta.is_full
            and len(tree._leaf_of)
            and len(tree._leaf_of) + delta.n_vertices_added == n
        ):
            # Growth replaces the mesh's position array; re-bind so every
            # later MBR recompute reads the live one.
            tree.rebind_positions(positions)
            for vertex_id in delta.added_vertex_ids():
                tree.insert(int(vertex_id), positions[int(vertex_id)])
            touched = delta.n_vertices_added
        else:
            tree.bulk_load(positions)
            touched = n
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += touched
        return elapsed

    def memory_overhead_bytes(self) -> int:
        return self._tree.memory_bytes() if self._tree is not None else 0
