"""The query path and the R-tree upkeep the index baselines share.

Every index baseline answers a batch of boxes with one shared search of its
index, so :class:`_IndexExecutor` implements ``query`` and ``query_many``
once over the search each executor supplies, and :class:`_RTreeExecutor`
the in-place upkeep the LUR-Tree and QU-Trade share.
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
    """Answers boxes with one shared search of the strategy's index.

    A subclass supplies :meth:`_search_many`.  This class checks the boxes,
    answers an empty mesh with empty results, and splits the search's
    seconds evenly across its boxes as both ``index_time`` and
    ``total_time``.  A one-box :meth:`query` is a batch of one, and a box's
    result and counters do not depend on the rest of its batch.
    """

    @abstractmethod
    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        """Sorted ids of the vertices in each box, by one shared search of
        the index, with each box's work counted in its counters."""

    def query(self, box: Box3D) -> QueryResult:
        check_query_box(box)
        return self._answer([box])[0]

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        return self._answer(check_query_boxes(boxes))

    def _answer(self, box_list: list[Box3D]) -> list[QueryResult]:
        counters_list = [QueryCounters() for _ in box_list]
        if not box_list or self.mesh.n_vertices == 0:
            return [
                QueryResult(vertex_ids=np.empty(0, dtype=np.int64), counters=counters)
                for counters in counters_list
            ]
        start = time.perf_counter()
        ids_list = self._search_many(box_list, counters_list)
        elapsed = (time.perf_counter() - start) / len(box_list)
        return [
            QueryResult(vertex_ids=ids, counters=counters, index_time=elapsed, total_time=elapsed)
            for ids, counters in zip(ids_list, counters_list)
        ]


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
