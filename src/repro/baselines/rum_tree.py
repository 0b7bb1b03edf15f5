"""The RUM-Tree baseline (memo-based R-tree updates, Silva et al., VLDBJ 2009).

The RUM-Tree handles an object's position update by *inserting* the new
position into the R-tree and merely invalidating (not deleting) the old entry:
a memo table maps each object to its latest entry, queries filter out obsolete
entries, and a garbage-collection pass eventually reclaims them.

Section II-A of the OCTOPUS paper argues that under mesh-simulation workloads
— where every vertex moves at every time step — this strategy degenerates to
re-inserting the whole dataset each step, "which clearly is slower than
bulkloading a new index".  This implementation exists to make that comparison
concrete: every :meth:`RUMTreeExecutor.on_step` inserts one new entry per
vertex, and once the share of obsolete entries exceeds a threshold the
executor performs the garbage-collection rebuild.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.result import QueryCounters
from ..errors import SpatialIndexError
from ..mesh import Box3D
from .index_executor import _IndexExecutor
from .rtree import RTree

__all__ = ["RUMTreeExecutor"]


class RUMTreeExecutor(_IndexExecutor):
    """Memo-based R-tree over the mesh vertices.

    Parameters
    ----------
    fanout:
        R-tree fanout (the paper's R-tree baselines use 110).
    garbage_threshold:
        When obsolete entries exceed this multiple of the live entry count,
        the garbage collector rebuilds the tree from the current positions.
    """

    name = "rum-tree"

    def __init__(self, fanout: int = 110, garbage_threshold: float = 2.0) -> None:
        super().__init__()
        if garbage_threshold <= 0:
            raise SpatialIndexError("garbage_threshold must be positive")
        self.fanout = fanout
        self.garbage_threshold = garbage_threshold
        self._tree: RTree | None = None
        #: stored position of every entry key ever inserted (grows until GC)
        self._stored_positions: np.ndarray | None = None
        #: memo table: vertex id -> its latest entry key
        self._memo: np.ndarray | None = None
        #: vertex id of every entry key
        self._entry_vertex: np.ndarray | None = None
        self._n_obsolete = 0
        #: number of garbage-collection rebuilds performed
        self.n_garbage_collections = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build(self) -> float:
        start = time.perf_counter()
        self._rebuild_from_current()
        return time.perf_counter() - start

    def _rebuild_from_current(self) -> None:
        """Bulk load a fresh tree whose entry keys are exactly the vertex ids."""
        n = self.mesh.n_vertices
        self._stored_positions = self.mesh.vertices.copy()
        self._entry_vertex = np.arange(n, dtype=np.int64)
        self._memo = np.arange(n, dtype=np.int64)
        self._n_obsolete = 0
        self._tree = RTree(fanout=self.fanout)
        if n:
            self._tree.bulk_load(self._stored_positions)
        # An empty mesh keeps the tree unbuilt; queries short-circuit to
        # empty results (consistent degenerate handling across strategies).

    @property
    def tree(self) -> RTree:
        if self._tree is None:
            raise RuntimeError("rum-tree: prepare() has not been called")
        return self._tree

    @property
    def n_entries(self) -> int:
        """Total entries currently stored in the tree (live + obsolete)."""
        return 0 if self._entry_vertex is None else int(self._entry_vertex.size)

    @property
    def n_obsolete_entries(self) -> int:
        """Entries invalidated by a newer version but not yet garbage collected."""
        return self._n_obsolete

    def on_step(self, delta: DeformationDelta) -> float:
        """Insert each moved vertex's new position and invalidate its old entry.

        The memo protocol only requires an entry for positions that *changed*
        — an unmoved vertex's latest entry still stores its current position —
        so a sparse delta inserts (and obsoletes) only the moved vertices,
        which is where the RUM-Tree stops degenerating to "re-insert the whole
        dataset each step".  A full delta reproduces exactly that degenerate
        behaviour (Section II-A of the OCTOPUS paper), and either way query
        results equal the exact current-position answer.
        """
        if self.mesh.n_vertices == 0:
            return 0.0
        start = time.perf_counter()
        mesh = self.mesh
        n = mesh.n_vertices
        touched = 0

        if self._memo.size != n:
            # Restructuring changed the vertex set: rebuild outright (this
            # must run even on a zero-motion step).
            self._rebuild_from_current()
            touched += n
        elif delta.n_moved == 0:
            # Rest step: no new entries, no new garbage — even an overdue
            # garbage collection can wait for the next active step.
            pass
        elif self._n_obsolete >= self.garbage_threshold * n:
            # Garbage collection: reclaim all obsolete entries at once by
            # rebuilding from the current positions (the cheapest cleaner for
            # an all-objects-moved workload).
            self._rebuild_from_current()
            self.n_garbage_collections += 1
            touched += n
        else:
            moved = delta.ids()
            current = mesh.vertices
            new_positions = current if delta.is_full else current[moved]
            first_new_key = self._stored_positions.shape[0]
            self._stored_positions = np.vstack([self._stored_positions, new_positions])
            self._entry_vertex = np.concatenate([self._entry_vertex, moved])
            # Old entries become obsolete; the memo now points at the new keys.
            self._n_obsolete += int(moved.size)
            self._memo[moved] = first_new_key + np.arange(moved.size, dtype=np.int64)
            tree = self.tree
            tree._positions = self._stored_positions
            for offset, vertex_id in enumerate(moved):
                tree.insert(first_new_key + offset, current[vertex_id])
            touched += int(moved.size)

        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += touched
        return elapsed

    def on_restructure(self, delta: TopologyDelta) -> float:
        """Topology maintenance keyed off the restructuring delta.

        Pre-existing entries (and their memo pointers) stay valid across
        restructuring, so a removal-only delta costs nothing; appended
        vertices get one fresh entry each — new key, new memo slot, one
        R-tree insert in ascending id order — which is exactly the memo
        protocol's insert path, producing no obsolete entries.  A full delta
        garbage-collects everything by rebuilding from the current positions;
        the incremental inserts answer queries identically (the memo filter
        keeps results exact) but grow a different tree shape, so the
        restructuring-parity suite holds this strategy to result parity.
        """
        start = time.perf_counter()
        mesh = self.mesh
        n = mesh.n_vertices
        touched = 0
        if delta.is_full or self._memo.size + delta.n_vertices_added != n:
            self._rebuild_from_current()
            touched = n
        elif delta.n_vertices_added:
            new_ids = delta.added_vertex_ids()
            new_positions = mesh.vertices[new_ids]
            first_new_key = self._stored_positions.shape[0]
            self._stored_positions = np.vstack([self._stored_positions, new_positions])
            self._entry_vertex = np.concatenate([self._entry_vertex, new_ids])
            # New vertices have no prior entry to obsolete; the memo simply
            # grows (ids are the tail, so concatenation keeps it id-indexed).
            self._memo = np.concatenate(
                [self._memo, first_new_key + np.arange(new_ids.size, dtype=np.int64)]
            )
            tree = self.tree
            tree.rebind_positions(self._stored_positions)
            for offset in range(int(new_ids.size)):
                tree.insert(first_new_key + offset, new_positions[offset])
            touched = int(new_ids.size)
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += touched
        return elapsed

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        return [
            self._filter_obsolete(keys)
            for keys in self.tree.query_many(boxes, self._stored_positions, counters_list)
        ]

    def _filter_obsolete(self, keys: np.ndarray) -> np.ndarray:
        """Entry keys -> vertex ids, keeping only the memo's current entries."""
        if not keys.size:
            return keys
        vertices = self._entry_vertex[keys]
        live = self._memo[vertices] == keys
        return np.unique(vertices[live])

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        if self._tree is None:
            return 0
        stored = 0 if self._stored_positions is None else int(self._stored_positions.nbytes)
        memo = 0 if self._memo is None else int(self._memo.nbytes)
        return self.tree.memory_bytes() + stored + memo
