"""Change deltas: "what changed this step" as first-class values.

The paper's headline metric is the total query response time *including* index
maintenance on dynamic meshes.  The simulation→strategy contract therefore
threads explicit change descriptions through every time step, one per kind of
mesh change:

* :class:`DeformationDelta` — *geometry* changed: vertex positions were
  overwritten in place.  Each
  :meth:`~repro.simulation.deformation.DeformationModel.apply` returns one,
  and every :meth:`~repro.core.executor.ExecutionStrategy.on_step` consumes
  it, so a strategy can pay maintenance proportional to the *motion* instead
  of the mesh size when only part of the mesh deformed.
* :class:`TopologyDelta` — *connectivity* changed: cells were split or
  removed (Section IV-E2's rare mesh restructuring).  Each restructuring
  operation (:func:`~repro.simulation.restructuring.split_cells`,
  :func:`~repro.simulation.restructuring.remove_cells`) derives one, and
  every :meth:`~repro.core.executor.ExecutionStrategy.on_restructure`
  consumes it, so a strategy can splice the few affected index entries
  instead of rebuilding over the whole mesh.

Both deltas share the same three shapes:

* **full** — the cheap "everything may have changed" fast path: no id arrays
  are materialised, consumers branch on ``is_full`` and fall back to their
  whole-mesh maintenance (rebuild / full reconciliation).  This is also the
  delta-blind reference the parity suites compare incremental maintenance
  against (``as_full()``).
* **sparse** — an explicit set of affected vertex ids plus the dirty AABB
  covering them (and, for deformation, the old/new positions).  Incremental
  maintenance keys off exactly this.
* **empty** — a step in which nothing changed; maintenance is skipped
  entirely.

The two contracts the sparse fast paths rely on:

* vertex ids are **stable** across both kinds of change — deformation moves
  positions under fixed ids, and restructuring preserves every pre-existing
  vertex id (removed cells leave their vertices in place, possibly isolated);
* new vertices are only ever **appended** — a split's centroids occupy the id
  range ``[n_before, n_after)``, so position indexes can treat additions as a
  tail splice.

Consumers that key answers on query boxes (the result cache, the standing
registry) ask one question of every delta: which of my boxes can its change
have reached?  :class:`BoxSet` holds such boxes and answers it with
:meth:`BoxSet.affected`, the one decision table over both delta kinds.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..mesh import Box3D

__all__ = ["BoxSet", "DeformationDelta", "TopologyDelta"]


class DeformationDelta:
    """Description of one deformation step's vertex motion.

    Attributes
    ----------
    n_vertices:
        Total vertex count of the mesh when the delta was emitted.
    moved_ids:
        Sorted ``int64`` ids of the vertices whose position changed, or
        ``None`` for a full delta (every vertex treated as moved).
    old_positions / new_positions:
        ``(n_moved, 3)`` positions of the moved vertices before and after the
        step, aligned with :attr:`moved_ids`; ``None`` on the full fast path
        (consumers read current positions straight from the mesh).
    dirty_box:
        Axis-aligned box covering the old *and* new positions of every moved
        vertex — the region whose spatial-index content can have changed.
        ``None`` when nothing moved or on the full fast path.
    """

    __slots__ = ("n_vertices", "moved_ids", "old_positions", "new_positions", "dirty_box")

    def __init__(
        self,
        n_vertices: int,
        moved_ids: np.ndarray | None,
        old_positions: np.ndarray | None = None,
        new_positions: np.ndarray | None = None,
        dirty_box: Box3D | None = None,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.moved_ids = moved_ids
        self.old_positions = old_positions
        self.new_positions = new_positions
        self.dirty_box = dirty_box

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, n_vertices: int) -> "DeformationDelta":
        """The cheap whole-mesh fast path: every vertex is treated as moved.

        Nothing proportional to the mesh is allocated; :attr:`moved_ids`
        stays ``None`` and consumers branch on :attr:`is_full`.
        """
        return cls(n_vertices, None)

    @classmethod
    def empty(cls, n_vertices: int) -> "DeformationDelta":
        """A step in which no vertex moved (maintenance can be skipped)."""
        return cls(n_vertices, np.empty(0, dtype=np.int64))

    @classmethod
    def sparse(
        cls,
        n_vertices: int,
        moved_ids: np.ndarray,
        old_positions: np.ndarray,
        new_positions: np.ndarray,
    ) -> "DeformationDelta":
        """An explicit moved set; ids are sorted (positions re-aligned) and the
        dirty AABB is derived from the union of old and new positions."""
        ids = np.asarray(moved_ids, dtype=np.int64)
        old = np.asarray(old_positions, dtype=np.float64)
        new = np.asarray(new_positions, dtype=np.float64)
        if ids.ndim != 1 or old.shape != (ids.size, 3) or new.shape != (ids.size, 3):
            raise SimulationError(
                "sparse delta needs (k,) moved ids with aligned (k, 3) old/new positions"
            )
        if ids.size == 0:
            return cls.empty(n_vertices)
        if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
                raise SimulationError("sparse delta moved ids must be unique")
            old = old[order]
            new = new[order]
        lo = np.minimum(old.min(axis=0), new.min(axis=0))
        hi = np.maximum(old.max(axis=0), new.max(axis=0))
        return cls(n_vertices, ids, old, new, Box3D(lo, hi))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        """True on the whole-mesh fast path (no explicit moved set)."""
        return self.moved_ids is None

    @property
    def is_empty(self) -> bool:
        """True when no vertex moved (maintenance can be skipped)."""
        return self.moved_ids is not None and self.moved_ids.size == 0

    @property
    def n_moved(self) -> int:
        """Number of vertices that moved (``n_vertices`` on the full path)."""
        if self.moved_ids is None:
            return self.n_vertices
        return int(self.moved_ids.size)

    def ids(self) -> np.ndarray:
        """The moved ids as a sorted array (materialises ``arange`` when full)."""
        if self.moved_ids is None:
            return np.arange(self.n_vertices, dtype=np.int64)
        return self.moved_ids

    def as_full(self) -> "DeformationDelta":
        """This step viewed through the whole-mesh fast path.

        The full-recompute reference of the delta-parity suite and the
        benchmark's full-maintenance contender consume exactly this: the same
        mesh state, with the motion information discarded.
        """
        return DeformationDelta.full(self.n_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "full" if self.is_full else f"sparse[{self.n_moved}]"
        return f"DeformationDelta({shape}, n_vertices={self.n_vertices})"


class TopologyDelta:
    """Description of one restructuring step's connectivity change.

    Attributes
    ----------
    n_vertices:
        Total vertex count of the mesh *after* the restructuring.
    dirty_ids:
        Sorted ``int64`` ids of the vertices whose index entries may have
        changed — the vertices of every affected cell plus any newly inserted
        vertices (surface membership can only change inside this set, and new
        vertices only appear inside it), or ``None`` for a full delta.
    n_vertices_added:
        Vertices appended by the operation (splits insert centroids); their
        ids are always the tail range ``[n_vertices - n_vertices_added,
        n_vertices)``, see :meth:`added_vertex_ids`.
    n_cells_added / n_cells_removed:
        Cells appended to / deleted from the cell array (a 1-to-4 split
        removes one cell and adds four).
    dirty_box:
        Axis-aligned box covering the current positions of the dirty
        vertices, or ``None`` when nothing changed or on the full fast path.
    """

    __slots__ = (
        "n_vertices",
        "dirty_ids",
        "n_vertices_added",
        "n_cells_added",
        "n_cells_removed",
        "dirty_box",
    )

    def __init__(
        self,
        n_vertices: int,
        dirty_ids: np.ndarray | None,
        n_vertices_added: int = 0,
        n_cells_added: int = 0,
        n_cells_removed: int = 0,
        dirty_box: Box3D | None = None,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.dirty_ids = dirty_ids
        self.n_vertices_added = int(n_vertices_added)
        self.n_cells_added = int(n_cells_added)
        self.n_cells_removed = int(n_cells_removed)
        self.dirty_box = dirty_box

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, n_vertices: int) -> "TopologyDelta":
        """The cheap "anything may have changed" fast path.

        Nothing proportional to the mesh is allocated; :attr:`dirty_ids`
        stays ``None`` and consumers fall back to their whole-mesh
        maintenance (rebuild or full reconciliation).
        """
        return cls(n_vertices, None)

    @classmethod
    def empty(cls, n_vertices: int) -> "TopologyDelta":
        """A step in which the connectivity did not change (skip fast path)."""
        return cls(n_vertices, np.empty(0, dtype=np.int64))

    @classmethod
    def sparse(
        cls,
        n_vertices: int,
        dirty_ids: np.ndarray,
        positions: np.ndarray,
        n_vertices_added: int = 0,
        n_cells_added: int = 0,
        n_cells_removed: int = 0,
    ) -> "TopologyDelta":
        """An explicit localized change; ids are deduplicated and sorted and
        the dirty AABB is derived from their current ``positions`` (the full
        ``(n, 3)`` mesh position array)."""
        ids = np.unique(np.asarray(dirty_ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= n_vertices):
            raise SimulationError("topology delta dirty ids out of range")
        if n_vertices_added < 0 or n_vertices_added > n_vertices:
            raise SimulationError("topology delta vertex-addition count out of range")
        if ids.size == 0 and (n_vertices_added or n_cells_added or n_cells_removed):
            raise SimulationError("topology delta with changes needs a non-empty dirty set")
        if ids.size == 0:
            return cls.empty(n_vertices)
        dirty_positions = np.asarray(positions, dtype=np.float64)[ids]
        box = Box3D(dirty_positions.min(axis=0), dirty_positions.max(axis=0))
        return cls(n_vertices, ids, n_vertices_added, n_cells_added, n_cells_removed, box)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        """True on the "anything may have changed" fast path (no dirty set)."""
        return self.dirty_ids is None

    @property
    def is_empty(self) -> bool:
        """True when the step changed nothing (maintenance can be skipped)."""
        return self.dirty_ids is not None and self.dirty_ids.size == 0

    @property
    def n_dirty(self) -> int:
        """Number of dirty vertices (``n_vertices`` on the full path)."""
        if self.dirty_ids is None:
            return self.n_vertices
        return int(self.dirty_ids.size)

    def ids(self) -> np.ndarray:
        """The dirty ids as a sorted array (materialises ``arange`` when full)."""
        if self.dirty_ids is None:
            return np.arange(self.n_vertices, dtype=np.int64)
        return self.dirty_ids

    def added_vertex_ids(self) -> np.ndarray:
        """Ids of the vertices this restructuring appended (the tail range)."""
        return np.arange(
            self.n_vertices - self.n_vertices_added, self.n_vertices, dtype=np.int64
        )

    def as_full(self) -> "TopologyDelta":
        """This step viewed through the delta-blind fast path.

        The full-recompute reference of the restructuring-parity suite and
        the benchmark's rebuild contender consume exactly this: the same mesh
        state, with the change information discarded.
        """
        return TopologyDelta.full(self.n_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_full:
            shape = "full"
        elif self.is_empty:
            shape = "empty"
        else:
            shape = (
                f"sparse[{self.n_dirty} dirty, +{self.n_vertices_added}v, "
                f"+{self.n_cells_added}/-{self.n_cells_removed}c]"
            )
        return f"TopologyDelta({shape}, n_vertices={self.n_vertices})"


class BoxSet:
    """Closed axis-aligned boxes as growable corner rows with stable handles.

    :meth:`add` returns a row number that names its box until
    :meth:`discard` frees it; freed rows are handed out again by later adds,
    and :meth:`clear` frees every row.  :meth:`overlap` is the one
    closed-box overlap test over the live rows and :meth:`affected` the one
    answer to "which boxes can this delta have changed?".  Not thread-safe:
    owners serialise access under their own lock.
    """

    __slots__ = ("_los", "_his", "_live", "_size", "_free")

    def __init__(self) -> None:
        self._los = np.empty((0, 3), dtype=np.float64)
        self._his = np.empty((0, 3), dtype=np.float64)
        self._live = np.zeros(0, dtype=bool)
        self._size = 0  # rows ever handed out since the last clear
        self._free: list[int] = []

    def __len__(self) -> int:
        return self._size - len(self._free)

    def add(self, box: Box3D) -> int:
        """Store ``box``; returns its row."""
        if self._free:
            row = self._free.pop()
        else:
            row = self._size
            if row == self._live.size:
                grow = max(8, row)
                self._los = np.concatenate([self._los, np.empty((grow, 3))])
                self._his = np.concatenate([self._his, np.empty((grow, 3))])
                self._live = np.concatenate([self._live, np.zeros(grow, dtype=bool)])
            self._size += 1
        self._los[row] = box.lo
        self._his[row] = box.hi
        self._live[row] = True
        return row

    def discard(self, row: int) -> None:
        """Free ``row`` for reuse by a later :meth:`add`."""
        self._live[row] = False
        self._free.append(row)

    def clear(self) -> None:
        """Free every row; the next add returns row 0 again."""
        self._live[: self._size] = False
        self._size = 0
        self._free.clear()

    def corners(self, rows: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lo, hi)`` corners of ``rows``."""
        return self._los[rows], self._his[rows]

    def rows(self) -> np.ndarray:
        """Every live row, ascending."""
        return np.nonzero(self._live[: self._size])[0]

    def overlap(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """``(n_boxes, n_rows)`` bool: closed box ``i`` meets the box of row ``j``.

        Touching counts: a point on a shared face lies in both closed boxes.
        Columns run over every row handed out; freed rows never overlap.
        """
        size = self._size
        meets = np.all(
            (los[:, None, :] <= self._his[None, :size])
            & (his[:, None, :] >= self._los[None, :size]),
            axis=2,
        )
        return meets & self._live[:size]

    def affected(self, delta: DeformationDelta | TopologyDelta) -> tuple[np.ndarray, bool]:
        """The rows whose box ``delta`` can have changed, and whether that is all.

        * an empty delta changed nothing: no rows;
        * a full delta, or one without a dirty AABB, gives no region to narrow
          by: every live row, and ``True``;
        * otherwise the rows whose box meets the dirty AABB, an abutting box
          included.  The AABB covers every position a moved or dirty vertex
          had before and after the step, so a box that misses it gained no
          vertex and lost none.
        """
        if delta.is_full:
            return self.rows(), True
        if delta.is_empty:
            return np.empty(0, dtype=np.int64), False
        if delta.dirty_box is None:
            return self.rows(), True
        dirty = delta.dirty_box
        return np.nonzero(self.overlap(dirty.lo[None], dirty.hi[None])[0])[0], False

    def memory_bytes(self) -> int:
        """Bytes held by the corner rows and the live mask."""
        return int(self._los.nbytes + self._his.nbytes + self._live.nbytes)
