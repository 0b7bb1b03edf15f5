"""A uniform 3D grid over vertex positions.

OCTOPUS-CON (Section IV-F) builds the grid once before the simulation and
never updates it: a deliberately *stale* index whose only job is to suggest a
starting vertex near the query centre for the directed walk.

The grid stores, for each cell, the ids of the vertices whose position fell in
that cell at build time, in CSR form (cell offsets + a flat id array), in
ascending vertex id within each cell.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import SpatialIndexError
from .result import QueryCounters

__all__ = ["UniformGrid"]


class UniformGrid:
    """Uniform grid binning of an ``(n, 3)`` point set.

    Parameters
    ----------
    resolution:
        Number of cells per axis; the total cell count is ``resolution ** 3``
        (the paper reports grid sizes as this total, e.g. 8, 216, 1000 cells).
    """

    def __init__(self, resolution: int = 10) -> None:
        if resolution < 1:
            raise SpatialIndexError("grid resolution must be at least 1")
        self.resolution = int(resolution)
        self._built = False
        self._lo: np.ndarray | None = None
        self._cell_size: np.ndarray | None = None
        self._cell_offsets: np.ndarray | None = None
        self._cell_members: np.ndarray | None = None
        self.build_time = 0.0
        self.n_points = 0

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def build(self, positions: np.ndarray) -> float:
        """(Re)build the grid from the given positions; returns build seconds."""
        start = time.perf_counter()
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise SpatialIndexError("grid build needs a non-empty (n, 3) position array")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        self._lo = lo
        self._cell_size = span / self.resolution
        cell_ids = self._cell_of(pts)
        counts = np.bincount(cell_ids, minlength=self.resolution**3).astype(np.int64)
        self._cell_offsets = np.concatenate([[0], np.cumsum(counts)])
        # the stable sort keeps ascending ids within each cell
        self._cell_members = np.argsort(cell_ids, kind="stable").astype(np.int64)
        self.n_points = pts.shape[0]
        self._built = True
        self.build_time = time.perf_counter() - start
        return self.build_time

    def _require_built(self) -> None:
        if not self._built:
            raise SpatialIndexError("grid has not been built yet")

    def _cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Integer (ix, iy, iz) cell coordinates of each point, clamped to the grid."""
        coords = np.floor((points - self._lo) / self._cell_size).astype(np.int64)
        return np.clip(coords, 0, self.resolution - 1)

    def _cell_of(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index of each point."""
        coords = self._cell_coords(np.atleast_2d(points))
        r = self.resolution
        return coords[:, 0] + r * (coords[:, 1] + r * coords[:, 2])

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def any_vertex_near(
        self, point: np.ndarray, counters: QueryCounters | None = None
    ) -> int | None:
        """A vertex id from the cell containing ``point``, or from the nearest
        non-empty cell ring when that cell is empty (Section IV-F).

        Returns ``None`` only when the grid is empty.
        """
        self._require_built()
        target = self._cell_coords(np.atleast_2d(np.asarray(point, dtype=np.float64)))[0]
        r = self.resolution
        max_ring = r  # expanding rings eventually cover the whole grid
        for ring in range(max_ring + 1):
            lo = np.maximum(target - ring, 0)
            hi = np.minimum(target + ring, r - 1)
            xs = np.arange(lo[0], hi[0] + 1)
            ys = np.arange(lo[1], hi[1] + 1)
            zs = np.arange(lo[2], hi[2] + 1)
            gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
            coords = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
            if ring > 0:
                # Only the shell of the ring is new.
                on_shell = np.any(np.abs(coords - target) == ring, axis=1)
                coords = coords[on_shell]
            flat = coords[:, 0] + r * (coords[:, 1] + r * coords[:, 2])
            if counters is not None:
                counters.index_nodes_visited += int(flat.size)
            counts = self._cell_offsets[flat + 1] - self._cell_offsets[flat]
            non_empty = flat[counts > 0]
            if non_empty.size:
                return int(self._cell_members[self._cell_offsets[non_empty[0]]])
        return None

    def locate_batch(self, points: np.ndarray) -> np.ndarray:
        """For each point, a vertex id from its containing cell, or -1 if empty.

        Vectorised fast path of :meth:`any_vertex_near` (the ring-0 case) used
        by the batched query API; callers fall back to the ring search for the
        points whose cell came back empty.  Matches ``any_vertex_near``'s
        choice — the first id stored in the cell — exactly.
        """
        self._require_built()
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        flat = self._cell_of(pts)
        starts = self._cell_offsets[flat]
        counts = self._cell_offsets[flat + 1] - starts
        if self._cell_members.size == 0:
            return np.full(pts.shape[0], -1, dtype=np.int64)
        first = self._cell_members[np.minimum(starts, self._cell_members.size - 1)]
        return np.where(counts > 0, first, -1)

    def memory_bytes(self) -> int:
        """Approximate footprint of the offsets and member arrays."""
        if not self._built:
            return 0
        return int(self._cell_offsets.nbytes + self._cell_members.nbytes)
