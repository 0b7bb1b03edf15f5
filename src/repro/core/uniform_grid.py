"""A uniform 3D grid over vertex positions.

Two consumers share this structure:

* **OCTOPUS-CON** (Section IV-F) builds the grid once before the simulation
  and never updates it — a deliberately *stale* index whose only job is to
  suggest a starting vertex near the query centre for the directed walk;
* the **grid baseline** rebuilds it every time step and answers range queries
  from it directly (candidate cells plus a filter step).

The grid stores, for each cell, the ids of the vertices whose position fell in
that cell at build time, in CSR form (cell offsets + a flat id array), in
ascending vertex id within each cell.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..errors import SpatialIndexError
from ..mesh import Box3D, csr_gather, points_in_box
from .result import QueryCounters

__all__ = ["UniformGrid"]

#: cap on the candidate entries one batched gather materialises (ids plus an
#: (n, 3) float64 position copy, ~32 bytes per entry); query_many chunks the
#: box axis to stay under it
_CANDIDATE_GATHER_BUDGET = 2_000_000


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

    def _cells_of_box(self, box: Box3D) -> np.ndarray:
        """Flat indices of every grid cell overlapping ``box``."""
        lo_cell = self._cell_coords(np.atleast_2d(box.lo))[0]
        hi_cell = self._cell_coords(np.atleast_2d(box.hi))[0]
        r = self.resolution
        xs = np.arange(lo_cell[0], hi_cell[0] + 1)
        ys = np.arange(lo_cell[1], hi_cell[1] + 1)
        zs = np.arange(lo_cell[2], hi_cell[2] + 1)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        return (gx + r * (gy + r * gz)).ravel()

    def query_candidates(self, box: Box3D, counters: QueryCounters | None = None) -> np.ndarray:
        """Vertex ids stored in every cell overlapping ``box`` (unfiltered)."""
        self._require_built()
        flat = self._cells_of_box(box)
        if counters is not None:
            counters.index_nodes_visited += int(flat.size)
        pieces = [
            self._cell_members[self._cell_offsets[c]:self._cell_offsets[c + 1]] for c in flat
        ]
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)

    def query(
        self, box: Box3D, positions: np.ndarray, counters: QueryCounters | None = None
    ) -> np.ndarray:
        """Exact range query: candidate gathering plus a position filter."""
        candidates = self.query_candidates(box, counters)
        if candidates.size == 0:
            return candidates
        if counters is not None:
            counters.vertices_scanned += int(candidates.size)
        inside = points_in_box(np.asarray(positions)[candidates], box)
        return np.sort(candidates[inside])

    def query_many(
        self,
        boxes: Sequence[Box3D],
        positions: np.ndarray,
        counters_list: Sequence[QueryCounters | None] | None = None,
    ) -> list[np.ndarray]:
        """Batch of exact range queries sharing the candidate gathers.

        The overlapping cells of every box are enumerated first; boxes are
        then processed in groups whose summed candidate count stays under a
        fixed budget, each group's member slices gathered with a single CSR
        flat-gather and its candidate positions read in one fancy-index
        before the per-box filter runs on views of that shared buffer.
        Results and per-query counters match sequential :meth:`query`
        exactly.
        """
        box_list = list(boxes)
        if not box_list:
            return []
        self._require_built()
        pts = np.asarray(positions)

        cell_chunks: list[np.ndarray] = []
        per_box_counts = np.empty(len(box_list), dtype=np.int64)
        for box_index, box in enumerate(box_list):
            flat = self._cells_of_box(box)
            cell_chunks.append(flat)
            per_box_counts[box_index] = int(
                (self._cell_offsets[flat + 1] - self._cell_offsets[flat]).sum()
            )

        results: list[np.ndarray] = []
        group_start = 0
        while group_start < len(box_list):
            # Greedy box grouping: keep each shared gather under the budget
            # (a single box may exceed it; it then forms its own group).
            group_end = group_start + 1
            group_total = int(per_box_counts[group_start])
            while (
                group_end < len(box_list)
                and group_total + per_box_counts[group_end] <= _CANDIDATE_GATHER_BUDGET
            ):
                group_total += int(per_box_counts[group_end])
                group_end += 1

            group_cells = np.concatenate(cell_chunks[group_start:group_end])
            candidates, _ = csr_gather(self._cell_offsets, self._cell_members, group_cells)
            candidate_positions = pts[candidates]
            bounds = np.concatenate([[0], np.cumsum(per_box_counts[group_start:group_end])])

            for offset, box_index in enumerate(range(group_start, group_end)):
                lo_index, hi_index = int(bounds[offset]), int(bounds[offset + 1])
                box = box_list[box_index]
                box_candidates = candidates[lo_index:hi_index]
                counters = None if counters_list is None else counters_list[box_index]
                if counters is not None:
                    counters.index_nodes_visited += int(cell_chunks[box_index].size)
                if box_candidates.size == 0:
                    results.append(box_candidates)
                    continue
                if counters is not None:
                    counters.vertices_scanned += int(box_candidates.size)
                inside = points_in_box(candidate_positions[lo_index:hi_index], box)
                results.append(np.sort(box_candidates[inside]))
            group_start = group_end
        return results

    def memory_bytes(self) -> int:
        """Approximate footprint of the offsets and member arrays."""
        if not self._built:
            return 0
        return int(self._cell_offsets.nbytes + self._cell_members.nbytes)
