"""The surface index (Section IV-E).

OCTOPUS's only auxiliary data structure is the set of surface vertex ids.  It
is derived from the global face list, is completely oblivious to vertex
positions (so mesh deformation never requires maintenance), and only changes
when the mesh is *restructured* — cells are split or merged.

The mesh already keeps that set as a cached, sorted ``int64`` array
(:meth:`~repro.mesh.base.PolyhedralMesh.surface_vertices`), spliced from each
restructuring operation's dirty ids or rebuilt after a ``restructure``
without them.  :class:`SurfaceIndex` therefore holds no copy of it: the
probe reads the mesh's array when it runs, so it is never stale, and
:meth:`SurfaceIndex.refresh_from_mesh` only counts how many ids joined or left
the surface per event (the paper's maintenance entries).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..kernels import KERNELS
from ..mesh import (
    Box3D,
    PolyhedralMesh,
    box_batch_chunk,
    boxes_to_arrays,
    points_boxes_distance_sq,
)
from .result import QueryCounters

__all__ = ["SurfaceIndex", "SurfaceProbeOutcome"]


class SurfaceProbeOutcome:
    """Result of probing the surface against one query box.

    Attributes
    ----------
    inside_ids:
        Surface vertex ids whose current position lies inside the query.
    closest_id:
        The surface vertex closest to the query (only computed when no surface
        vertex is inside, mirroring Algorithm 1), else ``None``.
    closest_distance:
        Distance of ``closest_id`` to the query box.
    n_probed:
        Number of surface vertices examined.
    """

    __slots__ = ("inside_ids", "closest_id", "closest_distance", "n_probed")

    def __init__(
        self,
        inside_ids: np.ndarray,
        closest_id: int | None,
        closest_distance: float,
        n_probed: int,
    ) -> None:
        self.inside_ids = inside_ids
        self.closest_id = closest_id
        self.closest_distance = closest_distance
        self.n_probed = n_probed


def _on_surface(surface: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of the ``ids`` that occur in the sorted ``surface`` array."""
    if surface.size == 0:
        return np.zeros(ids.size, dtype=bool)
    slots = np.minimum(np.searchsorted(surface, ids), surface.size - 1)
    return surface[slots] == ids


class SurfaceIndex:
    """The surface probe over the mesh's own sorted surface vertex array."""

    def __init__(self, mesh: PolyhedralMesh) -> None:
        self._mesh = mesh
        start = time.perf_counter()
        #: the surface array the last refresh read (the mesh's, not a copy),
        #: and the connectivity version it belonged to
        self._read = mesh.surface_vertices()
        self._read_version = mesh.connectivity_version
        #: seconds spent building the index (reported as preprocessing time)
        self.build_time = time.perf_counter() - start

    # ------------------------------------------------------------------
    # contents
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> PolyhedralMesh:
        """The mesh this index probes."""
        return self._mesh

    def __len__(self) -> int:
        return int(self.surface_ids().size)

    def surface_ids(self) -> np.ndarray:
        """The mesh's current surface vertex ids, sorted (the mesh caches them)."""
        return self._mesh.surface_vertices()

    def memory_bytes(self) -> int:
        """Footprint of the surface id set: one ``int64`` per surface vertex."""
        return len(self) * 8

    # ------------------------------------------------------------------
    # maintenance accounting (only restructuring changes the surface)
    # ------------------------------------------------------------------
    def refresh_from_mesh(self, dirty_ids: np.ndarray | None = None) -> tuple[int, int]:
        """Count the surface ids a restructuring event inserted and removed.

        Compares the mesh's current surface with the array the previous
        refresh read and returns ``(inserted, removed)``.  The ``dirty_ids``
        of a sparse :class:`~repro.core.delta.TopologyDelta` hold every
        membership change of its event, so the count looks only at them: two
        binary searches per dirty id, O(event).  A full delta (``None``), an
        empty one, or a mesh more than one connectivity version past the last
        refresh diffs the two whole arrays instead, since an unannounced
        change can flip ids outside this event's dirty set.
        """
        old = self._read
        fresh = self._mesh.surface_vertices()
        behind = self._mesh.connectivity_version - self._read_version
        dirty = None if dirty_ids is None else np.unique(np.asarray(dirty_ids, dtype=np.int64))
        if dirty is None or dirty.size == 0 or behind > 1:
            inserted = np.setdiff1d(fresh, old, assume_unique=True).size
            removed = np.setdiff1d(old, fresh, assume_unique=True).size
        else:
            was, now = _on_surface(old, dirty), _on_surface(fresh, dirty)
            inserted = int(np.count_nonzero(now & ~was))
            removed = int(np.count_nonzero(was & ~now))
        self._read = fresh
        self._read_version = self._mesh.connectivity_version
        return inserted, removed

    # ------------------------------------------------------------------
    # the surface probe (Section IV-C)
    # ------------------------------------------------------------------
    def probe_many(
        self,
        boxes: Sequence[Box3D],
        counters_list: Sequence[QueryCounters] | None = None,
        ids: np.ndarray | None = None,
    ) -> list[SurfaceProbeOutcome]:
        """Split the surface vertices into inside / closest-outside, per box.

        The surface is tested against all boxes in one broadcast pass
        (chunked to bound the broadcast), and one more pass finds the closest
        surface vertex of every box that holds none, selecting on squared
        distances.  The probe always reads the *current* vertex positions and
        surface from the mesh, so it is correct however far vertices moved
        and however the connectivity changed since the index was built.  A
        box's outcome and counters do not depend on the other boxes.

        Parameters
        ----------
        boxes:
            The query boxes (one box is a batch of one).
        counters_list:
            Optional per-box counter records updated in place.
        ids:
            Optional subset of surface vertex ids to probe instead of the full
            surface (used by the approximate executor, which probes a random
            sample of it).  Defaults to :meth:`surface_ids`.
        """
        if ids is None:
            ids = self.surface_ids()
        n_probed = int(ids.size)
        n_boxes = len(boxes)
        if counters_list is not None:
            for counters in counters_list:
                counters.surface_probed += n_probed
        if n_probed == 0:
            return [SurfaceProbeOutcome(np.empty(0, dtype=np.int64), None, float("inf"), 0) for _ in range(n_boxes)]
        los, his = boxes_to_arrays(boxes)
        positions = self._mesh.vertices[ids]
        chunk = box_batch_chunk(n_probed)
        outcomes: list[SurfaceProbeOutcome] = []
        for first in range(0, n_boxes, chunk):
            last = min(first + chunk, n_boxes)
            inside = KERNELS.points_in_boxes(positions, los[first:last], his[first:last])
            hits = inside.any(axis=1)
            misses = np.nonzero(~hits)[0]
            if misses.size:
                distances_sq = points_boxes_distance_sq(positions, los[first + misses], his[first + misses])
                nearest = np.argmin(distances_sq, axis=1)
            miss = 0
            for row in range(last - first):
                if hits[row]:
                    outcomes.append(SurfaceProbeOutcome(ids[inside[row]], None, 0.0, n_probed))
                    continue
                closest_pos = int(nearest[miss])
                outcomes.append(
                    SurfaceProbeOutcome(
                        np.empty(0, dtype=np.int64),
                        int(ids[closest_pos]),
                        float(np.sqrt(distances_sq[miss, closest_pos])),
                        n_probed,
                    )
                )
                if counters_list is not None:
                    counters_list[first + row].probe_distance_computations += n_probed
                miss += 1
        return outcomes
