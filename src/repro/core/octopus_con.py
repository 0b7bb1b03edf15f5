"""OCTOPUS-CON: the convex-mesh variant with a stale grid index (Section IV-F).

Convex meshes satisfy internal reachability, so a crawl started from *any*
single vertex inside the query retrieves the complete result — no surface
probe is needed.  What remains is finding a starting vertex cheaply: the
directed walk could start anywhere, but walking across the whole mesh is
expensive, so OCTOPUS-CON builds a uniform grid over the *initial* vertex
positions and never updates it.  The grid is allowed to go stale: it only has
to suggest a vertex *near* the query centre, and the directed walk (which uses
live positions) closes the remaining gap.  Using a stale index to find a
starting point is safe; using a stale index to answer the query would not be.

The grid lookup is OCTOPUS-CON's seed phase; the directed walk and the crawl
are OCTOPUS's own (:class:`~repro.core.octopus._SeedWalkCrawl`).
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import MeshError, QueryError
from ..mesh import Box3D, mesh_is_convex
from .octopus import _SeedWalkCrawl
from .result import QueryCounters
from .uniform_grid import UniformGrid

__all__ = ["OctopusConExecutor"]


class OctopusConExecutor(_SeedWalkCrawl):
    """Range-query execution for meshes that remain convex during simulation.

    Parameters
    ----------
    grid_resolution:
        Cells per axis of the stale grid (total cells = resolution³; the paper
        sweeps 8–5832 total cells and settles on 1000, i.e. resolution 10).
        The grid is built over the positions at ``prepare`` and never
        maintained: deformation and restructuring cost it nothing, and the
        directed walk closes the growing gap between its suggestion and the
        live positions.

    Notes
    -----
    Correctness requires the mesh to remain convex throughout the simulation.
    ``prepare`` checks the mesh with :func:`~repro.mesh.mesh_is_convex`; on a
    mesh that is not convex then (or whose convex hull cannot be computed)
    every result says ``complete=False`` — use
    :class:`~repro.core.octopus.OctopusExecutor` there instead.  A mesh that
    is convex at ``prepare`` but loses convexity later (say, under large
    deformation pulses) is not detected: its results may miss vertices and
    still say ``complete=True``.
    """

    name = "octopus-con"

    def __init__(self, grid_resolution: int = 10) -> None:
        super().__init__()
        if grid_resolution < 1:
            raise QueryError("grid_resolution must be at least 1")
        self.grid_resolution = grid_resolution
        self._grid: UniformGrid | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build(self) -> float:
        # One in-box seed crawls to the whole answer only on a convex mesh;
        # an empty mesh answers exactly (empty), and a mesh whose hull
        # cannot be computed counts as not convex.
        start = time.perf_counter()
        try:
            self._exact = self.mesh.n_vertices == 0 or mesh_is_convex(self.mesh)
        except MeshError:
            self._exact = False
        convexity_time = time.perf_counter() - start
        self._grid = UniformGrid(self.grid_resolution)
        if self.mesh.n_vertices == 0:
            # Empty meshes carry no grid; queries short-circuit to empty
            # results (consistent degenerate handling across strategies).
            return convexity_time
        return convexity_time + self._grid.build(self.mesh.vertices)

    @property
    def grid(self) -> UniformGrid:
        """The (possibly stale) uniform grid (raises before prepare())."""
        if self._grid is None:
            raise RuntimeError("octopus-con: prepare() has not been called")
        return self._grid

    def _ensure_grid(self) -> UniformGrid:
        """The grid, lazily derived if prepare() ran on an empty mesh."""
        grid = self.grid
        if grid.n_points == 0 and self.mesh.n_vertices > 0:
            # Prepared on an empty mesh (nothing to bin then); build it on
            # first use and charge it to preprocessing like prepare().
            self.preprocessing_time += grid.build(self.mesh.vertices)
        return grid

    # ------------------------------------------------------------------
    # the seed phase: the stale-grid lookup
    # ------------------------------------------------------------------
    def _seeds_many(
        self, box_list: list[Box3D], counters_list: list[QueryCounters]
    ) -> tuple[list[np.ndarray], list[int | None], list[float]]:
        """No in-box starts; each box walks from a vertex near its centre.

        All box centres are located in the grid in one pass; only the boxes
        whose centre cell is empty fall back to the ring search.  An empty
        mesh has nothing to walk from."""
        no_starts = np.empty(0, dtype=np.int64)
        if self.mesh.n_vertices == 0:
            return [no_starts] * len(box_list), [None] * len(box_list), [0.0] * len(box_list)
        locate_start = time.perf_counter()
        centers = np.stack([box.center for box in box_list])
        first_hits = self._ensure_grid().locate_batch(centers)
        shared_locate_time = (time.perf_counter() - locate_start) / len(box_list)

        origins: list[int | None] = []
        locate_times: list[float] = []
        for box, hit, counters in zip(box_list, first_hits, counters_list):
            locate_time = shared_locate_time
            if hit >= 0:
                counters.index_nodes_visited += 1  # the centre cell, as in ring 0
                origins.append(int(hit))
            else:
                ring_start = time.perf_counter()
                origins.append(self.grid.any_vertex_near(box.center, counters))
                locate_time += time.perf_counter() - ring_start
            locate_times.append(locate_time)
        return [no_starts] * len(box_list), origins, locate_times

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Stale grid plus the reusable crawl scratch arena."""
        if self._grid is None:
            return 0
        return self._grid.memory_bytes() + self._scratch.expected_bytes(self.mesh.n_vertices)
