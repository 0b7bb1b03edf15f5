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
from .delta import DeformationDelta, TopologyDelta
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
    grid_maintenance:
        How the grid reacts to deformation deltas:

        * ``"stale"`` (default, the paper's choice) — never maintained; the
          directed walk closes the growing gap between the stale suggestion
          and the live positions.
        * ``"incremental"`` — kept fresh at a cost proportional to the
          motion: sparse deltas relocate only the moved vertices between
          cells (:meth:`UniformGrid.relocate`), full deltas re-bin everything
          into the frozen cell geometry.
        * ``"rebuild"`` — kept fresh the expensive way: every step re-bins
          every vertex (:meth:`UniformGrid.rebin`).  The full-recompute
          reference for ``"incremental"``: both modes yield bit-identical
          grid arrays, hence bit-identical queries and counters.

        The maintained modes keep the cell geometry frozen at its build-time
        bounds (positions drifting outside clamp to border cells), so the
        incremental path never has to re-derive bounds; freshness only
        shortens the directed walks, correctness never depends on it.

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

    GRID_MAINTENANCE_MODES = ("stale", "incremental", "rebuild")

    def __init__(
        self,
        grid_resolution: int = 10,
        grid_maintenance: str = "stale",
    ) -> None:
        super().__init__()
        if grid_resolution < 1:
            raise QueryError("grid_resolution must be at least 1")
        if grid_maintenance not in self.GRID_MAINTENANCE_MODES:
            raise QueryError(
                f"grid_maintenance must be one of {self.GRID_MAINTENANCE_MODES}, "
                f"got {grid_maintenance!r}"
            )
        self.grid_resolution = grid_resolution
        self.grid_maintenance = grid_maintenance
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
            # Prepared on an empty mesh (no geometry to freeze then); derive
            # it on first use and charge it to preprocessing like prepare().
            self.preprocessing_time += grid.build(self.mesh.vertices)
        return grid

    def on_step(self, delta: DeformationDelta) -> float:
        """Grid maintenance keyed off the step's deformation delta.

        In the default ``"stale"`` mode this is the paper's no-op.  The
        maintained modes charge their work here: ``"incremental"`` relocates
        only the delta's moved vertices (falling back to a full re-bin on
        whole-mesh deltas or after restructuring changed the vertex count),
        ``"rebuild"`` re-bins everything every step.  Either way the grid
        arrays — and therefore every query and counter — end up bit-identical.
        """
        if self.grid_maintenance == "stale":
            return 0.0
        grid = self.grid
        start = time.perf_counter()
        if delta.n_moved == 0 and grid.n_points == self.mesh.n_vertices:
            touched = 0
        elif (
            self.grid_maintenance == "incremental"
            and not delta.is_full
            and grid.n_points == self.mesh.n_vertices
        ):
            # The delta carries the moved vertices' new positions (aligned
            # with its sorted ids); fall back to a mesh gather for hand-built
            # deltas that omit them.
            new_positions = delta.new_positions
            if new_positions is None:
                new_positions = self.mesh.vertices[delta.moved_ids]
            touched = grid.relocate(delta.moved_ids, new_positions)
        elif grid.n_points == self.mesh.n_vertices:
            touched = grid.rebin(self.mesh.vertices)
        else:
            # Restructuring changed the vertex count behind the event
            # pipeline's back (no on_restructure call): re-derive the
            # geometry.
            grid.build(self.mesh.vertices)
            touched = grid.n_points
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += touched
        return elapsed

    def on_restructure(self, delta: TopologyDelta) -> float:
        """Grid maintenance keyed off a restructuring's topology delta.

        Restructuring never moves a pre-existing vertex, so the maintained
        grids only care about *appended* vertices: in ``"incremental"`` mode
        a sparse delta splices the new tail vertices into the frozen cell
        geometry (:meth:`UniformGrid.append_points`) at a cost proportional
        to the additions, and a removal-only delta costs nothing.  The
        ``"rebuild"`` mode — and the ``full()`` fallback of either maintained
        mode — re-bins every vertex into the *same* frozen geometry
        (:meth:`UniformGrid.rebin`), so the incremental splice and the full
        re-bin produce bit-identical grid arrays, hence bit-identical queries
        and counters.  The default ``"stale"`` mode stays the paper's no-op:
        pre-existing ids remain valid start-vertex suggestions and the
        directed walk closes any gap.
        """
        if self.grid_maintenance == "stale":
            return 0.0
        if self.mesh.n_vertices == 0:
            return 0.0
        grid = self.grid
        start = time.perf_counter()
        if delta.is_empty and grid.n_points == self.mesh.n_vertices:
            touched = 0
        elif grid.n_points == 0:
            # The executor was prepared on an empty mesh (no grid geometry to
            # splice into); derive it now that vertices exist.
            grid.build(self.mesh.vertices)
            touched = grid.n_points
        elif (
            self.grid_maintenance == "incremental"
            and not delta.is_full
            and grid.n_points + delta.n_vertices_added == self.mesh.n_vertices
        ):
            touched = grid.append_points(self.mesh.vertices[delta.added_vertex_ids()])
        else:
            touched = grid.rebin(self.mesh.vertices)
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += touched
        return elapsed

    # ------------------------------------------------------------------
    # the seed phase: the stale-grid lookup
    # ------------------------------------------------------------------
    def _seeds(self, box: Box3D, counters: QueryCounters) -> tuple[np.ndarray, int | None]:
        """No in-box starts; walk from a vertex near the box centre."""
        if self.mesh.n_vertices == 0:
            return np.empty(0, dtype=np.int64), None
        return np.empty(0, dtype=np.int64), self._ensure_grid().any_vertex_near(box.center, counters)

    def _seeds_many(
        self, box_list: list[Box3D], counters_list: list[QueryCounters]
    ) -> tuple[list[np.ndarray], list[int | None], list[float]] | None:
        """All box centres located in the grid in one pass; only the boxes
        whose centre cell is empty fall back to the ring search."""
        if self.mesh.n_vertices == 0:
            return None
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
        no_starts = np.empty(0, dtype=np.int64)
        return [no_starts] * len(box_list), origins, locate_times

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Stale grid plus the reusable crawl scratch arena."""
        if self._grid is None:
            return 0
        return self._grid.memory_bytes() + self._scratch.expected_bytes(self.mesh.n_vertices)
