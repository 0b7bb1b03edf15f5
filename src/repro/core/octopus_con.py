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
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..mesh import Box3D
from .crawler import BatchCrawlOutcome, crawl, crawl_many
from .delta import DeformationDelta, TopologyDelta
from .directed_walk import directed_walk, fused_walk_phase
from .executor import ExecutionStrategy
from .resilience import check_query_box, check_query_boxes
from .result import QueryCounters, QueryResult
from .scratch import CrawlScratch, ThreadLocalScratch
from .uniform_grid import UniformGrid

__all__ = ["OctopusConExecutor"]


class OctopusConExecutor(ExecutionStrategy):
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
    Correctness requires the mesh to remain convex throughout the simulation;
    on non-convex meshes results may be incomplete (use
    :class:`~repro.core.octopus.OctopusExecutor` there instead).
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
        #: per-thread crawl arenas (epoch-stamped visited + buffers); one
        #: CrawlScratch per thread keeps concurrent queries off each other's
        #: stamps — see the thread-safety contract in repro.core.scratch
        self._scratch = ThreadLocalScratch()
        #: fused-crawl accounting of the most recent query_many() batch
        self.last_fused_crawl: BatchCrawlOutcome | None = None

    @property
    def scratch(self) -> CrawlScratch:
        """The calling thread's crawl arena (created on first use)."""
        return self._scratch.get()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build(self) -> float:
        self._grid = UniformGrid(self.grid_resolution)
        if self.mesh.n_vertices == 0:
            # Empty meshes carry no grid; queries short-circuit to empty
            # results (consistent degenerate handling across strategies).
            return 0.0
        return self._grid.build(self.mesh.vertices)

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
    # query execution
    # ------------------------------------------------------------------
    def query(self, box: Box3D) -> QueryResult:
        """Answer one range query: grid-located start, walk, crawl.

        When a :attr:`~repro.core.executor.ExecutionStrategy.query_budget` is
        installed, one tracker meters the walk and crawl together (the grid
        lookup is bounded by the grid resolution and stays unbudgeted).
        """
        check_query_box(box)
        counters = QueryCounters()
        if self.mesh.n_vertices == 0:
            return QueryResult(vertex_ids=np.empty(0, dtype=np.int64), counters=counters)

        # Locate a starting vertex near the query centre using the stale grid.
        locate_start = time.perf_counter()
        start_id = self._ensure_grid().any_vertex_near(box.center, counters)
        locate_time = time.perf_counter() - locate_start

        return self._walk_and_crawl(box, start_id, counters, locate_time)

    def _walk_for_start(
        self,
        box: Box3D,
        start_id: int | None,
        counters: QueryCounters,
        budget=None,
    ) -> tuple[np.ndarray, float, bool]:
        """Directed-walk phase (shared by the sequential and batched paths).

        Walks from the grid-suggested vertex towards the box; returns the
        crawl start vertices (empty when the walk got stuck or the grid was
        empty), the walk seconds, and whether the walk ran to completion
        (budgets may truncate it).
        """
        walk_time = 0.0
        complete = True
        start_vertices = np.empty(0, dtype=np.int64)
        if start_id is not None:
            walk_start = time.perf_counter()
            walk = directed_walk(
                self.mesh, box, start_id, counters, scratch=self.scratch, budget=budget
            )
            walk_time = time.perf_counter() - walk_start
            complete = walk.complete
            if walk.found_id is not None:
                start_vertices = np.asarray([walk.found_id], dtype=np.int64)
        return start_vertices, walk_time, complete

    def _walk_and_crawl(
        self,
        box: Box3D,
        start_id: int | None,
        counters: QueryCounters,
        locate_time: float,
    ) -> QueryResult:
        """Walk-then-crawl tail for one box (the sequential path)."""
        mesh = self.mesh
        budget = self._start_budget()
        start_vertices, walk_time, walk_complete = self._walk_for_start(
            box, start_id, counters, budget
        )

        crawl_start = time.perf_counter()
        outcome = crawl(mesh, box, start_vertices, counters, scratch=self.scratch, budget=budget)
        crawl_time = time.perf_counter() - crawl_start
        return QueryResult(
            vertex_ids=outcome.result_ids,
            counters=counters,
            probe_time=locate_time,   # grid lookup takes the place of the probe phase
            walk_time=walk_time,
            crawl_time=crawl_time,
            total_time=locate_time + walk_time + crawl_time,
            complete=walk_complete and outcome.complete,
        )

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Batched execution: vectorised grid lookup, fused walks, fused crawl.

        All box centres are located in the stale grid in a single pass (only
        the boxes whose centre cell is empty fall back to the sequential ring
        search), the directed walks of the whole batch advance in lockstep
        through one fused beam walk
        (:func:`~repro.core.directed_walk.directed_walk_many`), and the
        crawls are fused into one shared-frontier BFS
        (:func:`~repro.core.crawler.crawl_many`) against the shared scratch
        arena.  Results and counters match sequential :meth:`query` calls
        exactly.
        """
        box_list = check_query_boxes(boxes)
        self.last_fused_crawl = None  # set again below iff this batch fuses
        if len(box_list) <= 1 or self.mesh.n_vertices == 0:
            return [self.query(box) for box in box_list]
        mesh = self.mesh
        locate_start = time.perf_counter()
        centers = np.stack([box.center for box in box_list])
        first_hits = self._ensure_grid().locate_batch(centers)
        shared_locate_time = (time.perf_counter() - locate_start) / len(box_list)

        counters_list: list[QueryCounters] = []
        locate_times: list[float] = []
        start_ids: list[int | None] = []
        for box, hit in zip(box_list, first_hits):
            counters = QueryCounters()
            locate_time = shared_locate_time
            if hit >= 0:
                counters.index_nodes_visited += 1  # the centre cell, as in ring 0
                start_id: int | None = int(hit)
            else:
                ring_start = time.perf_counter()
                start_id = self.grid.any_vertex_near(box.center, counters)
                locate_time += time.perf_counter() - ring_start
            counters_list.append(counters)
            locate_times.append(locate_time)
            start_ids.append(start_id)

        walk_indices = [index for index, start_id in enumerate(start_ids) if start_id is not None]
        # One tracker per query, shared by its walk and crawl phases — the
        # same metering a sequential query() applies.
        budgets = None
        if self.query_budget is not None:
            budgets = [self._start_budget(query_index=i) for i in range(len(box_list))]
        walk_times, walk_starts, walk_batch = fused_walk_phase(
            mesh,
            box_list,
            walk_indices,
            start_ids,
            counters_list,
            self.scratch,
            budgets,
        )
        crawl_starts = [
            walk_starts.get(index, np.empty(0, dtype=np.int64))
            for index in range(len(box_list))
        ]
        walk_complete = [True] * len(box_list)
        if walk_batch is not None:
            for index, walk in zip(walk_indices, walk_batch.outcomes):
                walk_complete[index] = walk.complete

        crawl_start = time.perf_counter()
        batch = crawl_many(
            mesh,
            box_list,
            crawl_starts,
            counters_list,
            scratch=self.scratch,
            budgets=budgets,
        )
        crawl_time = (time.perf_counter() - crawl_start) / len(box_list)
        if walk_batch is not None:
            walk_batch.attach_to(batch)
        self.last_fused_crawl = batch

        results: list[QueryResult] = []
        for index, (outcome, counters, locate_time, walk_time) in enumerate(
            zip(batch.outcomes, counters_list, locate_times, walk_times)
        ):
            results.append(
                QueryResult(
                    vertex_ids=outcome.result_ids,
                    counters=counters,
                    probe_time=locate_time,  # grid lookup takes the place of the probe phase
                    walk_time=walk_time,
                    crawl_time=crawl_time,
                    total_time=locate_time + walk_time + crawl_time,
                    complete=walk_complete[index] and outcome.complete,
                )
            )
        return results

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Stale grid plus the reusable crawl scratch arena."""
        if self._grid is None:
            return 0
        return self._grid.memory_bytes() + self._scratch.expected_bytes(self.mesh.n_vertices)
