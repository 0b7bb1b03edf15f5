"""The OCTOPUS query execution strategy (Section IV, Algorithm 1).

A query is answered in three phases:

1. **Surface probe** — every vertex in the surface index is tested against the
   query box; the ones inside become crawl start vertices.  If none is inside,
   the probe also reports the surface vertex closest to the box.
2. **Directed walk** — only when the probe found no start vertex: walk from
   the closest surface vertex greedily towards the box.  Reaching a vertex
   inside the box yields a single start vertex; getting stuck means the query
   does not intersect the mesh and the result is empty.
3. **Crawling** — breadth-first traversal of mesh edges from the start
   vertices, restricted to the query box.

Because phases 1–3 read vertex positions directly from the mesh at query time,
OCTOPUS needs **no maintenance whatsoever** when the simulation deforms the
mesh.  Restructuring changes the surface, which the mesh splices itself; the
probe reads the mesh's surface array at query time, and
:meth:`OctopusExecutor.on_restructure` only counts the event's surface
changes and redraws the approximate probe's sample.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..kernels import KERNELS
from ..mesh import (
    Box3D,
    box_batch_chunk,
    boxes_to_arrays,
    points_boxes_distance_sq,
)
from .crawler import BatchCrawlOutcome, crawl, crawl_many
from .delta import TopologyDelta
from .directed_walk import directed_walk, fused_walk_phase
from .executor import ExecutionStrategy
from .resilience import check_query_box, check_query_boxes
from .result import QueryCounters, QueryResult
from .scratch import CrawlScratch, ThreadLocalScratch
from .surface_index import SurfaceIndex

__all__ = ["OctopusExecutor"]


class OctopusExecutor(ExecutionStrategy):
    """Range-query execution on dynamic meshes via surface probe + crawl.

    Parameters
    ----------
    surface_sample_fraction:
        Optional surface-approximation factor in (0, 1]: probe only this
        fraction of the surface vertices (chosen uniformly at random at
        prepare time, and again whenever the connectivity changes).  Such a
        probe can miss in-box components, so its results say
        ``complete=False``.  ``None`` or 1.0 probes the full surface and
        guarantees exact results (Section IV-H2 / Figure 12 trade accuracy
        for speed).
    seed:
        Seed for the approximation sample.
    """

    name = "octopus"

    def __init__(
        self,
        surface_sample_fraction: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if surface_sample_fraction is not None and not 0.0 < surface_sample_fraction <= 1.0:
            raise QueryError("surface_sample_fraction must lie in (0, 1]")
        self.surface_sample_fraction = surface_sample_fraction
        self.seed = seed
        self._surface_index: SurfaceIndex | None = None
        #: (connectivity version, sorted sample ids) of the approximate probe
        self._sample: tuple[int, np.ndarray] | None = None
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
        start = time.perf_counter()
        self._surface_index = SurfaceIndex(self.mesh)
        self._draw_sample()
        return time.perf_counter() - start

    def _draw_sample(self) -> None:
        """Draw the approximate probe's surface sample (exact mode keeps none)."""
        if not self.is_approximate:
            return
        ids = self.surface_index.surface_ids()
        rng = np.random.default_rng(self.seed)
        sample_size = max(1, int(round(ids.size * self.surface_sample_fraction)))
        sample = np.sort(rng.choice(ids, size=sample_size, replace=False))
        # one tuple, so a concurrent reader never pairs a version with the
        # other draw's sample
        self._sample = (self.mesh.connectivity_version, sample)

    def _probe_ids(self) -> np.ndarray:
        """The surface vertices the probe examines: the surface or its sample.

        The sample is redrawn when the connectivity moved since it was drawn,
        so even an unannounced restructure never leaves it stale.
        """
        if not self.is_approximate:
            return self.surface_index.surface_ids()
        if self._sample is None or self._sample[0] != self.mesh.connectivity_version:
            self._draw_sample()
        return self._sample[1]

    @property
    def surface_index(self) -> SurfaceIndex:
        """The surface index built at prepare time (raises before prepare())."""
        if self._surface_index is None:
            raise RuntimeError("octopus: prepare() has not been called")
        return self._surface_index

    @property
    def is_approximate(self) -> bool:
        """True when the probe examines only a sample of the surface."""
        return self.surface_sample_fraction is not None and self.surface_sample_fraction < 1.0

    def on_restructure(self, delta: TopologyDelta) -> float:
        """Account for a restructuring event and redraw the probe sample.

        The mesh spliced its own surface array from the operation's dirty ids
        (see :meth:`~repro.mesh.base.PolyhedralMesh.restructure`) and the
        probe reads that array, so nothing has to be reconciled.  What is
        left is the ledger — the surface ids the event inserted and removed
        (see :meth:`SurfaceIndex.refresh_from_mesh`) — and redrawing the
        approximate probe's sample from the new surface.
        """
        if self._surface_index is None:
            return 0.0
        start = time.perf_counter()
        inserted, removed = self._surface_index.refresh_from_mesh(delta.dirty_ids)
        self._draw_sample()
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += inserted + removed
        return elapsed

    # ------------------------------------------------------------------
    # query execution (Algorithm 1)
    # ------------------------------------------------------------------
    def query(self, box: Box3D) -> QueryResult:
        """Answer one range query via Algorithm 1: probe, walk, crawl.

        When a :attr:`~repro.core.executor.ExecutionStrategy.query_budget` is
        installed, one tracker meters the walk and crawl phases together (the
        probe is bounded by the surface size and stays unbudgeted).
        """
        check_query_box(box)
        counters = QueryCounters()

        # Phase 1: surface probe over the (possibly sampled) surface vertex set.
        probe_start = time.perf_counter()
        probe = self.surface_index.probe(box, counters, ids=self._probe_ids())
        probe_time = time.perf_counter() - probe_start

        # Phases 2 and 3: directed walk (only on a probe miss) and crawl.
        return self._walk_and_crawl(box, probe.inside_ids, probe.closest_id, counters, probe_time)

    def _walk_for_start(
        self,
        box: Box3D,
        start_vertices: np.ndarray,
        closest_id: int | None,
        counters: QueryCounters,
        budget=None,
    ) -> tuple[np.ndarray, float, bool]:
        """Phase 2 of Algorithm 1 (shared by the sequential and batched paths).

        On a probe miss, walks from the closest surface vertex towards the
        box; returns the (possibly updated) crawl start vertices, the walk
        seconds, and whether the walk ran to completion (budgets may truncate
        it).
        """
        walk_time = 0.0
        complete = True
        if start_vertices.size == 0 and closest_id is not None:
            walk_start = time.perf_counter()
            walk = directed_walk(
                self.mesh, box, closest_id, counters, scratch=self.scratch, budget=budget
            )
            walk_time = time.perf_counter() - walk_start
            complete = walk.complete
            if walk.found_id is not None:
                start_vertices = np.asarray([walk.found_id], dtype=np.int64)
        return start_vertices, walk_time, complete

    def _walk_and_crawl(
        self,
        box: Box3D,
        start_vertices: np.ndarray,
        closest_id: int | None,
        counters: QueryCounters,
        probe_time: float,
    ) -> QueryResult:
        """Phases 2–3 of Algorithm 1 for one box (the sequential tail)."""
        mesh = self.mesh
        budget = self._start_budget()
        start_vertices, walk_time, walk_complete = self._walk_for_start(
            box, start_vertices, closest_id, counters, budget
        )

        crawl_start = time.perf_counter()
        outcome = crawl(mesh, box, start_vertices, counters, scratch=self.scratch, budget=budget)
        crawl_time = time.perf_counter() - crawl_start
        return QueryResult(
            vertex_ids=outcome.result_ids,
            counters=counters,
            probe_time=probe_time,
            walk_time=walk_time,
            crawl_time=crawl_time,
            total_time=probe_time + walk_time + crawl_time,
            complete=walk_complete and outcome.complete and not self.is_approximate,
        )

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Batched Algorithm 1: broadcasted probe, fused walks, one fused crawl.

        The surface is tested against *all* query boxes in a single NumPy
        pass (chunked to bound the broadcast), which amortises the probe's
        dispatch overhead across the batch; the directed walks of all probe
        misses advance in lockstep through one fused beam walk
        (:func:`~repro.core.directed_walk.directed_walk_many`), and the
        crawls of the whole batch are fused into one shared-frontier BFS
        (:func:`~repro.core.crawler.crawl_many`) so overlapping boxes share
        CSR gathers and position tests.  Results, counters and result ids are
        identical to sequential :meth:`query` calls; the shared probe, walk
        and crawl wall-clock is apportioned evenly across the batch (walk
        time across the boxes that walked).
        """
        box_list = check_query_boxes(boxes)
        self.last_fused_crawl = None  # set again below iff this batch fuses
        if len(box_list) <= 1:
            return [self.query(box) for box in box_list]
        mesh = self.mesh
        probe_ids = self._probe_ids()  # raises before prepare()
        if probe_ids.size == 0:
            # A surface-less mesh: keep the sequential code as the single
            # source of truth.
            return [self.query(box) for box in box_list]

        probe_start = time.perf_counter()
        los, his = boxes_to_arrays(box_list)
        positions = mesh.vertices[probe_ids]
        chunk = box_batch_chunk(probe_ids.size)
        start_lists: list[np.ndarray] = []
        closest_ids: list[int | None] = []
        for lo_index in range(0, len(box_list), chunk):
            hi_index = min(lo_index + chunk, len(box_list))
            inside = KERNELS.points_in_boxes(positions, los[lo_index:hi_index], his[lo_index:hi_index])
            hits = inside.any(axis=1)
            misses = np.nonzero(~hits)[0]
            closest_of_miss: dict[int, int] = {}
            if misses.size:
                distances = points_boxes_distance_sq(
                    positions, los[lo_index + misses], his[lo_index + misses]
                )
                nearest = np.argmin(distances, axis=1)
                closest_of_miss = {
                    int(row): int(probe_ids[nearest[k]]) for k, row in enumerate(misses)
                }
            for row in range(hi_index - lo_index):
                if hits[row]:
                    start_lists.append(probe_ids[inside[row]])
                    closest_ids.append(None)
                else:
                    start_lists.append(np.empty(0, dtype=np.int64))
                    closest_ids.append(closest_of_miss[row])
        # The probe cost is shared by the whole batch; apportion it evenly.
        probe_time = (time.perf_counter() - probe_start) / len(box_list)

        # Phase 2 fused across the probe misses, then phase 3 fused across the
        # whole batch.
        counters_list: list[QueryCounters] = []
        crawl_starts: list[np.ndarray] = []
        walk_indices: list[int] = []
        for index, (start_vertices, closest_id) in enumerate(zip(start_lists, closest_ids)):
            counters = QueryCounters()
            counters.surface_probed += int(probe_ids.size)
            if start_vertices.size == 0 and closest_id is not None:
                # Mirrors probe(): the closest-vertex pass costs one distance
                # evaluation per probed vertex.
                counters.probe_distance_computations += int(probe_ids.size)
                walk_indices.append(index)
            counters_list.append(counters)
            crawl_starts.append(start_vertices)

        # One tracker per query, shared by its walk and crawl phases — the
        # same metering a sequential query() applies.
        budgets = None
        if self.query_budget is not None:
            budgets = [self._start_budget(query_index=i) for i in range(len(box_list))]

        walk_times, walk_starts, walk_batch = fused_walk_phase(
            mesh,
            box_list,
            walk_indices,
            closest_ids,
            counters_list,
            self.scratch,
            budgets,
        )
        for index, start_vertices in walk_starts.items():
            crawl_starts[index] = start_vertices
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
        for index, (outcome, counters, walk_time) in enumerate(
            zip(batch.outcomes, counters_list, walk_times)
        ):
            results.append(
                QueryResult(
                    vertex_ids=outcome.result_ids,
                    counters=counters,
                    probe_time=probe_time,
                    walk_time=walk_time,
                    crawl_time=crawl_time,
                    total_time=probe_time + walk_time + crawl_time,
                    complete=walk_complete[index] and outcome.complete and not self.is_approximate,
                )
            )
        return results

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Surface index plus the reusable crawl scratch arena."""
        if self._surface_index is None:
            return 0
        return self._surface_index.memory_bytes() + self._scratch.expected_bytes(self.mesh.n_vertices)
