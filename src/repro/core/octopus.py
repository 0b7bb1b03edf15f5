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

Phases 2–3 are shared with OCTOPUS-CON (Section IV-F), which only swaps the
probe for a stale-grid lookup: :class:`_SeedWalkCrawl` implements one query
path over a seed phase each executor supplies, and ``query`` is that path
for a batch of one.

Because phases 1–3 read vertex positions directly from the mesh at query time,
OCTOPUS needs **no maintenance whatsoever** when the simulation deforms the
mesh.  Restructuring changes the surface, which the mesh splices itself; the
probe reads the mesh's surface array at query time, and
:meth:`OctopusExecutor.on_restructure` only counts the event's surface
changes and redraws the approximate probe's sample.
"""

from __future__ import annotations

import time
from abc import abstractmethod
from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..mesh import Box3D
from .crawler import BatchCrawlOutcome, CrawlOutcome, crawl_many
from .delta import TopologyDelta
from .directed_walk import directed_walk_many
from .executor import ExecutionStrategy
from .resilience import check_query_box, check_query_boxes
from .result import QueryCounters, QueryResult
from .scratch import CrawlScratch, ThreadLocalScratch
from .surface_index import SurfaceIndex

__all__ = ["OctopusExecutor"]


class _SeedWalkCrawl(ExecutionStrategy):
    """Phases 2–3 of Algorithm 1 behind an executor-specific seed phase.

    A subclass supplies the seeds of a batch of boxes — per box, in-box crawl
    start vertices, or else a vertex to walk from — through
    :meth:`_seeds_many`.  This class walks wherever a box's seeds hold no
    in-box start vertex, crawls, and reports the seed phase as
    ``probe_time``.  ``query(box)`` is a batch of one: it takes the same
    path as ``query_many``.  A result is complete when :attr:`_exact` holds.
    """

    #: whether the walk and crawl return the linear-scan answer
    _exact = True

    def __init__(self) -> None:
        super().__init__()
        #: per-thread crawl arenas (visited words + buffers); one
        #: CrawlScratch per thread keeps concurrent queries off each other's
        #: rows — see the thread-safety contract in repro.core.scratch
        self._scratch = ThreadLocalScratch()
        #: fused-crawl accounting of the most recent query or batch
        self.last_fused_crawl: BatchCrawlOutcome | None = None

    @property
    def scratch(self) -> CrawlScratch:
        """The calling thread's crawl arena (created on first use)."""
        return self._scratch.get()

    # ------------------------------------------------------------------
    # the seed phase (supplied by subclasses)
    # ------------------------------------------------------------------
    @abstractmethod
    def _seeds_many(
        self, box_list: list[Box3D], counters_list: list[QueryCounters]
    ) -> tuple[list[np.ndarray], list[int | None], list[float]]:
        """Each box's crawl start vertices, or (when there are none) the
        vertex to walk from (``None``: nothing to walk from), plus each box's
        seed-phase seconds."""

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def query(self, box: Box3D) -> QueryResult:
        """Answer one range query: the batched path for a batch of one."""
        check_query_box(box)
        return self._answer([box])[0]

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Batched execution: batched seeds, fused walks, one fused crawl."""
        return self._answer(check_query_boxes(boxes))

    def _answer(self, box_list: list[Box3D]) -> list[QueryResult]:
        """Seeds, then the walks of the boxes whose seeds hold no in-box
        start, fused in lockstep
        (:func:`~repro.core.directed_walk.directed_walk_many`), then one
        shared-frontier crawl of the whole batch
        (:func:`~repro.core.crawler.crawl_many`), so overlapping boxes share
        CSR gathers and position tests.  A box's result and counters do not
        depend on the rest of the batch; the shared walk and crawl
        wall-clock is apportioned evenly across the batch (walk time across
        the boxes that walked)."""
        self.last_fused_crawl = None
        if not box_list:
            return []
        counters_list = [QueryCounters() for _ in box_list]
        start_lists, origins, probe_times = self._seeds_many(box_list, counters_list)

        mesh = self.mesh
        scratch = self.scratch

        # Phase 2 fused across the boxes whose seeds hold no in-box start.
        walk_indices = [
            index
            for index, (starts, origin) in enumerate(zip(start_lists, origins))
            if starts.size == 0 and origin is not None
        ]
        walk_times = [0.0] * len(box_list)
        walk_batch = None
        if walk_indices:
            walk_start = time.perf_counter()
            walk_batch = directed_walk_many(
                mesh,
                [box_list[i] for i in walk_indices],
                [origins[i] for i in walk_indices],
                [counters_list[i] for i in walk_indices],
                scratch=scratch,
            )
            walk_time = (time.perf_counter() - walk_start) / len(walk_indices)
            for index, walk in zip(walk_indices, walk_batch.outcomes):
                walk_times[index] = walk_time
                if walk.found_id is not None:
                    start_lists[index] = np.asarray([walk.found_id], dtype=np.int64)

        # Phase 3 fused across the whole batch.
        crawl_start = time.perf_counter()
        batch = crawl_many(mesh, box_list, start_lists, counters_list, scratch=scratch)
        crawl_time = (time.perf_counter() - crawl_start) / len(box_list)
        if walk_batch is not None:
            walk_batch.attach_to(batch)
        self.last_fused_crawl = batch
        return [
            self._result(outcome, counters, probe_time, walk_time, crawl_time)
            for outcome, counters, probe_time, walk_time in zip(
                batch.outcomes, counters_list, probe_times, walk_times
            )
        ]

    def _result(
        self,
        outcome: CrawlOutcome,
        counters: QueryCounters,
        probe_time: float,
        walk_time: float,
        crawl_time: float,
    ) -> QueryResult:
        return QueryResult(
            vertex_ids=outcome.result_ids,
            counters=counters,
            probe_time=probe_time,
            walk_time=walk_time,
            crawl_time=crawl_time,
            total_time=probe_time + walk_time + crawl_time,
            complete=self._exact,
        )


class OctopusExecutor(_SeedWalkCrawl):
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
        sample_size = min(ids.size, max(1, int(round(ids.size * self.surface_sample_fraction))))
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

    @property
    def _exact(self) -> bool:
        return not self.is_approximate

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
    # phase 1: the surface probe
    # ------------------------------------------------------------------
    def _seeds_many(
        self, box_list: list[Box3D], counters_list: list[QueryCounters]
    ) -> tuple[list[np.ndarray], list[int | None], list[float]]:
        probe_ids = self._probe_ids()  # raises before prepare()
        probe_start = time.perf_counter()
        probes = self.surface_index.probe_many(box_list, counters_list, ids=probe_ids)
        # The probe cost is shared by the whole batch; apportion it evenly.
        probe_time = (time.perf_counter() - probe_start) / len(box_list)
        return (
            [probe.inside_ids for probe in probes],
            [probe.closest_id for probe in probes],
            [probe_time] * len(box_list),
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Surface index plus the reusable crawl scratch arena."""
        if self._surface_index is None:
            return 0
        return self._surface_index.memory_bytes() + self._scratch.expected_bytes(self.mesh.n_vertices)
