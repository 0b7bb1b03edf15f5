"""The sharded concurrent query service.

:class:`ShardedQueryService` is the front-end a monitoring workload talks
to: it cuts the mesh into K Hilbert-contiguous shards
(:func:`~repro.service.partition.partition_mesh`), runs one
:class:`~repro.core.executor.ExecutionStrategy` per shard, routes each
query box to the shards that can hold vertices inside it, hands every
routed shard its boxes as one fused ``query_many`` sub-batch on the
caller's thread, and merges the per-shard results back into ordinary
:class:`~repro.core.result.QueryResult`\\ s.  Single queries, standing
subscriptions and their re-queries take the same path.

Merge semantics
---------------
A shard answers with *local* vertex ids over its submesh; the service maps
them through the shard's sorted ``global_ids`` and unions across shards.
Vertices on the shard-boundary overlap band (referenced by cells in more
than one shard) are retrieved by each owning shard and deduplicated by the
union, so the id set is exactly the one a whole-mesh executor returns.
Counters are **summed** across the routed shards — they keep their meaning
of "work this query caused", which now includes the overlap band being
visited once per owning shard; per-phase times are summed the same way,
and ``complete`` is the conjunction.  Merged output is a pure function of
the per-shard results, which are pure functions of mesh state — so results
are bit-identical however many client threads ask.

Concurrency contract
--------------------
``query``/``query_many`` may be called from any number of client threads
concurrently; per-thread crawl scratches (see
:class:`~repro.core.scratch.ThreadLocalScratch`) keep the shard executors
safe under that load.  Maintenance (``on_step``/``on_restructure``) takes
the writer side of a readers-writer lock, so ticks exclude in-flight
queries and vice versa — queries always observe a fully applied tick,
never a half-deformed mesh.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from ..cache import CacheStats, CachingStrategy
from ..cache.strategy import cache_capacity
from ..core import DeformationDelta, OctopusExecutor, QueryCounters, QueryResult, TopologyDelta
from ..core.delta import BoxSet
from ..core.executor import ExecutionStrategy
from ..core.resilience import check_query_box, check_query_boxes
from ..errors import SimulationError
from ..mesh import Box3D, PolyhedralMesh
from ..standing import MembershipUpdate, StandingQueryRegistry, StandingStats
from .partition import MeshShard, partition_mesh

__all__ = ["ShardedQueryService"]


class _RoutingGrid:
    """Occupancy-based routing: which shards have vertices inside a box?

    Shard bounding boxes overlap badly on ragged meshes (a Hilbert run is
    contiguous on the curve, not a brick in space), so AABB routing fans
    tiny queries out to ~2 shards.  This filter is finer: a coarse uniform
    grid over the mesh, one occupancy bitmap per shard ("shard k has a
    vertex in cell c"), stored as 3-D summed-area tables so "any occupied
    cell inside the box's cell range?" is eight integral lookups per
    (box, shard) — vectorised over both.  False positives only cost work
    (an empty sub-query); false negatives are impossible: a vertex inside
    the box lies in a cell the box's clipped cell range covers.
    """

    def __init__(self, resolution: int = 16) -> None:
        self.resolution = int(resolution)
        self._lo = np.zeros(3)
        self._inv_cell = np.ones(3)
        self._integrals = np.zeros((0, 2, 2, 2), dtype=np.int32)

    def rebuild(self, shards: Sequence[MeshShard]) -> None:
        """Recompute the per-shard occupancy integrals from current positions."""
        resolution = self.resolution
        los = np.min([shard.bounds.lo for shard in shards], axis=0)
        his = np.max([shard.bounds.hi for shard in shards], axis=0)
        extents = np.maximum(his - los, 1e-12)
        self._lo = los
        self._inv_cell = resolution / extents
        self._integrals = np.zeros(
            (len(shards), resolution + 1, resolution + 1, resolution + 1), dtype=np.int32
        )
        for k, shard in enumerate(shards):
            cells = ((shard.mesh.vertices - los) * self._inv_cell).astype(np.int64)
            np.clip(cells, 0, resolution - 1, out=cells)
            occupancy = np.zeros((resolution,) * 3, dtype=np.int32)
            occupancy[cells[:, 0], cells[:, 1], cells[:, 2]] = 1
            self._integrals[k, 1:, 1:, 1:] = (
                occupancy.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
            )

    def overlap_matrix(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """(n_boxes, n_shards) bool: shard k owns a grid cell box i covers."""
        resolution = self.resolution
        lo_cells = np.clip(
            np.floor((los - self._lo) * self._inv_cell).astype(np.int64), 0, resolution - 1
        )
        hi_cells = (
            np.clip(
                np.floor((his - self._lo) * self._inv_cell).astype(np.int64),
                0,
                resolution - 1,
            )
            + 1
        )
        x1, y1, z1 = lo_cells[:, 0], lo_cells[:, 1], lo_cells[:, 2]
        x2, y2, z2 = hi_cells[:, 0], hi_cells[:, 1], hi_cells[:, 2]
        integral = self._integrals
        counts = (
            integral[:, x2, y2, z2]
            - integral[:, x1, y2, z2]
            - integral[:, x2, y1, z2]
            - integral[:, x2, y2, z1]
            + integral[:, x1, y1, z2]
            + integral[:, x1, y2, z1]
            + integral[:, x2, y1, z1]
            - integral[:, x1, y1, z1]
        )
        return counts.T > 0


class _ReadWriteLock:
    """Many concurrent readers (queries) or one writer (a maintenance tick).

    Writer-preferring: once a tick is waiting, new queries queue behind it,
    so steady query traffic cannot starve maintenance.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        """Hold shared (reader) access for the duration of the block."""
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        """Hold exclusive (writer) access for the duration of the block."""
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ShardedQueryService(ExecutionStrategy):
    """Route, fan out, merge: concurrent range queries over K mesh shards.

    The service implements the full
    :class:`~repro.core.executor.ExecutionStrategy` protocol, so the
    simulator, the harness and the wrappers treat it like any other strategy
    (it can itself be wrapped or registered in a
    :class:`~repro.simulation.MeshSimulation`).

    Parameters
    ----------
    strategy_factory:
        Zero-argument callable producing the per-shard
        :class:`~repro.core.executor.ExecutionStrategy` (one call per
        shard).  Defaults to :class:`~repro.core.OctopusExecutor`.
    n_shards:
        Target shard count (clamped to the cell count at prepare time).
    hilbert_bits:
        Curve resolution handed to the partitioner.
    caching:
        Wrap every shard strategy in a
        :class:`~repro.cache.CachingStrategy`: ``True`` with defaults, an
        ``int`` for ``max_entries``.  Each shard owns a private cache
        holding *local* vertex ids, so sliced deltas invalidate only the
        owning shard's entries and a repartition flushes every cache (shard
        strategies are re-prepared).
    """

    def __init__(
        self,
        strategy_factory: Callable[[], ExecutionStrategy] | None = None,
        n_shards: int = 4,
        hilbert_bits: int = 10,
        caching: bool | int | None = None,
    ) -> None:
        if n_shards < 1:
            raise SimulationError(f"n_shards must be at least 1, got {n_shards}")
        super().__init__()
        self.strategy_factory = strategy_factory or OctopusExecutor
        self.requested_shards = n_shards
        self.hilbert_bits = hilbert_bits
        self._cache_entries = cache_capacity(caching, SimulationError)
        self._shards: list[MeshShard] = []
        self._strategies: list[ExecutionStrategy] = []
        #: shard bounds, row k for shard k: the AABB term of the routing
        self._shard_bounds = BoxSet()
        self._routing_grid = _RoutingGrid()
        self._lock = _ReadWriteLock()
        #: number of full repartitions forced by restructuring events
        self.n_repartitions = 0
        #: standing subscriptions over the whole service (global vertex ids);
        #: its re-queries route per shard and dedup the overlap band in _merge
        self._standing = StandingQueryRegistry()
        self._standing_used = False
        self._step: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _make_shard_strategy(self) -> ExecutionStrategy:
        strategy = self.strategy_factory()
        if self._cache_entries is not None:
            strategy = CachingStrategy(strategy, max_entries=self._cache_entries)
        return strategy

    @property
    def name(self) -> str:
        """Strategy-style label, e.g. ``sharded-octopusx4``."""
        inner = (
            self._strategies[0].name if self._strategies else self._make_shard_strategy().name
        )
        return f"sharded-{inner}x{len(self._shards) or self.requested_shards}"

    @property
    def mesh(self) -> PolyhedralMesh:
        """The live parent mesh handed to :meth:`prepare`."""
        if self._mesh is None:
            raise SimulationError("sharded service: prepare() has not been called")
        return self._mesh

    @property
    def shards(self) -> list[MeshShard]:
        """The current partition, one :class:`MeshShard` per shard."""
        return self._shards

    @property
    def strategies(self) -> list[ExecutionStrategy]:
        """The per-shard execution strategies, aligned with :attr:`shards`."""
        return self._strategies

    @property
    def n_shards(self) -> int:
        """Actual shard count after prepare-time clamping."""
        return len(self._shards)

    def prepare(self, mesh: PolyhedralMesh) -> float:
        """Partition the mesh and build one prepared strategy per shard."""
        start = time.perf_counter()
        self._mesh = mesh
        self._build_shards()
        self.preprocessing_time = time.perf_counter() - start
        return self.preprocessing_time

    def _build_shards(self) -> None:
        """(Re)partition the live mesh and (re)prepare the shard strategies."""
        assert self._mesh is not None
        self._shards, _ = partition_mesh(
            self._mesh, self.requested_shards, bits=self.hilbert_bits
        )
        if len(self._strategies) != len(self._shards):
            self._strategies = [self._make_shard_strategy() for _ in self._shards]
        # re-preparing a CachingStrategy flushes its cache, so a repartition
        # can never serve entries keyed to the previous partition's local ids
        for strategy, shard in zip(self._strategies, self._shards):
            strategy.prepare(shard.mesh)
        self._refresh_routing()

    def _refresh_routing(self) -> None:
        self._shard_bounds.clear()
        for shard in self._shards:
            self._shard_bounds.add(shard.bounds)
        self._routing_grid.rebuild(self._shards)

    def warm(self) -> float:
        """Force every shard's lazily built structures now.

        The crawl builds a shard's CSR adjacency on first use; in a serving
        context that cost belongs in preprocessing, not in some unlucky
        first request's latency.  Charged to :attr:`preprocessing_time`.
        """
        start = time.perf_counter()
        for shard in self._shards:
            shard.mesh.adjacency  # noqa: B018 - building the lazy CSR is the point
        elapsed = time.perf_counter() - start
        self.preprocessing_time += elapsed
        return elapsed

    def close(self) -> None:
        """Release the service; a no-op, since it holds no threads or handles.

        Kept, with the context manager, so callers may scope a service
        without knowing what it owns.
        """

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _overlap_matrix(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """(n_boxes, n_shards) routing matrix: AABB test ∧ occupancy test.

        Complete by construction: every shard vertex lies inside its shard's
        bounds *and* in an occupied routing-grid cell, so a vertex inside the
        query box implies both tests pass for its shard — pruned shards
        cannot contain results.  The AABB term handles boxes that clip to
        border grid cells from far outside the mesh.
        """
        return self._shard_bounds.overlap(los, his) & self._routing_grid.overlap_matrix(
            los, his
        )

    def route(self, box: Box3D) -> np.ndarray:
        """Indices of the shards that can hold vertices inside ``box``."""
        matrix = self._overlap_matrix(
            np.asarray(box.lo, dtype=np.float64)[None, :],
            np.asarray(box.hi, dtype=np.float64)[None, :],
        )
        return np.nonzero(matrix[0])[0]

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def _merge(self, pieces: Sequence[tuple[MeshShard, QueryResult]]) -> QueryResult:
        """Union per-shard results into one global :class:`QueryResult`."""
        if not pieces:
            return QueryResult(vertex_ids=np.empty(0, dtype=np.int64), counters=QueryCounters())
        if len(pieces) == 1:
            # Fast path for boxes routed to a single shard (the common case
            # with grid routing): the global ids of a sorted local id array
            # are already sorted and unique, and the per-shard result is
            # ephemeral, so its counters can be adopted without copying.
            shard, result = pieces[0]
            return QueryResult(
                vertex_ids=shard.to_global(result.vertex_ids),
                counters=result.counters,
                probe_time=result.probe_time,
                walk_time=result.walk_time,
                crawl_time=result.crawl_time,
                scan_time=result.scan_time,
                index_time=result.index_time,
                total_time=result.total_time,
                complete=result.complete,
            )
        counters = QueryCounters()
        ids: list[np.ndarray] = []
        probe = walk = crawl = scan = index = total = 0.0
        complete = True
        for shard, result in pieces:
            ids.append(shard.to_global(result.vertex_ids))
            counters += result.counters
            probe += result.probe_time
            walk += result.walk_time
            crawl += result.crawl_time
            scan += result.scan_time
            index += result.index_time
            total += result.total_time
            complete = complete and result.complete
        # QueryResult.__post_init__ sorts and dedups, which is exactly the
        # overlap-band union semantics — no need for a second unique pass.
        return QueryResult(
            vertex_ids=np.concatenate(ids),
            counters=counters,
            probe_time=probe,
            walk_time=walk,
            crawl_time=crawl,
            scan_time=scan,
            index_time=index,
            total_time=total,
            complete=complete,
        )

    def query(self, box: Box3D) -> QueryResult:
        """Answer one range query (safe to call from any thread)."""
        check_query_box(box)
        with self._lock.read():
            return self._fan_out([box])[0]

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Answer a batch: route, run one fused sub-batch per shard, merge.

        Each routed shard receives its boxes as **one** ``query_many`` call,
        so the per-shard fused walk/crawl kernels amortise exactly as they do
        unsharded.  Failure stays all-or-nothing, matching the executors'
        ``query_many`` contract — an exception from any shard propagates.
        """
        box_list = check_query_boxes(boxes)
        if not box_list:
            return []
        with self._lock.read():
            return self._fan_out(box_list)

    def _fan_out(self, box_list: list[Box3D]) -> list[QueryResult]:
        """Route, query and merge with the service lock already held.

        Shared by the reader side (:meth:`query`, :meth:`query_many`,
        :meth:`subscribe`) and the standing re-queries inside the
        maintenance hooks, which hold the writer side: the readers-writer
        lock is not reentrant, so this path must not take it.
        """
        los = np.stack([box.lo for box in box_list])
        his = np.stack([box.hi for box in box_list])
        # (n_boxes, n_shards) routing matrix: box i routes to shard k.
        overlap = self._overlap_matrix(los, his)
        pieces_per_box: list[list[tuple[MeshShard, QueryResult]]] = [[] for _ in box_list]
        for k, (shard, strategy) in enumerate(zip(self._shards, self._strategies)):
            routed = np.nonzero(overlap[:, k])[0]
            if not routed.size:
                continue
            results = strategy.query_many([box_list[i] for i in routed])
            for box_index, result in zip(routed.tolist(), results):
                pieces_per_box[box_index].append((shard, result))
        return [self._merge(pieces) for pieces in pieces_per_box]

    def _standing_query_ids(self, box: Box3D) -> np.ndarray:
        """The registry's query_fn: a routed, merged query of one box."""
        return self._fan_out([box])[0].vertex_ids

    # ------------------------------------------------------------------
    # standing subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, box: Box3D) -> int:
        """Register a standing query over the whole service; returns its id.

        The initial membership is evaluated immediately (one routed
        query), queued as an ``"initial"``
        :class:`~repro.standing.MembershipUpdate`, and kept current by every
        subsequent maintenance tick: deformation ticks update it from the
        parent delta's moved set with pure point tests, restructuring ticks
        re-query only the subscriptions whose box intersects the dirty AABB
        — each re-query fanning out only to its routed shards, with the
        overlap band deduplicated by the merge.  Requires :meth:`prepare`.
        """
        if not self._shards:
            raise SimulationError("sharded service: subscribe() before prepare()")
        check_query_box(box)
        self._standing_used = True
        with self._lock.read():
            return self._standing.subscribe(box, self._standing_query_ids, step=self._step)

    def unsubscribe(self, sid: int) -> None:
        """Drop a standing subscription; queued updates stay drainable."""
        self._standing.unsubscribe(sid)

    def drain_membership_updates(self) -> list[MembershipUpdate]:
        """Return and clear the queued per-tick membership updates."""
        return self._standing.drain_updates()

    def standing_stats(self) -> StandingStats | None:
        """Snapshot of the registry counters (``None`` before any subscribe)."""
        return self._standing.stats() if self._standing_used else None

    def drain_standing_stats(self) -> StandingStats | None:
        """Registry counters since the last drain (``None`` before any subscribe)."""
        return self._standing.drain_stats() if self._standing_used else None

    # ------------------------------------------------------------------
    # maintenance (the writer side)
    # ------------------------------------------------------------------
    def on_step(self, delta: DeformationDelta) -> float:
        """Apply one deformation tick: slice the delta per shard, maintain.

        The parent mesh has already moved (deformation models rewrite it in
        place); this propagates the motion into each shard's submesh and
        hands each shard strategy its own local delta — full deltas stay
        full, sparse deltas narrow to the shard's moved members (usually one
        or two shards for a localized pulse), untouched shards see an empty
        delta and skip maintenance entirely.
        """
        start = time.perf_counter()
        with self._lock.write():
            parent = self.mesh
            for shard, strategy in zip(self._shards, self._strategies):
                local = self._slice_delta(delta, shard, parent)
                strategy.on_step(local)
                shard.refresh_bounds()
            self._refresh_routing()
            # the standing tick consumes the *parent* delta (global ids);
            # the rare re-query it needs routes per shard via _fan_out
            self._standing.tick_deformation(delta, self._standing_query_ids, step=self._step)
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        return elapsed

    def _slice_delta(
        self, delta: DeformationDelta, shard: MeshShard, parent: PolyhedralMesh
    ) -> DeformationDelta:
        """Project a parent-mesh deformation delta onto one shard."""
        if delta.is_full:
            shard.mesh.set_positions(parent.vertices[shard.global_ids])
            return DeformationDelta.full(shard.n_vertices)
        if delta.n_moved == 0:
            return DeformationDelta.empty(shard.n_vertices)
        local_ids, member = shard.local_ids_for(delta.moved_ids)
        if local_ids.size == 0:
            return DeformationDelta.empty(shard.n_vertices)
        old_positions = shard.mesh.vertices[local_ids]
        # copy the parent's coordinates rather than adding the motion: a + (b - a)
        # is not b in floating point, and a drifted copy can answer a box whose
        # face passes through the vertex differently from the parent mesh
        new_positions = parent.vertices[delta.moved_ids[member]]
        shard.mesh.set_positions(new_positions, local_ids)
        return DeformationDelta.sparse(
            shard.n_vertices, local_ids, old_positions, new_positions
        )

    def on_restructure(self, delta: TopologyDelta) -> float:
        """React to a restructuring event.

        A :class:`~repro.core.delta.TopologyDelta` names dirty *vertices*,
        not the cells whose membership changed, so an exact per-shard slice
        of a connectivity change is not derivable from the delta alone — a
        non-empty event therefore triggers a full repartition against the
        live mesh (counted in :attr:`n_repartitions`).  Empty events forward
        an empty delta to every shard, which is a no-op unless a shard
        detects staleness on its own.
        """
        start = time.perf_counter()
        with self._lock.write():
            if delta.is_empty:
                for shard, strategy in zip(self._shards, self._strategies):
                    strategy.on_restructure(TopologyDelta.empty(shard.n_vertices))
            else:
                self._build_shards()
                self.n_repartitions += 1
            # after the repartition the shard strategies answer against the
            # restructured mesh, so the narrowed re-queries see fresh state
            self._standing.tick_topology(delta, self._standing_query_ids, step=self._step)
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        return elapsed

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def note_step(self, step: int | None) -> None:
        """Forward the simulation step tag to every shard strategy."""
        self._step = step
        for strategy in self._strategies:
            note = getattr(strategy, "note_step", None)
            if note is not None:
                note(step)

    def cache_stats(self) -> CacheStats | None:
        """Aggregated per-shard cache counters (``None`` when not caching)."""
        with self._lock.read():
            return self._collect_cache_stats("cache_stats")

    def drain_cache_stats(self) -> CacheStats | None:
        """Aggregate and reset per-shard cache counters since the last drain."""
        with self._lock.read():
            return self._collect_cache_stats("drain_cache_stats")

    def _collect_cache_stats(self, method: str) -> CacheStats | None:
        stats: CacheStats | None = None
        for strategy in self._strategies:
            collect = getattr(strategy, method, None)
            if collect is None:
                continue
            shard_stats = collect()
            if shard_stats is None:
                continue
            stats = shard_stats if stats is None else stats.merge(shard_stats)
        return stats

    def memory_overhead_bytes(self) -> int:
        """Shard submesh copies plus every shard strategy's own overhead."""
        return int(
            sum(shard.mesh.memory_bytes() for shard in self._shards)
            + sum(strategy.memory_overhead_bytes() for strategy in self._strategies)
            + self._standing.memory_bytes()
        )

    def describe(self) -> dict:
        """Service topology and accounting, for reports and logs."""
        record = {
            "name": self.name,
            "n_shards": self.n_shards,
            "shard_vertices": [shard.n_vertices for shard in self._shards],
            "overlap_vertices": self.overlap_band_size(),
            "preprocessing_time": self.preprocessing_time,
            "maintenance_time": self.maintenance_time,
            "n_repartitions": self.n_repartitions,
        }
        if self._cache_entries is not None:
            record["cached"] = True
        if self._standing_used:
            record["standing"] = self._standing.describe()
        return record

    def overlap_band_size(self) -> int:
        """Number of parent vertices owned by more than one shard."""
        if not self._shards:
            return 0
        all_ids = np.concatenate([shard.global_ids for shard in self._shards])
        _, counts = np.unique(all_ids, return_counts=True)
        return int((counts > 1).sum())
