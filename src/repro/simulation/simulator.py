"""The simulation driver: restructure, deform, maintain, query — step by step.

:class:`MeshSimulation` reproduces the timeline of Figure 1(e): at every time
step the optional restructuring schedule may split or remove cells in place,
the deformation model overwrites vertex positions in place, every registered
execution strategy performs whatever maintenance it needs (consuming the
step's :class:`~repro.core.delta.TopologyDelta` and
:class:`~repro.core.delta.DeformationDelta`), and the per-step range queries
are executed by every strategy on the *same* data and the *same* boxes so the
comparison is apples-to-apples.  The paper's headline metric — total query
response time, i.e. query execution plus index maintenance/rebuilding summed
over all steps, with one-time preprocessing reported separately — is what
:class:`SimulationReport` accumulates; restructuring maintenance is charged to
the same ledger (``maintenance_time`` / ``maintenance_entries``) as
deformation maintenance.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.executor import ExecutionStrategy
from ..core.result import QueryCounters
from ..errors import SimulationError
from ..mesh import Box3D, PolyhedralMesh
from .deformation import DeformationModel
from .faults import FaultPlan
from .restructuring import RestructuringSchedule

__all__ = ["StepRecord", "StrategyReport", "SimulationReport", "MeshSimulation"]

#: signature of a per-step query provider: (mesh, step) -> list of query boxes
QueryProvider = Callable[[PolyhedralMesh, int], Sequence[Box3D]]


@dataclass
class StepRecord:
    """Per-step accounting for one strategy."""

    step: int
    maintenance_time: float
    query_time: float
    n_queries: int
    n_results: int
    counters: QueryCounters
    #: whether this step's boxes went through the batched query_many dispatch
    batched: bool = False
    #: vertices the step's deformation delta reported as moved
    n_moved: int = 0
    #: index entries this strategy's maintenance touched for this step
    #: (deformation *and* restructuring work)
    maintenance_entries: int = 0
    #: whether this step restructured the mesh (a topology delta was applied)
    restructured: bool = False
    #: vertices the step's topology delta reported as dirty (0 when none)
    n_topology_dirty: int = 0
    #: degradation-ladder descents this strategy recorded during the step
    #: (0 for strategies without a resilience wrapper)
    degradations: int = 0
    #: result-cache lookups answered from the cache during the step
    #: (0 for strategies without a caching wrapper)
    cache_hits: int = 0
    #: result-cache lookups that fell through to the inner strategy
    cache_misses: int = 0
    #: cache entries dropped by this step's delta invalidation
    cache_invalidations: int = 0
    #: standing membership updates emitted during the step (0 without a
    #: standing wrapper — see :class:`~repro.standing.StandingStats`)
    standing_updates: int = 0
    #: subscriptions dismissed by the O(1) dirty-AABB overlap test
    standing_skips: int = 0
    #: narrowed re-queries the standing registry issued during the step
    standing_recrawls: int = 0


@dataclass
class StrategyReport:
    """Accumulated results of one strategy over a whole simulation."""

    name: str
    preprocessing_time: float = 0.0
    total_maintenance_time: float = 0.0
    total_query_time: float = 0.0
    total_results: int = 0
    n_queries: int = 0
    #: moved vertices summed over the deformation deltas of all steps
    total_moved_vertices: int = 0
    #: index entries touched by this strategy's maintenance over all steps
    #: (deformation and restructuring work combined)
    total_maintenance_entries: int = 0
    #: steps whose topology delta restructured the mesh
    total_restructurings: int = 0
    #: dirty vertices summed over the topology deltas of all steps
    total_topology_dirty: int = 0
    memory_overhead_bytes: int = 0
    counters: QueryCounters = field(default_factory=QueryCounters)
    steps: list[StepRecord] = field(default_factory=list)
    # per-phase wall-clock accumulators (phases a strategy lacks stay at 0)
    total_probe_time: float = 0.0
    total_walk_time: float = 0.0
    total_crawl_time: float = 0.0
    total_scan_time: float = 0.0
    total_index_time: float = 0.0
    # fused-batch work accounting (stays 0 for strategies without a fused
    # engine or for sequential runs): "attributed" is the work the per-query
    # counters report — what independent queries would have performed —
    # "unique" is what the fused walk/crawl actually performed
    fused_unique_crawl_visits: int = 0
    fused_attributed_crawl_visits: int = 0
    fused_unique_crawl_edges: int = 0
    fused_attributed_crawl_edges: int = 0
    fused_unique_walk_distances: int = 0
    fused_attributed_walk_distances: int = 0
    #: degradation-ladder descents summed over all steps (0 = never degraded)
    total_degradations: int = 0
    #: the recorded fallback events, as dicts (strategy/operation/rung/
    #: reason/error/step — see :class:`~repro.core.resilience.FallbackEvent`)
    degradation_events: list[dict] = field(default_factory=list)
    # result-cache traffic summed over all steps (all 0 for strategies
    # without a caching wrapper — see :class:`~repro.cache.CacheStats`)
    total_cache_hits: int = 0
    total_cache_misses: int = 0
    total_cache_invalidations: int = 0
    total_cache_flushes: int = 0
    total_cache_evictions: int = 0
    #: whether any layer of this strategy reported cache statistics
    #: (distinguishes "no cache" from "cache, zero traffic")
    cached: bool = False
    # standing-subscription traffic summed over all steps (all 0 for
    # strategies without a standing registry — see
    # :class:`~repro.standing.StandingStats`)
    total_standing_updates: int = 0
    total_standing_entered: int = 0
    total_standing_exited: int = 0
    total_standing_skips: int = 0
    total_standing_touched: int = 0
    total_standing_recrawls: int = 0
    total_standing_moved_tests: int = 0
    #: live subscriptions at the last drained step (a gauge)
    standing_subscriptions: int = 0
    #: whether any layer of this strategy reported standing statistics
    #: (distinguishes "no registry" from "registry, zero traffic")
    standing: bool = False

    @property
    def total_response_time(self) -> float:
        """Query execution plus maintenance (the paper's reported metric)."""
        return self.total_query_time + self.total_maintenance_time

    def cache_hit_rate(self) -> float:
        """Fraction of result-cache lookups served from the cache (0 = none)."""
        lookups = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / lookups if lookups else 0.0

    def standing_skip_rate(self) -> float:
        """Fraction of per-tick subscription evaluations settled by the O(1)
        dirty-AABB test alone (1.0 = never any targeted work)."""
        total = self.total_standing_skips + self.total_standing_touched
        return self.total_standing_skips / total if total else 0.0

    def maintenance_entries_per_moved_vertex(self) -> float:
        """Index entries touched per moved vertex (1.0 ≈ cost ∝ motion;
        ``n_vertices / n_moved`` ≈ cost ∝ mesh size, the delta-blind regime)."""
        if self.total_moved_vertices == 0:
            return 0.0
        return self.total_maintenance_entries / self.total_moved_vertices

    def crawl_work_sharing(self) -> float:
        """Attributed / unique crawl work: how many sequential crawls' worth of
        vertex visits each fused vertex visit served (1.0 = no sharing)."""
        if self.fused_unique_crawl_visits == 0:
            return 1.0
        return self.fused_attributed_crawl_visits / self.fused_unique_crawl_visits

    def walk_work_sharing(self) -> float:
        """Attributed / unique walk work: distance evaluations served per
        position actually gathered by the fused walk (1.0 = no sharing)."""
        if self.fused_unique_walk_distances == 0:
            return 1.0
        return self.fused_attributed_walk_distances / self.fused_unique_walk_distances

    def total_work(self) -> int:
        """Machine-independent total work (vertex accesses + node visits)."""
        return self.counters.total_vertex_accesses() + self.counters.index_nodes_visited

    def speedup_against(self, other: "StrategyReport", use_work: bool = False) -> float:
        """This strategy's speedup relative to ``other`` (e.g. the linear scan)."""
        if use_work:
            own = max(self.total_work(), 1)
            reference = max(other.total_work(), 1)
            return reference / own
        own_time = max(self.total_response_time, 1e-12)
        return other.total_response_time / own_time


@dataclass
class SimulationReport:
    """Results of a full simulation run for every registered strategy."""

    n_steps: int
    strategies: dict[str, StrategyReport] = field(default_factory=dict)
    #: ``(step, fault_kind)`` pairs the simulation's fault plan injected
    injected_faults: list[tuple[int, str]] = field(default_factory=list)

    def __getitem__(self, name: str) -> StrategyReport:
        return self.strategies[name]

    def names(self) -> list[str]:
        return list(self.strategies)


class MeshSimulation:
    """Drive a deforming mesh and compare execution strategies on it.

    Parameters
    ----------
    mesh:
        The (single, shared) mesh that will be deformed in place.
    deformation:
        Deformation model applied at every step.
    strategies:
        Execution strategies to compare; each is prepared on the initial mesh.
    query_provider:
        Callable producing the per-step query boxes; all strategies execute
        exactly the same boxes.
    restructuring:
        Optional restructuring schedule ``(mesh, step) -> TopologyDelta |
        None`` run at the *start* of each step, before the deformation model.
        The schedule mutates the mesh in place (e.g. via
        :func:`~repro.simulation.restructuring.split_cells_inplace`) and
        returns the step's topology delta, which is handed to every
        strategy's :meth:`~repro.core.executor.ExecutionStrategy.on_restructure`
        — restructuring maintenance is charged to the same per-step ledger as
        deformation maintenance.  After a non-empty topology delta the
        deformation model is re-bound to the mesh (its base positions and
        vertex ordering are re-anchored to the restructured state), so
        whole-mesh models keep working across vertex-count changes.
        :func:`~repro.simulation.restructuring.periodic_restructuring` builds
        common schedules.
    validate_results:
        When True, every strategy's result is checked against the first
        strategy's result for equality (used in tests; adds linear-scan-like
        overhead so benchmarks keep it off).
    fault_plan:
        Optional :class:`~repro.simulation.faults.FaultPlan`.  At each
        scheduled step the plan corrupts the change deltas *after* the
        simulator's own lifecycle checks — the faults model a buggy delta
        producer, not a broken driver — so what reaches the strategies is
        exactly what a lying producer would have handed them.  Pair with
        strategies wrapped in
        :class:`~repro.core.resilience.ResilientStrategy` (paranoid mode) to
        exercise the quarantine/rebuild rungs; the injected ``(step, kind)``
        pairs are recorded on the :class:`SimulationReport`.
    batch_queries:
        When True, each step's boxes are issued through
        :meth:`ExecutionStrategy.query_many`, so every strategy answers the
        batch with its native batched engine (OCTOPUS fuses the batch's
        crawls into one shared-frontier BFS, the tree and grid baselines
        share one index traversal) — batched-vs-batched comparisons, no
        per-query dispatch skew; when False every box goes through a
        separate :meth:`ExecutionStrategy.query` call.  ``None`` (the
        default) batches unless the ``REPRO_SEQUENTIAL_QUERIES`` environment
        variable is set (the CLI's ``--no-batch`` escape hatch).  Either way
        results and counters are identical (see ``tests/test_batch_parity.py``).
    """

    def __init__(
        self,
        mesh: PolyhedralMesh,
        deformation: DeformationModel,
        strategies: Sequence[ExecutionStrategy],
        query_provider: QueryProvider,
        restructuring: RestructuringSchedule | None = None,
        validate_results: bool = False,
        batch_queries: bool | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not strategies:
            raise SimulationError("need at least one execution strategy")
        names = [s.name for s in strategies]
        if len(set(names)) != len(names):
            raise SimulationError("strategy names must be unique")
        # Build the CSR adjacency up front, so no strategy's preprocessing or
        # first-step time includes this one-time cost shared by all of them.
        mesh.adjacency
        self.mesh = mesh
        self.deformation = deformation
        self.strategies = list(strategies)
        self.query_provider = query_provider
        self.restructuring = restructuring
        self.validate_results = validate_results
        self.fault_plan = fault_plan
        self._injected_faults: list[tuple[int, str]] = []
        if batch_queries is None:
            flag = os.environ.get("REPRO_SEQUENTIAL_QUERIES", "")
            batch_queries = flag.strip().lower() in ("", "0", "false")
        self.batch_queries = batch_queries

        self.deformation.bind(mesh)
        self._reports: dict[str, StrategyReport] = {}
        for strategy in self.strategies:
            preprocessing = strategy.prepare(mesh)
            self._reports[strategy.name] = StrategyReport(name=strategy.name, preprocessing_time=preprocessing)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, n_steps: int) -> SimulationReport:
        """Simulate ``n_steps`` time steps and return the accumulated report."""
        if n_steps < 1:
            raise SimulationError("n_steps must be at least 1")
        for step in range(1, n_steps + 1):
            self.step(step)
        for strategy in self.strategies:
            self._reports[strategy.name].memory_overhead_bytes = strategy.memory_overhead_bytes()
        return SimulationReport(
            n_steps=n_steps,
            strategies=dict(self._reports),
            injected_faults=list(self._injected_faults),
        )

    def step(self, step: int) -> None:
        """Execute one simulation step: restructure, deform, maintain, query.

        The restructuring schedule (when given) runs first and may mutate the
        mesh connectivity in place; its
        :class:`~repro.core.delta.TopologyDelta` and the deformation model's
        :class:`~repro.core.delta.DeformationDelta` are handed to every
        strategy's ``on_restructure`` / ``on_step``, and the per-step records
        keep all sides of the change ledger: how many vertices moved, how
        many were dirtied by restructuring, and how many index entries each
        strategy touched to keep up.
        """
        topology = None
        if self.restructuring is not None:
            topology = self.restructuring(self.mesh, step)
            if topology is not None and not isinstance(topology, TopologyDelta):
                raise SimulationError(
                    "restructuring schedule must return a TopologyDelta or None "
                    "(the delta-aware lifecycle contract)"
                )
            if topology is not None and topology.n_vertices != self.mesh.n_vertices:
                raise SimulationError(
                    "restructuring schedule returned a TopologyDelta that does not "
                    "match the mesh it mutated"
                )
            if topology is not None and not topology.is_empty:
                # Re-anchor the deformation model to the restructured mesh:
                # base positions and vertex ordering are re-derived from the
                # current state, so whole-mesh models survive vertex-count
                # changes.
                self.deformation.bind(self.mesh)
        delta = self.deformation.apply(step)
        if not isinstance(delta, DeformationDelta):
            raise SimulationError(
                f"deformation model {type(self.deformation).__name__}.apply() must "
                "return a DeformationDelta (the delta-aware lifecycle contract)"
            )
        if self.fault_plan is not None:
            # Corruption happens AFTER the driver's own checks above: the
            # injected faults model a lying delta producer, and what reaches
            # the strategies is exactly what such a producer would emit.
            if topology is not None:
                topology, fault_kind = self.fault_plan.corrupt_topology(topology, step)
                if fault_kind is not None:
                    self._injected_faults.append((step, fault_kind))
            delta, fault_kind = self.fault_plan.corrupt_deformation(delta, step)
            if fault_kind is not None:
                self._injected_faults.append((step, fault_kind))
        boxes = list(self.query_provider(self.mesh, step))

        reference_ids: list[np.ndarray] | None = None
        for index, strategy in enumerate(self.strategies):
            report = self._reports[strategy.name]
            note_step = getattr(strategy, "note_step", None)
            if note_step is not None:
                note_step(step)
            entries_before = strategy.maintenance_entries
            maintenance = 0.0
            if topology is not None:
                maintenance += strategy.on_restructure(topology)
            maintenance += strategy.on_step(delta)
            step_entries = strategy.maintenance_entries - entries_before

            step_counters = QueryCounters()
            query_time = 0.0
            n_results = 0
            result_ids: list[np.ndarray] = []
            if self.batch_queries:
                start = time.perf_counter()
                results = strategy.query_many(boxes)
                query_time = time.perf_counter() - start
                fused = getattr(strategy, "last_fused_crawl", None)
                if fused is not None:
                    report.fused_unique_crawl_visits += fused.n_unique_vertices_visited
                    report.fused_attributed_crawl_visits += fused.n_attributed_vertex_visits
                    report.fused_unique_crawl_edges += fused.n_unique_edges_followed
                    report.fused_attributed_crawl_edges += fused.n_attributed_edge_follows
                    report.fused_unique_walk_distances += (
                        fused.n_unique_walk_distance_computations
                    )
                    report.fused_attributed_walk_distances += (
                        fused.n_attributed_walk_distance_computations
                    )
            else:
                results = []
                for box in boxes:
                    start = time.perf_counter()
                    results.append(strategy.query(box))
                    query_time += time.perf_counter() - start
            for result in results:
                step_counters += result.counters
                n_results += result.n_results
                report.total_probe_time += result.probe_time
                report.total_walk_time += result.walk_time
                report.total_crawl_time += result.crawl_time
                report.total_scan_time += result.scan_time
                report.total_index_time += result.index_time
                if self.validate_results:
                    result_ids.append(result.vertex_ids)

            if self.validate_results:
                if index == 0:
                    reference_ids = result_ids
                else:
                    for box_index, (got, expected) in enumerate(zip(result_ids, reference_ids or [])):
                        if not np.array_equal(got, expected):
                            raise SimulationError(
                                f"strategy {strategy.name!r} disagrees with "
                                f"{self.strategies[0].name!r} on step {step}, query {box_index}"
                            )

            drain = getattr(strategy, "drain_degradation_events", None)
            fallback_events = drain() if drain is not None else []
            report.total_degradations += len(fallback_events)
            report.degradation_events.extend(event.as_dict() for event in fallback_events)

            cache_drain = getattr(strategy, "drain_cache_stats", None)
            cache_stats = cache_drain() if cache_drain is not None else None
            if cache_stats is not None:
                report.cached = True
                report.total_cache_hits += cache_stats.hits
                report.total_cache_misses += cache_stats.misses
                report.total_cache_invalidations += cache_stats.invalidations
                report.total_cache_flushes += cache_stats.flushes
                report.total_cache_evictions += cache_stats.evictions

            standing_drain = getattr(strategy, "drain_standing_stats", None)
            standing_stats = standing_drain() if standing_drain is not None else None
            if standing_stats is not None:
                report.standing = True
                report.standing_subscriptions = standing_stats.subscriptions
                report.total_standing_updates += standing_stats.updates
                report.total_standing_entered += standing_stats.entered
                report.total_standing_exited += standing_stats.exited
                report.total_standing_skips += standing_stats.skips
                report.total_standing_touched += standing_stats.touched
                report.total_standing_recrawls += standing_stats.recrawls
                report.total_standing_moved_tests += standing_stats.moved_tests

            report.total_maintenance_time += maintenance
            report.total_query_time += query_time
            report.total_results += n_results
            report.n_queries += len(boxes)
            report.counters += step_counters
            report.total_moved_vertices += delta.n_moved
            report.total_maintenance_entries += step_entries
            restructured = topology is not None and not topology.is_empty
            if restructured:
                report.total_restructurings += 1
                report.total_topology_dirty += topology.n_dirty
            report.steps.append(
                StepRecord(
                    step=step,
                    maintenance_time=maintenance,
                    query_time=query_time,
                    n_queries=len(boxes),
                    n_results=n_results,
                    counters=step_counters,
                    batched=self.batch_queries,
                    n_moved=delta.n_moved,
                    maintenance_entries=step_entries,
                    restructured=restructured,
                    n_topology_dirty=topology.n_dirty if restructured else 0,
                    degradations=len(fallback_events),
                    cache_hits=cache_stats.hits if cache_stats is not None else 0,
                    cache_misses=cache_stats.misses if cache_stats is not None else 0,
                    cache_invalidations=(
                        cache_stats.invalidations if cache_stats is not None else 0
                    ),
                    standing_updates=(
                        standing_stats.updates if standing_stats is not None else 0
                    ),
                    standing_skips=(
                        standing_stats.skips if standing_stats is not None else 0
                    ),
                    standing_recrawls=(
                        standing_stats.recrawls if standing_stats is not None else 0
                    ),
                )
            )
