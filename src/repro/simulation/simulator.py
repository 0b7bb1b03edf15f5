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
the same ledger (``maintenance_time`` and the ``maintenance.entries`` count) as
deformation maintenance.  Everything else the strategy stacks report per step
(moved and dirtied vertices, fused-work, fallback, cache and standing counters)
lands in one ``counts`` map per record, whose keys docs/architecture.md lists.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
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

__all__ = ["GAUGES", "RATIOS", "StepRecord", "StrategyReport", "SimulationReport", "MeshSimulation"]

#: signature of a per-step query provider: (mesh, step) -> list of query boxes
QueryProvider = Callable[[PolyhedralMesh, int], Sequence[Box3D]]


#: count keys whose run value is the last step's value (a gauge), not the sum
GAUGES = frozenset({"standing.subscriptions"})

#: ratio key -> (numerator key, denominator keys, value when the denominator
#: sums to 0); a ratio exists when its numerator key does
RATIOS = {
    "maintenance.entries_per_moved": ("maintenance.entries", ("simulation.moved",), 0.0),
    "core.crawl_sharing": ("core.crawl_visits_attributed", ("core.crawl_visits_unique",), 1.0),
    "core.walk_sharing": ("core.walk_distances_attributed", ("core.walk_distances_unique",), 1.0),
    "cache.hit_rate": ("cache.hits", ("cache.hits", "cache.misses"), 0.0),
    "standing.skip_rate": ("standing.skips", ("standing.skips", "standing.touched"), 0.0),
}

#: count key -> the BatchCrawlOutcome attribute it copies from ``last_fused_crawl``
_FUSED_COUNTS = {
    "core.crawl_visits_unique": "n_unique_vertices_visited",
    "core.crawl_visits_attributed": "n_attributed_vertex_visits",
    "core.crawl_edges_unique": "n_unique_edges_followed",
    "core.crawl_edges_attributed": "n_attributed_edge_follows",
    "core.walk_distances_unique": "n_unique_walk_distance_computations",
    "core.walk_distances_attributed": "n_attributed_walk_distance_computations",
}


@dataclass
class StepRecord:
    """Per-step accounting for one strategy."""

    step: int
    maintenance_time: float
    query_time: float
    n_queries: int
    n_results: int
    counters: QueryCounters
    #: the step's ledger counts, keyed as listed in docs/architecture.md; a
    #: key exists only when its source reported during the step
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class StrategyReport:
    """Accumulated results of one strategy over a whole simulation."""

    name: str
    preprocessing_time: float = 0.0
    total_maintenance_time: float = 0.0
    total_query_time: float = 0.0
    total_results: int = 0
    n_queries: int = 0
    memory_overhead_bytes: int = 0
    counters: QueryCounters = field(default_factory=QueryCounters)
    steps: list[StepRecord] = field(default_factory=list)
    # per-phase wall-clock accumulators (phases a strategy lacks stay at 0)
    total_probe_time: float = 0.0
    total_walk_time: float = 0.0
    total_crawl_time: float = 0.0
    total_scan_time: float = 0.0
    total_index_time: float = 0.0
    #: the recorded fallback events, as dicts (strategy/operation/rung/
    #: reason/error/step — see :class:`~repro.core.resilience.FallbackEvent`)
    degradation_events: list[dict] = field(default_factory=list)
    #: the run's ledger counts: each key's sum over the step records that
    #: carry it (the last step's value for a :data:`GAUGES` key)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total_response_time(self) -> float:
        """Query execution plus maintenance (the paper's reported metric)."""
        return self.total_query_time + self.total_maintenance_time

    def ratios(self) -> dict[str, float]:
        """The :data:`RATIOS` of this report's counts, for the numerators present."""
        ratios = {}
        for name, (numerator, denominator, empty) in RATIOS.items():
            if numerator in self.counts:
                total = sum(self.counts.get(key, 0) for key in denominator)
                ratios[name] = self.counts[numerator] / total if total else empty
        return ratios

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
        before the deformation model moves the mesh — restructuring
        maintenance is charged to the same per-step ledger as deformation
        maintenance.  After a non-empty topology delta the
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
    """

    def __init__(
        self,
        mesh: PolyhedralMesh,
        deformation: DeformationModel,
        strategies: Sequence[ExecutionStrategy],
        query_provider: QueryProvider,
        restructuring: RestructuringSchedule | None = None,
        validate_results: bool = False,
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
        :class:`~repro.core.delta.TopologyDelta` is handed to every
        strategy's ``on_restructure`` before the mesh deforms.  The
        deformation model's :class:`~repro.core.delta.DeformationDelta` then
        goes to every strategy's ``on_step``, and each strategy answers the
        step's boxes in one ``query_many`` batch.  The step's
        ``counts`` keep all sides of the change ledger (how many vertices
        moved, how many were dirtied by restructuring, how many index entries
        each strategy touched to keep up) plus whatever the strategy stack
        reported: its fused batch (``last_fused_crawl``) and its drained
        fallback events, cache statistics and standing statistics.
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
            # Corruption (here and of the deformation delta below) happens
            # AFTER the driver's own checks: the injected faults model a lying
            # delta producer, and what reaches the strategies is exactly what
            # such a producer would emit.
            if self.fault_plan is not None and topology is not None:
                topology, fault_kind = self.fault_plan.corrupt_topology(topology, step)
                if fault_kind is not None:
                    self._injected_faults.append((step, fault_kind))

        # The topology delta reaches every strategy before the mesh deforms,
        # while its dirty box still covers the dirty vertices' positions.
        entries_before: list[int] = []
        restructure_time: list[float] = []
        for strategy in self.strategies:
            note_step = getattr(strategy, "note_step", None)
            if note_step is not None:
                note_step(step)
            entries_before.append(strategy.maintenance_entries)
            restructure_time.append(
                strategy.on_restructure(topology) if topology is not None else 0.0
            )

        delta = self.deformation.apply(step)
        if not isinstance(delta, DeformationDelta):
            raise SimulationError(
                f"deformation model {type(self.deformation).__name__}.apply() must "
                "return a DeformationDelta (the delta-aware lifecycle contract)"
            )
        if self.fault_plan is not None:
            delta, fault_kind = self.fault_plan.corrupt_deformation(delta, step)
            if fault_kind is not None:
                self._injected_faults.append((step, fault_kind))
        boxes = list(self.query_provider(self.mesh, step))

        restructured = topology is not None and not topology.is_empty
        reference_ids: list[np.ndarray] | None = None
        for index, strategy in enumerate(self.strategies):
            report = self._reports[strategy.name]
            maintenance = restructure_time[index] + strategy.on_step(delta)
            counts = {
                "simulation.moved": delta.n_moved,
                "simulation.restructurings": int(restructured),
                "simulation.topology_dirty": topology.n_dirty if restructured else 0,
                "maintenance.entries": strategy.maintenance_entries - entries_before[index],
            }

            start = time.perf_counter()
            results = strategy.query_many(boxes)
            query_time = time.perf_counter() - start
            fused = getattr(strategy, "last_fused_crawl", None)
            if fused is not None:
                counts.update((key, getattr(fused, name)) for key, name in _FUSED_COUNTS.items())
            step_counters = QueryCounters()
            n_results = 0
            for result in results:
                step_counters += result.counters
                n_results += result.n_results
                report.total_probe_time += result.probe_time
                report.total_walk_time += result.walk_time
                report.total_crawl_time += result.crawl_time
                report.total_scan_time += result.scan_time
                report.total_index_time += result.index_time

            if self.validate_results:
                result_ids = [result.vertex_ids for result in results]
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
            fallback_events = drain() if drain is not None else None
            if fallback_events is not None:
                counts["resilience.fallbacks"] = len(fallback_events)
                report.degradation_events.extend(event.as_dict() for event in fallback_events)
            for layer in ("cache", "standing"):
                drain = getattr(strategy, f"drain_{layer}_stats", None)
                stats = drain() if drain is not None else None
                if stats is not None:
                    counts.update((f"{layer}.{name}", value) for name, value in asdict(stats).items())

            for key, value in counts.items():
                report.counts[key] = value if key in GAUGES else report.counts.get(key, 0) + value
            report.total_maintenance_time += maintenance
            report.total_query_time += query_time
            report.total_results += n_results
            report.n_queries += len(boxes)
            report.counters += step_counters
            report.steps.append(
                StepRecord(
                    step=step,
                    maintenance_time=maintenance,
                    query_time=query_time,
                    n_queries=len(boxes),
                    n_results=n_results,
                    counters=step_counters,
                    counts=counts,
                )
            )
