"""Tests for the simulation driver and its reports."""

import pytest

from repro.baselines import LinearScanExecutor
from repro.core import OctopusConExecutor, OctopusExecutor, ResilientStrategy
from repro.errors import SimulationError
from repro.experiments import make_strategy, per_step_workload_provider, run_comparison
from repro.factory import build_strategy
from repro.generators import neuron_mesh, structured_tetrahedral_mesh
from repro.simulation import (
    FaultPlan,
    FaultyBatchStrategy,
    LocalizedPulseDeformation,
    MeshSimulation,
    RandomWalkDeformation,
    SinusoidalWaveDeformation,
    periodic_restructuring,
)
from repro.simulation.simulator import GAUGES
from repro.workloads import random_query_workload, repeated_query_provider

#: every key MeshSimulation.step can put in a counts map (docs/architecture.md)
ALL_COUNT_KEYS = {
    "simulation.moved",
    "simulation.restructurings",
    "simulation.topology_dirty",
    "maintenance.entries",
    "core.crawl_visits_unique",
    "core.crawl_visits_attributed",
    "core.crawl_edges_unique",
    "core.crawl_edges_attributed",
    "core.walk_distances_unique",
    "core.walk_distances_attributed",
    "resilience.fallbacks",
    *(f"cache.{name}" for name in ("hits", "misses", "invalidations", "flushes", "evictions")),
    *(
        f"standing.{name}"
        for name in (
            "subscriptions",
            "ticks",
            "updates",
            "entered",
            "exited",
            "skips",
            "touched",
            "recrawls",
            "full_reevals",
            "moved_tests",
        )
    ),
}


def fixed_provider(boxes):
    def provider(mesh, step):
        return boxes
    return provider


class TestSimulationRun:
    def test_reports_for_every_strategy(self, neuron_small):
        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=3, seed=0)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=SinusoidalWaveDeformation(amplitude=0.01),
            strategies=[OctopusExecutor(), LinearScanExecutor()],
            query_provider=fixed_provider(workload.boxes),
        )
        report = simulation.run(n_steps=3)
        assert set(report.names()) == {"octopus", "linear-scan"}
        assert report.n_steps == 3
        for name in report.names():
            strategy_report = report[name]
            assert strategy_report.n_queries == 9
            assert len(strategy_report.steps) == 3
            assert strategy_report.total_query_time > 0
            assert strategy_report.total_response_time >= strategy_report.total_query_time

    def test_strategies_see_identical_queries_and_agree(self, neuron_small):
        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.02, n_queries=3, seed=1)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=SinusoidalWaveDeformation(amplitude=0.01),
            strategies=[LinearScanExecutor(), OctopusExecutor()],
            query_provider=fixed_provider(workload.boxes),
            validate_results=True,            # raises if any strategy disagrees
        )
        report = simulation.run(n_steps=2)
        octopus = report["octopus"]
        linear = report["linear-scan"]
        assert octopus.total_results == linear.total_results

    def test_validation_catches_wrong_strategy(self, neuron_small):
        class BrokenExecutor(LinearScanExecutor):
            name = "broken"

            def query(self, box):
                result = super().query(box)
                result.vertex_ids = result.vertex_ids[:-1]   # drop one vertex
                return result

        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.05, n_queries=1, seed=2)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=SinusoidalWaveDeformation(amplitude=0.005),
            strategies=[LinearScanExecutor(), BrokenExecutor()],
            query_provider=fixed_provider(workload.boxes),
            validate_results=True,
        )
        with pytest.raises(SimulationError):
            simulation.run(n_steps=1)

    def test_speedup_against_baseline(self, neuron_small):
        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.005, n_queries=3, seed=3)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=SinusoidalWaveDeformation(amplitude=0.01),
            strategies=[OctopusExecutor(), LinearScanExecutor()],
            query_provider=fixed_provider(workload.boxes),
        )
        report = simulation.run(n_steps=2)
        speedup_work = report["octopus"].speedup_against(report["linear-scan"], use_work=True)
        assert speedup_work > 1.0          # OCTOPUS does less work than a full scan
        assert report["linear-scan"].speedup_against(report["linear-scan"]) == pytest.approx(1.0)

    def test_counters_accumulate(self, neuron_small):
        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=2, seed=4)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=RandomWalkDeformation(amplitude=0.0005),
            strategies=[LinearScanExecutor()],
            query_provider=fixed_provider(workload.boxes),
        )
        report = simulation.run(n_steps=2)
        linear = report["linear-scan"]
        assert linear.counters.vertices_scanned == 2 * 2 * mesh.n_vertices
        assert linear.total_work() == linear.counters.vertices_scanned

    def test_phase_times_accumulated_for_octopus(self, neuron_small):
        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=2, seed=5)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=RandomWalkDeformation(amplitude=0.0005),
            strategies=[OctopusExecutor()],
            query_provider=fixed_provider(workload.boxes),
        )
        report = simulation.run(n_steps=2)
        octopus = report["octopus"]
        assert octopus.total_probe_time > 0
        assert octopus.total_crawl_time > 0

    def test_invalid_configuration(self, neuron_small):
        mesh = neuron_small.copy()
        with pytest.raises(SimulationError):
            MeshSimulation(mesh, RandomWalkDeformation(), [], fixed_provider([]))
        with pytest.raises(SimulationError):
            MeshSimulation(
                mesh,
                RandomWalkDeformation(),
                [LinearScanExecutor(), LinearScanExecutor()],
                fixed_provider([]),
            )
        simulation = MeshSimulation(
            mesh, RandomWalkDeformation(), [LinearScanExecutor()], fixed_provider([])
        )
        with pytest.raises(SimulationError):
            simulation.run(n_steps=0)

    def test_adjacency_is_built_before_strategies_run(self, neuron_small):
        # The linear scan never reads the adjacency, so only the simulation
        # itself can have built it.
        mesh = neuron_small.copy()
        assert mesh._adjacency is None
        MeshSimulation(mesh, RandomWalkDeformation(), [LinearScanExecutor()], fixed_provider([]))
        assert mesh._adjacency is not None


class TestMotionLedger:
    def test_step_records_carry_moved_counts_and_entries(self, neuron_small):
        from repro.baselines import ThrowawayOctreeExecutor
        from repro.simulation import LocalizedPulseDeformation

        mesh = neuron_small.copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=2, seed=6)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=LocalizedPulseDeformation(sparsity=0.05, rest_every=3, seed=6),
            strategies=[ThrowawayOctreeExecutor(), LinearScanExecutor()],
            query_provider=fixed_provider(workload.boxes),
        )
        report = simulation.run(n_steps=3)
        octree = report["octree"]
        window = max(1, round(0.05 * mesh.n_vertices))
        # Steps 1 and 2 moved one window each; step 3 was a rest step.
        assert [record.counts["simulation.moved"] for record in octree.steps] == [window, window, 0]
        assert octree.counts["simulation.moved"] == 2 * window
        # The throwaway rebuild touches every vertex on active steps and is
        # skipped entirely on the rest step.
        assert [record.counts["maintenance.entries"] for record in octree.steps] == [
            mesh.n_vertices,
            mesh.n_vertices,
            0,
        ]
        assert octree.counts["maintenance.entries"] == 2 * mesh.n_vertices
        assert octree.ratios()["maintenance.entries_per_moved"] == pytest.approx(
            2 * mesh.n_vertices / (2 * window)
        )
        # The linear scan needs no maintenance whatsoever.
        linear = report["linear-scan"]
        assert linear.counts["maintenance.entries"] == 0
        assert linear.ratios()["maintenance.entries_per_moved"] == 0.0

    def test_legacy_model_without_delta_is_rejected(self, neuron_small):
        from repro.simulation import RandomWalkDeformation

        class LegacyModel(RandomWalkDeformation):
            def apply(self, step):
                super().apply(step)
                return None     # pre-delta contract

        mesh = neuron_small.copy()
        simulation = MeshSimulation(
            mesh,
            LegacyModel(amplitude=0.001),
            [LinearScanExecutor()],
            fixed_provider([]),
        )
        with pytest.raises(SimulationError, match="DeformationDelta"):
            simulation.run(n_steps=1)


class TestCountsLedger:
    """One check of the counts map over runs that between them report every key."""

    @pytest.fixture(scope="class")
    def stacked(self):
        # a cached + standing OCTOPUS stack beside a bare scan, on a mesh that
        # is split and pruned every other step, re-polled so the cache hits
        mesh = structured_tetrahedral_mesh((6, 6, 6))
        boxes = random_query_workload(mesh, selectivity=0.05, n_queries=3, seed=0).boxes
        return run_comparison(
            mesh,
            [
                make_strategy("linear-scan"),
                build_strategy("octopus", caching=True, standing=boxes),
                build_strategy("octopus-con", resilience=True),
            ],
            LocalizedPulseDeformation(sparsity=0.05, amplitude=0.02, rest_every=2, seed=0),
            n_steps=6,
            query_provider=repeated_query_provider(0.02, 4, repoll_fraction=0.9, seed=0),
            restructuring=periodic_restructuring(every=2, kind="mixed", n_cells=4, seed=0),
        )

    @pytest.fixture(scope="class")
    def chaos(self):
        # paranoid resilient stacks under a fault plan, as fault_injection_rows
        # builds them
        plan = FaultPlan(seed=7, probability=0.6)
        return run_comparison(
            structured_tetrahedral_mesh((6, 6, 6)),
            [
                make_strategy("linear-scan"),
                ResilientStrategy(FaultyBatchStrategy(make_strategy("octopus"), plan), paranoid=True),
                ResilientStrategy(OctopusConExecutor(), paranoid=True),
                ResilientStrategy(make_strategy("lur-tree"), paranoid=True),
            ],
            LocalizedPulseDeformation(sparsity=0.05, amplitude=0.02, seed=7),
            n_steps=8,
            query_provider=per_step_workload_provider(0.02, 4, seed=7),
            validate_results=True,
            fault_plan=plan,
        )

    def test_the_runs_report_every_key(self, stacked, chaos):
        reports = [*stacked.strategies.values(), *chaos.strategies.values()]
        assert {key for report in reports for key in report.counts} == ALL_COUNT_KEYS
        assert chaos.injected_faults
        assert sum(report.counts.get("resilience.fallbacks", 0) for report in reports) > 0

    def test_run_counts_are_step_sums(self, stacked, chaos):
        for report in [*stacked.strategies.values(), *chaos.strategies.values()]:
            assert set().union(*(record.counts for record in report.steps)) == set(report.counts)
            for key, value in report.counts.items():
                values = [record.counts[key] for record in report.steps if key in record.counts]
                expected = values[-1] if key in GAUGES else sum(values)
                assert value == expected, (report.name, key)

    def test_layer_keys_exist_only_with_the_layer(self, stacked, chaos):
        layered = stacked["standing-cached-octopus"].counts
        assert layered["standing.subscriptions"] == 3
        assert layered["cache.evictions"] == 0  # a cache with no evictions still reports
        for report in [stacked["linear-scan"], *chaos.strategies.values()]:
            assert not any(key.startswith(("cache.", "standing.")) for key in report.counts)
        assert "resilience.fallbacks" not in stacked["linear-scan"].counts
        # a stack without a ladder reports no fallback count, not a zero one
        assert "resilience.fallbacks" not in layered
        assert stacked["octopus-con"].counts["resilience.fallbacks"] == 0


class TestDeliveryOrder:
    def test_paranoid_restructuring_without_faults_logs_no_fallback(self):
        # The topology delta reaches the strategies before the mesh deforms,
        # so a paranoid audit checks its dirty box against the positions it
        # was taken from, and no valid restructure is quarantined.
        strategies = [
            build_strategy(name, resilience="paranoid")
            for name in ("octopus", "octopus-con", "lur-tree", "octree")
        ]
        report = run_comparison(
            neuron_mesh(14),
            strategies,
            RandomWalkDeformation(amplitude=0.002, seed=0),
            n_steps=8,
            query_provider=per_step_workload_provider(0.02, 4, seed=0),
            restructuring=periodic_restructuring(every=2, kind="mixed", n_cells=8, seed=0),
        )
        for name, strategy_report in report.strategies.items():
            assert strategy_report.counts["simulation.restructurings"] == 4, name
            assert strategy_report.counts["resilience.fallbacks"] == 0, name
            assert strategy_report.degradation_events == [], name
