"""End-to-end integration tests: full simulations with every strategy agreeing."""


from repro.errors import ReproError
from repro.experiments import fixed_workload_provider, run_comparison, strategy_suite
from repro.generators import neuron_mesh
from repro.simulation import (
    MeshSimulation,
    SinusoidalWaveDeformation,
    SpinePulsationDeformation,
    StructuralValidationMonitor,
)
from repro.workloads import random_query_workload


class TestAllStrategiesAgree:
    def test_full_comparison_on_deforming_neuron(self):
        """Every strategy of the Figure 6 comparison returns identical results
        at every step of a deforming-neuron simulation."""
        mesh = neuron_mesh(resolution=13, name="integration-neuron")
        workload = random_query_workload(mesh, selectivity=0.02, n_queries=3, seed=0)
        strategies = strategy_suite(("linear-scan", "octopus", "octree", "lur-tree", "qu-trade"))
        report = run_comparison(
            mesh=mesh,
            strategies=strategies,
            deformation=SinusoidalWaveDeformation(amplitude=0.02, period_steps=6),
            n_steps=3,
            query_provider=fixed_workload_provider(workload),
            validate_results=True,       # raises on any disagreement
        )
        totals = {name: report[name].total_results for name in report.names()}
        assert len(set(totals.values())) == 1

    def test_octopus_con_excluded_from_nonconvex_comparison(self):
        """OCTOPUS-CON is only valid on convex meshes; on the neuron mesh it may
        under-report, which is exactly why OCTOPUS keeps the surface probe."""
        mesh = neuron_mesh(resolution=13)
        workload = random_query_workload(mesh, selectivity=0.02, n_queries=6, seed=1)
        from repro.core import OctopusConExecutor
        from repro.baselines import LinearScanExecutor

        con = OctopusConExecutor()
        con.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        results_match = [
            con.query(box).same_vertices_as(linear.query(box)) for box in workload.boxes
        ]
        # It may happen to be right on some queries, but the guarantee is gone;
        # the point of this test is documenting the behavioural contract, so we
        # only require that nothing crashed and results are subsets.
        for box in workload.boxes:
            got = set(con.query(box).vertex_ids.tolist())
            expected = set(linear.query(box).vertex_ids.tolist())
            assert got <= expected
        assert isinstance(all(results_match), bool)


class TestMonitoringPipeline:
    def test_monitor_driven_simulation(self):
        """A monitoring application drives queries against a simulated mesh."""
        mesh = neuron_mesh(resolution=13)
        monitor = StructuralValidationMonitor(queries_per_step=3, selectivity=0.01, seed=0)
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=SpinePulsationDeformation(amplitude=0.01, period_steps=8),
            strategies=strategy_suite(("octopus", "linear-scan")),
            query_provider=lambda current_mesh, step: monitor.queries_for_step(current_mesh, step),
            validate_results=True,
        )
        report = simulation.run(n_steps=3)
        assert report["octopus"].n_queries == 9
        assert report["octopus"].total_results == report["linear-scan"].total_results

    def test_public_api_surface(self):
        """The names promised in the package __all__ actually resolve."""
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
        assert issubclass(repro.MeshError, ReproError)
        assert repro.__version__
