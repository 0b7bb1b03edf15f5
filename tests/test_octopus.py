"""Tests for the OCTOPUS executor: correctness against the linear scan."""

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor
from repro.core import OctopusExecutor
from repro.errors import QueryError
from repro.mesh import Box3D
from repro.simulation import DeformationDelta, RandomWalkDeformation, remove_cells
from repro.workloads import random_query_workload


def assert_matches_linear_scan(mesh, boxes):
    octopus = OctopusExecutor()
    octopus.prepare(mesh)
    linear = LinearScanExecutor()
    linear.prepare(mesh)
    for box in boxes:
        expected = linear.query(box)
        got = octopus.query(box)
        assert got.same_vertices_as(expected), (
            f"octopus returned {got.n_results} vertices, linear scan {expected.n_results}"
        )


class TestCorrectness:
    def test_matches_linear_scan_on_convex_mesh(self, grid_mesh, rng):
        boxes = [
            Box3D.from_points(rng.uniform(0, 1, size=(2, 3)))
            for _ in range(15)
        ]
        assert_matches_linear_scan(grid_mesh, boxes)

    def test_matches_linear_scan_on_nonconvex_neuron(self, neuron_small, rng):
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=8, seed=1)
        assert_matches_linear_scan(neuron_small, workload.boxes)

    def test_matches_linear_scan_on_delaunay_mesh(self, delaunay_small, rng):
        workload = random_query_workload(delaunay_small, selectivity=0.05, n_queries=6, seed=2)
        assert_matches_linear_scan(delaunay_small, workload.boxes)

    def test_query_covering_whole_mesh(self, neuron_small):
        box = neuron_small.bounding_box().expanded(0.1)
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        result = octopus.query(box)
        assert result.n_results == neuron_small.n_vertices

    def test_empty_query_far_from_mesh(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        far = neuron_small.bounding_box().hi + 10.0
        result = octopus.query(Box3D.cube(far, 0.5))
        assert result.n_results == 0
        # The directed walk ran and gave up.
        assert result.counters.walk_vertices_visited > 0

    def test_enclosed_query_uses_directed_walk(self, earthquake_small):
        octopus = OctopusExecutor()
        octopus.prepare(earthquake_small)
        linear = LinearScanExecutor()
        linear.prepare(earthquake_small)
        # Shrink an interior box until it contains no surface vertex but still
        # has interior vertices.
        surface = set(earthquake_small.surface_vertices().tolist())
        interior = [v for v in range(earthquake_small.n_vertices) if v not in surface]
        center = earthquake_small.vertices[interior[len(interior) // 2]]
        box = Box3D.cube(center, 0.12)
        expected = linear.query(box)
        got = octopus.query(box)
        assert got.same_vertices_as(expected)
        if expected.n_results and not set(expected.vertex_ids.tolist()) & surface:
            assert got.counters.walk_vertices_visited > 0

    def test_remains_correct_after_massive_deformation(self, neuron_small):
        """All vertices move every step (smooth wave + small jitter); results stay exact.

        The deformation keeps the mesh a valid embedding (neighbouring
        vertices move coherently), which is the paper's standing assumption:
        simulations apply physically meaningful, minute per-step changes.
        """
        from repro.simulation import SinusoidalWaveDeformation

        mesh = neuron_small.copy()
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        wave = SinusoidalWaveDeformation(amplitude=0.03, period_steps=10)
        wave.bind(mesh)
        jitter = RandomWalkDeformation(amplitude=0.0003, seed=3)
        jitter.bind(mesh)
        for step in range(1, 4):
            wave.apply(step)
            delta = jitter.apply(step)
            octopus.on_step(delta)
            # Every vertex moved since the previous step.
            workload = random_query_workload(mesh, selectivity=0.02, n_queries=4, seed=step)
            for box in workload.boxes:
                assert octopus.query(box).same_vertices_as(linear.query(box))

    def test_correct_after_restructuring(self, grid_mesh):
        mesh = grid_mesh.copy()
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        new_mesh, _ = remove_cells(mesh, np.arange(0, 120))
        mesh.restructure(mesh.vertices, new_mesh.cells)
        maintenance = octopus.on_step(DeformationDelta.empty(mesh.n_vertices))
        assert maintenance >= 0.0
        assert octopus.maintenance_entries >= 0
        box = Box3D((0.0, 0.0, 0.0), (0.9, 0.9, 0.9))
        got = octopus.query(box)
        expected = linear.query(box)
        # The linear scan also returns vertices no longer referenced by any
        # cell; restrict the comparison to referenced vertices.
        referenced = np.unique(mesh.cells)
        expected_referenced = np.intersect1d(expected.vertex_ids, referenced)
        assert np.array_equal(got.vertex_ids, expected_referenced)


class TestBehaviour:
    def test_no_maintenance_on_deformation(self, neuron_small, rng):
        mesh = neuron_small.copy()
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        mesh.displace(rng.normal(scale=0.05, size=mesh.vertices.shape))
        assert octopus.on_step(DeformationDelta.full(mesh.n_vertices)) == 0.0
        assert octopus.maintenance_time == 0.0

    def test_counters_probe_equals_surface_size(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        result = octopus.query(Box3D.cube(neuron_small.vertices[0], 0.3))
        assert result.counters.surface_probed == len(octopus.surface_index)

    def test_work_is_sublinear_in_dataset_for_small_queries(self):
        from repro.generators import neuron_mesh

        small = neuron_mesh(12)
        large = neuron_mesh(20)
        octopus_small = OctopusExecutor()
        octopus_small.prepare(small)
        octopus_large = OctopusExecutor()
        octopus_large.prepare(large)
        box = Box3D.cube((0.0, 0.0, 0.0), 0.4)
        work_small = octopus_small.query(box).counters.total_vertex_accesses()
        work_large = octopus_large.query(box).counters.total_vertex_accesses()
        ratio_vertices = large.n_vertices / small.n_vertices
        assert work_large / work_small < ratio_vertices

    def test_preprocessing_time_reported(self, neuron_small):
        octopus = OctopusExecutor()
        elapsed = octopus.prepare(neuron_small)
        assert elapsed >= 0.0
        assert octopus.preprocessing_time == elapsed

    def test_memory_overhead_positive_and_smaller_than_mesh(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        overhead = octopus.memory_overhead_bytes()
        assert 0 < overhead < neuron_small.memory_bytes()

    def test_query_before_prepare_raises(self):
        octopus = OctopusExecutor()
        with pytest.raises(RuntimeError):
            octopus.query(Box3D.cube((0, 0, 0), 1.0))

    def test_total_time_accounts_phases(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        result = octopus.query(Box3D.cube(neuron_small.vertices[5], 0.4))
        assert result.total_time >= result.probe_time + result.walk_time + result.crawl_time - 1e-6


class TestApproximation:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(QueryError):
            OctopusExecutor(surface_sample_fraction=0.0)
        with pytest.raises(QueryError):
            OctopusExecutor(surface_sample_fraction=1.5)

    def test_full_fraction_is_exact(self, neuron_small):
        exact = OctopusExecutor(surface_sample_fraction=1.0)
        exact.prepare(neuron_small)
        assert not exact.is_approximate

    def test_sampled_probe_is_smaller(self, neuron_small):
        approx = OctopusExecutor(surface_sample_fraction=0.1, seed=1)
        approx.prepare(neuron_small)
        assert approx.is_approximate
        result = approx.query(Box3D.cube(neuron_small.vertices[0], 0.4))
        assert result.counters.surface_probed <= max(
            1, int(round(0.1 * len(approx.surface_index))) + 1
        )

    def test_approximate_results_subset_of_exact(self, neuron_small):
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=4, seed=5)
        exact = OctopusExecutor()
        exact.prepare(neuron_small)
        approx = OctopusExecutor(surface_sample_fraction=0.2, seed=2)
        approx.prepare(neuron_small)
        for box in workload.boxes:
            exact_ids = set(exact.query(box).vertex_ids.tolist())
            approx_ids = set(approx.query(box).vertex_ids.tolist())
            assert approx_ids <= exact_ids

    def test_approximate_results_are_flagged_incomplete(self, neuron_small):
        # A sampled probe can miss in-box components, so no answer may claim
        # to be the whole range (Figure 12 shows recall below 100%).
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=4, seed=5)
        approx = OctopusExecutor(surface_sample_fraction=0.2, seed=2)
        approx.prepare(neuron_small)
        results = [*approx.query_many(workload.boxes), approx.query(workload.boxes[0])]
        assert not any(result.complete for result in results)
        exact = OctopusExecutor(surface_sample_fraction=1.0)
        exact.prepare(neuron_small)
        assert all(result.complete for result in exact.query_many(workload.boxes))
