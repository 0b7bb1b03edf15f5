"""Tests for mesh restructuring and the monitoring applications."""

import numpy as np
import pytest

from repro.core import OctopusExecutor
from repro.baselines import LinearScanExecutor
from repro.errors import SimulationError
from repro.mesh import validate_mesh
from repro.simulation import (
    DeformationDelta,
    MeshQualityMonitor,
    StructuralValidationMonitor,
    VisualizationMonitor,
    remove_cells,
    split_cells,
)


class TestSplitCells:
    def test_split_increases_cells_and_vertices(self, grid_mesh):
        new_mesh, event = split_cells(grid_mesh, np.array([0, 5, 10]))
        assert new_mesh.n_cells == grid_mesh.n_cells - 3 + 12
        assert new_mesh.n_vertices == grid_mesh.n_vertices + 3
        assert event.kind == "split"
        assert event.n_new_vertices == 3

    def test_split_preserves_total_volume(self, grid_mesh):
        new_mesh, _ = split_cells(grid_mesh, np.array([0, 1, 2, 3]))
        assert new_mesh.total_volume() == pytest.approx(grid_mesh.total_volume())

    def test_split_keeps_surface_vertex_set(self, grid_mesh):
        """Centroid insertion never puts a new vertex on the surface."""
        new_mesh, event = split_cells(grid_mesh, np.array([0, 100, 200]))
        assert event.inserted_surface_vertices.size == 0
        assert event.removed_surface_vertices.size == 0
        assert validate_mesh(new_mesh).is_valid

    def test_split_validates_input(self, grid_mesh):
        with pytest.raises(SimulationError):
            split_cells(grid_mesh, np.array([], dtype=int))
        with pytest.raises(SimulationError):
            split_cells(grid_mesh, np.array([grid_mesh.n_cells + 5]))


class TestRemoveCells:
    def test_remove_decreases_cells(self, grid_mesh):
        new_mesh, event = remove_cells(grid_mesh, np.array([0, 1, 2]))
        assert new_mesh.n_cells == grid_mesh.n_cells - 3
        assert event.kind == "remove"

    def test_removing_interior_cells_exposes_surface(self, grid_mesh):
        # Find cells whose vertices are all interior and remove them.
        surface = set(grid_mesh.surface_vertices().tolist())
        interior_cells = [
            i for i, cell in enumerate(grid_mesh.cells)
            if not (set(cell.tolist()) & surface)
        ]
        assert interior_cells, "the 5x5x5 grid has fully interior cells"
        new_mesh, event = remove_cells(grid_mesh, np.array(interior_cells[:6]))
        assert event.inserted_surface_vertices.size > 0

    def test_cannot_remove_everything(self, grid_mesh):
        with pytest.raises(SimulationError):
            remove_cells(grid_mesh, np.arange(grid_mesh.n_cells))

    def test_octopus_stays_correct_after_each_restructuring_kind(self, grid_mesh):
        for operation, cells in ((split_cells, np.array([3, 4])), (remove_cells, np.arange(20))):
            mesh = grid_mesh.copy()
            octopus = OctopusExecutor()
            octopus.prepare(mesh)
            new_mesh, _ = operation(mesh, cells)
            if new_mesh.n_vertices == mesh.n_vertices:
                mesh.restructure(mesh.vertices, new_mesh.cells)
                octopus.on_step(DeformationDelta.empty(mesh.n_vertices))
                linear = LinearScanExecutor()
                linear.prepare(mesh)
                box = mesh.bounding_box()
                got = octopus.query(box)
                referenced = np.unique(mesh.cells)
                assert np.array_equal(got.vertex_ids, referenced)


class TestMonitors:
    def test_structural_validation_monitor(self, neuron_small):
        monitor = StructuralValidationMonitor(queries_per_step=4, selectivity=0.01, seed=0)
        boxes = monitor.queries_for_step(neuron_small, step=1)
        assert len(boxes) == 4
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        stats = monitor.analyze(neuron_small, boxes[0], octopus.query(boxes[0]))
        assert "density" in stats and stats["density"] >= 0

    def test_mesh_quality_monitor(self, neuron_small):
        monitor = MeshQualityMonitor(queries_per_step=3, selectivity=0.01, seed=1)
        boxes = monitor.queries_for_step(neuron_small, step=2)
        assert len(boxes) == 3
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        stats = monitor.analyze(neuron_small, boxes[0], octopus.query(boxes[0]))
        assert "n_inverted" in stats

    def test_visualization_monitor_quality_levels(self, neuron_small):
        low = VisualizationMonitor(quality="low", queries_per_step=5)
        high = VisualizationMonitor(quality="high", queries_per_step=5)
        assert low.selectivity > high.selectivity
        boxes = high.queries_for_step(neuron_small, step=0)
        assert len(boxes) == 5

    def test_monitor_queries_change_with_step(self, neuron_small):
        monitor = StructuralValidationMonitor(queries_per_step=3, selectivity=0.01, seed=0)
        first = monitor.queries_for_step(neuron_small, step=1)
        second = monitor.queries_for_step(neuron_small, step=2)
        assert not all(
            np.allclose(a.lo, b.lo) and np.allclose(a.hi, b.hi) for a, b in zip(first, second)
        )

    def test_monitor_parameter_validation(self):
        with pytest.raises(SimulationError):
            StructuralValidationMonitor(queries_per_step=0)
        with pytest.raises(SimulationError):
            VisualizationMonitor(quality="medium")
