"""Tests for the surface index (build, probe, maintenance)."""

import numpy as np

from repro.baselines import LinearScanExecutor
from repro.core import OctopusExecutor, QueryCounters, SurfaceIndex
from repro.mesh import Box3D
from repro.simulation import remove_cells


class TestBuild:
    def test_contains_exactly_the_surface_vertices(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        expected = grid_mesh.surface_vertices()
        assert len(index) == expected.size
        assert index.surface_ids() is expected  # the mesh's array, not a copy
        assert index.surface_ids().dtype == np.int64

    def test_surface_ids_sorted(self, neuron_small):
        index = SurfaceIndex(neuron_small)
        ids = index.surface_ids()
        assert np.array_equal(ids, np.sort(ids))

    def test_build_time_recorded(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        assert index.build_time >= 0.0

    def test_memory_accounted(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        assert index.memory_bytes() == len(index) * 8


class TestProbe:
    def test_probe_finds_surface_vertices_in_box(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        counters = QueryCounters()
        # A slab hugging the x=0 face of the unit cube contains surface vertices.
        box = Box3D((0.0, 0.0, 0.0), (0.05, 1.0, 1.0))
        outcome = index.probe_many([box], [counters])[0]
        assert outcome.inside_ids.size > 0
        assert counters.surface_probed == len(index)
        positions = grid_mesh.vertices[outcome.inside_ids]
        assert np.all(positions[:, 0] <= 0.05)

    def test_probe_reports_closest_when_none_inside(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        # A small box strictly inside the cube, away from the surface lattice.
        box = Box3D.cube((0.5, 0.5, 0.5), 0.05)
        outcome = index.probe_many([box])[0]
        assert outcome.inside_ids.size == 0
        assert outcome.closest_id is not None
        assert outcome.closest_distance > 0

    def test_probe_uses_current_positions(self, grid_mesh):
        mesh = grid_mesh.copy()
        index = SurfaceIndex(mesh)
        box = Box3D((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
        assert index.probe_many([box])[0].inside_ids.size == 0
        # Deform the mesh so that some surface vertices move into the box.
        mesh.displace(np.full_like(mesh.vertices, 5.0))
        outcome = index.probe_many([box])[0]
        assert outcome.inside_ids.size > 0

    def test_probe_after_deformation_needs_no_maintenance(self, neuron_small, rng):
        mesh = neuron_small.copy()
        index = SurfaceIndex(mesh)
        before = len(index)
        mesh.displace(rng.normal(scale=0.01, size=mesh.vertices.shape))
        assert len(index) == before


class TestMaintenance:
    def test_unannounced_restructure_needs_no_hook(self, grid_mesh):
        mesh = grid_mesh.copy()
        exact = OctopusExecutor()
        approx = OctopusExecutor(surface_sample_fraction=0.3, seed=2)
        exact.prepare(mesh)
        approx.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        # Drop a batch of cells behind the executors' backs: no on_step, no
        # on_restructure.  The probe reads the mesh's surface when it runs.
        new_mesh, event = remove_cells(mesh, np.arange(0, 30))
        mesh.restructure(mesh.vertices, new_mesh.cells)
        assert event.inserted_surface_vertices.size > 0
        boxes = [
            Box3D((0.0, 0.0, 0.0), (0.9, 0.9, 0.9)),
            Box3D((0.1, 0.1, 0.1), (0.6, 0.6, 0.6)),
        ]
        # The scan also returns vertices no longer referenced by any cell.
        referenced = np.unique(mesh.cells)
        expected = [np.intersect1d(r.vertex_ids, referenced) for r in linear.query_many(boxes)]
        for got, want in zip(exact.query_many(boxes), expected):
            assert np.array_equal(got.vertex_ids, want)
        for box, want in zip(boxes, expected):
            assert np.array_equal(exact.query(box).vertex_ids, want)
        # The approximate probe redraws its sample from the new surface.
        surface = mesh.surface_vertices()
        assert approx.query(boxes[0]).counters.surface_probed == round(0.3 * surface.size)
        assert np.all(np.isin(approx._probe_ids(), surface))

    def test_refresh_matches_restructuring_event(self, grid_mesh):
        mesh = grid_mesh.copy()
        index = SurfaceIndex(mesh)
        # Remove a batch of cells touching the boundary: interior vertices get exposed.
        new_mesh, event = remove_cells(mesh, np.arange(0, 60))
        mesh.restructure(mesh.vertices, new_mesh.cells)
        inserted, removed = index.refresh_from_mesh()
        assert inserted == event.inserted_surface_vertices.size
        assert removed == event.removed_surface_vertices.size
        assert set(index.surface_ids().tolist()) == set(mesh.surface_vertices().tolist())

    def test_dirty_narrowed_refresh_matches_full_refresh(self, grid_mesh):
        mesh_a = grid_mesh.copy()
        mesh_b = grid_mesh.copy()
        narrowed = SurfaceIndex(mesh_a)
        full = SurfaceIndex(mesh_b)
        new_mesh, event = remove_cells(mesh_a, np.arange(0, 60))
        mesh_a.restructure(mesh_a.vertices, new_mesh.cells)
        mesh_b.restructure(mesh_b.vertices, new_mesh.cells)
        # The membership changes are confined to the removed cells' vertices.
        dirty = np.unique(grid_mesh.cells[np.arange(0, 60)])
        inserted, removed = narrowed.refresh_from_mesh(dirty_ids=dirty)
        full_inserted, full_removed = full.refresh_from_mesh()
        assert inserted == full_inserted == event.inserted_surface_vertices.size
        assert removed == full_removed == event.removed_surface_vertices.size
        assert np.array_equal(narrowed.surface_ids(), full.surface_ids())

    def test_dirty_refresh_with_no_changes_is_a_noop(self, grid_mesh):
        mesh = grid_mesh.copy()
        narrowed = SurfaceIndex(mesh)
        full = SurfaceIndex(mesh)
        before = narrowed.surface_ids().copy()
        mesh.restructure(mesh.vertices, mesh.cells.copy())  # version bump, same surface
        assert narrowed.refresh_from_mesh(dirty_ids=np.arange(8)) == (0, 0)
        assert full.refresh_from_mesh() == (0, 0)
        assert np.array_equal(narrowed.surface_ids(), before)
