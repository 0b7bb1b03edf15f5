"""Tests for OCTOPUS-CON (stale grid + directed walk + crawl on convex meshes)."""

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor
from repro.core import OctopusConExecutor, OctopusExecutor, QueryCounters, UniformGrid
from repro.errors import SpatialIndexError, QueryError
from repro.mesh import Box3D
from repro.simulation import AffineDeformation
from repro.workloads import random_query_workload


class _BruteForceBins:
    """The grid's binning, one point at a time: cell ``floor((p - lo) / size)``
    clamped to the grid, with a flat axis given a span of 1."""

    def __init__(self, positions, resolution):
        self.resolution = resolution
        self.lo = positions.min(axis=0)
        hi = positions.max(axis=0)
        self.size = np.where(hi > self.lo, hi - self.lo, 1.0) / resolution
        # A cell's lookups return the smallest id binned there.
        self.first = {}
        for vertex_id, point in enumerate(positions):
            self.first.setdefault(self.cell_of(point), vertex_id)

    def cell_of(self, point):
        index = np.floor((point - self.lo) / self.size).astype(int)
        return tuple(int(i) for i in np.clip(index, 0, self.resolution - 1))

    def locate(self, points):
        return np.array([self.first.get(self.cell_of(point), -1) for point in points])

    def nearest_ring(self, point):
        """The id ``any_vertex_near`` returns and the cells it inspects: the
        first non-empty cell, in (x, y, z) order, of the nearest ring of
        cells around ``point``'s cell that holds one."""
        target = np.array(self.cell_of(point))
        ring = min(int(np.abs(np.array(cell) - target).max()) for cell in self.first)
        on_ring = [cell for cell in self.first if np.abs(np.array(cell) - target).max() == ring]
        span = np.minimum(target + ring, self.resolution - 1) - np.maximum(target - ring, 0) + 1
        return self.first[min(on_ring)], int(np.prod(span))


class TestUniformGrid:
    @pytest.mark.parametrize("resolution", [1, 4, 7])
    def test_build_bins_like_brute_force(self, neuron_small, rng, resolution):
        positions = neuron_small.vertices
        grid = UniformGrid(resolution=resolution)
        grid.build(positions)
        bins = _BruteForceBins(positions, resolution)
        points = np.vstack([positions[::5], rng.uniform(bins.lo, positions.max(axis=0), (200, 3))])
        expected = bins.locate(points)
        assert np.array_equal(grid.locate_batch(points), expected)
        for point, vertex_id in zip(points, expected):
            if vertex_id >= 0:
                assert grid.any_vertex_near(point) == vertex_id

    @pytest.mark.parametrize("resolution", [3, 8, 12])
    def test_any_vertex_near_takes_the_nearest_non_empty_ring(self, neuron_small, rng, resolution):
        # The bounding box of the non-convex neuron has many empty cells.
        positions = neuron_small.vertices
        grid = UniformGrid(resolution=resolution)
        grid.build(positions)
        bins = _BruteForceBins(positions, resolution)
        box = neuron_small.bounding_box()
        points = np.vstack([box.corners(), rng.uniform(box.lo, box.hi, size=(40, 3))])
        assert np.any(bins.locate(points) == -1)
        for point in points:
            counters = QueryCounters()
            expected_id, expected_cells = bins.nearest_ring(point)
            assert grid.any_vertex_near(point, counters) == expected_id
            assert counters.index_nodes_visited == expected_cells

    def test_points_outside_clamp_to_the_border_cells(self, neuron_small):
        grid = UniformGrid(resolution=6)
        grid.build(neuron_small.vertices)
        box = neuron_small.bounding_box()
        corners = box.corners()
        # Beyond every corner, and beyond each face straight out from the centre.
        outside = np.vstack(
            [
                corners + np.sign(corners - box.center) * 5.0,
                box.center + 100.0 * np.eye(3),
                box.center - 100.0 * np.eye(3),
            ]
        )
        inside = np.clip(outside, box.lo, box.hi)
        assert np.array_equal(grid.locate_batch(outside), grid.locate_batch(inside))
        for far, near in zip(outside, inside):
            assert grid.any_vertex_near(far) == grid.any_vertex_near(near)

    @pytest.mark.parametrize("flat_axis", [0, 1, 2])
    def test_flat_point_set_bins_along_its_spread_axes(self, rng, flat_axis):
        positions = rng.uniform(size=(300, 3))
        positions[:, flat_axis] = 0.5
        grid = UniformGrid(resolution=4)
        grid.build(positions)
        bins = _BruteForceBins(positions, 4)
        assert len({cell[flat_axis] for cell in bins.first}) == 1
        located = grid.locate_batch(positions)
        assert np.all(located >= 0)
        assert np.array_equal(located, bins.locate(positions))

    def test_rebuild_replaces_the_binning(self, rng):
        first = rng.uniform(size=(200, 3))
        second = rng.uniform(2.0, 3.0, size=(150, 3))
        grid = UniformGrid(resolution=5)
        assert grid.memory_bytes() == 0
        grid.build(first)
        grid.build(second)
        assert grid.n_points == 150
        assert np.array_equal(grid.locate_batch(second), _BruteForceBins(second, 5).locate(second))
        assert grid.memory_bytes() == (5**3 + 1) * 8 + 150 * 8

    def test_any_vertex_near_returns_nearby_vertex(self, grid_mesh):
        grid = UniformGrid(resolution=5)
        grid.build(grid_mesh.vertices)
        counters = QueryCounters()
        vertex = grid.any_vertex_near(np.array([0.5, 0.5, 0.5]), counters)
        assert vertex is not None
        assert np.linalg.norm(grid_mesh.vertices[vertex] - 0.5) < 0.5
        assert counters.index_nodes_visited >= 1

    def test_any_vertex_near_expands_rings_when_cell_empty(self, neuron_small):
        # A fine grid over a non-convex mesh has many empty cells: query a
        # point in the bounding box far from the mesh material.
        grid = UniformGrid(resolution=12)
        grid.build(neuron_small.vertices)
        corner = neuron_small.bounding_box().lo
        vertex = grid.any_vertex_near(corner)
        assert vertex is not None

    def test_query_before_build_raises(self):
        grid = UniformGrid(resolution=4)
        with pytest.raises(SpatialIndexError):
            grid.locate_batch(np.zeros((1, 3)))
        with pytest.raises(SpatialIndexError):
            grid.any_vertex_near(np.zeros(3))

    def test_invalid_resolution(self):
        with pytest.raises(SpatialIndexError):
            UniformGrid(resolution=0)

    def test_memory_grows_with_resolution(self, grid_mesh):
        coarse = UniformGrid(resolution=2)
        coarse.build(grid_mesh.vertices)
        fine = UniformGrid(resolution=16)
        fine.build(grid_mesh.vertices)
        assert fine.memory_bytes() > coarse.memory_bytes()


class TestOctopusCon:
    def test_matches_linear_scan_on_convex_mesh(self, earthquake_small):
        workload = random_query_workload(earthquake_small, selectivity=0.02, n_queries=8, seed=0)
        con = OctopusConExecutor(grid_resolution=6)
        con.prepare(earthquake_small)
        linear = LinearScanExecutor()
        linear.prepare(earthquake_small)
        for box in workload.boxes:
            assert con.query(box).same_vertices_as(linear.query(box))

    def test_correct_with_stale_grid_after_affine_deformation(self, earthquake_small):
        mesh = earthquake_small.copy()
        con = OctopusConExecutor(grid_resolution=6)
        con.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        deformation = AffineDeformation(stretch_amplitude=0.15, shear_amplitude=0.05)
        deformation.bind(mesh)
        for step in range(1, 5):
            delta = deformation.apply(step)
            assert con.on_step(delta) == 0.0     # the grid is never maintained
            workload = random_query_workload(mesh, selectivity=0.02, n_queries=3, seed=step)
            for box in workload.boxes:
                assert con.query(box).same_vertices_as(linear.query(box))

    def test_empty_query_far_away(self, earthquake_small):
        con = OctopusConExecutor()
        con.prepare(earthquake_small)
        far = earthquake_small.bounding_box().hi + 100.0
        assert con.query(Box3D.cube(far, 1.0)).n_results == 0

    def test_no_surface_probe_work(self, earthquake_small):
        con = OctopusConExecutor()
        con.prepare(earthquake_small)
        workload = random_query_workload(earthquake_small, selectivity=0.02, n_queries=3, seed=1)
        for box in workload.boxes:
            result = con.query(box)
            assert result.counters.surface_probed == 0

    def test_less_work_than_octopus_on_convex_mesh(self, earthquake_small):
        """OCTOPUS-CON skips the surface probe and should do less total work."""
        workload = random_query_workload(earthquake_small, selectivity=0.01, n_queries=5, seed=2)
        con = OctopusConExecutor()
        con.prepare(earthquake_small)
        full = OctopusExecutor()
        full.prepare(earthquake_small)
        con_work = sum(con.query(b).counters.total_vertex_accesses() for b in workload.boxes)
        full_work = sum(full.query(b).counters.total_vertex_accesses() for b in workload.boxes)
        assert con_work < full_work

    def test_finer_grid_shortens_directed_walk(self, earthquake_small):
        workload = random_query_workload(earthquake_small, selectivity=0.005, n_queries=6, seed=3)
        coarse = OctopusConExecutor(grid_resolution=1)
        coarse.prepare(earthquake_small)
        fine = OctopusConExecutor(grid_resolution=8)
        fine.prepare(earthquake_small)
        coarse_walk = sum(coarse.query(b).counters.walk_vertices_visited for b in workload.boxes)
        fine_walk = sum(fine.query(b).counters.walk_vertices_visited for b in workload.boxes)
        assert fine_walk <= coarse_walk

    def test_invalid_resolution_rejected(self):
        with pytest.raises(QueryError):
            OctopusConExecutor(grid_resolution=0)

    def test_memory_overhead_grows_with_resolution(self, earthquake_small):
        small = OctopusConExecutor(grid_resolution=2)
        small.prepare(earthquake_small)
        big = OctopusConExecutor(grid_resolution=12)
        big.prepare(earthquake_small)
        assert big.memory_overhead_bytes() > small.memory_overhead_bytes()

    def test_never_maintains_the_grid(self, earthquake_small):
        from repro.core import DeformationDelta, TopologyDelta

        con = OctopusConExecutor()
        con.prepare(earthquake_small.copy())
        assert con.on_step(DeformationDelta.full(earthquake_small.n_vertices)) == 0.0
        assert con.on_restructure(TopologyDelta.full(earthquake_small.n_vertices)) == 0.0
        assert con.maintenance_entries == 0


def _vertex_centred_boxes(mesh, n_boxes: int, seed: int) -> list[Box3D]:
    """Boxes centred on random vertices, half-sides 2–15% of the bounding diagonal."""
    rng = np.random.default_rng(seed)
    diagonal = float(np.linalg.norm(mesh.bounding_box().extents))
    centres = mesh.vertices[rng.integers(0, mesh.n_vertices, size=n_boxes)]
    halves = rng.uniform(0.02, 0.15, size=(n_boxes, 3)) * diagonal
    return [Box3D(centre - half, centre + half) for centre, half in zip(centres, halves)]


class TestCompleteness:
    """Every answer is the linear-scan answer, or says ``complete=False``."""

    @staticmethod
    def _answers(mesh, boxes):
        con = OctopusConExecutor()
        con.prepare(mesh)
        scan = LinearScanExecutor()
        scan.prepare(mesh)
        expected = scan.query_many(boxes)
        return expected, [con.query(box) for box in boxes], con.query_many(boxes)

    def test_short_answers_on_a_non_convex_mesh_are_flagged(self, neuron_small):
        boxes = _vertex_centred_boxes(neuron_small, 600, seed=17)
        expected, sequential, batched = self._answers(neuron_small, boxes)
        for results in (sequential, batched):
            differing = [result for result, want in zip(results, expected) if not result.same_vertices_as(want)]
            # one in-box seed cannot crawl to every in-box part of a non-convex mesh
            assert differing
            assert not any(result.complete for result in differing)

    @pytest.mark.parametrize("mesh_fixture", ["grid_mesh", "earthquake_small"])
    def test_convex_meshes_answer_exactly(self, mesh_fixture, request):
        mesh = request.getfixturevalue(mesh_fixture)
        boxes = _vertex_centred_boxes(mesh, 600, seed=17)
        expected, sequential, batched = self._answers(mesh, boxes)
        for results in (sequential, batched):
            for result, want in zip(results, expected):
                assert result.same_vertices_as(want)
                assert result.complete
