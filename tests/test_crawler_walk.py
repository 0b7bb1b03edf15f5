"""Tests for the crawling and directed-walk phases.

Besides the phases' results and counters, the bounds that make a per-query
resource limit unnecessary are pinned here: the crawl touches only in-box
vertices and their neighbours (Section IV-B), and the directed walk gets
strictly closer to the box at every step, so it ends within ``n_vertices``
steps (Section IV-D).
"""

import numpy as np
import pytest

from repro.core import QueryCounters, crawl_many, directed_walk_many
from repro.mesh import Box3D, point_box_distance, points_in_box
from repro.workloads import random_query_workload

#: session meshes the traversal bounds are checked on: convex, non-convex
#: with disconnected parts, irregular
BOUND_MESHES = ["grid_mesh", "neuron_small", "delaunay_small"]


def _neighbours(mesh, ids: np.ndarray) -> np.ndarray:
    """Every neighbour id of ``ids`` (with duplicates), one CSR row per id."""
    indptr, indices = mesh.adjacency.indptr, mesh.adjacency.indices
    rows = [indices[indptr[v] : indptr[v + 1]] for v in ids.tolist()]
    return np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)


def _crawl_one(mesh, box, starts, counters=None):
    """One box's crawl: ``crawl_many`` for a batch of one."""
    return crawl_many(mesh, [box], [starts], [counters]).outcomes[0]


def _walk_one(mesh, box, start_vertex, counters=None):
    """One box's walk: ``directed_walk_many`` for a batch of one."""
    return directed_walk_many(mesh, [box], [start_vertex], [counters]).outcomes[0]


def _walk_targets(mesh) -> list[Box3D]:
    """Boxes on the mesh plus one far outside it, where the walk gets stuck."""
    boxes = random_query_workload(mesh, selectivity=0.02, n_queries=5, seed=1).boxes
    far = Box3D.cube(mesh.bounding_box().hi + 5.0, 0.1)
    return [*boxes, far]


class TestCrawl:
    def test_crawl_from_inside_retrieves_exact_result_on_convex_mesh(self, grid_mesh):
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        inside_ids = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        start = inside_ids[:1]
        outcome = _crawl_one(grid_mesh, box, start)
        assert np.array_equal(outcome.result_ids, inside_ids)

    def test_crawl_counts_work(self, grid_mesh):
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        inside_ids = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        counters = QueryCounters()
        outcome = _crawl_one(grid_mesh, box, inside_ids[:1], counters)
        assert counters.crawl_vertices_visited == outcome.n_vertices_visited
        assert counters.crawl_edges_followed == outcome.n_edges_followed
        assert outcome.n_vertices_visited >= outcome.result_ids.size
        assert outcome.n_edges_followed > 0

    def test_crawl_work_scales_with_query_not_dataset(self):
        """The core scalability claim: crawl work depends on selectivity only."""
        from repro.generators import structured_tetrahedral_mesh

        small = structured_tetrahedral_mesh((6, 6, 6))
        large = structured_tetrahedral_mesh((12, 12, 12))
        box = Box3D((0.4, 0.4, 0.4), (0.6, 0.6, 0.6))

        def crawl_work(mesh):
            inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
            outcome = _crawl_one(mesh, box, inside[:1])
            return outcome.n_vertices_visited

        # The large mesh has 8x the vertices; the crawl only sees the query
        # neighbourhood, so its work grows with the query content (~8x here),
        # not with a full scan of the dataset (which would also be 8x the
        # absolute size).  Check it never exceeds a small multiple of the
        # result size, on both meshes.
        for mesh in (small, large):
            inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
            work = crawl_work(mesh)
            assert work <= 30 * max(inside.size, 1)
            assert work < mesh.n_vertices

    def test_crawl_empty_start(self, grid_mesh):
        outcome = _crawl_one(grid_mesh, Box3D.cube((0.5, 0.5, 0.5), 0.2), np.empty(0, dtype=np.int64))
        assert outcome.result_ids.size == 0
        assert outcome.n_edges_followed == 0

    def test_crawl_start_outside_box_returns_empty(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        outside = np.nonzero(~points_in_box(grid_mesh.vertices, box))[0][:3]
        outcome = _crawl_one(grid_mesh, box, outside)
        assert outcome.result_ids.size == 0
        # The starts were still position-tested.
        assert outcome.n_vertices_visited == 3

    def test_crawl_multiple_starts_deduplicated(self, grid_mesh):
        box = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        inside = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        outcome = _crawl_one(grid_mesh, box, np.concatenate([inside, inside]))
        assert np.array_equal(outcome.result_ids, inside)

    def test_crawl_respects_disconnection(self, neuron_small):
        """Starting from one vertex must not magically reach disconnected parts."""
        mesh = neuron_small
        bounds = mesh.bounding_box()
        box = Box3D(bounds.lo, bounds.hi)  # whole mesh
        start = mesh.surface_vertices()[:1]
        outcome = _crawl_one(mesh, box, start)
        component = None
        for comp in mesh.connected_components():
            if start[0] in comp:
                component = comp
                break
        assert np.array_equal(outcome.result_ids, component)

    @pytest.mark.parametrize("mesh_fixture", BOUND_MESHES)
    def test_crawl_visits_only_its_starts_and_the_neighbours_of_its_result(
        self, mesh_fixture, request
    ):
        mesh = request.getfixturevalue(mesh_fixture)
        for box in random_query_workload(mesh, selectivity=0.05, n_queries=6, seed=1).boxes:
            inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
            outside = np.nonzero(~points_in_box(mesh.vertices, box))[0]
            starts = np.concatenate([inside[:2], outside[:1]])
            outcome = _crawl_one(mesh, box, starts)
            assert np.all(points_in_box(mesh.vertices[outcome.result_ids], box))
            touched = np.union1d(starts, _neighbours(mesh, outcome.result_ids))
            assert outcome.n_vertices_visited == touched.size

    @pytest.mark.parametrize("mesh_fixture", BOUND_MESHES)
    def test_crawl_follows_the_edges_of_each_result_vertex_once(self, mesh_fixture, request):
        mesh = request.getfixturevalue(mesh_fixture)
        for box in random_query_workload(mesh, selectivity=0.05, n_queries=6, seed=2).boxes:
            inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
            outcome = _crawl_one(mesh, box, inside[:3])
            # only in-box vertices are expanded, each exactly once
            assert outcome.n_edges_followed == _neighbours(mesh, outcome.result_ids).size


class TestDirectedWalk:
    def test_walk_reaches_enclosed_box(self, grid_mesh):
        # A box strictly inside the unit cube that contains interior vertices
        # (the 5x5x5 grid has vertices at multiples of 0.2).
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        # Start from a corner vertex of the cube (id 0 is at the origin corner).
        outcome = _walk_one(grid_mesh, box, start_vertex=0)
        assert outcome.found_id is not None
        assert box.contains_point(grid_mesh.vertices[outcome.found_id])
        assert outcome.n_steps == len(outcome.path)

    def test_walk_starting_inside_returns_start(self, grid_mesh):
        inside = np.nonzero(points_in_box(grid_mesh.vertices, Box3D.cube((0.5, 0.5, 0.5), 0.3)))[0]
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        outcome = _walk_one(grid_mesh, box, start_vertex=int(inside[0]))
        assert outcome.found_id == int(inside[0])
        assert outcome.n_steps == 1

    def test_walk_reports_failure_for_disjoint_box(self, grid_mesh):
        box = Box3D.cube((5.0, 5.0, 5.0), 0.5)  # far away from the unit cube
        outcome = _walk_one(grid_mesh, box, start_vertex=0)
        assert outcome.found_id is None

    def test_walk_counts_work(self, grid_mesh):
        counters = QueryCounters()
        box = Box3D.cube((0.52, 0.52, 0.52), 0.08)
        outcome = _walk_one(grid_mesh, box, start_vertex=0, counters=counters)
        assert counters.walk_vertices_visited == outcome.n_steps
        assert counters.walk_distance_computations >= outcome.n_steps

    def test_walk_path_distances_monotonically_decrease(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.1)
        outcome = _walk_one(grid_mesh, box, start_vertex=0)
        distances = [point_box_distance(grid_mesh.vertices[v], box) for v in outcome.path]
        assert all(b < a for a, b in zip(distances, distances[1:]))

    @pytest.mark.parametrize("mesh_fixture", BOUND_MESHES)
    def test_walk_never_revisits_and_ends_within_n_vertices_steps(self, mesh_fixture, request):
        mesh = request.getfixturevalue(mesh_fixture)
        starts = np.random.default_rng(0).integers(0, mesh.n_vertices, size=12)
        for box in _walk_targets(mesh):
            for start in starts.tolist():
                outcome = _walk_one(mesh, box, start_vertex=start)
                distances = [point_box_distance(mesh.vertices[v], box) for v in outcome.path]
                assert all(b < a for a, b in zip(distances, distances[1:]))
                assert len(set(outcome.path)) == outcome.n_steps <= mesh.n_vertices
                if outcome.found_id is not None:
                    assert outcome.found_id == outcome.path[-1]
                    assert distances[-1] == 0.0

    @pytest.mark.parametrize("mesh_fixture", BOUND_MESHES)
    def test_fused_walk_rounds_are_bounded_by_its_longest_walk(self, mesh_fixture, request):
        mesh = request.getfixturevalue(mesh_fixture)
        boxes = _walk_targets(mesh)
        starts = np.random.default_rng(1).integers(0, mesh.n_vertices, size=len(boxes))
        batch = directed_walk_many(mesh, boxes, starts.tolist())
        longest = max(outcome.n_steps for outcome in batch.outcomes)
        # one round per accepted step, plus one for a walk that gets stuck
        assert longest <= batch.n_rounds <= longest + 1 <= mesh.n_vertices + 1
        assert batch.outcomes[-1].found_id is None  # the far box misses the mesh
