"""Tests for the crawling and directed-walk phases."""

import numpy as np

from repro.core import QueryCounters, crawl, directed_walk
from repro.mesh import Box3D, points_in_box


class TestCrawl:
    def test_crawl_from_inside_retrieves_exact_result_on_convex_mesh(self, grid_mesh):
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        inside_ids = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        start = inside_ids[:1]
        outcome = crawl(grid_mesh, box, start)
        assert np.array_equal(outcome.result_ids, inside_ids)

    def test_crawl_counts_work(self, grid_mesh):
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        inside_ids = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        counters = QueryCounters()
        outcome = crawl(grid_mesh, box, inside_ids[:1], counters)
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
            outcome = crawl(mesh, box, inside[:1])
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
        outcome = crawl(grid_mesh, Box3D.cube((0.5, 0.5, 0.5), 0.2), np.empty(0, dtype=np.int64))
        assert outcome.result_ids.size == 0
        assert outcome.n_edges_followed == 0

    def test_crawl_start_outside_box_returns_empty(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        outside = np.nonzero(~points_in_box(grid_mesh.vertices, box))[0][:3]
        outcome = crawl(grid_mesh, box, outside)
        assert outcome.result_ids.size == 0
        # The starts were still position-tested.
        assert outcome.n_vertices_visited == 3

    def test_crawl_multiple_starts_deduplicated(self, grid_mesh):
        box = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        inside = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        outcome = crawl(grid_mesh, box, np.concatenate([inside, inside]))
        assert np.array_equal(outcome.result_ids, inside)

    def test_crawl_respects_disconnection(self, neuron_small):
        """Starting from one vertex must not magically reach disconnected parts."""
        mesh = neuron_small
        bounds = mesh.bounding_box()
        box = Box3D(bounds.lo, bounds.hi)  # whole mesh
        start = mesh.surface_vertices()[:1]
        outcome = crawl(mesh, box, start)
        component = None
        for comp in mesh.connected_components():
            if start[0] in comp:
                component = comp
                break
        assert np.array_equal(outcome.result_ids, component)


class TestDirectedWalk:
    def test_walk_reaches_enclosed_box(self, grid_mesh):
        # A box strictly inside the unit cube that contains interior vertices
        # (the 5x5x5 grid has vertices at multiples of 0.2).
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        # Start from a corner vertex of the cube (id 0 is at the origin corner).
        outcome = directed_walk(grid_mesh, box, start_vertex=0)
        assert outcome.found_id is not None
        assert box.contains_point(grid_mesh.vertices[outcome.found_id])
        assert outcome.n_steps == len(outcome.path)

    def test_walk_starting_inside_returns_start(self, grid_mesh):
        inside = np.nonzero(points_in_box(grid_mesh.vertices, Box3D.cube((0.5, 0.5, 0.5), 0.3)))[0]
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        outcome = directed_walk(grid_mesh, box, start_vertex=int(inside[0]))
        assert outcome.found_id == int(inside[0])
        assert outcome.n_steps == 1

    def test_walk_reports_failure_for_disjoint_box(self, grid_mesh):
        box = Box3D.cube((5.0, 5.0, 5.0), 0.5)  # far away from the unit cube
        outcome = directed_walk(grid_mesh, box, start_vertex=0)
        assert outcome.found_id is None

    def test_walk_counts_work(self, grid_mesh):
        counters = QueryCounters()
        box = Box3D.cube((0.52, 0.52, 0.52), 0.08)
        outcome = directed_walk(grid_mesh, box, start_vertex=0, counters=counters)
        assert counters.walk_vertices_visited == outcome.n_steps
        assert counters.walk_distance_computations >= outcome.n_steps

    def test_walk_path_distances_monotonically_decrease(self, grid_mesh):
        from repro.mesh import point_box_distance

        box = Box3D.cube((0.5, 0.5, 0.5), 0.1)
        outcome = directed_walk(grid_mesh, box, start_vertex=0)
        distances = [point_box_distance(grid_mesh.vertices[v], box) for v in outcome.path]
        assert all(b < a for a, b in zip(distances, distances[1:]))
