"""Tests for the Hilbert curve and the data-layout optimisation."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.mesh import (
    AdjacencyList,
    hilbert_distances,
    hilbert_layout,
    hilbert_sort_order,
    layout_locality_score,
    random_layout,
)


class TestHilbertDistances:
    def test_output_shape_and_dtype(self, rng):
        pts = rng.uniform(size=(100, 3))
        distances = hilbert_distances(pts, bits=8)
        assert distances.shape == (100,)
        assert distances.dtype == np.uint64

    def test_distinct_lattice_points_get_distinct_indices(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        distances = hilbert_distances(pts, bits=4)
        assert len(set(distances.tolist())) == len(pts)

    def test_range_bounded_by_bits(self, rng):
        pts = rng.uniform(size=(200, 3))
        bits = 5
        distances = hilbert_distances(pts, bits=bits)
        assert int(distances.max()) < 2 ** (3 * bits)

    def test_locality_neighbouring_points_have_close_indices(self):
        # Points along a dense axis-aligned line: Hilbert indices of adjacent
        # samples should on average be far closer than those of random pairs.
        t = np.linspace(0, 1, 512)
        pts = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        pts = np.vstack([pts, np.random.default_rng(0).uniform(size=(512, 3))])
        distances = hilbert_distances(pts, bits=8).astype(np.float64)
        line = distances[:512]
        adjacent_gap = np.abs(np.diff(line)).mean()
        random_gap = np.abs(np.diff(np.random.default_rng(1).permutation(line))).mean()
        assert adjacent_gap < random_gap / 5

    def test_invalid_inputs(self):
        with pytest.raises(GeometryError):
            hilbert_distances(np.zeros((3, 2)))
        with pytest.raises(GeometryError):
            hilbert_distances(np.zeros((3, 3)), bits=0)

    def test_empty_input(self):
        assert hilbert_distances(np.empty((0, 3))).size == 0

    def test_sort_order_is_permutation(self, rng):
        pts = rng.uniform(size=(50, 3))
        order = hilbert_sort_order(pts)
        assert np.array_equal(np.sort(order), np.arange(50))


class TestHilbertDistancesEdgeCases:
    """The precision extremes and degenerate clouds of `hilbert_distances`."""

    def test_bits_1_extreme(self, rng):
        pts = rng.uniform(size=(64, 3))
        distances = hilbert_distances(pts, bits=1)
        # A 2x2x2 lattice: every index fits in 3 bits and all 8 occur for a
        # dense enough cloud.
        assert int(distances.max()) < 8
        assert len(set(distances.tolist())) == 8

    def test_bits_20_extreme(self, rng):
        pts = rng.uniform(size=(200, 3))
        distances = hilbert_distances(pts, bits=20)
        # 60-bit indices stay inside uint64 and distinct points stay distinct.
        assert distances.dtype == np.uint64
        assert int(distances.max()) < 1 << 60
        assert len(set(distances.tolist())) == len(pts)
        # The corners of the bounding cube quantise to the lattice extremes
        # without overflow.
        corners = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        corner_distances = hilbert_distances(np.vstack([pts, corners]), bits=20)
        assert int(corner_distances.max()) < 1 << 60

    def test_bits_out_of_range(self):
        with pytest.raises(GeometryError):
            hilbert_distances(np.zeros((2, 3)), bits=21)

    def test_coplanar_cloud(self, rng):
        pts = rng.uniform(size=(100, 3))
        pts[:, 2] = 0.25  # zero span on z: the span guard must not divide by 0
        distances = hilbert_distances(pts, bits=8)
        assert distances.shape == (100,)
        assert np.all(np.isfinite(pts))  # nothing was mutated
        # Locality still holds within the plane.
        order = hilbert_sort_order(pts, bits=8)
        assert np.array_equal(np.sort(order), np.arange(100))

    def test_collinear_cloud(self):
        t = np.linspace(0.0, 1.0, 33)
        pts = np.stack([t, np.full_like(t, 0.5), np.full_like(t, -2.0)], axis=1)
        distances = hilbert_distances(pts, bits=6)
        # The 3-D curve folds even on a line, so the order is not monotone in
        # x — but locality must survive: Hilbert-adjacent points are far
        # closer in x than a shuffled order's, and distinct points stay
        # distinct.
        order = hilbert_sort_order(pts, bits=6)
        hilbert_gap = np.abs(np.diff(pts[order, 0])).mean()
        shuffled = np.random.default_rng(0).permutation(len(pts))
        shuffled_gap = np.abs(np.diff(pts[shuffled, 0])).mean()
        assert hilbert_gap < shuffled_gap / 2
        assert len(set(distances.tolist())) == len(pts)

    def test_single_point(self):
        pts = np.array([[0.3, -1.2, 4.5]])
        distances = hilbert_distances(pts, bits=10)
        assert distances.shape == (1,)

    def test_identical_points_share_an_index(self):
        pts = np.tile([[0.5, 0.5, 0.5]], (7, 1))
        distances = hilbert_distances(pts, bits=10)
        assert len(set(distances.tolist())) == 1

    def test_sort_order_tie_break_is_original_id(self):
        # Duplicate coordinates collide on the lattice; the stable argsort
        # must keep them in original-id order, deterministically.
        pts = np.array(
            [[0.9, 0.9, 0.9], [0.1, 0.1, 0.1], [0.9, 0.9, 0.9], [0.1, 0.1, 0.1]]
        )
        order = hilbert_sort_order(pts, bits=4)
        distances = hilbert_distances(pts, bits=4)
        for value in set(distances.tolist()):
            group = order[distances[order] == value]
            assert np.all(np.diff(group) > 0)
        assert np.array_equal(order, hilbert_sort_order(pts.copy(), bits=4))


class TestLayouts:
    def test_hilbert_layout_preserves_mesh(self, grid_mesh):
        laid_out = hilbert_layout(grid_mesh)
        assert laid_out.n_vertices == grid_mesh.n_vertices
        assert laid_out.n_cells == grid_mesh.n_cells
        # Same multiset of coordinates and same total volume.
        assert np.allclose(
            np.sort(laid_out.vertices.ravel()), np.sort(grid_mesh.vertices.ravel())
        )
        assert laid_out.total_volume() == pytest.approx(grid_mesh.total_volume())

    def test_hilbert_layout_improves_locality_over_shuffled(self, grid_mesh):
        shuffled = random_layout(grid_mesh, seed=1)
        improved = hilbert_layout(shuffled)
        assert layout_locality_score(improved) < layout_locality_score(shuffled)

    def test_random_layout_differs(self, grid_mesh):
        shuffled = random_layout(grid_mesh, seed=2)
        assert not np.allclose(shuffled.vertices, grid_mesh.vertices)

    def test_locality_score_empty_adjacency(self):
        from repro.mesh import TetrahedralMesh

        mesh = TetrahedralMesh(np.zeros((3, 3)), np.empty((0, 4), dtype=np.int64))
        assert layout_locality_score(mesh) == 0.0


class TestRelabelWithRestructuring:
    """Regression: a vertex layout composed with split_cells tail-splices.

    The append-only topology contract says restructuring appends new vertices
    after the existing ids.  A layout renames every id up front, so the
    renamed ids must be just as canonical: splits append their centroids
    after the *renamed* ids and connectivity caches rebuild correctly.
    """

    def test_split_after_relabel_appends_canonical_tail(self, grid_mesh):
        from repro.simulation import split_cells_inplace

        mesh = hilbert_layout(grid_mesh.copy())
        _ = (mesh.adjacency, mesh.surface)  # warm the caches the split must drop
        n_before = mesh.n_vertices
        event = split_cells_inplace(mesh, np.array([0, 5, 17]))
        assert mesh.n_vertices == n_before + 3
        assert np.array_equal(
            event.delta.added_vertex_ids(), np.arange(n_before, n_before + 3)
        )
        rebuilt = AdjacencyList.from_cells(mesh.n_vertices, mesh.cells)
        assert np.array_equal(mesh.adjacency.indptr, rebuilt.indptr)
        assert np.array_equal(mesh.adjacency.indices, rebuilt.indices)

    def test_queries_agree_across_layouts_under_restructuring(self, grid_mesh):
        """Same geometry in, same geometry out, whatever the layout."""
        from repro.factory import build_strategy
        from repro.mesh import Box3D
        from repro.simulation import split_cells_inplace

        box = Box3D((0.11, 0.11, 0.11), (0.72, 0.72, 0.72))
        result_positions = []
        for mesh in (grid_mesh.copy(), hilbert_layout(grid_mesh), random_layout(grid_mesh, seed=5)):
            strategy = build_strategy("octopus")
            strategy.prepare(mesh)
            event = split_cells_inplace(mesh, np.array([3, 11, 40]))
            strategy.on_restructure(event.delta)
            ids = strategy.query(box).vertex_ids
            result_positions.append(np.sort(mesh.vertices[ids].ravel()))
        assert np.allclose(result_positions[0], result_positions[1])
        assert np.allclose(result_positions[0], result_positions[2])
