"""Tests for convexity checks, mesh validation and mesh I/O."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from repro.errors import MeshError
from repro.generators import structured_tetrahedral_mesh
from repro.mesh import convexity
from repro.mesh import (
    TetrahedralMesh,
    convexity_defect,
    density_statistics,
    load_mesh,
    mesh_is_convex,
    quality_statistics,
    save_mesh,
    validate_mesh,
)


class TestConvexity:
    def test_grid_mesh_is_convex(self, grid_mesh):
        assert mesh_is_convex(grid_mesh)
        assert convexity_defect(grid_mesh) < 1e-6

    def test_earthquake_mesh_is_convex(self, earthquake_small):
        assert mesh_is_convex(earthquake_small)

    def test_neuron_mesh_is_not_convex(self, neuron_small):
        assert not mesh_is_convex(neuron_small)
        assert convexity_defect(neuron_small) > 0.01

    def test_l_shaped_mesh_is_not_convex(self):
        # Two cubes sharing an edge region form an L: clearly concave.
        a = structured_tetrahedral_mesh((2, 2, 2))
        vertices = a.vertices.copy()
        shifted = vertices + np.array([1.0, 0.0, 1.0])
        all_vertices = np.vstack([vertices, shifted])
        all_cells = np.vstack([a.cells, a.cells + a.n_vertices])
        mesh = TetrahedralMesh(all_vertices, all_cells)
        assert not mesh_is_convex(mesh)

    def test_affine_transform_preserves_convexity(self, earthquake_small):
        mesh = earthquake_small.copy()
        matrix = np.array([[1.2, 0.1, 0.0], [0.0, 0.9, 0.05], [0.0, 0.0, 1.1]])
        mesh.set_positions(mesh.vertices @ matrix.T)
        assert mesh_is_convex(mesh)

    def test_empty_mesh_raises(self):
        mesh = TetrahedralMesh(np.empty((0, 3)), np.empty((0, 4), dtype=np.int64))
        with pytest.raises(MeshError):
            mesh_is_convex(mesh)


def _dense_hull_facet_distances(points, surface_points):
    """The reference: every surface point against every hull facet in one matrix."""
    equations = ConvexHull(points).equations
    return -(surface_points @ equations[:, :3].T + equations[:, 3]).max(axis=1), equations


class TestHullFacetDistances:
    @pytest.mark.parametrize("mesh_fixture", ["earthquake_small", "neuron_small"])
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_chunked_rows_match_the_dense_matrix(self, request, monkeypatch, mesh_fixture, chunk):
        mesh = request.getfixturevalue(mesh_fixture)
        if chunk is not None:
            monkeypatch.setattr(convexity, "box_batch_chunk", lambda n_facets: chunk)
        surface = mesh.vertices[mesh.surface_vertices()]
        dense, equations = _dense_hull_facet_distances(mesh.vertices, surface)
        # One dot product of three terms plus an offset per entry: BLAS may
        # round differently for another row count, by a few ulps of the
        # largest term, and by nothing more.
        scale = np.abs(surface).sum(axis=1).max() + np.abs(equations[:, 3]).max()
        atol = 8 * np.finfo(np.float64).eps * scale
        chunked = convexity._hull_facet_distances(mesh.vertices, surface)
        np.testing.assert_allclose(chunked, dense, rtol=0, atol=atol)


class TestValidation:
    def test_valid_grid(self, grid_mesh):
        report = validate_mesh(grid_mesh)
        assert report.is_valid
        assert report.n_components == 1
        assert not report.issues

    def test_detects_isolated_vertices(self):
        vertices = np.vstack([np.eye(3), [[1, 1, 1]], [[9, 9, 9]]])
        mesh = TetrahedralMesh(vertices, np.array([[0, 1, 2, 3]]))
        report = validate_mesh(mesh)
        assert not report.is_valid
        assert report.n_isolated_vertices == 1

    def test_detects_duplicate_and_degenerate_cells(self):
        vertices = np.vstack([np.eye(3), [[1, 1, 1]]])
        cells = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 0, 1, 2]])
        report = validate_mesh(mesh := TetrahedralMesh(vertices, cells))
        assert not report.is_valid
        assert report.n_duplicate_cells >= 1
        assert report.n_degenerate_cells == 1
        assert mesh.n_cells == 3

    def test_detects_non_finite_positions(self, grid_mesh):
        mesh = grid_mesh.copy()
        mesh.vertices[0, 0] = np.nan
        report = validate_mesh(mesh)
        assert not report.is_valid

    def test_density_statistics(self, grid_mesh):
        ids = np.arange(10)
        stats = density_statistics(grid_mesh, ids, region_volume=0.5)
        assert stats["n_vertices"] == 10
        assert stats["density"] == pytest.approx(20.0)
        assert stats["mean_degree"] > 0
        assert density_statistics(grid_mesh, np.empty(0, int), 1.0)["n_vertices"] == 0
        with pytest.raises(MeshError):
            density_statistics(grid_mesh, ids, region_volume=0.0)

    def test_quality_statistics(self, grid_mesh):
        stats = quality_statistics(grid_mesh)
        assert stats["n_cells"] == grid_mesh.n_cells
        assert stats["n_inverted"] == 0
        assert stats["max_aspect_ratio"] >= stats["mean_aspect_ratio"] >= 1.0
        subset = quality_statistics(grid_mesh, np.array([0, 1, 2]))
        assert subset["n_cells"] == 3


class TestMeshIO:
    def test_save_and_load_roundtrip(self, tmp_path, neuron_small):
        path = save_mesh(neuron_small, tmp_path / "mesh.npz")
        loaded = load_mesh(path)
        assert type(loaded) is type(neuron_small)
        assert np.allclose(loaded.vertices, neuron_small.vertices)
        assert np.array_equal(loaded.cells, neuron_small.cells)
        assert loaded.name == neuron_small.name

    @pytest.mark.parametrize("fixture", ["grid_mesh", "earthquake_small", "delaunay_small"])
    def test_roundtrip_keeps_positions_and_connectivity(self, tmp_path, fixture, request):
        mesh = request.getfixturevalue(fixture)
        loaded = load_mesh(save_mesh(mesh, tmp_path / f"{fixture}.npz"))
        assert loaded.primitive == "tetrahedron"
        assert np.array_equal(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.cells, mesh.cells)
        assert np.array_equal(loaded.surface_vertices(), mesh.surface_vertices())
        assert np.array_equal(loaded.adjacency.indices, mesh.adjacency.indices)

    def test_empty_mesh_roundtrip(self, tmp_path):
        empty = TetrahedralMesh(np.empty((0, 3)), np.empty((0, 4), dtype=np.int64), name="empty")
        loaded = load_mesh(save_mesh(empty, tmp_path / "empty.npz"))
        assert loaded.n_vertices == loaded.n_cells == 0
        assert loaded.name == "empty"

    def test_suffix_is_appended_and_reported(self, tmp_path, grid_mesh):
        path = save_mesh(grid_mesh, tmp_path / "nested" / "mesh")
        assert path == tmp_path / "nested" / "mesh.npz" and path.is_file()
        assert np.array_equal(load_mesh(path).cells, grid_mesh.cells)

    @pytest.mark.parametrize("primitive", ["hexahedron", "triangle", "quad", "tetra", ""])
    def test_load_rejects_other_primitives(self, tmp_path, grid_mesh, primitive):
        # The format still records the primitive; only tetrahedra load.
        path = tmp_path / "other.npz"
        np.savez_compressed(
            path,
            vertices=grid_mesh.vertices,
            cells=grid_mesh.cells,
            primitive=np.asarray(primitive),
            name=np.asarray("other"),
        )
        with pytest.raises(MeshError, match=f"unknown mesh primitive {primitive!r}"):
            load_mesh(path)
