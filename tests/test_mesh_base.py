"""Tests for repro.mesh.base.PolyhedralMesh (lifecycle, caching, versioning)."""

import numpy as np
import pytest

from repro.errors import MeshConnectivityError, MeshError
from repro.mesh import Box3D, TetrahedralMesh


def two_tet_mesh():
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return TetrahedralMesh(vertices, cells, name="two-tets")


class TestConstruction:
    def test_basic_properties(self):
        mesh = two_tet_mesh()
        assert mesh.n_vertices == 5
        assert mesh.n_cells == 2
        assert len(mesh) == 5
        assert mesh.name == "two-tets"
        assert mesh.primitive == "tetrahedron"

    def test_rejects_bad_vertex_shape(self):
        with pytest.raises(MeshError):
            TetrahedralMesh(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]))

    def test_rejects_wrong_cell_arity(self):
        with pytest.raises(MeshError):
            TetrahedralMesh(np.zeros((4, 3)), np.array([[0, 1, 2]]))

    def test_rejects_out_of_range_cells(self):
        with pytest.raises(MeshConnectivityError):
            TetrahedralMesh(np.zeros((3, 3)), np.array([[0, 1, 2, 7]]))

    def test_empty_cells_allowed(self):
        mesh = TetrahedralMesh(np.zeros((3, 3)), np.empty((0, 4), dtype=np.int64))
        assert mesh.n_cells == 0


class TestConnectivityCaches:
    def test_adjacency_and_surface_cached(self):
        mesh = two_tet_mesh()
        assert mesh.adjacency is mesh.adjacency
        assert mesh.surface is mesh.surface

    def test_mesh_degree_and_surface_ratio(self):
        mesh = two_tet_mesh()
        assert mesh.mesh_degree() == pytest.approx(2 * 9 / 5)
        assert mesh.surface_to_volume_ratio() == pytest.approx(1.0)

    def test_restructure_invalidates_caches_and_bumps_version(self):
        mesh = two_tet_mesh()
        _ = mesh.adjacency
        _ = mesh.surface
        version = mesh.connectivity_version
        mesh.restructure(mesh.vertices, np.array([[0, 1, 2, 3]]))
        assert mesh.connectivity_version == version + 1
        assert mesh.n_cells == 1
        assert set(mesh.surface_vertices().tolist()) == {0, 1, 2, 3}

    def test_restructure_validates(self):
        mesh = two_tet_mesh()
        with pytest.raises(MeshConnectivityError):
            mesh.restructure(mesh.vertices, np.array([[0, 1, 2, 9]]))
        with pytest.raises(MeshError):
            mesh.restructure(mesh.vertices, np.array([[0, 1, 2]]))


class TestGeometryUpdates:
    def test_set_positions_in_place(self):
        mesh = two_tet_mesh()
        original_array = mesh.vertices
        new_positions = mesh.vertices + 1.0
        version = mesh.geometry_version
        mesh.set_positions(new_positions)
        assert mesh.vertices is original_array          # in-place overwrite
        assert np.allclose(mesh.vertices, new_positions)
        assert mesh.geometry_version == version + 1
        # with vertex ids only those rows are overwritten
        mesh.set_positions(np.zeros((2, 3)), np.array([0, 3]))
        assert np.array_equal(mesh.vertices[[0, 3]], np.zeros((2, 3)))
        assert np.array_equal(mesh.vertices[[1, 2, 4]], new_positions[[1, 2, 4]])
        assert mesh.geometry_version == version + 2

    def test_set_positions_shape_mismatch(self):
        mesh = two_tet_mesh()
        with pytest.raises(MeshError):
            mesh.set_positions(np.zeros((3, 3)))
        with pytest.raises(MeshError):
            mesh.set_positions(np.zeros((3, 3)), np.array([0, 1]))
        with pytest.raises(MeshError):
            mesh.set_positions(np.zeros((1, 3)), np.array([mesh.n_vertices]))

    def test_displace(self):
        mesh = two_tet_mesh()
        before = mesh.vertices.copy()
        mesh.displace(np.full_like(before, 0.25))
        assert np.allclose(mesh.vertices, before + 0.25)

    def test_deformation_does_not_touch_connectivity_version(self):
        mesh = two_tet_mesh()
        version = mesh.connectivity_version
        mesh.displace(np.ones_like(mesh.vertices))
        assert mesh.connectivity_version == version


class TestDerivedGeometry:
    def test_bounding_box(self):
        mesh = two_tet_mesh()
        box = mesh.bounding_box()
        assert isinstance(box, Box3D)
        assert np.allclose(box.lo, [0, 0, 0])
        assert np.allclose(box.hi, [1, 1, 1])

    def test_cell_centroids(self):
        mesh = two_tet_mesh()
        centroids = mesh.cell_centroids()
        assert centroids.shape == (2, 3)
        assert np.allclose(centroids[0], mesh.vertices[[0, 1, 2, 3]].mean(axis=0))

    def test_connected_components_single(self):
        mesh = two_tet_mesh()
        components = mesh.connected_components()
        assert len(components) == 1
        assert components[0].tolist() == [0, 1, 2, 3, 4]

    def test_connected_components_disjoint(self):
        vertices = np.zeros((8, 3))
        vertices[4:] += 10.0
        cells = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        mesh = TetrahedralMesh(vertices, cells)
        components = mesh.connected_components()
        assert len(components) == 2

    def test_memory_bytes(self):
        mesh = two_tet_mesh()
        base = mesh.memory_bytes()
        _ = mesh.adjacency
        assert mesh.memory_bytes() > base


class TestCopiesAndReordering:
    def test_copy_is_independent(self):
        mesh = two_tet_mesh()
        clone = mesh.copy()
        clone.displace(np.ones_like(clone.vertices))
        assert not np.allclose(mesh.vertices, clone.vertices)
        assert np.array_equal(mesh.cells, clone.cells)

    def test_with_vertex_order_preserves_geometry(self):
        mesh = two_tet_mesh()
        new_ids = np.array([4, 3, 2, 1, 0])
        reordered = mesh.with_vertex_order(new_ids)
        # Old vertex v is now at index new_ids[v]; same coordinates.
        for old_id, new_id in enumerate(new_ids):
            assert np.allclose(reordered.vertices[new_id], mesh.vertices[old_id])
        # Cell volumes are invariant under renaming.
        assert np.allclose(np.sort(reordered.cell_volumes()), np.sort(mesh.cell_volumes()))

    def test_with_vertex_order_requires_permutation(self):
        mesh = two_tet_mesh()
        with pytest.raises(MeshError):
            mesh.with_vertex_order(np.array([0, 0, 1, 2, 3]))

    def test_empty_mesh_errors(self):
        mesh = TetrahedralMesh(np.empty((0, 3)), np.empty((0, 4), dtype=np.int64))
        with pytest.raises(MeshError):
            mesh.bounding_box()
        with pytest.raises(MeshError):
            mesh.surface_to_volume_ratio()
