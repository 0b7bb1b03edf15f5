"""Tests for the concrete mesh type: tetrahedral."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.generators import structured_tetrahedral_mesh
from repro.mesh import TetrahedralMesh


def unit_tetrahedron():
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return TetrahedralMesh(vertices, np.array([[0, 1, 2, 3]]))


class TestTetrahedralMesh:
    def test_cell_volume_unit_tetrahedron(self):
        mesh = unit_tetrahedron()
        assert mesh.cell_volumes()[0] == pytest.approx(1.0 / 6.0)
        assert mesh.total_volume() == pytest.approx(1.0 / 6.0)

    def test_signed_volume_detects_inversion(self):
        vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -1]], dtype=float)
        mesh = TetrahedralMesh(vertices, np.array([[0, 1, 2, 3]]))
        assert mesh.cell_volumes(signed=True)[0] < 0
        assert mesh.inverted_cells().tolist() == [0]
        assert mesh.cell_volumes()[0] > 0

    def test_grid_total_volume_matches_unit_cube(self, grid_mesh):
        assert grid_mesh.total_volume() == pytest.approx(1.0, rel=1e-9)

    def test_edge_lengths_positive(self, grid_mesh):
        lengths = grid_mesh.edge_lengths()
        assert lengths.shape[0] == grid_mesh.adjacency.n_edges
        assert np.all(lengths > 0)

    def test_aspect_ratios_regular_grid_bounded(self, grid_mesh):
        ratios = grid_mesh.aspect_ratios()
        assert np.all(ratios >= 1.0)
        assert np.all(ratios < 2.0)   # Kuhn tets in a uniform grid: sqrt(3) max

    def test_characterize_keys(self, grid_mesh):
        row = grid_mesh.characterize()
        assert set(row) >= {
            "name", "n_tetrahedra", "n_vertices", "mesh_degree", "surface_to_volume"
        }
        assert row["n_tetrahedra"] == grid_mesh.n_cells

    def test_characterize_empty_raises(self):
        mesh = TetrahedralMesh(np.empty((0, 3)), np.empty((0, 4), dtype=np.int64))
        with pytest.raises(MeshError):
            mesh.characterize()

    def test_empty_mesh_volume_arrays(self):
        mesh = TetrahedralMesh(np.zeros((4, 3)), np.empty((0, 4), dtype=np.int64))
        assert mesh.cell_volumes().size == 0
        assert mesh.aspect_ratios().size == 0


class TestStructuredGridDegrees:
    def test_tet_grid_interior_degree_is_fourteen(self):
        mesh = structured_tetrahedral_mesh((4, 4, 4))
        surface = set(mesh.surface_vertices().tolist())
        interior = [v for v in range(mesh.n_vertices) if v not in surface]
        degrees = mesh.adjacency.degrees()
        assert interior
        assert all(degrees[v] == 14 for v in interior)
