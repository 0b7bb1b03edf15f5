"""Tests for repro.mesh.adjacency (CSR adjacency lists)."""

import numpy as np
import pytest

from repro.errors import MeshConnectivityError
from repro.mesh.adjacency import AdjacencyList, edges_from_cells


def simple_tet_cells():
    """Two tetrahedra sharing a face: vertices 0-4."""
    return np.array([[0, 1, 2, 3], [1, 2, 3, 4]], dtype=np.int64)


class TestEdgesFromCells:
    def test_single_tetrahedron_has_six_edges(self):
        edges = edges_from_cells(np.array([[0, 1, 2, 3]]))
        assert edges.shape == (6, 3 - 1)
        assert {tuple(e) for e in edges.tolist()} == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        }

    def test_shared_face_edges_deduplicated(self):
        edges = edges_from_cells(simple_tet_cells())
        # 6 + 6 edges with 3 shared (the shared face 1-2-3) -> 9 unique.
        assert edges.shape[0] == 9

    def test_triangle_cells(self):
        edges = edges_from_cells(np.array([[0, 1, 2]]))
        assert {tuple(e) for e in edges.tolist()} == {(0, 1), (0, 2), (1, 2)}

    def test_hexahedron_has_twelve_edges(self):
        edges = edges_from_cells(np.arange(8).reshape(1, 8))
        assert edges.shape[0] == 12

    def test_empty_cells(self):
        assert edges_from_cells(np.empty((0, 4))).shape == (0, 2)

    def test_unsupported_arity_raises(self):
        with pytest.raises(MeshConnectivityError):
            edges_from_cells(np.array([[0, 1, 2, 3, 4]]))


class TestAdjacencyConstruction:
    def test_from_edges_symmetric(self):
        adj = AdjacencyList.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        assert adj.n_vertices == 4
        assert adj.n_edges == 3
        assert set(adj.neighbors(1).tolist()) == {0, 2}
        assert set(adj.neighbors(0).tolist()) == {1}

    def test_from_edges_removes_duplicates_and_self_loops(self):
        adj = AdjacencyList.from_edges(3, np.array([[0, 1], [1, 0], [1, 1], [1, 2]]))
        assert adj.n_edges == 2
        assert set(adj.neighbors(1).tolist()) == {0, 2}

    def test_from_edges_out_of_range_raises(self):
        with pytest.raises(MeshConnectivityError):
            AdjacencyList.from_edges(2, np.array([[0, 5]]))

    def test_from_cells(self):
        adj = AdjacencyList.from_cells(5, simple_tet_cells())
        assert adj.n_vertices == 5
        assert adj.n_edges == 9
        # vertex 1 connects to 0, 2, 3, 4
        assert set(adj.neighbors(1).tolist()) == {0, 2, 3, 4}
        # vertex 0 connects only to its own tetrahedron's vertices
        assert set(adj.neighbors(0).tolist()) == {1, 2, 3}

    def test_from_neighbor_lists(self):
        adj = AdjacencyList.from_neighbor_lists([[1], [0, 2], [1]])
        assert adj.degree(1) == 2
        assert adj.degree(0) == 1

    def test_invalid_indptr_raises(self):
        with pytest.raises(MeshConnectivityError):
            AdjacencyList(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(MeshConnectivityError):
            AdjacencyList(np.array([0, 2, 1]), np.array([0, 1]))


class TestAdjacencyAccess:
    def test_degrees_and_average(self):
        adj = AdjacencyList.from_cells(5, simple_tet_cells())
        degrees = adj.degrees()
        assert degrees.sum() == 2 * adj.n_edges
        assert adj.average_degree() == pytest.approx(degrees.mean())

    def test_isolated_vertex_has_zero_degree(self):
        adj = AdjacencyList.from_edges(3, np.array([[0, 1]]))
        assert adj.degree(2) == 0
        assert adj.neighbors(2).size == 0

    def test_len_and_iter(self):
        adj = AdjacencyList.from_edges(3, np.array([[0, 1], [1, 2]]))
        assert len(adj) == 3
        neighbor_sets = [set(n.tolist()) for n in adj]
        assert neighbor_sets == [{1}, {0, 2}, {1}]

    def test_memory_bytes_positive(self):
        adj = AdjacencyList.from_cells(5, simple_tet_cells())
        assert adj.memory_bytes() > 0
