"""Tests for repro.mesh.adjacency (CSR adjacency lists)."""

import numpy as np
import pytest
from seed_families import parity_seed_family

from repro.errors import MeshConnectivityError
from repro.mesh.adjacency import AdjacencyList, edges_from_cells, row_keys

PARITY_SEEDS = parity_seed_family()


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

    def test_empty_cells(self):
        assert edges_from_cells(np.empty((0, 4))).shape == (0, 2)

    # Only tetrahedra: triangles, hexahedra and any other width are refused.
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 8])
    def test_unsupported_arity_raises(self, width):
        with pytest.raises(MeshConnectivityError, match=f"unsupported cell arity {width}"):
            edges_from_cells(np.arange(width).reshape(1, width))

    def test_cells_must_be_two_dimensional(self):
        with pytest.raises(MeshConnectivityError, match="2-D"):
            edges_from_cells(np.arange(4))


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


# ----------------------------------------------------------------------
# key builds against the row-wise reference
# ----------------------------------------------------------------------
_TET_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def reference_edges(cells):
    """The row-wise build the key build replaced: ``np.unique(axis=0)``."""
    cells = np.asarray(cells, dtype=np.int64)
    pairs = cells[:, _TET_EDGES].reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def reference_csr(n_vertices, edges):
    """Row-wise ``from_edges``: unique rows, symmetrise, ``lexsort``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    unique = np.unique(np.stack([lo, hi], axis=1), axis=0)
    src = np.concatenate([unique[:, 0], unique[:, 1]])
    dst = np.concatenate([unique[:, 1], unique[:, 0]])
    order = np.lexsort((dst, src))
    counts = np.bincount(src[order], minlength=n_vertices)
    return np.concatenate([[0], np.cumsum(counts)]), dst[order]


def random_cells(rng, n_vertices, n_cells):
    """Random tetrahedra with repeated cells, reordered repeats and self-loop pairs."""
    cells = rng.integers(0, n_vertices, size=(n_cells, 4))
    repeats = cells[rng.integers(0, n_cells, size=n_cells // 4)]
    reordered = rng.permuted(cells[rng.integers(0, n_cells, size=n_cells // 4)], axis=1)
    degenerate = cells[: n_cells // 8].copy()
    degenerate[:, 1] = degenerate[:, 0]
    return np.vstack([cells, repeats, reordered, degenerate])


def assert_same_csr(adjacency, reference):
    indptr, indices = reference
    assert adjacency.indptr.dtype == indptr.dtype and adjacency.indices.dtype == indices.dtype
    assert adjacency.indices.flags.c_contiguous  # the crawl gathers from it
    assert np.array_equal(adjacency.indptr, indptr)
    assert np.array_equal(adjacency.indices, indices)


class TestKeyBuildsMatchRowReference:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_cells(self, seed):
        rng = np.random.default_rng([seed, 4])
        for n_vertices in (2, 9, 60, 5000):
            cells = random_cells(rng, n_vertices, 200)
            edges = edges_from_cells(cells)
            assert edges.dtype == np.int64
            assert np.array_equal(edges, reference_edges(cells))
            assert_same_csr(
                AdjacencyList.from_cells(n_vertices, cells),
                reference_csr(n_vertices, reference_edges(cells)),
            )

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_edges(self, seed):
        rng = np.random.default_rng([seed, 2])
        n_vertices = 300
        edges = rng.integers(0, n_vertices, size=(2000, 2))
        loops = np.repeat(rng.integers(0, n_vertices, size=(50, 1)), 2, axis=1)
        edges = np.vstack([edges, edges[:500, ::-1], edges[:300], loops])
        rng.shuffle(edges)
        assert_same_csr(
            AdjacencyList.from_edges(n_vertices, edges), reference_csr(n_vertices, edges)
        )
        assert_same_csr(AdjacencyList.from_edges(4, np.empty((0, 2))), reference_csr(4, []))

    @pytest.mark.parametrize(
        "fixture", ["grid_mesh", "neuron_small", "earthquake_small", "delaunay_small"]
    )
    def test_generator_meshes(self, fixture, request):
        mesh = request.getfixturevalue(fixture)
        assert np.array_equal(edges_from_cells(mesh.cells), reference_edges(mesh.cells))
        assert_same_csr(
            AdjacencyList.from_cells(mesh.n_vertices, mesh.cells),
            reference_csr(mesh.n_vertices, reference_edges(mesh.cells)),
        )

    def test_edge_keys_past_int64_take_the_row_path(self):
        # An edge key needs n**2 <= 2**63, i.e. ids below about 3.04e9.
        cells = np.array([[0, 1, 2, 3_500_000_000], [1, 2, 3_500_000_000, 7]])
        assert row_keys(reference_edges(cells)) is None
        assert np.array_equal(edges_from_cells(cells), reference_edges(cells))

    def test_row_keys_bounds(self):
        assert row_keys(np.array([[0, 2**21 - 1, 5]])) is not None
        assert row_keys(np.array([[0, 2**21, 5]])) is None
        assert row_keys(np.array([[0, 1, 2, 55_107]])) is not None
        assert row_keys(np.array([[0, 1, 2, 55_108]])) is None
        assert row_keys(np.array([[-1, 2]])) is None

