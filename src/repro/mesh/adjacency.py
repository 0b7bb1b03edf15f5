"""Compressed sparse row (CSR) vertex adjacency.

The paper stores the mesh as an adjacency list: for each vertex, its position
plus pointers to the vertices it shares an edge with.  :class:`AdjacencyList`
is the NumPy analogue — two integer arrays, ``indptr`` and ``indices`` — which
gives O(1) neighbour slicing (the crawl's inner loop) and a predictable memory
footprint that the experiment harness can account for.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import MeshConnectivityError

__all__ = ["AdjacencyList", "csr_gather", "edges_from_cells"]


def csr_gather(
    offsets: np.ndarray,
    values: np.ndarray,
    keys: np.ndarray,
    ramp: "Callable[[int], np.ndarray] | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR slices ``values[offsets[k]:offsets[k + 1]]`` per key.

    One vectorised flat-gather instead of a Python loop over ``keys``: the
    inner loop of the crawl's frontier expansion and of the grid's batched
    candidate gathering.  Returns ``(gathered, counts)`` where ``counts[i]``
    is the slice length of ``keys[i]`` (so ``gathered`` splits back per key
    with ``np.cumsum(counts)``).  ``ramp`` may supply a reusable identity
    ramp (``0, 1, ..., total - 1``) as a callable mapping the needed length
    to one (e.g. ``CrawlScratch.iota``) to avoid the ``np.arange``
    allocation.
    """
    starts = offsets[keys]
    counts = offsets[keys + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype), counts
    base = np.arange(total, dtype=np.int64) if ramp is None else ramp(total)
    owner = np.repeat(np.arange(keys.size), counts)
    inner = base - np.repeat(np.cumsum(counts) - counts, counts)
    return values[starts[owner] + inner], counts

# Vertex-pair index offsets that enumerate the edges of the supported
# polyhedral primitives, expressed against the cell's vertex tuple.
_TETRAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)
_HEXAHEDRON_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),          # bottom face
    (4, 5), (5, 6), (6, 7), (7, 4),          # top face
    (0, 4), (1, 5), (2, 6), (3, 7),          # vertical edges
)
_TRIANGLE_EDGES = ((0, 1), (1, 2), (2, 0))

_EDGE_PATTERNS = {
    3: _TRIANGLE_EDGES,
    4: _TETRAHEDRON_EDGES,
    8: _HEXAHEDRON_EDGES,
}


class AdjacencyList:
    """Immutable CSR adjacency structure over ``n_vertices`` vertices.

    Parameters
    ----------
    indptr:
        ``(n_vertices + 1,)`` int array; neighbours of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Flat int array of neighbour vertex ids.
    """

    __slots__ = ("indptr", "indices", "n_vertices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise MeshConnectivityError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise MeshConnectivityError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise MeshConnectivityError("indptr must be non-decreasing")
        n_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n_vertices):
            raise MeshConnectivityError("neighbour ids out of range")
        self.indptr = indptr
        self.indices = indices
        self.n_vertices = n_vertices

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n_vertices: int, edges: np.ndarray) -> "AdjacencyList":
        """Build a symmetric adjacency from an ``(m, 2)`` array of undirected edges.

        Duplicate edges and self loops are removed.
        """
        edge_arr = np.asarray(edges, dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise MeshConnectivityError("edges must be an (m, 2) array")
        if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n_vertices):
            raise MeshConnectivityError("edge endpoints out of range")
        # Drop self loops and canonicalise before deduplication.
        keep = edge_arr[:, 0] != edge_arr[:, 1]
        edge_arr = edge_arr[keep]
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        unique = np.unique(np.stack([lo, hi], axis=1), axis=0) if edge_arr.size else edge_arr
        # Symmetrise: each undirected edge produces two directed entries.
        if unique.size:
            src = np.concatenate([unique[:, 0], unique[:, 1]])
            dst = np.concatenate([unique[:, 1], unique[:, 0]])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        # Canonical CSR form: each row's neighbours sorted ascending, so the
        # CSR is a function of the edge set alone and every build of the same
        # connectivity (and its downstream tie-breaking) is identical.
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        counts = np.bincount(src, minlength=n_vertices)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(indptr, dst)

    @classmethod
    def from_cells(cls, n_vertices: int, cells: np.ndarray) -> "AdjacencyList":
        """Build the adjacency implied by the edges of polyhedral cells.

        ``cells`` is an ``(m, k)`` array where ``k`` is 3 (triangles),
        4 (tetrahedra) or 8 (hexahedra).
        """
        edges = edges_from_cells(cells)
        return cls.from_edges(n_vertices, edges)

    @classmethod
    def from_neighbor_lists(cls, neighbor_lists: Sequence[Iterable[int]]) -> "AdjacencyList":
        """Build an adjacency from one iterable of neighbour ids per vertex."""
        indptr = np.zeros(len(neighbor_lists) + 1, dtype=np.int64)
        chunks = []
        for i, neighbors in enumerate(neighbor_lists):
            arr = np.asarray(list(neighbors), dtype=np.int64)
            chunks.append(arr)
            indptr[i + 1] = indptr[i] + arr.size
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return cls(indptr, indices)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the neighbour ids of ``vertex`` as a view into ``indices``."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Number of neighbours of ``vertex``."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def degrees(self) -> np.ndarray:
        """Array of vertex degrees."""
        return np.diff(self.indptr)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def average_degree(self) -> float:
        """Mean number of neighbours per vertex (the paper's mesh degree M)."""
        if self.n_vertices == 0:
            return 0.0
        return float(self.indices.size / self.n_vertices)

    def __len__(self) -> int:
        return self.n_vertices

    def __iter__(self) -> Iterator[np.ndarray]:
        for v in range(self.n_vertices):
            yield self.neighbors(v)

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes)


def edges_from_cells(cells: np.ndarray) -> np.ndarray:
    """Expand polyhedral cells into their unique undirected edges.

    Supports triangles (3 vertices), tetrahedra (4) and hexahedra (8).
    """
    cell_arr = np.asarray(cells, dtype=np.int64)
    if cell_arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if cell_arr.ndim != 2:
        raise MeshConnectivityError("cells must be a 2-D array")
    k = cell_arr.shape[1]
    if k not in _EDGE_PATTERNS:
        raise MeshConnectivityError(f"unsupported cell arity {k}; expected 3, 4 or 8")
    pattern = np.asarray(_EDGE_PATTERNS[k], dtype=np.int64)
    edges = cell_arr[:, pattern]          # (m, n_edges_per_cell, 2)
    edges = edges.reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)
