"""Compressed sparse row (CSR) vertex adjacency.

The paper stores the mesh as an adjacency list: for each vertex, its position
plus pointers to the vertices it shares an edge with.  :class:`AdjacencyList`
is the NumPy analogue — two integer arrays, ``indptr`` and ``indices`` — which
gives O(1) neighbour slicing (the crawl's inner loop) and a predictable memory
footprint that the experiment harness can account for.

The builds sort one int64 key per row instead of the rows themselves (see
:func:`row_keys`): NumPy's row-wise ``np.unique(axis=0)`` sorts a structured
view of the rows and is an order of magnitude slower.  The row-wise path is
kept only where a key would pass the int64 range.
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
    inner loop of the crawl's frontier expansion and of the walk's neighbour
    gathers.  Returns ``(gathered, counts)`` where ``counts[i]`` is the slice
    length of ``keys[i]`` (so ``gathered`` splits back per key with
    ``np.cumsum(counts)``).  ``ramp`` may supply a reusable identity
    ramp (``0, 1, ..., total - 1``) as a callable mapping the needed length
    to one (e.g. ``CrawlScratch.iota``) to avoid the ``np.arange``
    allocation.
    """
    stops = offsets.take(keys + 1)
    counts = stops - offsets.take(keys)
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=values.dtype), counts
    # Key i's slice fills ramp positions ends[i] - counts[i] .. ends[i] - 1,
    # so shifting the ramp by stops[i] - ends[i] per slice turns it into the
    # slice's offsets.
    stops -= ends
    shift = stops.repeat(counts)
    shift += np.arange(total, dtype=np.int64) if ramp is None else ramp(total)
    return values.take(shift), counts


# ----------------------------------------------------------------------
# int64 row keys
# ----------------------------------------------------------------------
#: a key is valid while the largest one, ``n ** width - 1``, fits in int64
_KEY_LIMIT = 2**63


def row_keys(rows: np.ndarray) -> tuple[np.ndarray, int] | None:
    """One int64 key per row of a non-negative ``(m, w)`` int array, and its base.

    A row is read as a ``w``-digit number in base ``n`` (one more than the
    largest entry), so sorting the keys sorts the rows lexicographically and
    equal keys mean equal rows.  Returns None when a key could pass the int64
    range (``n ** w > 2**63``: edges past about 3e9 vertices, triangle faces
    past ``2**21``) or an entry is negative; the callers then take the
    row-wise path.
    """
    if rows.shape[0] == 0:
        return np.empty(0, dtype=np.int64), 1
    if rows.min() < 0:
        return None
    n = int(rows.max()) + 1
    if n ** rows.shape[1] > _KEY_LIMIT:
        return None
    keys = rows[:, 0].astype(np.int64)
    for column in range(1, rows.shape[1]):
        keys *= n
        keys += rows[:, column]
    return keys, n


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in a sorted 1-D array."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order (``np.unique``).

    Sorting and comparing neighbours; NumPy's 1-D ``np.unique`` takes a hash
    path that is far slower on int64 ids.
    """
    ordered = values.copy()
    ordered.sort()
    return ordered[run_starts(ordered)]


def sort_rows(rows: np.ndarray, unique: bool = True) -> np.ndarray:
    """The rows of a non-negative int array in lexicographic order.

    With ``unique`` repeated rows are dropped, which equals
    ``np.unique(rows, axis=0)``.  Sorts the :func:`row_keys` and decodes them;
    past the key bound it sorts the rows themselves.
    """
    keyed = row_keys(rows)
    if keyed is None:
        if unique:
            return np.unique(rows, axis=0)
        return rows[np.lexsort(rows.T[::-1])]
    keys, n = keyed
    keys.sort()
    if unique:
        keys = keys[run_starts(keys)]
    out = np.empty((keys.size, rows.shape[1]), dtype=np.int64)
    for column in range(rows.shape[1] - 1, 0, -1):
        keys, out[:, column] = np.divmod(keys, n)
    out[:, 0] = keys
    return out


def row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and size of every group of equal rows, groups in row order.

    Equals ``np.unique(rows, axis=0, return_index=True, return_counts=True)``
    without the unique rows themselves (``rows[first]`` gives them).
    """
    keyed = row_keys(rows)
    if keyed is None:
        _, first, counts = np.unique(rows, axis=0, return_index=True, return_counts=True)
        return first, counts
    keys = keyed[0]
    # An unstable argsort is a third of the stable one's cost; the smallest
    # index of each run is the first occurrence either way.
    order = np.argsort(keys)
    starts = np.flatnonzero(run_starts(keys[order]))
    first = np.minimum.reduceat(order, starts)
    return first, np.diff(np.append(starts, keys.size))


#: local vertex indices of the six edges of a tetrahedron
_TETRAHEDRON_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64)


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
        # Contiguous, so a column view of a wider array is copied out rather
        # than gathered from (and kept alive) at its stride by every crawl.
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
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
        return cls._from_directed(n_vertices, _directed(sort_rows(_lo_hi(edge_arr))))

    @classmethod
    def from_cells(cls, n_vertices: int, cells: np.ndarray) -> "AdjacencyList":
        """Build the adjacency implied by the edges of ``(m, 4)`` tetrahedral cells."""
        edges = edges_from_cells(cells)
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise MeshConnectivityError("edge endpoints out of range")
        return cls._from_directed(n_vertices, _directed(edges))

    @classmethod
    def _from_directed(cls, n_vertices: int, directed: np.ndarray) -> "AdjacencyList":
        """CSR of ``(src, dst)`` rows sorted by ``src``, then ``dst``.

        Canonical CSR form: each row's neighbours sorted ascending, so the
        CSR is a function of the edge set alone and every build of the same
        connectivity (and its downstream tie-breaking) is identical.
        """
        counts = np.bincount(directed[:, 0], minlength=n_vertices)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(indptr, directed[:, 1])

    def spliced(self, region: np.ndarray, cells: np.ndarray) -> "AdjacencyList":
        """This adjacency with the rows of the ``region`` vertices rebuilt.

        ``region`` is a boolean mask over the new vertex count, which may
        extend this adjacency's (appended vertices start with empty rows);
        ``cells`` must hold every cell that contains a region vertex.  Rows
        outside the region are copied, so the result equals a rebuild from
        the new cells whenever no cell that changed holds a vertex outside
        the region (see :meth:`~repro.mesh.base.PolyhedralMesh.restructure`).
        """
        n_vertices = region.size
        rows = _directed(edges_from_cells(cells))
        rows = rows[region[rows[:, 0]]]
        region_counts = np.bincount(rows[:, 0], minlength=n_vertices)
        # Every new row is a slice of one source array: the old indices for
        # kept rows, the recomputed neighbours (appended after them) for
        # region rows.
        counts = np.zeros(n_vertices, dtype=np.int64)
        counts[: self.n_vertices] = np.diff(self.indptr)
        starts = np.zeros(n_vertices, dtype=np.int64)
        starts[: self.n_vertices] = self.indptr[:-1]
        counts[region] = region_counts[region]
        starts[region] = (self.indices.size + np.cumsum(region_counts) - region_counts)[region]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        values = np.concatenate([self.indices, rows[:, 1]])
        shift = np.repeat(starts - indptr[:-1], counts)
        return AdjacencyList(indptr, values[np.arange(indptr[-1]) + shift])

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
    """Expand ``(m, 4)`` tetrahedral cells into their unique undirected edges."""
    cell_arr = np.asarray(cells, dtype=np.int64)
    if cell_arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if cell_arr.ndim != 2:
        raise MeshConnectivityError("cells must be a 2-D array")
    if cell_arr.shape[1] != 4:
        raise MeshConnectivityError(
            f"unsupported cell arity {cell_arr.shape[1]}; expected 4 (tetrahedra)"
        )
    edges = cell_arr[:, _TETRAHEDRON_EDGES]          # (m, 6, 2)
    return sort_rows(_lo_hi(edges.reshape(-1, 2)))


def _directed(edges: np.ndarray) -> np.ndarray:
    """Both directions of distinct undirected edges, sorted by ``(src, dst)``.

    Self loops (from cells that repeat a vertex) are dropped; the edges are
    distinct already, so the directions are sorted without deduplicating
    again.
    """
    edges = edges[edges[:, 0] != edges[:, 1]]
    return sort_rows(np.concatenate([edges, edges[:, ::-1]]), unique=False)


def _lo_hi(pairs: np.ndarray) -> np.ndarray:
    """Each vertex pair as its ``(min, max)`` row."""
    first, second = pairs[:, 0], pairs[:, 1]
    return np.stack([np.minimum(first, second), np.maximum(first, second)], axis=1)
