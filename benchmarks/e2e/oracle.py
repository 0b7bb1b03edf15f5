"""The benchmark's own answer key, computed without the program's code.

Everything here works from raw vertex and cell arrays with NumPy and SciPy:

* :class:`MeshFacts` derives, from the tetrahedra alone, which vertices are
  referenced by a cell, which lie on the boundary surface, and the edge
  graph;
* :class:`BoxOracle` answers a closed-box query over the referenced vertices
  of one set of positions (vertices that no cell references are not part of
  the mesh);
* :func:`exactly_answerable` is the input filter the workloads use: a box
  is kept only when every connected piece of the mesh inside it contains a
  surface vertex, or it holds no surface vertex, is one piece, and greedy
  descent from the nearest surface vertex reaches it.  Those are the
  conditions under which the paper's probe, walk and crawl are exact, so on
  the kept boxes any mismatch is a real failure of the program, never a
  known limit of the algorithm;
* :func:`digest` / :func:`chain` turn answers into order-sensitive checksums.
"""

from __future__ import annotations

import zlib

import numpy as np
from scipy.sparse import coo_matrix

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


class MeshFacts:
    """Referenced vertices, surface vertices and the edge graph of a tetrahedral mesh."""

    def __init__(self, n_vertices: int, cells: np.ndarray) -> None:
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != 4:
            raise ValueError("the oracle handles tetrahedral cells only")
        n = int(n_vertices)
        self.n_vertices = n
        self.referenced = np.zeros(n, dtype=bool)
        self.referenced[cells.ravel()] = True

        pairs = np.concatenate([cells[:, [a, b]] for a, b in _TET_EDGES])
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        self.graph = coo_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
        ).tocsr()

        # A boundary face belongs to exactly one tetrahedron.
        faces = np.sort(np.concatenate([cells[:, list(f)] for f in _TET_FACES]), axis=1)
        keys = (faces[:, 0] * n + faces[:, 1]) * n + faces[:, 2]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        single = np.ones(sorted_keys.size, dtype=bool)
        repeat = sorted_keys[1:] == sorted_keys[:-1]
        single[1:] &= ~repeat
        single[:-1] &= ~repeat
        self.surface = np.zeros(n, dtype=bool)
        self.surface[faces[order[single]].ravel()] = True
        self.surface_ids = np.nonzero(self.surface)[0]


class BoxOracle:
    """Closed-box membership of the referenced vertices at fixed positions.

    Vertices are sorted by ``x`` once, so a query tests only the slab of
    vertices whose ``x`` lies within the box.
    """

    def __init__(self, positions: np.ndarray, referenced: np.ndarray) -> None:
        ids = np.nonzero(referenced)[0]
        order = np.argsort(positions[ids, 0], kind="stable")
        self._ids = ids[order]
        self._points = np.ascontiguousarray(positions[self._ids])
        self._xs = self._points[:, 0].copy()

    def query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Sorted ids of the referenced vertices inside the closed box ``[lo, hi]``."""
        start = int(np.searchsorted(self._xs, lo[0], side="left"))
        stop = int(np.searchsorted(self._xs, hi[0], side="right"))
        slab = self._points[start:stop]
        inside = (
            (slab[:, 1] >= lo[1]) & (slab[:, 1] <= hi[1])
            & (slab[:, 2] >= lo[2]) & (slab[:, 2] <= hi[2])
        )
        return np.sort(self._ids[start:stop][inside])


def points_in_closed_box(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``points`` inside the closed box ``[lo, hi]``."""
    return np.all((points >= lo) & (points <= hi), axis=1)


def moved_answer(rest: np.ndarray, ball: np.ndarray, ball_points: np.ndarray, in_ball: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A box's answer when only the ``ball`` vertices left rest, now at ``ball_points``.

    ``rest`` is the box's answer at rest and ``in_ball`` the per-vertex mask
    of ``ball``; the ball's vertices are re-tested at their new positions,
    every other vertex keeps its rest membership.
    """
    if ball.size == 0:
        return rest
    return np.union1d(rest[~in_ball[rest]], ball[points_in_closed_box(ball_points, lo, hi)])


def box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean distance of each point to the closed box (0 inside)."""
    excess = np.maximum(lo - points, 0.0)
    excess += np.maximum(points - hi, 0.0)
    return np.linalg.norm(excess, axis=1)


def pieces(facts: MeshFacts, ids: np.ndarray) -> np.ndarray:
    """Connected-piece label of each of the sorted ``ids`` in the mesh they induce.

    Min-label propagation with pointer jumping over the induced edges; two
    ids share a label exactly when in-box edges connect them.
    """
    indptr, indices = facts.graph.indptr, facts.graph.indices
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    total = int(counts.sum())
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(total)
    neighbours = indices[offsets]
    rows = np.repeat(np.arange(ids.size), counts)
    local = np.minimum(np.searchsorted(ids, neighbours), ids.size - 1)
    inside = ids[local] == neighbours
    u, v = rows[inside], local[inside]
    labels = np.arange(ids.size)
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, u, labels[v])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            return labels
        labels = lowered


def descends_into(facts: MeshFacts, positions: np.ndarray, surface_points: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> bool:
    """Greedy descent over mesh edges from the surface vertex nearest the box.

    Steps to the neighbour nearest the box while that is strictly nearer;
    True when it ends inside the box.  ``surface_points`` is
    ``positions[facts.surface_ids]``.
    """
    excess = np.maximum(lo - surface_points, 0.0)
    excess += np.maximum(surface_points - hi, 0.0)
    current = int(facts.surface_ids[np.argmin(np.einsum("ij,ij->i", excess, excess))])
    distance = float(box_distance(positions[current:current + 1], lo, hi)[0])
    indptr, indices = facts.graph.indptr, facts.graph.indices
    while distance > 0.0:
        neighbours = indices[indptr[current]:indptr[current + 1]]
        if neighbours.size == 0:
            return False
        distances = box_distance(positions[neighbours], lo, hi)
        best = int(np.argmin(distances))
        if distances[best] >= distance:
            return False
        current, distance = int(neighbours[best]), float(distances[best])
    return True


def exactly_answerable(facts: MeshFacts, positions: np.ndarray, surface_points: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> bool:
    """True when a surface probe plus a crawl (after a walk, if needed) finds every in-box vertex.

    Either every connected piece of the in-box mesh holds a surface vertex
    (the probe seeds each piece), or no surface vertex is inside, the
    in-box mesh is one piece, and greedy descent from the nearest surface
    vertex reaches it.
    """
    if ids.size == 0:
        return True
    if facts.surface[ids].any():
        return probe_seeds_every_piece(facts, ids)
    labels = pieces(facts, ids)
    return bool((labels == labels[0]).all()) and descends_into(facts, positions, surface_points, lo, hi)


def probe_seeds_every_piece(facts: MeshFacts, ids: np.ndarray) -> bool:
    """True when every connected piece of the in-box mesh (``ids``) holds a surface vertex."""
    on_surface = facts.surface[ids]
    if not on_surface.any():
        return False
    labels = pieces(facts, ids)
    return bool(np.isin(labels, labels[on_surface]).all())


def digest(ids: np.ndarray) -> int:
    """CRC-32 of a sorted id array (as int64)."""
    return zlib.crc32(np.ascontiguousarray(ids, dtype=np.int64).tobytes())


def chain(checksum: int, value: int) -> int:
    """Fold one digest into an order-sensitive running checksum."""
    return zlib.crc32(int(value).to_bytes(8, "little"), checksum)
