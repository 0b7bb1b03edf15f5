"""Hilbert data-layout optimisation (Section IV-H1).

The crawl phase follows edges between randomly located vertices; when vertex
records are stored in an arbitrary order this causes cache-unfriendly random
access.  Sorting vertex records along a Hilbert curve keeps spatially close
vertices close in memory.  In this Python reproduction the effect is modelled
two ways:

* :func:`hilbert_layout` physically permutes the vertex arrays (just like the
  paper's C++ implementation would), and
* :func:`layout_locality_score` measures the resulting locality as the mean
  absolute id distance between edge endpoints, a machine-independent proxy for
  cache friendliness that the Figure 13 benchmark reports alongside wall-clock
  timings.
"""

from __future__ import annotations

import numpy as np

from .base import PolyhedralMesh
from .hilbert import hilbert_sort_order

__all__ = [
    "hilbert_layout",
    "layout_locality_score",
    "random_layout",
]


def hilbert_layout(mesh: PolyhedralMesh, bits: int = 10) -> PolyhedralMesh:
    """Return a copy of ``mesh`` with vertices renumbered in Hilbert order.

    Vertex ``v`` of the input becomes vertex ``new_ids[v]`` of the output; the
    cell array is rewritten accordingly so the output describes the same
    geometry with a cache-friendlier vertex ordering.  Apply it once to a
    badly ordered import, before any strategy prepares on the mesh.
    """
    order = hilbert_sort_order(mesh.vertices, bits=bits)
    new_ids = np.empty(mesh.n_vertices, dtype=np.int64)
    new_ids[order] = np.arange(mesh.n_vertices)
    return mesh.with_vertex_order(new_ids)


def random_layout(mesh: PolyhedralMesh, seed: int = 0) -> PolyhedralMesh:
    """Return a copy of ``mesh`` with a random vertex numbering.

    This is the adversarial baseline for the Figure 13 ablation: generators
    often emit vertices in an already fairly local order, so comparing the
    Hilbert layout against a deliberately shuffled layout isolates the effect.
    """
    rng = np.random.default_rng(seed)
    new_ids = rng.permutation(mesh.n_vertices).astype(np.int64)
    return mesh.with_vertex_order(new_ids)


def layout_locality_score(mesh: PolyhedralMesh) -> float:
    """Mean absolute difference of the vertex ids across each mesh edge.

    Lower is better: a perfectly local layout stores every pair of neighbours
    adjacently.  The score is normalised by the number of vertices so that
    meshes of different sizes are comparable.
    """
    adjacency = mesh.adjacency
    if adjacency.indices.size == 0 or mesh.n_vertices == 0:
        return 0.0
    src = np.repeat(np.arange(mesh.n_vertices), np.diff(adjacency.indptr))
    dst = adjacency.indices
    gaps = np.abs(src - dst)
    return float(gaps.mean() / mesh.n_vertices)
