"""Convexity tests for meshes.

OCTOPUS-CON (Section IV-F) may only be used when the mesh stays convex during
the simulation: convexity guarantees internal reachability, so a crawl started
from any single vertex inside the query retrieves the complete result.  This
module provides a practical convexity check used by generators, tests and the
executor-selection helper.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..errors import MeshError
from .base import PolyhedralMesh
from .geometry import box_batch_chunk

__all__ = ["is_convex_point_set", "mesh_is_convex", "convexity_defect"]


def _hull_facet_distances(points: np.ndarray, surface_points: np.ndarray) -> np.ndarray:
    """Distance from each surface point to its nearest facet plane of the convex hull of ``points``.

    ``hull.equations`` rows are ``(a, b, c, d)`` with ``a*x + b*y + c*z + d <= 0``
    inside, so entry ``i`` is ``-max_f (normal_f . s_i + d_f)``: zero for a
    point on the hull, positive for one inside it by that much.  The surface
    points go through in row chunks of :func:`~repro.mesh.geometry.box_batch_chunk`
    size into one reused (chunk x facets) buffer, which stays within the
    batched kernels' element budget however large the surface is.
    """
    try:
        hull = ConvexHull(points)
    except QhullError as exc:  # degenerate (flat) point set
        raise MeshError(f"cannot compute convex hull: {exc}") from exc
    normals = hull.equations[:, :3]
    offsets = hull.equations[:, 3]
    n_surface = surface_points.shape[0]
    distances = np.empty(n_surface)
    chunk = box_batch_chunk(offsets.size)
    signed = np.empty((min(chunk, n_surface), offsets.size))
    for start in range(0, n_surface, chunk):
        block = signed[: min(chunk, n_surface - start)]
        np.matmul(surface_points[start : start + chunk], normals.T, out=block)
        block += offsets
        distances[start : start + chunk] = -block.max(axis=1)
    return distances


def is_convex_point_set(
    points: np.ndarray, surface_points: np.ndarray, tolerance: float = 1e-6
) -> bool:
    """Check whether ``surface_points`` all lie on the convex hull of ``points``.

    A volumetric mesh is convex exactly when its surface vertices coincide with
    its convex hull: any surface vertex strictly inside the hull indicates a
    concavity (a dent or a hole).

    ``tolerance`` is relative to the bounding-box diagonal.
    """
    pts = np.asarray(points, dtype=np.float64)
    surf = np.asarray(surface_points, dtype=np.float64)
    if pts.shape[0] < 4:
        return True
    nearest_facet_distance = _hull_facet_distances(pts, surf)
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    abs_tol = tolerance * max(diag, 1.0)
    return bool(np.all(nearest_facet_distance <= abs_tol))


def convexity_defect(mesh: PolyhedralMesh) -> float:
    """Largest distance from any surface vertex to the convex hull boundary.

    Zero (up to numerical noise) for convex meshes; grows with the depth of
    concavities.  Normalised by the bounding-box diagonal so values are
    comparable across meshes.
    """
    pts = mesh.vertices
    if pts.shape[0] < 4:
        return 0.0
    nearest_facet_distance = _hull_facet_distances(pts, pts[mesh.surface_vertices()])
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if diag <= 0:
        return 0.0
    return float(max(nearest_facet_distance.max(), 0.0) / diag)


def mesh_is_convex(mesh: PolyhedralMesh, tolerance: float = 1e-3) -> bool:
    """Return True if the mesh's surface vertices all lie on its convex hull."""
    if mesh.n_vertices == 0:
        raise MeshError("empty mesh has no convexity")
    return is_convex_point_set(mesh.vertices, mesh.vertices[mesh.surface_vertices()], tolerance)
