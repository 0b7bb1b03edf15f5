"""Surface extraction from tetrahedral cell lists.

Section IV-E of the paper identifies surface vertices by building the *global
face list*: every cell contributes its faces, a face shared by two adjacent
cells appears twice, and a face appearing exactly once lies on the mesh
surface.  The vertices of those boundary faces are the *surface vertices* that
OCTOPUS's surface index keeps track of.

The extraction here is purely combinatorial — it only looks at connectivity,
never at vertex positions — which is exactly why the surface index survives
arbitrary mesh deformation without maintenance.  Faces are counted through one
int64 key per face, its sorted vertex ids read as a base-``n`` number (see
:func:`~repro.mesh.adjacency.row_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MeshConnectivityError
from .adjacency import row_groups, row_keys, sorted_unique

__all__ = ["SurfaceExtraction", "extract_surface", "cell_faces"]

#: local vertex indices of the four triangular faces of a tetrahedron
_TETRAHEDRON_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], dtype=np.int64)


def sorted_faces(faces: np.ndarray) -> np.ndarray:
    """Each ``(m, 3)`` face with its vertex ids in ascending order.

    Equals ``np.sort(faces, axis=1)``, by a three-comparator min/max network
    over the columns: about twice as fast as NumPy's per-row sort on rows
    this narrow.  The result is a column-major view.
    """
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    # Rows 1-3 end as the low, middle and high columns; row 0 is scratch
    # for min(a, b).
    rows = np.empty((4, faces.shape[0]), dtype=faces.dtype)
    np.minimum(a, b, out=rows[0])
    np.maximum(a, b, out=rows[2])
    np.minimum(rows[2], c, out=rows[1])
    np.maximum(rows[2], c, out=rows[3])
    np.maximum(rows[0], rows[1], out=rows[2])
    np.minimum(rows[0], rows[1], out=rows[1])
    return rows[1:].T


@dataclass(frozen=True)
class SurfaceExtraction:
    """Result of a surface extraction.

    Attributes
    ----------
    surface_vertices:
        Sorted int array of vertex ids that lie on the mesh surface.
    surface_faces:
        ``(f, 3)`` array of boundary faces.
    n_faces_total:
        Number of entries in the global face list (with duplicates), i.e.
        four per cell.
    """

    surface_vertices: np.ndarray
    surface_faces: np.ndarray
    n_faces_total: int

    def spliced(self, region: np.ndarray, cells: np.ndarray, n_cells: int) -> "SurfaceExtraction | None":
        """This extraction with the faces inside ``region`` recounted.

        ``region`` is a boolean mask over the new vertex count and ``cells``
        must hold every new cell that contains a region vertex; ``n_cells`` is
        the new cell count.  Boundary faces with a vertex outside the region
        are kept; faces whose vertices all lie inside it are recounted from
        ``cells``.  The result equals :func:`extract_surface` of the new cells
        whenever no cell that changed holds a vertex outside the region (see
        :meth:`~repro.mesh.base.PolyhedralMesh.restructure`).  Returns None
        when a recounted face is shared by more than two cells, so the caller
        drops the cache and the next extraction raises as a rebuild would.
        """
        faces = cell_faces(cells)
        faces = faces[region[faces].all(axis=1)]
        first, counts = row_groups(sorted_faces(faces))
        if np.any(counts > 2):
            return None
        kept = self.surface_faces[~region[self.surface_faces].all(axis=1)]
        merged = np.concatenate([kept, faces[first[counts == 1]]])
        # Boundary faces are distinct, so key order is one well-defined order.
        canonical = sorted_faces(merged)
        keyed = row_keys(canonical)
        order = np.lexsort(canonical.T[::-1]) if keyed is None else np.argsort(keyed[0])
        merged = merged[order]
        return SurfaceExtraction(
            surface_vertices=sorted_unique(merged.ravel()),
            surface_faces=merged,
            n_faces_total=4 * n_cells,
        )

    @property
    def n_surface_vertices(self) -> int:
        return int(self.surface_vertices.size)

    def surface_to_volume_ratio(self, n_vertices: int) -> float:
        """Paper's S parameter: surface vertices divided by total vertices."""
        if n_vertices <= 0:
            raise MeshConnectivityError("n_vertices must be positive")
        return self.n_surface_vertices / n_vertices


def cell_faces(cells: np.ndarray) -> np.ndarray:
    """Return the global face list of a cell array (duplicates included).

    ``cells`` is an ``(m, 4)`` array of tetrahedra.  The output has shape
    ``(4 * m, 3)`` and each face keeps the original vertex order of the cell
    definition.
    """
    cell_arr = np.asarray(cells, dtype=np.int64)
    if cell_arr.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if cell_arr.ndim != 2:
        raise MeshConnectivityError("cells must be a 2-D array")
    if cell_arr.shape[1] != 4:
        raise MeshConnectivityError(
            f"unsupported cell arity {cell_arr.shape[1]}; expected 4 (tetrahedra)"
        )
    return cell_arr[:, _TETRAHEDRON_FACES].reshape(-1, 3)


def extract_surface(cells: np.ndarray) -> SurfaceExtraction:
    """Identify surface faces and vertices from a tetrahedral cell array.

    A face is on the surface when it occurs exactly once in the global face
    list; faces occurring twice are interior faces shared by two cells.  A
    face occurring more than twice indicates a broken (non-manifold) mesh and
    raises :class:`MeshConnectivityError`.
    """
    faces = cell_faces(cells)
    if faces.shape[0] == 0:
        return SurfaceExtraction(
            surface_vertices=np.empty(0, dtype=np.int64),
            surface_faces=np.empty((0, 3), dtype=np.int64),
            n_faces_total=0,
        )
    # Canonicalise each face by sorting its vertex ids so that the two copies
    # of a shared face compare equal regardless of orientation.
    canonical = sorted_faces(faces)
    first_index, counts = row_groups(canonical)
    if np.any(counts > 2):
        bad = canonical[first_index[counts > 2][0]]
        raise MeshConnectivityError(
            f"non-manifold mesh: face {bad.tolist()} is shared by more than two cells"
        )
    boundary_mask = counts == 1
    # Report boundary faces with their original (oriented) vertex order, in
    # the lexicographic order of their sorted vertex ids.
    surface_faces = faces[first_index[boundary_mask]]
    surface_vertices = sorted_unique(surface_faces.ravel())
    return SurfaceExtraction(
        surface_vertices=surface_vertices,
        surface_faces=surface_faces,
        n_faces_total=int(faces.shape[0]),
    )
