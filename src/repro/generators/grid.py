"""Structured grid meshes (the building block of every synthetic dataset).

A uniform ``nx x ny x nz`` lattice of cubes is split into six tetrahedra per
cube with the Kuhn (Freudenthal) subdivision.  The Kuhn subdivision is
*conforming*: adjacent cubes agree on the diagonal of their shared face, so
the resulting tetrahedral mesh is watertight and every interior vertex has
the ~14 neighbours the paper reports for tetrahedral meshes (Section VIII-B,
M ~= 14).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ..errors import GeometryError
from ..mesh import Box3D, TetrahedralMesh

__all__ = ["structured_tetrahedral_mesh", "lattice_points"]

# The six Kuhn simplices of the unit cube: each permutation of the axes yields
# a path from corner (0,0,0) to corner (1,1,1); the four path nodes form a tet.
_KUHN_PATHS: list[np.ndarray] = []
for _perm in permutations(range(3)):
    _steps = np.zeros((4, 3), dtype=np.int64)
    for _i, _axis in enumerate(_perm):
        _steps[_i + 1] = _steps[_i]
        _steps[_i + 1, _axis] += 1
    _KUHN_PATHS.append(_steps)


def lattice_points(shape: tuple[int, int, int], bounds: Box3D) -> np.ndarray:
    """Vertex positions of an ``(nx+1) x (ny+1) x (nz+1)`` lattice inside ``bounds``.

    Vertices are ordered x-fastest (C order over ``(iz, iy, ix)`` reversed),
    i.e. the vertex at integer coordinates ``(ix, iy, iz)`` has id
    ``ix + (nx+1) * (iy + (ny+1) * iz)``.
    """
    nx, ny, nz = shape
    if min(nx, ny, nz) < 1:
        raise GeometryError("grid shape must be at least 1 cube per axis")
    xs = np.linspace(bounds.lo[0], bounds.hi[0], nx + 1)
    ys = np.linspace(bounds.lo[1], bounds.hi[1], ny + 1)
    zs = np.linspace(bounds.lo[2], bounds.hi[2], nz + 1)
    grid_z, grid_y, grid_x = np.meshgrid(zs, ys, xs, indexing="ij")
    return np.stack([grid_x.ravel(), grid_y.ravel(), grid_z.ravel()], axis=1)


def _vertex_ids(shape: tuple[int, int, int]) -> np.ndarray:
    """Integer vertex ids arranged on the lattice, shape ``(nz+1, ny+1, nx+1)``."""
    nx, ny, nz = shape
    return np.arange((nx + 1) * (ny + 1) * (nz + 1), dtype=np.int64).reshape(
        nz + 1, ny + 1, nx + 1
    )


def structured_tetrahedral_mesh(
    shape: tuple[int, int, int],
    bounds: Box3D | None = None,
    name: str = "tet-grid",
) -> TetrahedralMesh:
    """Uniform tetrahedral mesh: each cube of the lattice split into 6 Kuhn tets."""
    box = bounds if bounds is not None else Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    nx, ny, nz = shape
    vertices = lattice_points(shape, box)
    ids = _vertex_ids(shape)
    # Integer coordinates of the base corner of every cube.
    base_z, base_y, base_x = np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
    )
    base = np.stack([base_x.ravel(), base_y.ravel(), base_z.ravel()], axis=1)  # (cubes, 3)
    tets = []
    for path in _KUHN_PATHS:
        corner_coords = base[:, None, :] + path[None, :, :]        # (cubes, 4, 3)
        tet_ids = ids[
            corner_coords[..., 2], corner_coords[..., 1], corner_coords[..., 0]
        ]
        tets.append(tet_ids)
    cells = np.concatenate(tets, axis=0)
    # Half of the Kuhn simplices come from odd axis permutations and are
    # negatively oriented; flip them so every cell has positive signed volume.
    corner_points = vertices[cells]
    a = corner_points[:, 1] - corner_points[:, 0]
    b = corner_points[:, 2] - corner_points[:, 0]
    c = corner_points[:, 3] - corner_points[:, 0]
    signed = np.einsum("ij,ij->i", a, np.cross(b, c))
    flip = signed < 0
    cells[flip, 2], cells[flip, 3] = cells[flip, 3].copy(), cells[flip, 2].copy()
    return TetrahedralMesh(vertices, cells, name=name)
