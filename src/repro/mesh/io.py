"""Saving and loading meshes.

Simulation runs are long; persisting the generated datasets lets benchmarks
reuse them across processes.  The format is a plain ``.npz`` archive with the
vertex and cell arrays plus a small amount of metadata, so no dependency
beyond NumPy is required.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import MeshError
from .base import PolyhedralMesh
from .tetrahedral import TetrahedralMesh

__all__ = ["save_mesh", "load_mesh"]


def save_mesh(mesh: PolyhedralMesh, path: str | Path) -> Path:
    """Write a mesh to ``path`` as a compressed ``.npz`` archive."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        target,
        vertices=mesh.vertices,
        cells=mesh.cells,
        primitive=np.asarray(mesh.primitive),
        name=np.asarray(mesh.name),
    )
    # np.savez appends .npz when missing; report the real path back.
    return target if target.suffix == ".npz" else target.with_suffix(target.suffix + ".npz")


def load_mesh(path: str | Path) -> TetrahedralMesh:
    """Load a tetrahedral mesh previously written by :func:`save_mesh`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        primitive = str(archive["primitive"])
        if primitive != TetrahedralMesh.primitive:
            raise MeshError(f"unknown mesh primitive {primitive!r} in {path}")
        return TetrahedralMesh(
            archive["vertices"].copy(), archive["cells"].copy(), name=str(archive["name"])
        )
