"""Mesh substrate: geometry, connectivity, surface extraction and layouts."""

from .adjacency import AdjacencyList, csr_gather, edges_from_cells
from .base import PolyhedralMesh
from .convexity import convexity_defect, is_convex_point_set, mesh_is_convex
from .geometry import (
    Box3D,
    bounding_box,
    box_batch_chunk,
    boxes_overlap_volume,
    boxes_to_arrays,
    point_box_distance,
    points_box_distance,
    points_boxes_distance_sq,
    points_in_box,
    points_in_boxes,
)
from .hilbert import hilbert_distances, hilbert_sort_order
from .io import load_mesh, save_mesh
from .layout import hilbert_layout, layout_locality_score, random_layout
from .surface import SurfaceExtraction, cell_faces, extract_surface
from .tetrahedral import TetrahedralMesh
from .validation import (
    MeshValidationReport,
    density_statistics,
    quality_statistics,
    validate_mesh,
)

__all__ = [
    "AdjacencyList",
    "Box3D",
    "MeshValidationReport",
    "PolyhedralMesh",
    "SurfaceExtraction",
    "TetrahedralMesh",
    "bounding_box",
    "box_batch_chunk",
    "boxes_overlap_volume",
    "boxes_to_arrays",
    "cell_faces",
    "convexity_defect",
    "density_statistics",
    "csr_gather",
    "edges_from_cells",
    "extract_surface",
    "hilbert_distances",
    "hilbert_layout",
    "hilbert_sort_order",
    "is_convex_point_set",
    "layout_locality_score",
    "load_mesh",
    "mesh_is_convex",
    "point_box_distance",
    "points_box_distance",
    "points_boxes_distance_sq",
    "points_in_box",
    "points_in_boxes",
    "quality_statistics",
    "random_layout",
    "save_mesh",
    "validate_mesh",
]
