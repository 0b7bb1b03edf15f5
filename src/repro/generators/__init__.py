"""Synthetic dataset generators substituting the paper's proprietary meshes."""

from .animation import (
    AnimationSequence,
    animation_suite,
    camel_compress,
    facial_expression,
    horse_gallop,
)
from .carve import carve_tetrahedral_mesh, compact_mesh, largest_component_cells
from .delaunay import delaunay_mesh_from_points, random_delaunay_mesh
from .earthquake import earthquake_dataset_pair, earthquake_mesh
from .grid import lattice_points, structured_tetrahedral_mesh
from .neuron import (
    NeuronParameters,
    neuron_dataset_series,
    neuron_mesh,
    neuron_shape,
    neuron_skeleton,
)
from .shapes import BoxShape, Capsule, Ellipsoid, Shape, Sphere, Union

__all__ = [
    "AnimationSequence",
    "BoxShape",
    "Capsule",
    "Ellipsoid",
    "NeuronParameters",
    "Shape",
    "Sphere",
    "Union",
    "animation_suite",
    "camel_compress",
    "carve_tetrahedral_mesh",
    "compact_mesh",
    "delaunay_mesh_from_points",
    "earthquake_dataset_pair",
    "earthquake_mesh",
    "facial_expression",
    "horse_gallop",
    "largest_component_cells",
    "lattice_points",
    "neuron_dataset_series",
    "neuron_mesh",
    "neuron_shape",
    "neuron_skeleton",
    "random_delaunay_mesh",
    "structured_tetrahedral_mesh",
]
