"""Tests for the dataset generators: grids, carving, neuron, earthquake, Delaunay."""

import numpy as np
import pytest

from repro.errors import GeometryError, MeshError
from repro.generators import (
    NeuronParameters,
    carve_tetrahedral_mesh,
    compact_mesh,
    delaunay_mesh_from_points,
    earthquake_dataset_pair,
    earthquake_mesh,
    lattice_points,
    neuron_mesh,
    neuron_shape,
    neuron_skeleton,
    random_delaunay_mesh,
    structured_tetrahedral_mesh,
)
from repro.generators.shapes import Sphere
from repro.mesh import Box3D, mesh_is_convex, validate_mesh


class TestStructuredGrids:
    def test_lattice_point_count_and_bounds(self):
        box = Box3D((0, 0, 0), (2, 1, 1))
        pts = lattice_points((4, 2, 2), box)
        assert pts.shape == (5 * 3 * 3, 3)
        assert np.allclose(pts.min(axis=0), box.lo)
        assert np.allclose(pts.max(axis=0), box.hi)

    def test_lattice_rejects_zero_shape(self):
        with pytest.raises(GeometryError):
            lattice_points((0, 2, 2), Box3D((0, 0, 0), (1, 1, 1)))

    def test_tet_grid_counts(self):
        mesh = structured_tetrahedral_mesh((3, 2, 2))
        assert mesh.n_vertices == 4 * 3 * 3
        assert mesh.n_cells == 3 * 2 * 2 * 6

    def test_tet_grid_all_positive_volumes(self):
        mesh = structured_tetrahedral_mesh((3, 3, 3))
        assert np.all(mesh.cell_volumes(signed=True) > 0)

    def test_tet_grid_is_watertight_and_valid(self):
        mesh = structured_tetrahedral_mesh((3, 3, 3))
        report = validate_mesh(mesh)
        assert report.is_valid
        # Volume equals the bounding box volume (conforming, no gaps).
        assert mesh.total_volume() == pytest.approx(mesh.bounding_box().volume)

    def test_custom_bounds(self):
        box = Box3D((-1, -2, -3), (1, 2, 3))
        mesh = structured_tetrahedral_mesh((2, 2, 2), box)
        assert np.allclose(mesh.bounding_box().lo, box.lo)
        assert np.allclose(mesh.bounding_box().hi, box.hi)


class TestCarving:
    def test_carve_sphere(self):
        mesh = carve_tetrahedral_mesh(Sphere((0, 0, 0), 1.0), resolution=12)
        assert mesh.n_cells > 100
        assert validate_mesh(mesh).is_valid
        # All cell centroids are inside the sphere (that is the carving rule).
        centroids = mesh.cell_centroids()
        assert np.all(np.linalg.norm(centroids, axis=1) <= 1.0 + 1e-9)

    def test_carve_volume_approximates_sphere(self):
        mesh = carve_tetrahedral_mesh(Sphere((0, 0, 0), 1.0), resolution=20)
        sphere_volume = 4.0 / 3.0 * np.pi
        assert mesh.total_volume() == pytest.approx(sphere_volume, rel=0.25)

    def test_carve_requires_intersection(self):
        # A pathological shape that reports a bounding box but contains nothing:
        # no background cell centroid can fall inside, so carving must fail.
        class EmptyShape(Sphere):
            def contains(self, points):
                return np.zeros(np.asarray(points).shape[0], dtype=bool)

        with pytest.raises(MeshError):
            carve_tetrahedral_mesh(EmptyShape((0, 0, 0), 1.0), resolution=4)

    def test_carve_rejects_tiny_resolution(self):
        with pytest.raises(MeshError):
            carve_tetrahedral_mesh(Sphere((0, 0, 0), 1.0), resolution=1)

    def test_compact_mesh_drops_unreferenced_vertices(self):
        vertices = np.vstack([np.eye(3), [[1, 1, 1]], [[9, 9, 9]]])
        cells = np.array([[0, 1, 2, 3]])
        mesh = compact_mesh(vertices, cells)
        assert mesh.n_vertices == 4
        assert validate_mesh(mesh).n_isolated_vertices == 0

    def test_compact_mesh_requires_cells(self):
        with pytest.raises(MeshError):
            compact_mesh(np.zeros((4, 3)), np.empty((0, 4), dtype=np.int64))


class TestNeuronGenerator:
    def test_skeleton_structure(self):
        params = NeuronParameters(n_trunks=3, depth=2, seed=1)
        segments = neuron_skeleton(params)
        # Each trunk contributes 2^depth - 1 segments.
        assert len(segments) == 3 * (2**2 - 1)
        for start, end, radius in segments:
            assert radius > 0
            assert np.linalg.norm(end - start) > 0

    def test_skeleton_deterministic_per_seed(self):
        params = NeuronParameters(seed=5)
        a = neuron_skeleton(params)
        b = neuron_skeleton(params)
        assert all(np.allclose(x[0], y[0]) and np.allclose(x[1], y[1]) for x, y in zip(a, b))

    def test_shape_contains_soma(self):
        shape = neuron_shape(NeuronParameters())
        assert shape.contains(np.array([[0.0, 0.0, 0.0]]))[0]

    def test_mesh_is_nonconvex_and_connected(self, neuron_small):
        assert not mesh_is_convex(neuron_small)
        assert len(neuron_small.connected_components()) == 1
        assert validate_mesh(neuron_small).is_valid

    def test_detail_series_monotone(self):
        coarse = neuron_mesh(12)
        fine = neuron_mesh(18)
        assert fine.n_vertices > coarse.n_vertices
        assert fine.surface_to_volume_ratio() < coarse.surface_to_volume_ratio()

    def test_invalid_parameters(self):
        with pytest.raises(MeshError):
            NeuronParameters(n_trunks=0)
        with pytest.raises(MeshError):
            NeuronParameters(soma_radius=-1.0)


class TestEarthquakeGenerator:
    def test_mesh_is_convex(self, earthquake_small):
        assert mesh_is_convex(earthquake_small)
        assert validate_mesh(earthquake_small).is_valid

    def test_grading_concentrates_vertices_near_surface(self):
        graded = earthquake_mesh(8, grading=0.6)
        uniform = earthquake_mesh(8, grading=0.0)
        # More vertices in the top quarter of the depth range when graded.
        def top_fraction(mesh):
            z = mesh.vertices[:, 2]
            depth = z.max() - z.min()
            return float((z > z.max() - 0.25 * depth).mean())
        assert top_fraction(graded) > top_fraction(uniform)

    def test_dataset_pair_ordering(self):
        sf2, sf1 = earthquake_dataset_pair(coarse_resolution=8, fine_resolution=12)
        assert sf1.n_vertices > sf2.n_vertices
        assert sf1.surface_to_volume_ratio() < sf2.surface_to_volume_ratio()
        assert sf2.name == "SF2" and sf1.name == "SF1"

    def test_parameter_validation(self):
        with pytest.raises(MeshError):
            earthquake_mesh(2)
        with pytest.raises(MeshError):
            earthquake_mesh(8, grading=1.5)
        with pytest.raises(MeshError):
            earthquake_dataset_pair(coarse_resolution=10, fine_resolution=10)


class TestDelaunayGenerator:
    def test_random_delaunay_mesh(self, delaunay_small):
        assert delaunay_small.n_cells > 0
        assert np.all(delaunay_small.cell_volumes() > 0)
        assert mesh_is_convex(delaunay_small)

    def test_from_points_drops_degenerate(self, rng):
        pts = rng.uniform(size=(50, 3))
        mesh = delaunay_mesh_from_points(pts)
        assert mesh.n_vertices == 50
        assert np.all(mesh.cell_volumes() > 0)

    def test_too_few_points_rejected(self):
        with pytest.raises(MeshError):
            delaunay_mesh_from_points(np.zeros((3, 3)))
        with pytest.raises(MeshError):
            random_delaunay_mesh(3)
