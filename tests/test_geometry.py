"""Tests for repro.mesh.geometry (Box3D and point/box predicates)."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.mesh.geometry import (
    Box3D,
    bounding_box,
    boxes_overlap_volume,
    point_box_distance,
    points_box_distance,
    points_in_box,
)


class TestBox3DConstruction:
    def test_basic_construction(self):
        box = Box3D((0, 0, 0), (1, 2, 3))
        assert np.allclose(box.lo, [0, 0, 0])
        assert np.allclose(box.hi, [1, 2, 3])

    def test_rejects_inverted_corners(self):
        with pytest.raises(GeometryError):
            Box3D((1, 0, 0), (0, 1, 1))

    def test_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            Box3D((0, 0, np.nan), (1, 1, 1))
        with pytest.raises(GeometryError):
            Box3D((0, 0, 0), (np.inf, 1, 1))

    def test_from_center(self):
        box = Box3D.from_center((1, 1, 1), (2, 4, 6))
        assert np.allclose(box.lo, [0, -1, -2])
        assert np.allclose(box.hi, [2, 3, 4])

    def test_from_center_rejects_negative_extents(self):
        with pytest.raises(GeometryError):
            Box3D.from_center((0, 0, 0), (-1, 1, 1))

    def test_cube(self):
        box = Box3D.cube((0, 0, 0), 2.0)
        assert np.allclose(box.extents, [2, 2, 2])
        assert np.allclose(box.center, [0, 0, 0])

    def test_from_points(self):
        pts = np.array([[0, 0, 0], [1, 2, 3], [0.5, 1, -1]])
        box = Box3D.from_points(pts)
        assert np.allclose(box.lo, [0, 0, -1])
        assert np.allclose(box.hi, [1, 2, 3])

    def test_from_points_rejects_empty(self):
        with pytest.raises(GeometryError):
            Box3D.from_points(np.empty((0, 3)))

    def test_degenerate_box_allowed(self):
        box = Box3D((1, 1, 1), (1, 1, 1))
        assert box.volume == 0.0
        assert box.contains_point((1, 1, 1))


class TestBox3DProperties:
    def test_volume_and_surface_area(self):
        box = Box3D((0, 0, 0), (2, 3, 4))
        assert box.volume == pytest.approx(24.0)
        assert box.surface_area == pytest.approx(2 * (6 + 12 + 8))

    def test_center_and_extents(self):
        box = Box3D((0, 0, 0), (2, 4, 6))
        assert np.allclose(box.center, [1, 2, 3])
        assert np.allclose(box.extents, [2, 4, 6])

    def test_corners(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        corners = box.corners()
        assert corners.shape == (8, 3)
        assert {tuple(c) for c in corners.tolist()} == {
            (x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)
        }


class TestBox3DPredicates:
    def test_contains_point_boundary_inclusive(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        assert box.contains_point((0, 0, 0))
        assert box.contains_point((1, 1, 1))
        assert box.contains_point((0.5, 0.5, 0.5))
        assert not box.contains_point((1.0001, 0.5, 0.5))

    def test_intersects_and_contains_box(self):
        a = Box3D((0, 0, 0), (2, 2, 2))
        b = Box3D((1, 1, 1), (3, 3, 3))
        c = Box3D((0.5, 0.5, 0.5), (1.5, 1.5, 1.5))
        d = Box3D((5, 5, 5), (6, 6, 6))
        assert a.intersects(b) and b.intersects(a)
        assert a.contains_box(c) and not a.contains_box(b)
        assert not a.intersects(d)

    def test_touching_boxes_intersect(self):
        a = Box3D((0, 0, 0), (1, 1, 1))
        b = Box3D((1, 0, 0), (2, 1, 1))
        assert a.intersects(b)

    def test_intersection_and_union(self):
        a = Box3D((0, 0, 0), (2, 2, 2))
        b = Box3D((1, 1, 1), (3, 3, 3))
        inter = a.intersection(b)
        assert inter is not None
        assert np.allclose(inter.lo, [1, 1, 1]) and np.allclose(inter.hi, [2, 2, 2])
        union = a.union(b)
        assert np.allclose(union.lo, [0, 0, 0]) and np.allclose(union.hi, [3, 3, 3])

    def test_intersection_disjoint_is_none(self):
        a = Box3D((0, 0, 0), (1, 1, 1))
        b = Box3D((2, 2, 2), (3, 3, 3))
        assert a.intersection(b) is None
        assert boxes_overlap_volume(a, b) == 0.0

    def test_expanded_and_scaled(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        grown = box.expanded(0.5)
        assert np.allclose(grown.lo, [-0.5] * 3) and np.allclose(grown.hi, [1.5] * 3)
        scaled = box.scaled(2.0)
        assert np.allclose(scaled.extents, [2, 2, 2])
        assert np.allclose(scaled.center, box.center)

    def test_expanded_negative_collapse_raises(self):
        with pytest.raises(GeometryError):
            Box3D((0, 0, 0), (1, 1, 1)).expanded(-1.0)


class TestPointFunctions:
    def test_points_in_box(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        pts = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [1.0, 1.0, 1.0], [-0.1, 0, 0]])
        mask = points_in_box(pts, box)
        assert mask.tolist() == [True, False, True, False]

    def test_points_in_box_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            points_in_box(np.zeros((4, 2)), Box3D((0, 0, 0), (1, 1, 1)))

    def test_point_box_distance_inside_is_zero(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        assert point_box_distance(np.array([0.5, 0.5, 0.5]), box) == 0.0

    def test_point_box_distance_outside(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        assert point_box_distance(np.array([2.0, 0.5, 0.5]), box) == pytest.approx(1.0)
        assert point_box_distance(np.array([2.0, 2.0, 0.5]), box) == pytest.approx(np.sqrt(2))

    def test_points_box_distance_vectorised_matches_scalar(self, rng):
        box = Box3D((0, 0, 0), (1, 2, 3))
        pts = rng.uniform(-2, 4, size=(50, 3))
        vector = points_box_distance(pts, box)
        scalar = np.array([point_box_distance(p, box) for p in pts])
        assert np.allclose(vector, scalar)

    def test_underflowing_offsets_stay_positive(self):
        # Squaring these offsets underflows to 0; the distance must not.
        box = Box3D((0, 0, 0), (1, 1, 1))
        pts = np.array([[0.5, 0.5, -1e-300], [0.5, -5e-324, 0.5], [0.5, 0.5, 0.5]])
        distances = points_box_distance(pts, box)
        assert distances[0] == 1e-300
        assert distances[1] > 0.0
        assert distances[2] == 0.0
        assert point_box_distance(pts[0], box) == 1e-300
        assert box.distance_to_point(pts[1]) > 0.0

    def test_other_distances_keep_the_norm_bits(self, rng):
        box = Box3D((0, 0, 0), (1, 2, 3))
        pts = rng.uniform(-2, 4, size=(200, 3))
        delta = np.maximum(box.lo - pts, 0.0) + np.maximum(pts - box.hi, 0.0)
        assert np.array_equal(points_box_distance(pts, box), np.linalg.norm(delta, axis=1))

    def test_bounding_box_helper(self, rng):
        pts = rng.uniform(-1, 1, size=(20, 3))
        box = bounding_box(pts)
        assert np.all(points_in_box(pts, box))

    def test_overlap_volume(self):
        a = Box3D((0, 0, 0), (2, 2, 2))
        b = Box3D((1, 1, 1), (3, 3, 3))
        assert boxes_overlap_volume(a, b) == pytest.approx(1.0)
