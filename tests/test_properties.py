"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import LinearScanExecutor, Octree, RTree
from repro.core import OctopusExecutor, crawl_many
from repro.generators import structured_tetrahedral_mesh
from repro.mesh import (
    Box3D,
    hilbert_sort_order,
    points_box_distance,
    points_in_box,
)

# Shared, module-level meshes so hypothesis examples do not regenerate them.
GRID = structured_tetrahedral_mesh((4, 4, 4))
GRID_OCTOPUS = OctopusExecutor()
GRID_OCTOPUS.prepare(GRID)
GRID_LINEAR = LinearScanExecutor()
GRID_LINEAR.prepare(GRID)

# Degenerate boxes whose lower z lies just above the z = 0 surface vertex
# (0.5, 0.5, 0), by an offset whose square underflows to 0: a norm that squares
# first reads that vertex as inside, and the walk then stops outside the box.
UNDERFLOW_BOXES = [
    Box3D((0.5, 0.5, 1.1125369292536007e-308), (0.5, 0.5, 0.5)),
    Box3D((0.5, 0.5, 6.641315869431249e-287), (0.5, 0.5, 0.5)),
]


finite_coord = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    a = np.array([draw(finite_coord) for _ in range(3)])
    b = np.array([draw(finite_coord) for _ in range(3)])
    return Box3D(np.minimum(a, b), np.maximum(a, b))


@st.composite
def point_sets(draw, max_points=60):
    n = draw(st.integers(min_value=1, max_value=max_points))
    return draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(n, 3),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False),
        )
    )


class TestGeometryProperties:
    @given(boxes(), point_sets())
    @settings(max_examples=60, deadline=None)
    def test_membership_consistent_with_distance(self, box, points):
        """A point is inside the box exactly when its distance to the box is zero.

        The distance squares per-axis overshoots, so separations below the
        square root of the smallest normal float underflow to zero; those
        (physically meaningless) cases are excluded from the equivalence.
        """
        inside = points_in_box(points, box)
        distances = points_box_distance(points, box)
        assert np.all(distances[inside] == 0.0)
        overshoot = np.maximum(box.lo - points, 0.0) + np.maximum(points - box.hi, 0.0)
        clearly_outside = overshoot.max(axis=1) > 1e-150
        assert np.all(distances[clearly_outside] > 0.0)
        assert np.all(~inside[clearly_outside])

    @given(boxes(), boxes())
    @settings(max_examples=60, deadline=None)
    def test_intersection_symmetric_and_contained(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        overlap = a.intersection(b)
        if overlap is None:
            assert not a.intersects(b)
        else:
            assert a.contains_box(overlap) and b.contains_box(overlap)
            assert overlap.volume <= min(a.volume, b.volume) + 1e-12

    @given(boxes(), boxes())
    @settings(max_examples=40, deadline=None)
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_box(a) and union.contains_box(b)

    @given(boxes(), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_expansion_is_monotone(self, box, margin):
        grown = box.expanded(margin)
        assert grown.contains_box(box)

    @given(point_sets(max_points=40))
    @settings(max_examples=40, deadline=None)
    def test_bounding_box_contains_all_points(self, points):
        box = Box3D.from_points(points)
        assert np.all(points_in_box(points, box))

    @given(point_sets(max_points=40))
    @settings(max_examples=30, deadline=None)
    def test_hilbert_sort_order_is_permutation(self, points):
        order = hilbert_sort_order(points)
        assert np.array_equal(np.sort(order), np.arange(points.shape[0]))


class TestQueryExecutionProperties:
    @given(boxes())
    @example(UNDERFLOW_BOXES[0])
    @example(UNDERFLOW_BOXES[1])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_octopus_always_matches_linear_scan_on_convex_mesh(self, box):
        """For every axis-aligned box, OCTOPUS returns exactly the scan result."""
        expected = GRID_LINEAR.query(box)
        got = GRID_OCTOPUS.query(box)
        assert got.same_vertices_as(expected)

    def test_batched_octopus_matches_linear_scan_on_underflowing_boxes(self):
        """The fused walk of query_many must not stop outside the box either."""
        expected = GRID_LINEAR.query_many(UNDERFLOW_BOXES)
        got = GRID_OCTOPUS.query_many(UNDERFLOW_BOXES)
        for got_result, expected_result in zip(got, expected):
            assert expected_result.vertex_ids.size == 2
            assert got_result.same_vertices_as(expected_result)

    @given(boxes())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_crawl_result_is_subset_of_box_content(self, box):
        starts = GRID.surface_vertices()
        outcome = crawl_many(GRID, [box], [starts]).outcomes[0]
        if outcome.result_ids.size:
            assert np.all(points_in_box(GRID.vertices[outcome.result_ids], box))

    @given(boxes())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_octopus_work_never_exceeds_scan_plus_crawl_bound(self, box):
        """Counter sanity: probe <= surface size, crawl visits <= vertex count."""
        result = GRID_OCTOPUS.query(box)
        assert result.counters.surface_probed <= GRID.surface_vertices().size
        assert result.counters.crawl_vertices_visited <= GRID.n_vertices


class TestIndexProperties:
    @given(point_sets(max_points=80), boxes())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rtree_query_equals_brute_force(self, points, box):
        tree = RTree(fanout=8)
        tree.bulk_load(points)
        expected = np.nonzero(points_in_box(points, box))[0]
        assert np.array_equal(tree.query_many([box], points)[0], expected)

    @given(point_sets(max_points=80), boxes())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_octree_query_equals_brute_force(self, points, box):
        octree = Octree(bucket_size=8)
        octree.build(points)
        expected = np.nonzero(points_in_box(points, box))[0]
        assert np.array_equal(octree.query_many([box], points)[0], expected)
