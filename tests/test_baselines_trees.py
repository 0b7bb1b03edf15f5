"""Tests for the R-tree substrate and the LUR-Tree / QU-Trade baselines."""

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor, LURTreeExecutor, QUTradeExecutor, RTree
from repro.core import QueryCounters
from repro.errors import SpatialIndexError
from repro.generators import structured_tetrahedral_mesh
from repro.mesh import Box3D, points_in_box
from repro.simulation import RandomWalkDeformation
from repro.workloads import random_query_workload


def brute_force(positions, box):
    return np.nonzero(points_in_box(positions, box))[0]


class TestRTree:
    def test_bulk_load_and_query_match_brute_force(self, rng):
        positions = rng.uniform(size=(2000, 3))
        tree = RTree(fanout=32)
        tree.bulk_load(positions)
        for _ in range(20):
            corners = rng.uniform(size=(2, 3))
            box = Box3D(corners.min(axis=0), corners.max(axis=0))
            assert np.array_equal(tree.query_many([box], positions)[0], brute_force(positions, box))

    def test_counters_record_node_visits(self, rng):
        positions = rng.uniform(size=(500, 3))
        tree = RTree(fanout=16)
        tree.bulk_load(positions)
        counters = QueryCounters()
        tree.query_many([Box3D.cube((0.5, 0.5, 0.5), 0.2)], positions, [counters])
        assert counters.index_nodes_visited >= 1
        assert counters.vertices_scanned >= 0

    def test_leaf_capacity_respected_after_bulk_load(self, rng):
        positions = rng.uniform(size=(1000, 3))
        tree = RTree(fanout=25)
        tree.bulk_load(positions)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert len(node.entries) <= 25
            else:
                assert len(node.children) <= 25
                stack.extend(node.children)

    def test_every_point_assigned_to_exactly_one_leaf(self, rng):
        positions = rng.uniform(size=(800, 3))
        tree = RTree(fanout=20)
        tree.bulk_load(positions)
        seen = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                seen.extend(node.entries)
            else:
                stack.extend(node.children)
        assert sorted(seen) == list(range(800))

    def test_leaf_mbrs_contain_their_points(self, rng):
        positions = rng.uniform(size=(600, 3))
        tree = RTree(fanout=20)
        tree.bulk_load(positions)
        for entry_id in range(0, 600, 37):
            leaf = tree.leaf_of(entry_id)
            point = positions[entry_id]
            assert np.all(point >= leaf.lo - 1e-12) and np.all(point <= leaf.hi + 1e-12)

    def test_delete_then_insert_preserves_query_correctness(self, rng):
        positions = rng.uniform(size=(400, 3)).copy()
        tree = RTree(fanout=16)
        tree.bulk_load(positions)
        # Move 50 points far away and update the index for them.
        moved = rng.choice(400, size=50, replace=False)
        positions[moved] += 2.0
        for entry_id in moved:
            tree.delete(int(entry_id))
            tree.insert(int(entry_id), positions[entry_id])
        for _ in range(10):
            corners = rng.uniform(-0.5, 3.0, size=(2, 3))
            box = Box3D(corners.min(axis=0), corners.max(axis=0))
            assert np.array_equal(tree.query_many([box], positions)[0], brute_force(positions, box))

    def test_insert_splits_overflowing_leaf(self, rng):
        positions = rng.uniform(size=(50, 3)).copy()
        tree = RTree(fanout=8)
        tree.bulk_load(positions)
        n_nodes_before = tree.n_nodes
        # Grow the point set well past one leaf's capacity.
        extra = rng.uniform(size=(60, 3))
        all_positions = np.vstack([positions, extra])
        tree._positions = all_positions
        for i in range(60):
            tree.insert(50 + i, all_positions[50 + i])
        assert tree.n_nodes > n_nodes_before
        box = Box3D((0, 0, 0), (1, 1, 1))
        assert np.array_equal(tree.query_many([box], all_positions)[0], brute_force(all_positions, box))

    def test_query_with_expansion_returns_superset(self, rng):
        positions = rng.uniform(size=(500, 3))
        tree = RTree(fanout=16)
        tree.bulk_load(positions)
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        exact = tree.query_many([box], positions)[0]
        expanded = tree.query_many([box], positions, mbr_expansion=0.2)[0]
        assert set(exact.tolist()) <= set(expanded.tolist())

    def test_errors(self):
        with pytest.raises(SpatialIndexError):
            RTree(fanout=2)
        tree = RTree(fanout=8)
        with pytest.raises(SpatialIndexError):
            tree.query_many([Box3D.cube((0, 0, 0), 1.0)], np.zeros((1, 3)))
        with pytest.raises(SpatialIndexError):
            tree.bulk_load(np.zeros((0, 3)))

    def test_height_and_memory(self, rng):
        positions = rng.uniform(size=(3000, 3))
        tree = RTree(fanout=16)
        tree.bulk_load(positions)
        assert tree.height() >= 2
        assert tree.memory_bytes() > 0


class _MinChoiceRTree(RTree):
    """The child choice as a Python ``min`` over each child's volumes: the
    reference for :meth:`RTree._choose_child`.  Counts the choices that tie."""

    def __init__(self, fanout: int) -> None:
        super().__init__(fanout)
        self.ties = 0

    def _choose_child(self, children, point):
        def volume(lo, hi):
            return float(np.prod(np.maximum(hi - lo, 0.0)))

        keys = [
            (
                volume(np.minimum(child.lo, point), np.maximum(child.hi, point))
                - volume(child.lo, child.hi),
                volume(child.lo, child.hi),
            )
            for child in children
        ]
        best = min(keys)
        self.ties += keys.count(best) > 1
        return children[keys.index(best)]


def _grow(tree, base, extra):
    """Bulk-load ``base``, insert ``extra`` as the tail ids, then relocate
    every seventh entry; returns the tree."""
    tree.bulk_load(base)
    positions = np.vstack([base, extra])
    tree.rebind_positions(positions)
    for entry_id in range(base.shape[0], positions.shape[0]):
        tree.insert(entry_id, positions[entry_id])
    tree.reinsert(np.arange(0, positions.shape[0], 7), positions)
    return tree


def _assert_same_nodes(a, b):
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        assert x.is_leaf == y.is_leaf
        assert x.entries == y.entries
        assert np.array_equal(x.lo, y.lo) and np.array_equal(x.hi, y.hi)
        assert len(x.children) == len(y.children)
        stack.extend(zip(x.children, y.children))


class TestRTreeChildChoice:
    """Inserts grow the tree the reference ``min`` choice grows, node for node."""

    def test_random_points(self, rng):
        points = rng.uniform(size=(1500, 3))
        tree = _grow(RTree(fanout=8), points[:1000], points[1000:])
        reference = _grow(_MinChoiceRTree(fanout=8), points[:1000], points[1000:])
        _assert_same_nodes(tree, reference)

    def test_slab_ties(self):
        # Lattice vertices tile into congruent leaves, so cell centroids often
        # grow several children equally: the choice must break ties the same.
        slab = structured_tetrahedral_mesh((12, 12, 2))
        centroids = slab.vertices[slab.cells[:300]].mean(axis=1)
        tree = _grow(RTree(fanout=8), slab.vertices, centroids)
        reference = _grow(_MinChoiceRTree(fanout=8), slab.vertices, centroids)
        assert reference.ties > 0
        _assert_same_nodes(tree, reference)


class TestLURTree:
    def test_query_matches_linear_scan(self, neuron_small):
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(neuron_small)
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=6, seed=0)
        for box in workload.boxes:
            assert lur.query(box).same_vertices_as(linear.query(box))

    def test_stays_correct_across_deformation_steps(self, neuron_small):
        mesh = neuron_small.copy()
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        deformation = RandomWalkDeformation(amplitude=0.002, seed=1)
        deformation.bind(mesh)
        for step in range(1, 4):
            delta = deformation.apply(step)
            lur.on_step(delta)
            workload = random_query_workload(mesh, selectivity=0.02, n_queries=3, seed=step)
            for box in workload.boxes:
                assert lur.query(box).same_vertices_as(linear.query(box))

    def test_small_motion_triggers_few_reinserts(self, neuron_small):
        """Tiny per-step moves are absorbed lazily; structural reinserts are rare."""
        mesh = neuron_small.copy()
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(mesh)
        deformation = RandomWalkDeformation(amplitude=0.0002, seed=2)
        deformation.bind(mesh)
        lur.on_step(deformation.apply(1))
        assert lur.n_reinserts < 0.05 * mesh.n_vertices
        # Some entries were still touched (MBR extensions) because everything moved.
        assert lur.maintenance_entries >= lur.n_reinserts

    def test_maintenance_time_accumulates(self, neuron_small):
        mesh = neuron_small.copy()
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(mesh)
        deformation = RandomWalkDeformation(amplitude=0.005, seed=3)
        deformation.bind(mesh)
        elapsed = lur.on_step(deformation.apply(1))
        assert elapsed > 0.0
        assert lur.maintenance_time == pytest.approx(elapsed)

    def test_memory_overhead_positive(self, neuron_small):
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(neuron_small)
        assert lur.memory_overhead_bytes() > 0


class TestQUTrade:
    def test_query_matches_linear_scan(self, neuron_small):
        qu = QUTradeExecutor(window_fraction=0.05, fanout=32)
        qu.prepare(neuron_small)
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=6, seed=0)
        for box in workload.boxes:
            assert qu.query(box).same_vertices_as(linear.query(box))

    def test_stays_correct_across_deformation_steps(self, neuron_small):
        mesh = neuron_small.copy()
        qu = QUTradeExecutor(window_fraction=0.05, fanout=32)
        qu.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        deformation = RandomWalkDeformation(amplitude=0.002, seed=1)
        deformation.bind(mesh)
        for step in range(1, 4):
            delta = deformation.apply(step)
            qu.on_step(delta)
            workload = random_query_workload(mesh, selectivity=0.02, n_queries=3, seed=step)
            for box in workload.boxes:
                assert qu.query(box).same_vertices_as(linear.query(box))

    def test_grace_window_reduces_maintenance_vs_lur(self, neuron_small):
        """QU-Trade's whole point: fewer index updates than the LUR-Tree."""
        mesh_a = neuron_small.copy()
        mesh_b = neuron_small.copy()
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(mesh_a)
        qu = QUTradeExecutor(window_fraction=0.1, fanout=32)
        qu.prepare(mesh_b)
        for mesh, strategy in ((mesh_a, lur), (mesh_b, qu)):
            deformation = RandomWalkDeformation(amplitude=0.003, seed=7)
            deformation.bind(mesh)
            for step in range(1, 4):
                delta = deformation.apply(step)
                strategy.on_step(delta)
        assert qu.maintenance_entries <= lur.maintenance_entries

    def test_scans_more_candidates_than_exact_rtree(self, neuron_small):
        """The query-side price of grace windows: more irrelevant objects retrieved."""
        qu = QUTradeExecutor(window_fraction=0.1, fanout=32)
        qu.prepare(neuron_small)
        lur = LURTreeExecutor(fanout=32)
        lur.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.01, n_queries=5, seed=4)
        qu_scanned = sum(qu.query(b).counters.vertices_scanned for b in workload.boxes)
        lur_scanned = sum(lur.query(b).counters.vertices_scanned for b in workload.boxes)
        assert qu_scanned >= lur_scanned

    def test_tune_window(self, neuron_small):
        qu = QUTradeExecutor(window_fraction=0.01, fanout=32)
        qu.prepare(neuron_small)
        before = qu.window
        qu.tune_window_for(per_step_displacement=0.01, target_update_fraction=0.01)
        assert qu.window >= max(before, 1.0)
        with pytest.raises(SpatialIndexError):
            qu.tune_window_for(per_step_displacement=-1.0)

    def test_negative_window_rejected(self):
        with pytest.raises(SpatialIndexError):
            QUTradeExecutor(window_fraction=-0.1)
