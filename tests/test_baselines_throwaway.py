"""Tests for the throwaway (rebuild-per-step) octree baseline and the linear scan."""

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor, Octree, ThrowawayOctreeExecutor
from repro.core import QueryCounters
from repro.errors import SpatialIndexError
from repro.mesh import Box3D, points_in_box
from repro.simulation import DeformationDelta, RandomWalkDeformation
from repro.workloads import random_query_workload


def brute_force(positions, box):
    return np.nonzero(points_in_box(positions, box))[0]


class TestLinearScan:
    def test_matches_brute_force(self, neuron_small, rng):
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        for _ in range(5):
            corners = rng.uniform(-1, 1, size=(2, 3))
            box = Box3D(corners.min(axis=0), corners.max(axis=0))
            result = linear.query(box)
            assert np.array_equal(result.vertex_ids, brute_force(neuron_small.vertices, box))

    def test_scans_every_vertex(self, neuron_small):
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        result = linear.query(Box3D.cube((0, 0, 0), 0.1))
        assert result.counters.vertices_scanned == neuron_small.n_vertices

    def test_no_memory_overhead_and_no_maintenance(self, neuron_small):
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        assert linear.memory_overhead_bytes() == 0
        assert linear.on_step(DeformationDelta.full(neuron_small.n_vertices)) == 0.0


class TestOctreeStructure:
    def test_query_matches_brute_force(self, rng):
        positions = rng.uniform(size=(3000, 3))
        octree = Octree(bucket_size=64)
        octree.build(positions)
        for _ in range(15):
            corners = rng.uniform(size=(2, 3))
            box = Box3D(corners.min(axis=0), corners.max(axis=0))
            assert np.array_equal(octree.query_many([box], positions)[0], brute_force(positions, box))

    def test_bucket_splitting(self, rng):
        positions = rng.uniform(size=(1000, 3))
        coarse = Octree(bucket_size=2000)
        coarse.build(positions)
        fine = Octree(bucket_size=32)
        fine.build(positions)
        assert coarse.n_nodes == 1
        assert fine.n_nodes > 8

    def test_counters(self, rng):
        positions = rng.uniform(size=(500, 3))
        octree = Octree(bucket_size=32)
        octree.build(positions)
        counters = QueryCounters()
        octree.query_many([Box3D.cube((0.5, 0.5, 0.5), 0.4)], positions, [counters])
        assert counters.index_nodes_visited > 0
        assert counters.vertices_scanned > 0

    def test_errors(self):
        with pytest.raises(SpatialIndexError):
            Octree(bucket_size=0)
        octree = Octree()
        with pytest.raises(SpatialIndexError):
            octree.query_many([Box3D.cube((0, 0, 0), 1)], np.zeros((1, 3)))
        with pytest.raises(SpatialIndexError):
            octree.build(np.zeros((0, 3)))


class TestThrowawayOctreeExecutor:
    def test_matches_linear_scan_and_rebuilds(self, neuron_small):
        mesh = neuron_small.copy()
        strategy = ThrowawayOctreeExecutor(bucket_size=64)
        strategy.prepare(mesh)
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        deformation = RandomWalkDeformation(amplitude=0.002, seed=0)
        deformation.bind(mesh)
        for step in range(1, 3):
            delta = deformation.apply(step)
            maintenance = strategy.on_step(delta)
            assert maintenance > 0.0                      # a rebuild really happened
            workload = random_query_workload(mesh, selectivity=0.02, n_queries=3, seed=step)
            for box in workload.boxes:
                assert strategy.query(box).same_vertices_as(linear.query(box))
        # Rebuilds touch every vertex at every step.
        assert strategy.maintenance_entries == 2 * mesh.n_vertices

    def test_memory_overhead_positive(self, neuron_small):
        strategy = ThrowawayOctreeExecutor(bucket_size=64)
        strategy.prepare(neuron_small)
        assert strategy.memory_overhead_bytes() > 0
