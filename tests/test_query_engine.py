"""Tests for the zero-allocation query engine: scratch arena, batching, hot paths.

Covers the performance layer added around the crawl:

* the reusable :class:`CrawlScratch` arena (no O(n_vertices) allocation
  per query, identical results to fresh-allocation crawls, survival across
  mesh restructuring epochs);
* the batched ``query_many`` API (equality with one-box ``query`` calls for
  OCTOPUS, OCTOPUS-CON and baselines, counter parity, harness wiring);
* the vectorised hot paths (the multi-source walk, the grid's
  ``locate_batch``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.crawler as crawler_module
from repro.baselines import (
    LinearScanExecutor,
    LURTreeExecutor,
    ThrowawayOctreeExecutor,
)
from repro.core import (
    CrawlScratch,
    OctopusConExecutor,
    OctopusExecutor,
    QueryCounters,
    crawl_many,
    directed_walk_many,
)
from repro.mesh import Box3D, points_in_box
from repro.simulation import DeformationDelta, remove_cells
from repro.workloads import random_query_workload


def _crawl_one(mesh, box, starts, counters=None, scratch=None):
    """One box's crawl: ``crawl_many`` for a batch of one."""
    return crawl_many(mesh, [box], [starts], [counters], scratch=scratch).outcomes[0]


class TestCrawlScratch:
    def test_capacity_survives_mesh_shrinkage(self):
        """A smaller mesh reuses the big arena instead of reallocating."""
        scratch = CrawlScratch()
        big_words, _ = scratch.acquire_batch(1000)
        small_words, _ = scratch.acquire_batch(10)
        assert small_words is big_words  # capacity kept
        assert not small_words[:10].any()

    def test_arena_regrows_between_executor_prepares(self, grid_mesh, neuron_small):
        """prepare() on a growing mesh regrows the same executor's arena."""
        meshes = sorted([grid_mesh, neuron_small], key=lambda m: m.n_vertices)
        octopus = OctopusExecutor()
        for mesh in meshes:
            octopus.prepare(mesh)
            box = Box3D.cube(mesh.vertices[0], 0.3)
            reference = LinearScanExecutor()
            reference.prepare(mesh)
            assert octopus.query(box).same_vertices_as(reference.query(box))
            assert octopus.scratch._batch_words.shape[0] >= mesh.n_vertices
        # Shrinking back keeps the larger capacity and stays correct.
        octopus.prepare(meshes[0])
        capacity = octopus.scratch._batch_words.shape[0]
        assert capacity >= meshes[1].n_vertices
        box = Box3D.cube(meshes[0].vertices[0], 0.3)
        reference = LinearScanExecutor()
        reference.prepare(meshes[0])
        assert octopus.query(box).same_vertices_as(reference.query(box))
        assert octopus.scratch._batch_words.shape[0] == capacity

    def test_batch_arena_regrows_between_executor_prepares(self, grid_mesh, neuron_small):
        """query_many() after re-prepare() on a bigger mesh regrows the bitset arena."""
        meshes = sorted([grid_mesh, neuron_small], key=lambda m: m.n_vertices)
        octopus = OctopusExecutor()
        for mesh in meshes:
            octopus.prepare(mesh)
            boxes = [Box3D.cube(mesh.vertices[0], 0.3), Box3D.cube(mesh.vertices[-1], 0.2)]
            _assert_batch_matches_sequential(octopus, mesh, boxes)
            assert octopus.scratch._batch_words.shape[0] >= mesh.n_vertices

    def test_iota_is_reused_ramp(self):
        scratch = CrawlScratch()
        ramp = scratch.iota(5)
        assert np.array_equal(ramp, np.arange(5))
        again = scratch.iota(3)
        assert again.base is scratch.iota(5).base

    def test_memory_accounting(self):
        scratch = CrawlScratch()
        assert scratch.memory_bytes() == 0
        # Steady state: one ownership word (8 bytes) per vertex.
        assert scratch.expected_bytes(1000) == 8000
        scratch.acquire_batch(1000)
        assert scratch.memory_bytes() >= 8000
        # The estimate is stable before and after the arena is touched, and
        # the gather ramp, which grows with the largest gather, stays out.
        scratch.iota(100_000)
        assert scratch.memory_bytes() > 800_000
        assert scratch.expected_bytes(1000) == 8000

    @pytest.mark.parametrize("executor_type", [OctopusExecutor, OctopusConExecutor])
    def test_reported_overhead_does_not_depend_on_query_history(self, neuron_small, executor_type):
        executor = executor_type()
        executor.prepare(neuron_small)
        before = executor.memory_overhead_bytes()
        workload = random_query_workload(neuron_small, selectivity=0.05, n_queries=4, seed=3)
        for box in workload.boxes:
            executor.query(box)
        executor.query(neuron_small.bounding_box())
        assert executor.memory_overhead_bytes() == before


class TestScratchCrawlEquivalence:
    def test_scratch_crawl_matches_fresh_allocation_across_repeats(self, neuron_small, rng):
        """Property (a): same results and counters with and without the arena."""
        scratch = CrawlScratch()
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=6, seed=7)
        for box in workload.boxes:
            starts = np.nonzero(points_in_box(neuron_small.vertices, box))[0][:5]
            fresh_counters = QueryCounters()
            shared_counters = QueryCounters()
            fresh = _crawl_one(neuron_small, box, starts, fresh_counters)
            shared = _crawl_one(neuron_small, box, starts, shared_counters, scratch=scratch)
            assert np.array_equal(fresh.result_ids, shared.result_ids)
            assert fresh_counters.as_dict() == shared_counters.as_dict()

    def test_scratch_survives_mesh_restructuring_epochs(self, grid_mesh):
        """The arena stays valid when connectivity (and vertex count) changes."""
        mesh = grid_mesh.copy()
        scratch = CrawlScratch()
        box = Box3D((0.1, 0.1, 0.1), (0.8, 0.8, 0.8))
        for round_index in range(3):
            starts = np.nonzero(points_in_box(mesh.vertices, box))[0][:3]
            fresh = _crawl_one(mesh, box, starts)
            shared = _crawl_one(mesh, box, starts, scratch=scratch)
            assert np.array_equal(fresh.result_ids, shared.result_ids)
            smaller, _ = remove_cells(mesh, np.arange(10 * (round_index + 1)))
            mesh.restructure(mesh.vertices, smaller.cells)

    def test_crawl_performs_no_per_query_dataset_size_allocation(self, neuron_small, monkeypatch):
        """Acceptance: repeated queries on a prepared executor never np.zeros(n)."""
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        box = Box3D.cube(neuron_small.vertices[10], 0.3)
        octopus.query(box)  # warm the arena

        big_allocations = []
        real_zeros = np.zeros

        def spying_zeros(*args, **kwargs):
            out = real_zeros(*args, **kwargs)
            if out.size >= neuron_small.n_vertices:
                big_allocations.append(out.size)
            return out

        for module in (crawler_module,):
            monkeypatch.setattr(module.np, "zeros", spying_zeros)
        for _ in range(5):
            octopus.query(box)
        assert big_allocations == []

    def test_executor_scratch_identity_stable_across_queries(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        box = Box3D.cube(neuron_small.vertices[0], 0.3)
        octopus.query(box)
        arena = octopus.scratch._batch_words
        epoch = octopus.scratch.batch_epoch
        octopus.query(box)
        assert octopus.scratch._batch_words is arena
        assert octopus.scratch.batch_epoch > epoch

    def test_bare_crawl_still_correct_without_scratch(self, grid_mesh):
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        inside = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        outcome = _crawl_one(grid_mesh, box, inside[:1])
        assert np.array_equal(outcome.result_ids, inside)


def _assert_batch_matches_sequential(executor, mesh, boxes):
    sequential = [executor.query(box) for box in boxes]
    batched = executor.query_many(boxes)
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert got.same_vertices_as(expected)
        assert got.counters.as_dict() == expected.counters.as_dict()


class TestQueryMany:
    """Property (b): query_many(boxes) equals sequential query(box) per strategy."""

    def test_octopus_batch_matches_sequential(self, neuron_small):
        executor = OctopusExecutor()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.01, n_queries=8, seed=11)
        # Include a miss and an enclosed box so the walk path is exercised.
        far = Box3D.cube(neuron_small.bounding_box().hi + 5.0, 0.4)
        boxes = workload.boxes + [far]
        _assert_batch_matches_sequential(executor, neuron_small, boxes)

    def test_octopus_con_batch_matches_sequential(self, earthquake_small):
        executor = OctopusConExecutor()
        executor.prepare(earthquake_small)
        workload = random_query_workload(earthquake_small, selectivity=0.02, n_queries=6, seed=3)
        far = Box3D.cube(earthquake_small.bounding_box().hi + 5.0, 0.4)
        boxes = workload.boxes + [far]
        _assert_batch_matches_sequential(executor, earthquake_small, boxes)

    def test_linear_scan_batch_matches_sequential(self, neuron_small):
        executor = LinearScanExecutor()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.05, n_queries=7, seed=5)
        _assert_batch_matches_sequential(executor, neuron_small, workload.boxes)

    @pytest.mark.parametrize("factory", [ThrowawayOctreeExecutor, LURTreeExecutor])
    def test_tree_baselines_native_batch_matches_sequential(self, neuron_small, factory):
        executor = factory()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.03, n_queries=4, seed=9)
        _assert_batch_matches_sequential(executor, neuron_small, workload.boxes)

    def test_octopus_batch_all_strategies_agree(self, neuron_small):
        """Batched OCTOPUS still agrees with the batched linear scan."""
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=6, seed=21)
        for got, expected in zip(
            octopus.query_many(workload.boxes), linear.query_many(workload.boxes)
        ):
            assert got.same_vertices_as(expected)

    def test_batch_after_restructuring_epoch(self, grid_mesh):
        mesh = grid_mesh.copy()
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        smaller, _ = remove_cells(mesh, np.arange(40))
        mesh.restructure(mesh.vertices, smaller.cells)
        octopus.on_step(DeformationDelta.empty(mesh.n_vertices))
        boxes = [
            Box3D((0.0, 0.0, 0.0), (0.6, 0.6, 0.6)),
            Box3D((0.3, 0.3, 0.3), (0.9, 0.9, 0.9)),
        ]
        _assert_batch_matches_sequential(octopus, mesh, boxes)

    def test_empty_and_single_batches(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        assert octopus.query_many([]) == []
        box = Box3D.cube(neuron_small.vertices[0], 0.2)
        single = octopus.query_many([box])
        assert len(single) == 1
        assert single[0].same_vertices_as(octopus.query(box))

    def test_probe_distance_counter_on_miss(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        far = Box3D.cube(neuron_small.bounding_box().hi + 5.0, 0.4)
        result = octopus.query(far)
        assert result.counters.probe_distance_computations == len(octopus.surface_index)
        near = Box3D.cube(neuron_small.vertices[0], 0.5)
        hit = octopus.query(near)
        assert hit.counters.probe_distance_computations == 0

    def test_workload_as_arrays(self, neuron_small):
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=5, seed=2)
        los, his = workload.as_arrays()
        assert los.shape == (5, 3) and his.shape == (5, 3)
        assert np.array_equal(los[0], workload.boxes[0].lo)
        assert np.array_equal(his[4], workload.boxes[4].hi)


class TestVectorisedHotPaths:
    def test_directed_walk_multi_source(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        outcome = directed_walk_many(grid_mesh, [box], [np.array([0, 124])]).outcomes[0]
        assert outcome.found_id is not None
        assert box.contains_point(grid_mesh.vertices[outcome.found_id])

    def test_grid_locate_batch_matches_any_vertex_near(self, earthquake_small):
        executor = OctopusConExecutor()
        executor.prepare(earthquake_small)
        grid = executor.grid
        rng = np.random.default_rng(4)
        points = rng.uniform(
            earthquake_small.bounding_box().lo, earthquake_small.bounding_box().hi, size=(20, 3)
        )
        batch = grid.locate_batch(points)
        for point, got in zip(points, batch):
            if got >= 0:
                assert got == grid.any_vertex_near(point)

