"""Sharded query service: partitioning, routing, merge and delta slicing.

The concurrency-parity stress tests live in
``tests/test_service_concurrency.py``; this module covers the single-threaded
semantics the service promises:

* the Hilbert partition covers every cell exactly once and balances load;
* routing never prunes a shard that holds results (soundness is separately
  pinned by comparing against the linear scan);
* merged results carry union ids, summed counters and summed phase times;
* deformation and restructuring deltas reach every shard correctly sliced.

One caveat worth naming: shard cut faces turn some interior vertices into
shard-*surface* vertices, so the sharded service can retrieve in-box vertices
whose whole neighbourhood lies outside the box — vertices the unsharded
crawl has no seed for.  The service is therefore compared against the linear
scan (ground truth), not bit-for-bit against unsharded OCTOPUS; it may only
ever return a *superset* of the unsharded answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor
from repro.core import DeformationDelta, OctopusExecutor, QueryCounters, TopologyDelta
from repro.errors import SimulationError
from repro.mesh import Box3D
from repro.service import MeshShard, ShardedQueryService, partition_mesh
from repro.simulation import LocalizedPulseDeformation
from repro.simulation.restructuring import split_cells_inplace
from repro.workloads import random_query_workload


class TestPartition:
    def test_cells_partition_exactly(self, neuron_small):
        shards, elapsed = partition_mesh(neuron_small, 4)
        assert len(shards) == 4
        assert elapsed >= 0.0
        all_cells = np.concatenate([shard.cell_ids for shard in shards])
        assert np.array_equal(np.sort(all_cells), np.arange(neuron_small.n_cells))

    def test_balanced_cell_counts(self, neuron_small):
        shards, _ = partition_mesh(neuron_small, 4)
        counts = [shard.cell_ids.size for shard in shards]
        assert max(counts) - min(counts) <= 1

    def test_global_ids_sorted_unique_and_cover_cells(self, neuron_small):
        shards, _ = partition_mesh(neuron_small, 3)
        for shard in shards:
            assert np.all(np.diff(shard.global_ids) > 0)
            # the submesh relabels exactly the referenced vertices
            assert shard.mesh.n_vertices == shard.global_ids.size
            referenced = np.unique(neuron_small.cells[shard.cell_ids])
            assert np.array_equal(shard.global_ids, referenced)

    def test_submesh_positions_match_parent(self, neuron_small):
        shards, _ = partition_mesh(neuron_small, 4)
        for shard in shards:
            np.testing.assert_array_equal(
                shard.mesh.vertices, neuron_small.vertices[shard.global_ids]
            )

    def test_local_global_roundtrip(self, neuron_small):
        shards, _ = partition_mesh(neuron_small, 4)
        shard = shards[1]
        local = np.arange(shard.n_vertices, dtype=np.int64)
        back, member = shard.local_ids_for(shard.to_global(local))
        assert member.all()
        assert np.array_equal(back, local)
        # foreign ids are dropped, not mismapped
        foreign = np.setdiff1d(
            np.arange(neuron_small.n_vertices, dtype=np.int64), shard.global_ids
        )[:5]
        _, member = shard.local_ids_for(foreign)
        assert not member.any()

    def test_n_shards_clamped_to_cell_count(self, grid_mesh):
        shards, _ = partition_mesh(grid_mesh, grid_mesh.n_cells + 100)
        assert len(shards) == grid_mesh.n_cells

    def test_invalid_shard_count_rejected(self, neuron_small):
        with pytest.raises(SimulationError, match="n_shards"):
            partition_mesh(neuron_small, 0)


def _service(mesh, n_shards, **kwargs):
    service = ShardedQueryService(n_shards=n_shards, **kwargs)
    service.prepare(mesh.copy())
    return service


class TestQueryParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_matches_linear_scan_static(self, neuron_small, n_shards):
        linear = LinearScanExecutor()
        linear.prepare(neuron_small.copy())
        workload = random_query_workload(
            neuron_small, selectivity=0.01, n_queries=12, seed=5
        )
        with _service(neuron_small, n_shards) as service:
            for box in workload.boxes:
                got = service.query(box)
                want = linear.query(box)
                assert got.same_vertices_as(want)

    def test_superset_of_unsharded_octopus(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small.copy())
        workload = random_query_workload(
            neuron_small, selectivity=0.01, n_queries=12, seed=6
        )
        with _service(neuron_small, 4) as service:
            for box in workload.boxes:
                got = service.query(box).vertex_ids
                want = octopus.query(box).vertex_ids
                assert np.isin(want, got).all()

    def test_query_many_matches_query(self, neuron_small):
        workload = random_query_workload(
            neuron_small, selectivity=0.01, n_queries=8, seed=7
        )
        with _service(neuron_small, 4) as service:
            batched = service.query_many(workload.boxes)
            for box, got in zip(workload.boxes, batched):
                assert got.same_vertices_as(service.query(box))

    def test_whole_mesh_box_routes_everywhere(self, neuron_small):
        with _service(neuron_small, 4) as service:
            box = neuron_small.bounding_box()
            assert service.route(box).size == 4
            result = service.query(box)
            # every cell-referenced vertex is retrieved exactly once
            referenced = np.unique(neuron_small.cells)
            assert np.array_equal(result.vertex_ids, referenced)

    def test_far_box_routes_nowhere(self, neuron_small):
        with _service(neuron_small, 4) as service:
            box = Box3D((1e3, 1e3, 1e3), (1e3 + 1.0, 1e3 + 1.0, 1e3 + 1.0))
            assert service.route(box).size == 0
            result = service.query(box)
            assert result.n_results == 0
            assert result.complete

    def test_empty_batch(self, neuron_small):
        with _service(neuron_small, 2) as service:
            assert service.query_many([]) == []


class TestMergeSemantics:
    def test_counters_and_times_sum_across_shards(self, neuron_small):
        with _service(neuron_small, 4) as service:
            box = neuron_small.bounding_box()  # spans every shard
            routed = service.route(box)
            assert routed.size > 1
            pieces = [
                (service._shards[k], service._strategies[k].query(box)) for k in routed
            ]
            merged = service._merge(pieces)
            want = QueryCounters()
            for _, piece in pieces:
                want += piece.counters
            assert merged.counters == want
            assert merged.crawl_time == pytest.approx(
                sum(piece.crawl_time for _, piece in pieces)
            )
            assert merged.complete

    def test_overlap_band_dedup(self, neuron_small):
        with _service(neuron_small, 4) as service:
            assert service.overlap_band_size() > 0  # boundaries duplicate vertices
            box = neuron_small.bounding_box()
            ids = service.query(box).vertex_ids
            assert np.unique(ids).size == ids.size  # the union really dedups


class TestMaintenance:
    def test_sparse_ticks_keep_shards_synced(self, neuron_small):
        mesh = neuron_small.copy()
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        deformation = LocalizedPulseDeformation(sparsity=0.05, amplitude=0.01, seed=11)
        deformation.bind(mesh)
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=6, seed=12)
        with ShardedQueryService(n_shards=4) as service:
            service.prepare(mesh)
            for step in range(1, 4):
                delta = deformation.apply(step)
                service.on_step(delta)
                for shard in service._shards:
                    np.testing.assert_array_equal(
                        shard.mesh.vertices, mesh.vertices[shard.global_ids]
                    )
                for box in workload.boxes:
                    assert service.query(box).same_vertices_as(linear.query(box))

    def test_sparse_tick_copies_parent_coordinates(self, neuron_small):
        # a surface vertex moved toward zero: adding the motion to the shard
        # copy (a + (b - a)) lands an ulp below the parent's z, so a box whose
        # lower face passes through the parent position missed it in the shard
        mesh = neuron_small.copy()
        surface = mesh.surface_vertices()
        moved = int(surface[np.argmin(np.abs(mesh.vertices[surface, 2] - 0.0233))])
        old = mesh.vertices[moved].copy()
        new = np.array([old[0], old[1], 1e-9])
        with ShardedQueryService(n_shards=2) as service:
            service.prepare(mesh)
            positions = mesh.vertices.copy()
            positions[moved] = new
            mesh.set_positions(positions)
            ids = np.array([moved])
            service.on_step(DeformationDelta.sparse(mesh.n_vertices, ids, old[None], new[None]))
            for shard in service.shards:
                np.testing.assert_array_equal(
                    shard.mesh.vertices, mesh.vertices[shard.global_ids]
                )
            box = Box3D(new - np.array([1e-3, 1e-3, 0.0]), new + 1e-3)
            for reference in (LinearScanExecutor(), OctopusExecutor()):
                reference.prepare(mesh)
                assert moved in reference.query(box).vertex_ids
            assert moved in service.query(box).vertex_ids

    def test_full_delta_rewrites_every_shard(self, neuron_small):
        mesh = neuron_small.copy()
        with ShardedQueryService(n_shards=3) as service:
            service.prepare(mesh)
            rng = np.random.default_rng(0)
            mesh.set_positions(mesh.vertices + rng.normal(0, 0.01, mesh.vertices.shape))
            service.on_step(DeformationDelta.full(mesh.n_vertices))
            for shard in service._shards:
                np.testing.assert_array_equal(
                    shard.mesh.vertices, mesh.vertices[shard.global_ids]
                )

    def test_empty_delta_is_cheap_and_correct(self, neuron_small):
        mesh = neuron_small.copy()
        with ShardedQueryService(n_shards=3) as service:
            service.prepare(mesh)
            before = [shard.mesh.vertices.copy() for shard in service._shards]
            service.on_step(DeformationDelta.empty(mesh.n_vertices))
            for shard, want in zip(service._shards, before):
                np.testing.assert_array_equal(shard.mesh.vertices, want)

    def test_empty_topology_delta_does_not_repartition(self, neuron_small):
        mesh = neuron_small.copy()
        with ShardedQueryService(n_shards=3) as service:
            service.prepare(mesh)
            service.on_restructure(TopologyDelta.empty(mesh.n_vertices))
            assert service.n_repartitions == 0

    def test_restructuring_repartitions_and_stays_exact(self, grid_mesh):
        mesh = grid_mesh.copy()
        linear = LinearScanExecutor()
        linear.prepare(mesh)
        workload = random_query_workload(mesh, selectivity=0.02, n_queries=6, seed=13)
        with ShardedQueryService(n_shards=4) as service:
            service.prepare(mesh)
            event = split_cells_inplace(mesh, np.array([0, 5, 17]))
            linear.on_restructure(event.delta)
            service.on_restructure(event.delta)
            assert service.n_repartitions == 1
            all_cells = np.concatenate([s.cell_ids for s in service._shards])
            assert np.array_equal(np.sort(all_cells), np.arange(mesh.n_cells))
            for box in workload.boxes:
                assert service.query(box).same_vertices_as(linear.query(box))


class TestServiceSurface:
    def test_name_memory_and_describe(self, neuron_small):
        with _service(neuron_small, 4) as service:
            assert service.name == "sharded-octopusx4"
            assert service.memory_overhead_bytes() > 0
            description = service.describe()
            assert description["n_shards"] == 4
            assert description["overlap_vertices"] == service.overlap_band_size()

    def test_shard_reuse_across_repartition(self, neuron_small):
        # repartitioning to the same shard count reuses strategy instances
        with _service(neuron_small, 2) as service:
            strategies = list(service._strategies)
            service.prepare(neuron_small.copy())
            assert list(service._strategies) == strategies

    def test_mesh_shard_repr_fields(self, neuron_small):
        shards, _ = partition_mesh(neuron_small, 2)
        shard = shards[0]
        assert isinstance(shard, MeshShard)
        assert shard.n_vertices == shard.global_ids.size
        assert shard.bounds.contains_points(shard.mesh.vertices).all()
