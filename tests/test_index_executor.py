"""The query path the index baselines share, and their lifecycles.

Every index baseline answers a batch of boxes, a single box included, with
one timed search of its index; the throwaway octree rebuilds from scratch
unless a step or a restructuring left it valid; the updatable R-trees insert
a restructuring's appended tail instead of reloading.  The parity suites
compare each incremental path with its full-recompute twin and bound its
cost; these tests pin what each skip and each rebuild charges.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.baselines.index_executor as index_executor
from repro.baselines import (
    LURTreeExecutor,
    QUTradeExecutor,
    RUMTreeExecutor,
    ThrowawayOctreeExecutor,
)
from repro.core import DeformationDelta, TopologyDelta
from repro.generators import structured_tetrahedral_mesh
from repro.mesh import points_in_box
from repro.simulation import remove_cells_inplace, split_cells_inplace
from repro.workloads import random_query_workload

UPDATABLE = {
    "lur-tree": lambda: LURTreeExecutor(fanout=16),
    "qu-trade": lambda: QUTradeExecutor(fanout=16, window_fraction=0.01),
    "rum-tree": lambda: RUMTreeExecutor(fanout=16),
}

INDEX_EXECUTORS = {"octree": lambda: ThrowawayOctreeExecutor(bucket_size=16), **UPDATABLE}

#: the cells every restructuring test splits or removes
CELLS = np.arange(3, dtype=np.int64)


def _prepared(factory):
    mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
    strategy = factory()
    strategy.prepare(mesh)
    return strategy, mesh


def _boxes(mesh, n_queries=3):
    return random_query_workload(mesh, selectivity=0.1, n_queries=n_queries, seed=7).boxes


def _assert_exact(strategy, mesh):
    """Every workload box, and the whole mesh, answered like a brute-force scan."""
    for box in [*_boxes(mesh), mesh.bounding_box()]:
        expected = np.nonzero(points_in_box(mesh.vertices, box))[0]
        assert np.array_equal(strategy.query(box).vertex_ids, expected)


@pytest.fixture()
def unit_clock(monkeypatch):
    """Make every ``perf_counter`` reading of the shared query path one
    second after the last, so a timed search takes exactly one second."""
    ticks = iter(range(1_000_000))
    monkeypatch.setattr(
        index_executor, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    )


def _spy_searches(strategy, monkeypatch):
    """Record the box count of every ``_search_many`` call."""
    calls = []
    search_many = strategy._search_many

    def spy_search_many(boxes, counters_list):
        calls.append(len(boxes))
        return search_many(boxes, counters_list)

    monkeypatch.setattr(strategy, "_search_many", spy_search_many)
    return calls


@pytest.mark.parametrize("name", sorted(INDEX_EXECUTORS))
class TestSharedQueryPath:
    def test_query_charges_one_search_as_index_and_total_time(self, name, unit_clock):
        strategy, mesh = _prepared(INDEX_EXECUTORS[name])
        box = _boxes(mesh)[0]
        result = strategy.query(box)
        assert np.array_equal(result.vertex_ids, np.nonzero(points_in_box(mesh.vertices, box))[0])
        assert result.index_time == result.total_time == 1.0
        assert result.probe_time == result.walk_time == result.crawl_time == result.scan_time == 0.0

    def test_batch_runs_one_search_split_evenly(self, name, unit_clock, monkeypatch):
        strategy, mesh = _prepared(INDEX_EXECUTORS[name])
        boxes = _boxes(mesh)
        calls = _spy_searches(strategy, monkeypatch)
        batch = strategy.query_many(boxes)
        assert calls == [len(boxes)]
        for box, result in zip(boxes, batch):
            expected = np.nonzero(points_in_box(mesh.vertices, box))[0]
            assert np.array_equal(result.vertex_ids, expected)
            assert result.index_time == result.total_time == 1.0 / len(boxes)

    def test_query_is_one_search_many_call(self, name, unit_clock, monkeypatch):
        strategy, mesh = _prepared(INDEX_EXECUTORS[name])
        (box,) = _boxes(mesh, n_queries=1)
        calls = _spy_searches(strategy, monkeypatch)
        result = strategy.query(box)
        (batched,) = strategy.query_many([box])
        assert calls == [1, 1]
        assert np.array_equal(result.vertex_ids, batched.vertex_ids)
        assert result.counters == batched.counters
        assert result.index_time == result.total_time == batched.index_time == batched.total_time == 1.0


class TestThrowawayLifecycle:
    def test_index_is_built_at_prepare(self):
        strategy = INDEX_EXECUTORS["octree"]()
        with pytest.raises(RuntimeError, match="prepare"):
            strategy.index
        assert strategy.memory_overhead_bytes() == 0
        mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
        strategy.prepare(mesh)
        assert strategy.index.n_points == mesh.n_vertices
        assert strategy.memory_overhead_bytes() == strategy.index.memory_bytes() > 0

    def test_rest_step_keeps_the_index(self):
        strategy, mesh = _prepared(INDEX_EXECUTORS["octree"])
        assert strategy.on_step(DeformationDelta.empty(mesh.n_vertices)) == 0.0
        assert strategy.maintenance_entries == 0
        assert strategy.maintenance_time == 0.0
        _assert_exact(strategy, mesh)

    def test_removal_only_restructure_keeps_the_index(self):
        strategy, mesh = _prepared(INDEX_EXECUTORS["octree"])
        delta = remove_cells_inplace(mesh, CELLS).delta
        assert delta.n_vertices_added == 0 and not delta.is_full
        assert strategy.on_restructure(delta) == 0.0
        assert strategy.maintenance_entries == 0
        _assert_exact(strategy, mesh)

    def test_appending_restructure_rebuilds(self):
        strategy, mesh = _prepared(INDEX_EXECUTORS["octree"])
        n_before = mesh.n_vertices
        delta = split_cells_inplace(mesh, CELLS).delta
        assert delta.n_vertices_added > 0
        assert strategy.on_restructure(delta) > 0.0
        assert strategy.maintenance_entries == mesh.n_vertices > n_before
        assert strategy.index.n_points == mesh.n_vertices
        _assert_exact(strategy, mesh)

    def test_full_restructure_delta_rebuilds(self):
        strategy, mesh = _prepared(INDEX_EXECUTORS["octree"])
        assert strategy.on_restructure(TopologyDelta.full(mesh.n_vertices)) > 0.0
        assert strategy.maintenance_entries == mesh.n_vertices
        _assert_exact(strategy, mesh)


@pytest.mark.parametrize("name", sorted(UPDATABLE))
class TestUpdatableTreeRestructure:
    def test_removal_only_restructure_touches_nothing(self, name):
        strategy, mesh = _prepared(UPDATABLE[name])
        delta = remove_cells_inplace(mesh, CELLS).delta
        strategy.on_restructure(delta)
        assert strategy.maintenance_entries == 0
        _assert_exact(strategy, mesh)

    def test_appended_tail_is_inserted_in_ascending_order(self, name, monkeypatch):
        strategy, mesh = _prepared(UPDATABLE[name])
        tree = strategy.tree
        inserted = []
        insert = tree.insert

        def spy_insert(entry_id, point):
            inserted.append((entry_id, np.array(point)))
            return insert(entry_id, point)

        monkeypatch.setattr(tree, "insert", spy_insert)
        delta = split_cells_inplace(mesh, CELLS).delta
        strategy.on_restructure(delta)
        added = delta.added_vertex_ids()
        assert added.size > 0
        keys = [entry_id for entry_id, _ in inserted]
        # LUR-Tree and QU-Trade key entries by vertex id, the RUM-Tree by a
        # fresh entry key; either way one insert per appended vertex, in
        # ascending id order, at the vertex's live position.
        assert keys == sorted(keys) and len(set(keys)) == added.size
        assert np.array_equal(np.array([point for _, point in inserted]), mesh.vertices[added])
        assert strategy.maintenance_entries == added.size
        assert strategy.tree is tree
        _assert_exact(strategy, mesh)

    def test_full_restructure_delta_reloads(self, name):
        strategy, mesh = _prepared(UPDATABLE[name])
        split_cells_inplace(mesh, CELLS)
        strategy.on_restructure(TopologyDelta.full(mesh.n_vertices))
        assert strategy.maintenance_entries == mesh.n_vertices
        _assert_exact(strategy, mesh)
