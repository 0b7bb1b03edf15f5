"""The delta-invalidated result cache: invalidation soundness, wrapper, parity.

Three layers of lockdown:

* :class:`~repro.cache.QueryResultCache` unit behaviour — keying, LRU bounds,
  and the invalidation contract's edge cases (zero-moved rest steps keep
  entries live, ``full()`` deltas flush, boxes exactly abutting the dirty
  AABB drop under the closed-box rule), plus the
  :class:`~repro.core.delta.BoxSet` rows and decision table underneath;
* the :class:`~repro.cache.CachingStrategy` wrapper and the
  :func:`repro.build_strategy` composition surface;
* cached-vs-fresh bit-identical parity for **every** registered strategy
  under a deformation + restructuring schedule, seeded by
  ``REPRO_PARITY_SEED`` like the other parity suites, plus the sharded
  service's per-shard invalidation and repartition-flush rules.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor
from repro.cache import CacheStats, CachingStrategy, QueryResultCache
from repro.core import DeformationDelta, QueryResult, ResilientStrategy, TopologyDelta
from repro.core.delta import BoxSet
from repro.errors import ExperimentError, QueryError, SimulationError, WorkloadError
from repro.experiments.harness import (
    build_strategy,
    counts_rows,
    make_strategy,
    run_comparison,
)
from repro.factory import STRATEGY_FACTORIES
from repro.mesh import Box3D
from repro.service import ShardedQueryService
from repro.simulation import LocalizedPulseDeformation, periodic_restructuring
from repro.simulation.faults import lying_topology_delta, wrong_aabb_delta
from repro.simulation.restructuring import split_cells_inplace
from repro.workloads import repeated_query_provider, zoomed_session_provider

PARITY_SEED = int(os.environ.get("REPRO_PARITY_SEED", "0"))

#: every registered strategy name (the cache must be sound over all of them)
ALL_STRATEGIES = tuple(STRATEGY_FACTORIES)


def _result(ids, complete=True) -> QueryResult:
    return QueryResult(vertex_ids=np.asarray(ids, dtype=np.int64), complete=complete)


def _sparse_delta(n_vertices, moved_id, old_position, new_position) -> DeformationDelta:
    return DeformationDelta.sparse(
        n_vertices,
        np.array([moved_id], dtype=np.int64),
        np.asarray([old_position], dtype=np.float64),
        np.asarray([new_position], dtype=np.float64),
    )


class TestCacheStats:
    def test_merge_and_iadd_sum_componentwise(self):
        a = CacheStats(hits=2, misses=1, invalidations=3, flushes=1, evictions=4)
        b = CacheStats(hits=1, misses=1)
        merged = a.merge(b)
        assert (merged.hits, merged.misses) == (3, 2)
        assert (a.hits, b.hits) == (2, 1)  # merge does not mutate
        a += b
        assert (a.hits, a.misses, a.invalidations) == (3, 2, 3)

    def test_hit_rate_and_dict(self):
        assert CacheStats().hit_rate() == 0.0
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate() == pytest.approx(0.75)
        assert stats.as_dict()["hit_rate"] == pytest.approx(0.75)


class TestQueryResultCacheBasics:
    def test_put_then_get_hits_with_identical_corners(self):
        cache = QueryResultCache()
        box = Box3D((0.1, 0.1, 0.1), (0.4, 0.4, 0.4))
        cache.put(box, _result([3, 1, 2]))
        got = cache.get(Box3D(box.lo.copy(), box.hi.copy()))
        np.testing.assert_array_equal(got, [1, 2, 3])
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 0)

    def test_unknown_box_misses(self):
        cache = QueryResultCache()
        assert cache.get(Box3D((0, 0, 0), (1, 1, 1))) is None
        assert cache.stats().misses == 1

    def test_near_identical_box_is_a_miss_never_a_wrong_answer(self):
        # entries are keyed on the exact corners, so a box whose corner is
        # 1e-10 away from a stored one must not be answered from its entry
        cache = QueryResultCache()
        stored = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        colliding = Box3D((1e-10, 0.0, 0.0), (1.0, 1.0, 1.0))
        cache.put(stored, _result([7]))
        assert cache.get(colliding) is None
        np.testing.assert_array_equal(cache.get(stored), [7])

    def test_partial_results_are_not_cached(self):
        cache = QueryResultCache()
        box = Box3D((0, 0, 0), (1, 1, 1))
        cache.put(box, _result([1, 2], complete=False))
        assert len(cache) == 0
        assert cache.get(box) is None

    def test_lru_eviction_drops_least_recently_used(self):
        cache = QueryResultCache(max_entries=2)
        boxes = [Box3D.cube((float(i), 0.0, 0.0), 0.5) for i in range(3)]
        cache.put(boxes[0], _result([0]))
        cache.put(boxes[1], _result([1]))
        cache.get(boxes[0])  # refresh 0; 1 becomes least recently used
        cache.put(boxes[2], _result([2]))
        assert cache.get(boxes[1]) is None
        np.testing.assert_array_equal(cache.get(boxes[0]), [0])
        assert cache.stats().evictions == 1

    def test_constructor_validation(self):
        with pytest.raises(QueryError, match="max_entries"):
            QueryResultCache(max_entries=0)

    def test_drain_stats_resets_counters(self):
        cache = QueryResultCache()
        cache.get(Box3D((0, 0, 0), (1, 1, 1)))
        drained = cache.drain_stats()
        assert drained.misses == 1
        assert cache.stats().misses == 0

    def test_memory_and_describe(self):
        cache = QueryResultCache(max_entries=8)
        assert cache.memory_bytes() == 0
        cache.put(Box3D((0, 0, 0), (1, 1, 1)), _result([1, 2, 3]))
        assert cache.memory_bytes() > 0
        record = cache.describe()
        assert record["entries"] == 1
        assert record["max_entries"] == 8


#: (corner, axis) of each of a query box's six coordinates
CORNER_COORDINATES = [(corner, axis) for corner in ("lo", "hi") for axis in range(3)]


def _stored_box() -> Box3D:
    return Box3D((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))


def _widened_by_one_ulp(box: Box3D, corner: str, axis: int) -> Box3D:
    """``box`` with one coordinate moved outwards to the adjacent float."""
    lo, hi = box.lo.copy(), box.hi.copy()
    if corner == "lo":
        lo[axis] = np.nextafter(lo[axis], -np.inf)
    else:
        hi[axis] = np.nextafter(hi[axis], np.inf)
    return Box3D(lo, hi)


class TestExactCornerKeys:
    """Entries are keyed on the six corner floats exactly, with no rounding."""

    @pytest.mark.parametrize(
        "corner, axis",
        CORNER_COORDINATES,
        ids=[f"{corner}-{'xyz'[axis]}" for corner, axis in CORNER_COORDINATES],
    )
    def test_one_ulp_on_any_coordinate_is_a_miss(self, corner, axis):
        cache = QueryResultCache()
        cache.put(_stored_box(), _result([4]))
        assert cache.get(_widened_by_one_ulp(_stored_box(), corner, axis)) is None
        np.testing.assert_array_equal(cache.get(_stored_box()), [4])

    def test_signed_zero_corners_share_an_entry(self):
        # float equality treats -0.0 and 0.0 alike, as np.array_equal does
        cache = QueryResultCache()
        cache.put(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), _result([5]))
        np.testing.assert_array_equal(
            cache.get(Box3D((-0.0, 0.0, -0.0), (1.0, 1.0, 1.0))), [5]
        )

    def test_near_identical_box_does_not_evict_its_neighbour(self):
        cache = QueryResultCache()
        neighbour = _widened_by_one_ulp(_stored_box(), "lo", 0)
        cache.put(_stored_box(), _result([1]))
        cache.put(neighbour, _result([1, 2]))
        assert len(cache) == 2
        np.testing.assert_array_equal(cache.get(_stored_box()), [1])
        np.testing.assert_array_equal(cache.get(neighbour), [1, 2])
        assert cache.stats().evictions == 0

    def test_storing_equal_corners_again_replaces_the_entry(self):
        cache = QueryResultCache()
        cache.put(_stored_box(), _result([1, 2, 3]))
        cache.put(_stored_box(), _result([7, 8]))
        assert len(cache) == 1
        np.testing.assert_array_equal(cache.get(_stored_box()), [7, 8])
        # the replaced entry's box row was released: one entry to invalidate
        assert cache.invalidate_deformation(
            _sparse_delta(100, 0, (0.2, 0.3, 0.4), (0.25, 0.3, 0.4))
        ) == 1
        assert len(cache) == 0


class TestDeformationInvalidation:
    def _seeded(self):
        cache = QueryResultCache()
        near = Box3D((0.0, 0.0, 0.0), (0.2, 0.2, 0.2))
        far = Box3D((0.8, 0.8, 0.8), (1.0, 1.0, 1.0))
        cache.put(near, _result([1]))
        cache.put(far, _result([2]))
        return cache, near, far

    def test_zero_moved_rest_step_keeps_entries(self):
        cache, near, far = self._seeded()
        assert cache.invalidate_deformation(DeformationDelta.empty(100)) == 0
        assert len(cache) == 2
        assert cache.get(near) is not None and cache.get(far) is not None

    def test_full_delta_flushes_everything(self):
        cache, near, far = self._seeded()
        cache.invalidate_deformation(DeformationDelta.full(100))
        assert len(cache) == 0
        assert cache.stats().flushes == 1

    def test_sparse_delta_drops_only_intersecting_entries(self):
        cache, near, far = self._seeded()
        delta = _sparse_delta(100, 5, (0.1, 0.1, 0.1), (0.15, 0.1, 0.1))
        assert cache.invalidate_deformation(delta) == 1
        assert cache.get(near) is None
        np.testing.assert_array_equal(cache.get(far), [2])
        assert cache.stats().invalidations == 1

    def test_abutting_box_is_invalidated_closed_box_rule(self):
        # the entry's face exactly touches the dirty AABB: a vertex moving
        # onto the shared plane belongs to both closed boxes, so touching
        # counts as intersecting and the entry must drop
        cache = QueryResultCache()
        abutting = Box3D((0.2, 0.0, 0.0), (0.4, 0.2, 0.2))
        cache.put(abutting, _result([1]))
        delta = _sparse_delta(100, 5, (0.1, 0.1, 0.1), (0.2, 0.1, 0.1))
        assert cache.invalidate_deformation(delta) == 1

    def test_epsilon_separated_box_survives(self):
        cache = QueryResultCache()
        separated = Box3D((0.2 + 1e-9, 0.0, 0.0), (0.4, 0.2, 0.2))
        cache.put(separated, _result([1]))
        delta = _sparse_delta(100, 5, (0.1, 0.1, 0.1), (0.2, 0.1, 0.1))
        assert cache.invalidate_deformation(delta) == 0
        assert cache.get(separated) is not None


class TestTopologyInvalidation:
    def test_empty_delta_keeps_entries(self):
        cache = QueryResultCache()
        box = Box3D((0, 0, 0), (1, 1, 1))
        cache.put(box, _result([1]))
        assert cache.invalidate_topology(TopologyDelta.empty(100)) == 0
        assert cache.get(box) is not None

    def test_full_delta_flushes(self):
        cache = QueryResultCache()
        cache.put(Box3D((0, 0, 0), (1, 1, 1)), _result([1]))
        cache.invalidate_topology(TopologyDelta.full(100))
        assert len(cache) == 0

    def test_sparse_delta_uses_dirty_aabb_intersection(self):
        positions = np.zeros((100, 3))
        positions[7] = (0.1, 0.1, 0.1)
        delta = TopologyDelta.sparse(
            100, np.array([7]), positions, n_cells_added=4, n_cells_removed=1
        )
        cache = QueryResultCache()
        touching = Box3D((0.0, 0.0, 0.0), (0.2, 0.2, 0.2))
        far = Box3D((0.8, 0.8, 0.8), (1.0, 1.0, 1.0))
        cache.put(touching, _result([1]))
        cache.put(far, _result([2]))
        assert cache.invalidate_topology(delta) == 1
        assert cache.get(touching) is None
        assert cache.get(far) is not None


class TestBoxSet:
    """The rows and the one decision table under the cache and the registry."""

    def test_rows_are_reused_after_discard_and_clear(self):
        boxes = BoxSet()
        rows = [boxes.add(Box3D.cube((float(i), 0.0, 0.0), 0.5)) for i in range(3)]
        assert rows == [0, 1, 2]
        boxes.discard(1)
        assert len(boxes) == 2
        everywhere = Box3D((-10.0, -10.0, -10.0), (10.0, 10.0, 10.0))
        assert boxes.overlap(everywhere.lo[None], everywhere.hi[None]).tolist() == [
            [True, False, True]
        ]
        replacement = Box3D.cube((9.0, 0.0, 0.0), 0.5)
        assert boxes.add(replacement) == 1
        lo, hi = boxes.corners(1)
        np.testing.assert_array_equal(lo, replacement.lo)
        np.testing.assert_array_equal(hi, replacement.hi)
        boxes.clear()
        assert len(boxes) == 0
        assert boxes.rows().size == 0
        assert boxes.add(replacement) == 0

    @pytest.mark.parametrize("kind", ["deformation", "topology"])
    def test_both_delta_kinds_get_one_decision_table(self, kind):
        boxes = BoxSet()
        near = boxes.add(Box3D((0.0, 0.0, 0.0), (0.15, 0.15, 0.15)))
        dropped = boxes.add(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        abutting = boxes.add(Box3D((0.2, 0.0, 0.0), (0.4, 0.2, 0.2)))
        far = boxes.add(Box3D((0.8, 0.8, 0.8), (1.0, 1.0, 1.0)))
        boxes.discard(dropped)
        # both sparse deltas carry the dirty AABB [0.1, 0.2] x {0.1} x {0.1}
        start, end = np.array([[0.1, 0.1, 0.1]]), np.array([[0.2, 0.1, 0.1]])
        if kind == "deformation":
            moved = np.array([7])
            deltas = {
                "empty": DeformationDelta.empty(100),
                "full": DeformationDelta.full(100),
                "boxless": DeformationDelta(100, moved, start, end),
                "sparse": DeformationDelta.sparse(100, moved, start, end),
            }
        else:
            dirty = np.array([7, 8])
            positions = np.zeros((100, 3))
            positions[dirty] = np.concatenate([start, end])
            deltas = {
                "empty": TopologyDelta.empty(100),
                "full": TopologyDelta.full(100),
                "boxless": TopologyDelta(100, dirty),
                "sparse": TopologyDelta.sparse(100, dirty, positions),
            }
        decisions = {
            shape: (rows.tolist(), whole)
            for shape, (rows, whole) in (
                (shape, boxes.affected(delta)) for shape, delta in deltas.items()
            )
        }
        assert decisions == {
            "empty": ([], False),
            "full": ([near, abutting, far], True),
            "boxless": ([near, abutting, far], True),
            "sparse": ([near, abutting], False),
        }


class TestCachingStrategy:
    def _prepared(self, grid_mesh, **kwargs):
        strategy = CachingStrategy(make_strategy("linear-scan"), **kwargs)
        strategy.prepare(grid_mesh.copy())
        return strategy

    def test_name_and_describe(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        assert strategy.name == "cached-linear-scan"
        record = strategy.describe()
        assert record["cached"] is True
        assert record["cache"]["entries"] == 0

    def test_hit_returns_bit_identical_ids_with_zero_work(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        box = Box3D((0.1, 0.1, 0.1), (0.6, 0.6, 0.6))
        fresh = strategy.query(box)
        hit = strategy.query(box)
        assert hit.same_vertices_as(fresh)
        assert hit.complete
        assert hit.counters.vertices_scanned == 0
        stats = strategy.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_query_many_mixes_hits_and_misses(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        warm = Box3D((0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
        cold = Box3D((0.5, 0.5, 0.5), (0.9, 0.9, 0.9))
        first = strategy.query(warm)
        results = strategy.query_many([warm, cold])
        assert results[0].same_vertices_as(first)
        fresh = make_strategy("linear-scan")
        fresh.prepare(grid_mesh.copy())
        assert results[1].same_vertices_as(fresh.query(cold))
        stats = strategy.cache_stats()
        assert stats.hits == 1 and stats.misses == 2

    def test_prepare_flushes_the_cache(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        box = Box3D((0.1, 0.1, 0.1), (0.6, 0.6, 0.6))
        strategy.query(box)
        strategy.prepare(grid_mesh.copy())
        strategy.query(box)
        stats = strategy.cache_stats()
        assert stats.hits == 0 and stats.misses == 2
        assert stats.flushes >= 2  # initial prepare + re-prepare

    def test_on_step_invalidation_is_charged_to_maintenance(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        before = strategy.maintenance_time
        spent = strategy.on_step(DeformationDelta.empty(strategy.mesh.n_vertices))
        assert spent >= 0.0
        assert strategy.maintenance_time >= before

    def test_drain_cache_stats_resets(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        strategy.query(Box3D((0.1, 0.1, 0.1), (0.6, 0.6, 0.6)))
        assert strategy.drain_cache_stats().misses == 1
        assert strategy.drain_cache_stats().misses == 0

    def test_memory_overhead_includes_cache(self, grid_mesh):
        strategy = self._prepared(grid_mesh)
        base = strategy.memory_overhead_bytes()
        strategy.query(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        assert strategy.memory_overhead_bytes() > base


class TestBuildStrategy:
    def test_caching_int_sets_max_entries(self):
        strategy = build_strategy("linear-scan", caching=8)
        assert isinstance(strategy, CachingStrategy)
        assert strategy.cache.max_entries == 8

    def test_caching_adopts_an_existing_cache(self):
        cache = QueryResultCache(max_entries=4)
        strategy = build_strategy("linear-scan", caching=cache)
        assert strategy.cache is cache

    def test_invalid_caching_value_rejected(self):
        with pytest.raises(ExperimentError, match="caching"):
            build_strategy("linear-scan", caching=3.5)

    def test_invalid_resilience_value_rejected(self):
        with pytest.raises(ExperimentError, match="resilience"):
            build_strategy("linear-scan", resilience="extra")

    def test_stack_order_resilience_outside_cache(self):
        strategy = build_strategy("octopus", caching=True, resilience="paranoid")
        assert isinstance(strategy, ResilientStrategy)
        assert strategy.paranoid
        assert isinstance(strategy.inner, CachingStrategy)
        # the resilience wrapper is name-transparent, so only the cache shows
        assert strategy.name == "cached-octopus"

    def test_unknown_name_rejected(self):
        with pytest.raises(ExperimentError, match="unknown strategy"):
            build_strategy("btree")


class _FailingQueries(LinearScanExecutor):
    """A linear scan whose single-query path raises (index state gone bad)."""

    def query(self, box):
        raise RuntimeError("index state corrupted")


def _vertex_at(mesh, point) -> int:
    return int(np.argmin(np.linalg.norm(mesh.vertices - np.asarray(point), axis=1)))


def _scan(mesh, box: Box3D) -> QueryResult:
    """The reference answer: a linear scan of the live positions."""
    scan = LinearScanExecutor()
    scan.prepare(mesh)
    return scan.query(box)


class TestLadderAboveTheCache:
    """``build_strategy`` puts the ladder above the cache, so the cache
    invalidates from the delta the paranoid audit let through, and a
    quarantined delta reaches it as the whole-mesh delta that replaces it."""

    NEAR = Box3D((0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
    FAR = Box3D((0.7, 0.7, 0.7), (1.0, 1.0, 1.0))

    @staticmethod
    def _stack(mesh, name="linear-scan"):
        strategy = build_strategy(name, caching=True, resilience="paranoid")
        strategy.prepare(mesh)
        strategy.drain_cache_stats()  # forget the prepare flush
        return strategy

    @staticmethod
    def _move(mesh, vertex, new_position) -> DeformationDelta:
        """Move one vertex in the mesh; the truthful delta of that step."""
        old = mesh.vertices[vertex].copy()
        mesh.displace_at(np.asarray([vertex]), np.asarray([new_position]) - old)
        return _sparse_delta(mesh.n_vertices, vertex, old, new_position)

    def test_quarantined_delta_flushes_instead_of_serving_a_stale_answer(self, grid_mesh):
        mesh = grid_mesh.copy()
        strategy = self._stack(mesh)
        leaving = _vertex_at(mesh, (0.2, 0.2, 0.2))
        assert leaving in strategy.query(self.NEAR).vertex_ids
        # the vertex leaves the box, but the delta's dirty AABB lies far away
        strategy.on_step(wrong_aabb_delta(self._move(mesh, leaving, (0.9, 0.9, 0.9))))
        after = strategy.query(self.NEAR)
        assert leaving not in after.vertex_ids
        assert after.same_vertices_as(_scan(mesh, self.NEAR))
        (event,) = strategy.drain_degradation_events()
        assert (event.rung, event.reason) == ("quarantine", "dirty-box-mismatch")
        stats = strategy.drain_cache_stats()
        assert (stats.hits, stats.flushes) == (0, 1)

    def test_quarantined_topology_delta_flushes_the_cache(self, grid_mesh):
        mesh = grid_mesh.copy()
        strategy = self._stack(mesh)
        strategy.query_many([self.NEAR, self.FAR])
        dirty = np.asarray([_vertex_at(mesh, (0.8, 0.8, 0.8))])
        lying = lying_topology_delta(TopologyDelta.sparse(mesh.n_vertices, dirty, mesh.vertices))
        strategy.on_restructure(lying)
        (event,) = strategy.drain_degradation_events()
        assert (event.operation, event.rung) == ("on_restructure", "quarantine")
        assert len(strategy.inner.cache) == 0
        assert strategy.drain_cache_stats().flushes == 1

    def test_audited_delta_invalidates_only_the_entries_it_reaches(self, grid_mesh):
        mesh = grid_mesh.copy()
        strategy = self._stack(mesh)
        strategy.query_many([self.NEAR, self.FAR])
        strategy.on_step(self._move(mesh, _vertex_at(mesh, (0.2, 0.2, 0.2)), (0.25, 0.2, 0.2)))
        results = strategy.query_many([self.NEAR, self.FAR])
        for box, result in zip((self.NEAR, self.FAR), results):
            assert result.same_vertices_as(_scan(mesh, box))
        assert strategy.drain_degradation_events() == []
        stats = strategy.drain_cache_stats()
        assert (stats.hits, stats.invalidations, stats.flushes) == (1, 1, 0)

    def test_hit_passes_through_the_ladder_with_zero_work(self, grid_mesh):
        strategy = self._stack(grid_mesh.copy(), "octopus")
        fresh = strategy.query(self.NEAR)
        hit = strategy.query(self.NEAR)
        assert hit.same_vertices_as(fresh)
        assert hit.complete
        assert hit.counters.crawl_vertices_visited == 0
        assert strategy.drain_degradation_events() == []
        assert strategy.drain_cache_stats().hits == 1

    def test_scan_rung_answers_are_never_cached(self, grid_mesh):
        mesh = grid_mesh.copy()
        strategy = ResilientStrategy(CachingStrategy(_FailingQueries()))
        strategy.prepare(mesh)
        for _ in range(2):
            assert strategy.query(self.NEAR).same_vertices_as(_scan(mesh, self.NEAR))
        assert len(strategy.inner.cache) == 0
        rungs = [event.rung for event in strategy.drain_degradation_events()]
        assert rungs == ["scan", "scan"]
        stats = strategy.drain_cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)


class TestSessionProviders:
    def test_repeated_provider_reissues_same_objects(self, grid_mesh):
        provider = repeated_query_provider(0.01, 4, repoll_fraction=1.0, seed=PARITY_SEED)
        first = provider(grid_mesh, 1)
        second = provider(grid_mesh, 2)
        assert all(a is b for a, b in zip(first, second))

    def test_zoomed_provider_shrinks_on_dwell_boundary(self, grid_mesh):
        provider = zoomed_session_provider(0.01, 2, zoom=0.5, dwell=2, seed=PARITY_SEED)
        level0 = provider(grid_mesh, 1)
        assert all(a is b for a, b in zip(level0, provider(grid_mesh, 2)))
        level1 = provider(grid_mesh, 3)
        for before, after in zip(level0, level1):
            assert np.all(after.extents < before.extents)
            np.testing.assert_allclose(after.center, before.center)

    def test_provider_validation(self):
        with pytest.raises(WorkloadError):
            repeated_query_provider(0.01, 4, repoll_fraction=1.5)
        with pytest.raises(WorkloadError):
            repeated_query_provider(0.01, 0)
        with pytest.raises(WorkloadError):
            zoomed_session_provider(0.01, 2, zoom=1.0)
        with pytest.raises(WorkloadError):
            zoomed_session_provider(0.01, 0)


class TestEveryStrategyParity:
    """Cached answers must be bit-identical to fresh execution, per strategy.

    Each registered strategy runs side by side with its ``caching=True``
    variant through a localized-pulse deformation (with rest steps) plus a
    periodic restructuring schedule, under ``validate_results=True`` — the
    simulator raises on the first query whose cached ids differ from fresh
    execution, so a completed run is the parity proof.  The convex structured
    mesh and gentle amplitude keep every crawl-based strategy exact (the same
    scenario envelope as the chaos suite).
    """

    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_cached_matches_fresh_under_deformation_and_restructuring(
        self, grid_mesh, strategy_name
    ):
        report = run_comparison(
            grid_mesh.copy(),
            [make_strategy(strategy_name), build_strategy(strategy_name, caching=True)],
            LocalizedPulseDeformation(
                sparsity=0.05, amplitude=0.02, rest_every=2, seed=PARITY_SEED
            ),
            n_steps=4,
            query_provider=repeated_query_provider(
                0.02, 4, repoll_fraction=0.9, seed=PARITY_SEED
            ),
            validate_results=True,
            restructuring=periodic_restructuring(
                every=2, kind="mixed", n_cells=4, seed=PARITY_SEED
            ),
        )
        cached = report.strategies[f"cached-{strategy_name}"]
        assert cached.counts["cache.hits"] > 0
        rows = {row["strategy"]: row for row in counts_rows(report, "cache.")}
        assert rows[f"cached-{strategy_name}"]["cache.hits"] == cached.counts["cache.hits"]
        assert rows[strategy_name]["cache.hits"] == "-"

    def test_cached_resilient_stack_parity(self, grid_mesh):
        report = run_comparison(
            grid_mesh.copy(),
            [
                make_strategy("octopus"),
                build_strategy("octopus", caching=True, resilience=True),
            ],
            LocalizedPulseDeformation(
                sparsity=0.05, amplitude=0.02, rest_every=2, seed=PARITY_SEED
            ),
            n_steps=4,
            query_provider=repeated_query_provider(
                0.02, 4, repoll_fraction=0.9, seed=PARITY_SEED
            ),
            validate_results=True,
        )
        assert report.strategies["cached-octopus"].counts["cache.hits"] > 0


class TestShardedServiceCache:
    def _service(self, mesh, **kwargs):
        service = ShardedQueryService(n_shards=2, caching=True, **kwargs)
        service.prepare(mesh)
        return service

    def test_uncached_service_reports_no_stats(self, grid_mesh):
        with ShardedQueryService(n_shards=2) as service:
            service.prepare(grid_mesh.copy())
            assert service.cache_stats() is None
            assert service.drain_cache_stats() is None

    def test_shared_cache_instance_rejected(self):
        with pytest.raises(SimulationError, match="per-shard"):
            ShardedQueryService(n_shards=2, caching=QueryResultCache())

    def test_repeated_query_hits_per_shard_caches(self, grid_mesh):
        mesh = grid_mesh.copy()
        with self._service(mesh) as service:
            assert service.name == "sharded-cached-octopusx2"
            box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
            first = service.query(box)
            service.drain_cache_stats()
            second = service.query(box)
            assert second.same_vertices_as(first)
            stats = service.drain_cache_stats()
            assert stats.hits >= 1 and stats.misses == 0

    def test_sliced_delta_invalidates_only_the_owning_shard(self, grid_mesh):
        # the unit-cube grid splits into two shards along Hilbert order; a
        # vertex nudged at one corner must not evict the entry cached for
        # the opposite corner's box
        mesh = grid_mesh.copy()
        with self._service(mesh) as service:
            near = Box3D((0.0, 0.0, 0.0), (0.25, 0.25, 0.25))
            far = Box3D((0.75, 0.75, 0.75), (1.0, 1.0, 1.0))
            service.query(near)
            service.query(far)
            service.drain_cache_stats()

            moved_id = int(np.argmin(np.linalg.norm(mesh.vertices, axis=1)))
            old = mesh.vertices[moved_id].copy()
            new = old + np.array([0.05, 0.05, 0.05])
            positions = mesh.vertices.copy()
            positions[moved_id] = new
            mesh.set_positions(positions)
            service.on_step(_sparse_delta(mesh.n_vertices, moved_id, old, new))

            second_far = service.query(far)
            stats = service.drain_cache_stats()
            assert stats.invalidations >= 1  # the near-corner entries dropped
            assert stats.hits >= 1 and stats.misses == 0  # far entries survived
            fresh = make_strategy("linear-scan")
            fresh.prepare(mesh)
            assert second_far.same_vertices_as(fresh.query(far))

            service.query(near)
            assert service.drain_cache_stats().misses >= 1

    def test_repartition_flushes_every_shard_cache(self, grid_mesh):
        mesh = grid_mesh.copy()
        with self._service(mesh) as service:
            box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
            service.query(box)
            service.drain_cache_stats()
            event = split_cells_inplace(mesh, np.array([0, 5]))
            service.on_restructure(event.delta)
            assert service.n_repartitions == 1
            result = service.query(box)
            stats = service.drain_cache_stats()
            # rebuilt shard strategies start with freshly flushed caches, so
            # the re-issued box cannot hit
            assert stats.hits == 0 and stats.misses >= 1
            assert stats.flushes >= service.n_shards
            fresh = make_strategy("linear-scan")
            fresh.prepare(mesh)
            assert result.same_vertices_as(fresh.query(box))

    def test_describe_marks_caching(self, grid_mesh):
        with self._service(grid_mesh.copy()) as service:
            assert service.describe()["cached"] is True
