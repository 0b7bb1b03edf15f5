"""Standing-query lifecycle suite: registry, wrapper, service, workload.

Seeded property-style coverage of everything around the differential parity
suite (``tests/test_standing_parity.py``): subscription lifecycle mid-run,
the closed-box edge cases shared with ``check_query_box`` and the cache
contract (duplicate, abutting, zero-volume and off-mesh boxes), the O(1)
skip accounting, wrapper composition through ``build_strategy``, the
sharded service's global subscriptions, and the steering workload's
replayability.
"""

from __future__ import annotations

import numpy as np
import pytest
from seed_families import chaos_seed_family, parity_seed_family

from repro.cache import CachingStrategy
from repro.core import OctopusExecutor, ResilientStrategy
from repro.core.delta import DeformationDelta, TopologyDelta
from repro.errors import ExperimentError, QueryError, SimulationError, WorkloadError
from repro.experiments.harness import make_strategy
from repro.factory import build_strategy
from repro.generators import structured_tetrahedral_mesh
from repro.mesh import Box3D
from repro.service import ShardedQueryService
from repro.simulation import LocalizedPulseDeformation, MeshSimulation
from repro.standing import (
    MembershipUpdate,
    StandingQueryRegistry,
    StandingStats,
    StandingStrategy,
)
from repro.workloads import random_query_workload, subscription_steering

PARITY_SEEDS = parity_seed_family()


def _mesh():
    return structured_tetrahedral_mesh((4, 4, 4)).copy()


def _scan_ids(mesh, box):
    """Positional reference membership: ids of vertices inside the closed box."""
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    inside = np.all((mesh.vertices >= lo) & (mesh.vertices <= hi), axis=1)
    return np.nonzero(inside)[0].astype(np.int64)


def _move(mesh, vid, target):
    """Move one vertex in place; returns the sparse delta describing it."""
    old = mesh.vertices[vid].copy()
    mesh.vertices[vid] = target
    return DeformationDelta.sparse(
        mesh.n_vertices,
        np.asarray([vid], dtype=np.int64),
        old[None, :],
        np.asarray(target, dtype=np.float64)[None, :],
    )


class TestRegistryLifecycle:
    def test_subscribe_unsubscribe_and_ids(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        box = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        first = registry.subscribe(box, query_fn)
        second = registry.subscribe(box, query_fn)  # duplicates are independent
        assert first != second
        assert len(registry) == 2
        assert set(registry.boxes()) == {first, second}
        assert np.array_equal(registry.membership(first), registry.membership(second))

        registry.unsubscribe(first)
        assert len(registry) == 1
        with pytest.raises(KeyError):
            registry.unsubscribe(first)
        with pytest.raises(KeyError):
            registry.membership(first)

    def test_unsubscribed_queued_updates_stay_drainable(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        sid = registry.subscribe(
            Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), lambda box: _scan_ids(mesh, box)
        )
        registry.unsubscribe(sid)
        updates = registry.drain_updates()
        assert [update.subscription_id for update in updates] == [sid]
        assert updates[0].reason == "initial"
        assert registry.drain_updates() == []

    def test_unsubscribe_mid_run_stops_updates_for_that_sid(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        box = Box3D((0.0, 0.0, 0.0), (0.3, 0.3, 0.3))
        keep = registry.subscribe(box, query_fn)
        drop = registry.subscribe(box, query_fn)
        registry.drain_updates()

        registry.unsubscribe(drop)
        delta = _move(mesh, 0, np.array([10.0, 10.0, 10.0]))  # vertex 0 leaves
        registry.tick_deformation(delta, query_fn, step=1)
        updates = registry.drain_updates()
        assert {update.subscription_id for update in updates} == {keep}
        assert np.array_equal(updates[0].exited, np.asarray([0]))

    def test_subscribe_mid_run_sees_current_state(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        _move(mesh, 0, np.array([10.0, 10.0, 10.0]))
        sid = registry.subscribe(Box3D((9.0, 9.0, 9.0), (11.0, 11.0, 11.0)), query_fn, step=3)
        (update,) = registry.drain_updates()
        assert update.subscription_id == sid
        assert update.step == 3
        assert np.array_equal(update.current, np.asarray([0]))

    def test_membership_returns_a_copy(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        sid = registry.subscribe(
            Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), lambda box: _scan_ids(mesh, box)
        )
        registry.membership(sid)[:] = -1
        assert np.all(registry.membership(sid) >= 0)


class TestBoxSemantics:
    """The closed-box rules shared with check_query_box and the cache."""

    def test_malformed_boxes_are_rejected(self):
        registry = StandingQueryRegistry()
        box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        box.lo[0] = 2.0  # inverted after construction
        with pytest.raises(QueryError):
            registry.subscribe(box)
        nan_box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        nan_box.hi[1] = np.nan
        with pytest.raises(QueryError):
            registry.subscribe(nan_box)
        assert len(registry) == 0

    def test_zero_volume_box_is_a_valid_subscription(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        corner = mesh.vertices[0].copy()
        sid = registry.subscribe(Box3D(corner, corner), query_fn)
        assert 0 in registry.membership(sid)  # the box is closed: boundary counts

        # a vertex moved exactly onto the degenerate box enters it
        delta = _move(mesh, 5, corner)
        registry.tick_deformation(delta, query_fn, step=1)
        assert np.array_equal(registry.membership(sid), np.asarray([0, 5]))

    def test_abutting_boxes_share_their_boundary(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        left = registry.subscribe(Box3D((0.0, 0.0, 0.0), (0.5, 1.0, 1.0)), query_fn)
        right = registry.subscribe(Box3D((0.5, 0.0, 0.0), (1.0, 1.0, 1.0)), query_fn)
        registry.drain_updates()

        # a vertex landing exactly on the shared x=0.5 plane enters BOTH
        target = np.array([0.5, 0.25, 0.25])
        delta = _move(mesh, 0, target)
        registry.tick_deformation(delta, query_fn, step=1)
        assert 0 in registry.membership(left)
        assert 0 in registry.membership(right)
        stats = registry.stats()
        assert stats.touched == 2 and stats.skips == 0

    def test_off_mesh_box_stays_empty_through_quiet_ticks(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        sid = registry.subscribe(Box3D((50.0, 50.0, 50.0), (51.0, 51.0, 51.0)), query_fn)
        (initial,) = registry.drain_updates()
        assert initial.current.size == 0
        delta = _move(mesh, 0, mesh.vertices[0] + 0.01)
        registry.tick_deformation(delta, query_fn, step=1)
        assert registry.drain_updates() == []
        assert registry.membership(sid).size == 0
        assert registry.stats().skips == 1


class TestTickAccounting:
    def test_empty_delta_is_an_o1_skip(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        for _ in range(3):
            registry.subscribe(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), query_fn)
        registry.drain_updates()
        registry.tick_deformation(DeformationDelta.empty(mesh.n_vertices), query_fn)
        registry.tick_topology(TopologyDelta.empty(mesh.n_vertices), query_fn)
        stats = registry.drain_stats()
        assert stats.skips == 6 and stats.touched == 0
        assert stats.moved_tests == 0 and stats.recrawls == 0
        assert registry.drain_updates() == []

    def test_full_deformation_delta_reevaluates_everything(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        for _ in range(2):
            registry.subscribe(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), query_fn)
        registry.tick_deformation(DeformationDelta.full(mesh.n_vertices), query_fn)
        stats = registry.stats()
        assert stats.full_reevals == 1 and stats.recrawls == 2

    def test_sparse_topology_recrawls_only_intersecting_boxes(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        near = registry.subscribe(Box3D((0.0, 0.0, 0.0), (0.4, 0.4, 0.4)), query_fn)
        registry.subscribe(Box3D((50.0, 50.0, 50.0), (51.0, 51.0, 51.0)), query_fn)
        registry.drain_updates()
        delta = TopologyDelta.sparse(
            mesh.n_vertices,
            np.asarray([0, 1, 2], dtype=np.int64),
            mesh.vertices,
            n_cells_removed=1,
        )
        registry.tick_topology(delta, query_fn, step=2)
        stats = registry.stats()
        assert stats.recrawls == 1 and stats.skips == 1
        assert near in registry.boxes()

    def test_stats_merge_and_drain_reset(self):
        a = StandingStats(subscriptions=2, updates=3, skips=1, touched=4)
        b = StandingStats(subscriptions=5, updates=1, recrawls=2)
        merged = a.merge(b)
        assert merged.subscriptions == 5  # the gauge takes the larger snapshot
        assert merged.updates == 4 and merged.skips == 1
        assert merged.touched == 4 and merged.recrawls == 2
        a += b
        assert a.as_dict() == merged.as_dict()

        mesh = _mesh()
        registry = StandingQueryRegistry()
        registry.subscribe(
            Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), lambda box: _scan_ids(mesh, box)
        )
        first = registry.drain_stats()
        assert first.updates == 1 and first.subscriptions == 1
        second = registry.drain_stats()
        assert second.updates == 0 and second.subscriptions == 1  # gauge survives


class TestStandingStrategyWrapper:
    def test_name_and_composition(self):
        strategy = build_strategy("octopus", caching=True, standing=True)
        assert isinstance(strategy, StandingStrategy)
        assert strategy.name == "standing-cached-octopus"

    def test_build_strategy_rejects_bad_standing_spec(self):
        with pytest.raises(ExperimentError, match="standing"):
            build_strategy("octopus", standing=42)

    def test_paranoid_resilience_propagates(self):
        strategy = build_strategy("octopus", resilience="paranoid", standing=True)
        assert strategy.paranoid is True
        assert build_strategy("octopus", resilience=True, standing=True).paranoid is False

    def test_upfront_boxes_defer_evaluation_to_prepare(self):
        mesh = _mesh()
        box = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        strategy = build_strategy("octopus", standing=[box])
        assert len(strategy.registry) == 1
        assert strategy.drain_membership_updates() == []  # nothing evaluated yet
        strategy.prepare(mesh)
        (update,) = strategy.drain_membership_updates()
        assert update.reason == "rebase"
        assert np.array_equal(update.current, _scan_ids(mesh, box))

    def test_ticks_charge_the_maintenance_ledger(self):
        mesh = _mesh()
        strategy = build_strategy("octopus", standing=True)
        strategy.prepare(mesh)
        strategy.subscribe(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        before = strategy.maintenance_time
        strategy.on_step(_move(mesh, 0, mesh.vertices[0] + 0.01))
        assert strategy.maintenance_time > before

    @pytest.mark.parametrize("wrap", ["none", "ladder", "cache"])
    def test_subscribe_over_a_prepared_stack_queues_the_initial_update(self, wrap):
        """A wrapper prepared below the standing layer still counts as prepared."""
        mesh = _mesh()
        inner = OctopusExecutor()
        inner.prepare(mesh)
        if wrap == "ladder":
            inner = ResilientStrategy(inner)
        elif wrap == "cache":
            inner = CachingStrategy(inner)
        strategy = StandingStrategy(inner)
        box = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        strategy.subscribe(box)
        (update,) = strategy.drain_membership_updates()
        assert update.reason == "initial"
        assert np.array_equal(update.current, _scan_ids(mesh, box))

    def test_adopted_registry_is_shared(self):
        mesh = _mesh()
        registry = StandingQueryRegistry()
        strategy = build_strategy("octopus", standing=registry)
        strategy.prepare(mesh)
        sid = strategy.subscribe(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        assert sid in registry.boxes()

    def test_drain_standing_stats_is_none_without_a_registry(self):
        strategy = build_strategy("octopus", caching=True, resilience=True)
        assert strategy.drain_standing_stats() is None

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_simulator_records_standing_counters(self, seed):
        mesh = _mesh()
        boxes = random_query_workload(mesh, selectivity=0.1, n_queries=3, seed=seed).boxes
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=LocalizedPulseDeformation(
                sparsity=0.05, amplitude=0.02, rest_every=2, seed=seed
            ),
            strategies=[
                make_strategy("linear-scan"),
                build_strategy("octopus", standing=boxes),
            ],
            query_provider=lambda mesh, step: boxes,
            validate_results=True,
        )
        report = simulation.run(4)
        standing_report = report["standing-octopus"]
        assert standing_report.counts["standing.subscriptions"] == len(boxes)
        assert standing_report.counts["standing.skips"] > 0
        assert 0.0 < standing_report.ratios()["standing.skip_rate"] <= 1.0
        scan_report = report["linear-scan"]
        assert not any(key.startswith("standing.") for key in scan_report.counts)


class TestServiceSubscriptions:
    def test_subscribe_requires_prepare(self):
        service = ShardedQueryService(n_shards=2)
        with pytest.raises(SimulationError, match="prepare"):
            service.subscribe(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))

    def test_service_memberships_match_routed_queries(self):
        mesh = _mesh()
        service = ShardedQueryService(n_shards=4)
        service.prepare(mesh)
        try:
            box = Box3D((0.0, 0.0, 0.0), (0.6, 0.6, 0.6))
            sid = service.subscribe(box)
            (initial,) = service.drain_membership_updates()
            assert initial.subscription_id == sid
            # overlap-band dedup: the merged membership has no duplicates
            assert np.unique(initial.current).size == initial.current.size
            assert np.array_equal(initial.current, service.query(box).vertex_ids)

            vid = int(initial.current[0])
            delta = _move(mesh, vid, np.array([5.0, 5.0, 5.0]))
            service.note_step(1)
            service.on_step(delta)
            (update,) = service.drain_membership_updates()
            assert isinstance(update, MembershipUpdate)
            assert update.step == 1
            assert np.array_equal(update.exited, np.asarray([vid]))
            assert np.array_equal(update.current, service.query(box).vertex_ids)

            service.unsubscribe(sid)
            assert service.standing_stats().subscriptions == 0
        finally:
            service.close()

    def test_service_membership_survives_repartition(self):
        mesh = _mesh()
        service = ShardedQueryService(n_shards=4)
        service.prepare(mesh)
        try:
            box = Box3D((0.0, 0.0, 0.0), (0.6, 0.6, 0.6))
            service.subscribe(box)
            service.drain_membership_updates()
            from repro.simulation import split_cells_inplace

            topology = split_cells_inplace(mesh, np.asarray([0, 1], dtype=np.int64)).delta
            service.note_step(2)
            service.on_restructure(topology)
            expected = service.query(box).vertex_ids
            updates = service.drain_membership_updates()
            if updates:  # the split added centroids inside the box
                assert np.array_equal(updates[-1].current, expected)
            stats = service.drain_standing_stats()
            assert stats.ticks == 1
        finally:
            service.close()

    def test_standing_stats_none_until_first_subscribe(self):
        mesh = _mesh()
        service = ShardedQueryService(n_shards=2)
        service.prepare(mesh)
        try:
            assert service.standing_stats() is None
            assert service.drain_standing_stats() is None
            service.subscribe(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
            assert service.standing_stats() is not None
        finally:
            service.close()


class TestSteeringWorkload:
    def test_rejects_bad_configuration(self):
        mesh = _mesh()
        with pytest.raises(WorkloadError):
            subscription_steering(mesh, n_subscriptions=0)
        with pytest.raises(WorkloadError):
            subscription_steering(mesh, n_steps=0)
        with pytest.raises(WorkloadError):
            subscription_steering(mesh, n_subscriptions=2, resteer_per_step=3)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_schedule_is_a_replayable_value(self, seed):
        mesh = _mesh()
        first = subscription_steering(
            mesh, n_subscriptions=4, n_steps=5, resteer_per_step=1, seed=seed
        )
        second = subscription_steering(
            mesh, n_subscriptions=4, n_steps=5, resteer_per_step=1, seed=seed
        )
        assert len(first.events) == 5
        for a, b in zip(first.initial_boxes, second.initial_boxes):
            assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        for a, b in zip(first.events, second.events):
            assert (a.step, a.slot) == (b.step, b.slot)
            assert np.array_equal(a.box.lo, b.box.lo)

    def test_apply_threads_caller_owned_state(self):
        mesh = _mesh()
        schedule = subscription_steering(
            mesh, n_subscriptions=3, n_steps=4, resteer_per_step=1, seed=1
        )
        subscribed: list[int] = []
        unsubscribed: list[int] = []
        counter = iter(range(100))

        def subscribe(box):
            sid = next(counter)
            subscribed.append(sid)
            return sid

        live = schedule.start(subscribe)
        assert live == {0: 0, 1: 1, 2: 2}
        total = 0
        for step in range(1, schedule.n_steps + 1):
            total += schedule.apply(step, subscribe, unsubscribed.append, live)
        assert total == 4
        assert len(subscribed) == 3 + 4
        assert len(unsubscribed) == 4
        assert set(live) == {0, 1, 2}  # slots are stable across re-steers


class TestSeedFamilies:
    def test_chaos_env_seed_extends_the_family(self):
        base = chaos_seed_family({})
        extended = chaos_seed_family({"REPRO_CHAOS_SEED": "123"})
        assert extended[: len(base)] == base
        assert len(extended) == len(base) + 1

    def test_chaos_duplicate_env_seed_is_not_run_twice(self):
        base = chaos_seed_family({})
        assert chaos_seed_family({"REPRO_CHAOS_SEED": str(base[0])}) == base
        assert chaos_seed_family({"REPRO_CHAOS_SEED": ""}) == base


class TestSeededProperties:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_walk_of_sparse_moves_matches_positional_reference(self, seed):
        """Registry membership equals the positional scan after arbitrary moves."""
        mesh = _mesh()
        registry = StandingQueryRegistry()
        query_fn = lambda box: _scan_ids(mesh, box)  # noqa: E731
        rng = np.random.default_rng(seed)
        boxes = {
            registry.subscribe(box, query_fn): box
            for box in random_query_workload(
                mesh, selectivity=0.1, n_queries=4, seed=seed
            ).boxes
        }
        registry.drain_updates()
        for step in range(1, 16):
            k = int(rng.integers(1, 5))
            ids = np.sort(rng.choice(mesh.n_vertices, size=k, replace=False)).astype(np.int64)
            old = mesh.vertices[ids].copy()
            new = old + rng.normal(0.0, 0.15, size=old.shape)
            mesh.vertices[ids] = new
            delta = DeformationDelta.sparse(mesh.n_vertices, ids, old, new)
            registry.tick_deformation(delta, query_fn, step=step)
            for sid, box in boxes.items():
                assert np.array_equal(registry.membership(sid), _scan_ids(mesh, box)), (
                    f"seed={seed} step={step} sid={sid}"
                )
        stats = registry.stats()
        assert stats.recrawls == 0  # every tick stayed on the incremental path
        assert stats.ticks == 15


class TestExperimentSurface:
    def test_standing_rows_and_rendering(self):
        from repro.experiments.harness import standing_steering_rows
        from repro.experiments.report import format_table

        rows = standing_steering_rows("tiny", n_subscriptions=4, n_steps=3)
        assert {row["strategy"] for row in rows} == {
            "octopus",
            "standing-octopus",
            "lur-tree",
            "standing-lur-tree",
        }
        by_name = {row["strategy"]: row for row in rows}
        assert by_name["standing-octopus"]["standing.subscriptions"] == 4
        assert by_name["octopus"]["standing.subscriptions"] == "-"
        table = format_table(rows)
        assert "standing.skip_rate" in table and "standing-octopus" in table
