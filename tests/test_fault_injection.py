"""Deterministic chaos suite: injected faults recover bit-identically or fail loudly.

A seeded :class:`~repro.simulation.FaultPlan` corrupts the deltas the
simulator hands out; every strategy under test is wrapped in a paranoid
:class:`~repro.core.ResilientStrategy`.  The parity contract is the
resilience layer's whole point: a faulted run must produce *exactly* the
results of a clean run (validated per query against the linear scan of the
live positions), with every recovery visible in the degradation ledger —
never a silent divergence.

``REPRO_CHAOS_SEED`` adds one more seed to the parametrised family (the CI
chaos job sweeps it).
"""

import numpy as np
import pytest
from seed_families import chaos_seed_family

from repro.baselines import LinearScanExecutor
from repro.core import OctopusConExecutor, ResilientStrategy, StrategyWrapper
from repro.core.delta import DeformationDelta, TopologyDelta
from repro.core.resilience import validate_delta, validate_topology_delta
from repro.errors import DeltaValidationError, FaultInjectionError, ReproError, SimulationError
from repro.experiments.harness import build_strategy, make_strategy
from repro.simulation import (
    FAULT_KINDS,
    FaultPlan,
    FaultyBatchStrategy,
    LocalizedPulseDeformation,
    MeshSimulation,
)
from repro.simulation.faults import (
    duplicate_delta,
    lying_topology_delta,
    nan_positions_delta,
    truncate_delta,
    wrong_aabb_delta,
)
from repro.standing import StandingStrategy
from repro.workloads import random_query_workload

CHAOS_SEEDS = chaos_seed_family()


class TestFaultPlan:
    def test_rejects_bad_configuration(self):
        with pytest.raises(SimulationError, match="kinds"):
            FaultPlan(seed=0, kinds=("made-up-fault",))
        with pytest.raises(SimulationError, match="kinds"):
            FaultPlan(seed=0, kinds=())
        with pytest.raises(SimulationError, match="probability"):
            FaultPlan(seed=0, probability=1.5)

    def test_schedule_is_deterministic_and_order_independent(self):
        plan = FaultPlan(seed=42, probability=0.7)
        forward = [plan.kind_for_step(step) for step in range(20)]
        backward = [plan.kind_for_step(step) for step in reversed(range(20))]
        assert forward == list(reversed(backward))
        assert forward == [FaultPlan(seed=42, probability=0.7).kind_for_step(s) for s in range(20)]
        scheduled = [kind for kind in forward if kind is not None]
        assert scheduled  # 20 steps at p=0.7 inject something
        assert set(scheduled) <= set(FAULT_KINDS)

    def test_different_seeds_differ(self):
        a = [FaultPlan(seed=1).kind_for_step(s) for s in range(50)]
        b = [FaultPlan(seed=2).kind_for_step(s) for s in range(50)]
        assert a != b

    def test_probability_zero_is_always_clean(self, grid_mesh):
        plan = FaultPlan(seed=0, probability=0.0)
        delta = _sparse_delta(grid_mesh)
        for step in range(10):
            assert plan.kind_for_step(step) is None
            corrupted, kind = plan.corrupt_deformation(delta, step)
            assert corrupted is delta and kind is None
            assert not plan.raises_in_batch(step)


def _sparse_delta(mesh):
    ids = np.asarray([2, 5, 9], dtype=np.int64)
    positions = np.asarray(mesh.vertices[ids], dtype=np.float64)
    return DeformationDelta.sparse(
        mesh.n_vertices, ids, old_positions=positions, new_positions=positions
    )


class TestCorruptions:
    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (truncate_delta, "shape-mismatch"),
            (duplicate_delta, "duplicate-ids"),
            (wrong_aabb_delta, "dirty-box-mismatch"),
            (nan_positions_delta, "nan-positions"),
        ],
    )
    def test_each_corruption_trips_its_validator(self, grid_mesh, corrupt, reason):
        clean = _sparse_delta(grid_mesh)
        validate_delta(clean, grid_mesh)  # the input really was clean
        corrupted = corrupt(clean)
        assert corrupted is not clean
        with pytest.raises(DeltaValidationError) as excinfo:
            validate_delta(corrupted, grid_mesh)
        assert excinfo.value.reason == reason

    def test_lying_topology_trips_its_validator(self, grid_mesh):
        clean = TopologyDelta(
            grid_mesh.n_vertices, np.asarray([0, 4], dtype=np.int64), n_cells_added=1
        )
        validate_topology_delta(clean, grid_mesh)
        with pytest.raises(DeltaValidationError):
            validate_topology_delta(lying_topology_delta(clean), grid_mesh)

    @pytest.mark.parametrize(
        "corrupt", [truncate_delta, duplicate_delta, wrong_aabb_delta, nan_positions_delta]
    )
    def test_full_and_empty_deltas_pass_through(self, corrupt):
        full = DeformationDelta.full(100)
        empty = DeformationDelta.empty(100)
        assert corrupt(full) is full  # nothing to corrupt: the plan reports no fault
        assert corrupt(empty) is empty

    def test_pass_through_reports_no_fault(self):
        plan = FaultPlan(seed=3, probability=1.0, kinds=("truncate-delta",))
        full = DeformationDelta.full(100)
        corrupted, kind = plan.corrupt_deformation(full, step=0)
        assert corrupted is full and kind is None


class TestFaultyBatchStrategy:
    def test_raises_only_at_scheduled_steps(self, grid_mesh):
        mesh = grid_mesh.copy()
        plan = FaultPlan(seed=0, probability=1.0, kinds=("batch-exception",))
        wrapped = FaultyBatchStrategy(make_strategy("octopus"), plan)
        wrapped.prepare(mesh)
        boxes = random_query_workload(mesh, selectivity=0.05, n_queries=2, seed=0).boxes
        wrapped.note_step(0)
        with pytest.raises(FaultInjectionError, match="step 0"):
            wrapped.query_many(boxes)
        assert wrapped.n_injected == 1
        wrapped.note_step(None)  # outside a simulation step: no schedule applies
        assert len(wrapped.query_many(boxes)) == 2
        assert wrapped.query(boxes[0]).vertex_ids is not None  # query path unaffected

    def test_forwards_accounting_and_describe(self, grid_mesh):
        inner = make_strategy("octopus")
        inner.prepare(grid_mesh.copy())
        wrapped = FaultyBatchStrategy(inner, FaultPlan(seed=5))
        assert wrapped.preprocessing_time == inner.preprocessing_time
        assert wrapped.name == inner.name
        assert wrapped.describe()["fault_plan_seed"] == 5

    def test_is_a_strategy_wrapper_over_its_inner_strategy(self, grid_mesh):
        inner = make_strategy("octopus")
        wrapped = FaultyBatchStrategy(ResilientStrategy(inner), FaultPlan(seed=1))
        assert isinstance(wrapped, StrategyWrapper)
        assert wrapped.unwrap() is inner
        mesh = grid_mesh.copy()
        wrapped.prepare(mesh)
        assert wrapped.mesh is mesh and inner.mesh is mesh
        assert wrapped.memory_overhead_bytes() == inner.memory_overhead_bytes()

    def test_maintenance_hooks_pass_deltas_through_untouched(self, grid_mesh):
        # the plan corrupts deltas in the simulator; the wrapper only
        # schedules batch exceptions, even at a step where one is due
        mesh = grid_mesh.copy()
        inner = _RecordingScan()
        wrapped = FaultyBatchStrategy(
            inner, FaultPlan(seed=0, probability=1.0, kinds=("batch-exception",))
        )
        wrapped.prepare(mesh)
        wrapped.note_step(1)
        step, topology = _sparse_delta(mesh), TopologyDelta.empty(mesh.n_vertices)
        wrapped.on_step(step)
        wrapped.on_restructure(topology)
        assert inner.seen == [step, topology]
        box = random_query_workload(mesh, selectivity=0.05, n_queries=1, seed=0).boxes[0]
        assert wrapped.query(box).same_vertices_as(inner.query(box))
        assert wrapped.n_injected == 0

    def test_ledger_and_fused_record_are_the_inner_strategys(self, grid_mesh):
        mesh = grid_mesh.copy()
        inner = make_strategy("octopus")
        wrapped = FaultyBatchStrategy(inner, FaultPlan(seed=2))
        wrapped.prepare(mesh)
        boxes = random_query_workload(mesh, selectivity=0.05, n_queries=3, seed=0).boxes
        wrapped.query_many(boxes)
        assert inner.last_fused_crawl is not None
        assert wrapped.last_fused_crawl is inner.last_fused_crawl
        wrapped.maintenance_entries = 9
        assert inner.maintenance_entries == 9
        inner.maintenance_time = 0.25
        assert wrapped.maintenance_time == 0.25

    def test_note_step_reaches_a_ladder_below(self, grid_mesh):
        mesh = grid_mesh.copy()
        wrapped = FaultyBatchStrategy(
            ResilientStrategy(_FailingQueries()), FaultPlan(seed=3, probability=0.0)
        )
        wrapped.prepare(mesh)
        wrapped.note_step(6)
        box = random_query_workload(mesh, selectivity=0.05, n_queries=1, seed=0).boxes[0]
        wrapped.query(box)
        (event,) = wrapped.drain_degradation_events()
        assert (event.rung, event.step) == ("scan", 6)


class _RecordingScan(LinearScanExecutor):
    """A linear scan that records the deltas its maintenance hooks receive."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def on_step(self, delta):
        self.seen.append(delta)
        return super().on_step(delta)

    def on_restructure(self, delta):
        self.seen.append(delta)
        return super().on_restructure(delta)


class _FailingQueries(LinearScanExecutor):
    """A linear scan whose single-query path raises (index state gone bad)."""

    def query(self, box):
        raise RuntimeError("index state corrupted")


def chaos_strategies(plan):
    """The chaos suite: linear scan as the immune reference, the rest wrapped.

    The cached paranoid stack checks that the ladder guards the cache too: a
    delta it quarantines must not leave a stale entry behind.
    """
    strategies = [make_strategy("linear-scan")]
    if plan is not None:
        octopus = FaultyBatchStrategy(make_strategy("octopus"), plan)
    else:
        octopus = make_strategy("octopus")
    strategies += [
        ResilientStrategy(octopus, paranoid=True),
        ResilientStrategy(OctopusConExecutor(), paranoid=True),
        ResilientStrategy(make_strategy("lur-tree"), paranoid=True),
        build_strategy("octopus", caching=True, resilience="paranoid"),
    ]
    return strategies


def run_chaos(mesh, plan, n_steps=8, seed=3):
    workload = random_query_workload(mesh, selectivity=0.05, n_queries=3, seed=seed).boxes
    simulation = MeshSimulation(
        mesh=mesh,
        deformation=LocalizedPulseDeformation(sparsity=0.1, amplitude=0.02, seed=seed),
        strategies=chaos_strategies(plan),
        query_provider=lambda mesh, step: workload,
        validate_results=True,  # every strategy must match the scan, every step
        fault_plan=plan,
    )
    return simulation.run(n_steps)


class TestChaosParity:
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_faulted_run_recovers_bit_identically(self, grid_mesh, chaos_seed):
        plan = FaultPlan(seed=chaos_seed, probability=0.8)
        faulted = run_chaos(grid_mesh.copy(), plan)
        clean = run_chaos(grid_mesh.copy(), None)

        # the plan really fired (a chaos run that injects nothing proves nothing)
        assert faulted.injected_faults
        for step, kind in faulted.injected_faults:
            assert 1 <= step <= 8  # MeshSimulation numbers steps 1..n_steps
            assert kind in FAULT_KINDS

        # bit-identical recovery: validate_results already compared every query
        # against the scan; the totals must also match the clean run exactly
        for name in clean.names():
            assert faulted[name].total_results == clean[name].total_results

        # every recovery is visible in the ledger, none on the clean run
        fallbacks = [report.counts.get("resilience.fallbacks", 0) for report in faulted.strategies.values()]
        assert sum(fallbacks) > 0
        assert all(report.counts.get("resilience.fallbacks", 0) == 0 for report in clean.strategies.values())
        for report in faulted.strategies.values():
            assert len(report.degradation_events) == report.counts.get("resilience.fallbacks", 0)
            for event in report.degradation_events:
                assert event["rung"] in {
                    "sequential",
                    "scan",
                    "quarantine",
                    "full-delta",
                    "rebuild",
                    "standing-reeval",
                }

    def test_unwrapped_strategy_crashes_raw_under_faults(self, grid_mesh):
        mesh = grid_mesh.copy()
        plan = FaultPlan(seed=7, probability=1.0, kinds=("truncate-delta",))
        workload = random_query_workload(mesh, selectivity=0.05, n_queries=2, seed=0).boxes
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=LocalizedPulseDeformation(sparsity=0.1, amplitude=0.02, seed=3),
            strategies=[
                make_strategy("linear-scan"),
                StandingStrategy(make_strategy("octopus"), boxes=workload),
            ],
            query_provider=lambda mesh, step: workload,
            validate_results=True,
            fault_plan=plan,
        )
        # The chaos harness is not vacuous: without paranoid validation the
        # truncated delta reaches the standing registry, which indexes its
        # full-length new positions with the shortened moved ids, and escapes
        # as a raw, unclassified shape error — exactly the crash the
        # quarantine rung absorbs in the parity runs above.
        with pytest.raises(Exception) as excinfo:
            simulation.run(8)
        assert not isinstance(excinfo.value, ReproError)


def run_standing_chaos(mesh, plan, n_steps=8, seed=3):
    """A chaos run with standing subscriptions registered on the wrapped stacks.

    Returns the simulation report plus, per standing strategy, the drained
    :class:`~repro.standing.MembershipUpdate` stream.
    """
    boxes = random_query_workload(mesh, selectivity=0.05, n_queries=3, seed=seed).boxes
    if plan is not None:
        octopus = FaultyBatchStrategy(make_strategy("octopus"), plan)
    else:
        octopus = make_strategy("octopus")
    strategies = [
        make_strategy("linear-scan"),
        StandingStrategy(ResilientStrategy(octopus, paranoid=True), boxes=boxes, paranoid=True),
        StandingStrategy(
            ResilientStrategy(make_strategy("lur-tree"), paranoid=True),
            boxes=boxes,
            paranoid=True,
        ),
    ]
    simulation = MeshSimulation(
        mesh=mesh,
        deformation=LocalizedPulseDeformation(sparsity=0.1, amplitude=0.02, seed=seed),
        strategies=strategies,
        query_provider=lambda mesh, step: boxes,
        validate_results=True,
        fault_plan=plan,
    )
    report = simulation.run(n_steps)
    updates = {
        strategy.name: strategy.drain_membership_updates()
        for strategy in strategies
        if isinstance(strategy, StandingStrategy)
    }
    return report, updates


class TestStandingChaosParity:
    """Faulted subscriptions emit exactly the clean run's membership stream."""

    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_faulted_subscriptions_emit_clean_membership(self, grid_mesh, chaos_seed):
        plan = FaultPlan(seed=chaos_seed, probability=0.8)
        faulted_report, faulted_updates = run_standing_chaos(grid_mesh.copy(), plan)
        clean_report, clean_updates = run_standing_chaos(grid_mesh.copy(), None)

        assert faulted_report.injected_faults  # the plan really fired
        assert set(faulted_updates) == set(clean_updates) != set()

        # Membership parity is on WHAT the client sees — subscription, step and
        # the entered/exited/current sets.  The `reason`/`recrawled` fields may
        # legitimately differ: a corrupted delta forces the faulted run onto
        # the full re-evaluation path, but it must land on the same membership.
        for name in clean_updates:
            faulted_stream = faulted_updates[name]
            clean_stream = clean_updates[name]
            assert len(faulted_stream) == len(clean_stream)
            for faulted, clean in zip(faulted_stream, clean_stream):
                context = f"{name} step {clean.step} sid {clean.subscription_id}"
                assert faulted.subscription_id == clean.subscription_id, context
                assert faulted.step == clean.step, context
                assert np.array_equal(faulted.entered, clean.entered), context
                assert np.array_equal(faulted.exited, clean.exited), context
                assert np.array_equal(faulted.current, clean.current), context

        # every recovery is in the ledger; delta corruptions that reached the
        # standing layer show up on the dedicated standing-reeval rung
        delta_faults = {
            kind for _, kind in faulted_report.injected_faults if kind != "batch-exception"
        }
        standing_events = [
            event
            for name in faulted_updates
            for event in faulted_report[name].degradation_events
            if event["rung"] == "standing-reeval"
        ]
        if delta_faults:
            assert standing_events
        for event in standing_events:
            assert event["operation"] == "standing-tick"
            assert event["reason"] == "delta-invalid"
        for name in clean_updates:
            assert clean_report[name].counts["resilience.fallbacks"] == 0

    def test_chaos_env_seed_extends_the_family(self):
        base = chaos_seed_family({})
        extended = chaos_seed_family({"REPRO_CHAOS_SEED": "321"})
        assert extended[: len(base)] == base
        assert extended[-1] == 321
        assert chaos_seed_family({"REPRO_CHAOS_SEED": str(base[1])}) == base
        assert CHAOS_SEEDS == chaos_seed_family()


class TestExperimentSurface:
    def test_fault_injection_rows_and_rendering(self):
        from repro.experiments.harness import fault_injection_rows
        from repro.experiments.report import format_table

        rows = fault_injection_rows("tiny")
        assert rows  # the default plan forces at least one fallback
        for row in rows:
            assert set(row) == {"strategy", "step", "operation", "rung", "reason", "error"}
        table = format_table(rows)
        assert "rung" in table and rows[0]["strategy"] in table

    def test_degradation_rows_empty_without_wrappers(self, grid_mesh):
        from repro.experiments.harness import degradation_rows, run_comparison
        from repro.experiments.report import format_table

        report = run_comparison(
            grid_mesh.copy(),
            [make_strategy("linear-scan")],
            LocalizedPulseDeformation(sparsity=0.1, amplitude=0.02, seed=0),
            n_steps=2,
            query_provider=lambda mesh, step: random_query_workload(
                mesh, selectivity=0.05, n_queries=2, seed=0
            ).boxes,
        )
        assert degradation_rows(report) == []
        assert "(no rows)" in format_table([])
