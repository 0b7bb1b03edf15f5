"""The resilience layer: invariant audits and the degradation ladder."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor
from repro.cache import CachingStrategy
from repro.core import OctopusExecutor, ResilientStrategy
from repro.core.delta import DeformationDelta, TopologyDelta
from repro.core.resilience import (
    audit_adjacency,
    check_query_box,
    check_query_boxes,
    screen_positions,
    validate_delta,
    validate_topology_delta,
)
from repro.errors import (
    DegradedExecutionError,
    DeltaValidationError,
    MeshConnectivityError,
    QueryError,
)
from repro.mesh import Box3D
from repro.simulation import FaultPlan, FaultyBatchStrategy
from repro.standing import StandingStrategy
from repro.workloads import random_query_workload


def inverted_box():
    """A box whose lo exceeds hi (mutated after construction, as a caller bug would)."""
    box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    box.lo[0] = 2.0
    return box


def nan_box():
    box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    box.hi[2] = np.nan
    return box


class TestCheckQueryBox:
    def test_valid_box_passes(self):
        check_query_box(Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))

    def test_zero_volume_box_is_valid(self):
        # closed-box semantics: a plane/line/point query is well-defined
        check_query_box(Box3D((0.2, 0.0, 0.0), (0.2, 1.0, 1.0)))

    def test_non_box_rejected(self):
        with pytest.raises(QueryError, match="must be a Box3D"):
            check_query_box((0.0, 1.0))

    def test_inverted_box_rejected(self):
        with pytest.raises(QueryError, match="exceeds maximum corner"):
            check_query_box(inverted_box())

    def test_nan_box_rejected(self):
        with pytest.raises(QueryError, match="finite"):
            check_query_box(nan_box())

    def test_batch_check_returns_list_and_names_offender(self):
        good = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert check_query_boxes([good, good]) == [good, good]
        with pytest.raises(QueryError):
            check_query_boxes([good, inverted_box()])


def sparse_delta(mesh, ids=(1, 3)):
    ids = np.asarray(ids, dtype=np.int64)
    positions = np.asarray(mesh.vertices[ids], dtype=np.float64)
    return DeformationDelta.sparse(
        mesh.n_vertices, ids, old_positions=positions, new_positions=positions
    )


class TestValidateDelta:
    def test_full_and_clean_sparse_deltas_pass(self, grid_mesh):
        validate_delta(DeformationDelta.full(grid_mesh.n_vertices), grid_mesh)
        validate_delta(sparse_delta(grid_mesh), grid_mesh)

    @pytest.mark.parametrize(
        "make_delta, reason",
        [
            (lambda n: object(), "wrong-type"),
            (lambda n: DeformationDelta(-1, None), "negative-count"),
            (lambda n: DeformationDelta.full(n + 5), "vertex-count-mismatch"),
            (
                lambda n: DeformationDelta(n, np.asarray([0.5, 1.5])),
                "malformed-ids",
            ),
            (
                lambda n: DeformationDelta(n, np.asarray([0, n], dtype=np.int64)),
                "ids-out-of-range",
            ),
            (
                lambda n: DeformationDelta(n, np.asarray([2, 2], dtype=np.int64)),
                "duplicate-ids",
            ),
            (
                lambda n: DeformationDelta(n, np.asarray([3, 1], dtype=np.int64)),
                "unsorted-ids",
            ),
            (
                lambda n: DeformationDelta(
                    n,
                    np.asarray([1, 3], dtype=np.int64),
                    new_positions=np.zeros((5, 3)),
                ),
                "shape-mismatch",
            ),
            (
                lambda n: DeformationDelta(
                    n,
                    np.asarray([1, 3], dtype=np.int64),
                    new_positions=np.full((2, 3), np.nan),
                ),
                "nan-positions",
            ),
            (
                lambda n: DeformationDelta(
                    n,
                    np.asarray([1, 3], dtype=np.int64),
                    new_positions=np.full((2, 3), 9.0),
                    dirty_box=Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                ),
                "dirty-box-mismatch",
            ),
        ],
    )
    def test_reason_tags(self, grid_mesh, make_delta, reason):
        with pytest.raises(DeltaValidationError) as excinfo:
            validate_delta(make_delta(grid_mesh.n_vertices), grid_mesh)
        assert excinfo.value.reason == reason

    def test_screen_positions_counts_bad_rows(self):
        pts = np.zeros((4, 3))
        pts[2, 1] = np.inf
        with pytest.raises(DeltaValidationError, match="1 rows"):
            screen_positions(pts, "test positions")


class TestValidateTopologyDelta:
    def test_clean_deltas_pass(self, grid_mesh):
        n = grid_mesh.n_vertices
        validate_topology_delta(TopologyDelta.full(n), grid_mesh)
        validate_topology_delta(TopologyDelta.empty(n), grid_mesh)
        validate_topology_delta(
            TopologyDelta(n, np.asarray([0, 5], dtype=np.int64), n_cells_added=1),
            grid_mesh,
        )

    @pytest.mark.parametrize(
        "make_delta, reason",
        [
            (lambda n: object(), "wrong-type"),
            (lambda n: TopologyDelta.full(n + 1), "vertex-count-mismatch"),
            (
                lambda n: TopologyDelta(n, np.asarray([0], dtype=np.int64), n_cells_added=-1),
                "negative-count",
            ),
            (
                lambda n: TopologyDelta(
                    n, np.empty(0, dtype=np.int64), n_cells_removed=2
                ),
                "changes-without-dirty",
            ),
            (
                lambda n: TopologyDelta(
                    n, np.asarray([0, 1], dtype=np.int64), n_vertices_added=1
                ),
                "added-outside-dirty",
            ),
            (
                lambda n: TopologyDelta(
                    n,
                    np.asarray([0, 1], dtype=np.int64),
                    n_cells_added=1,
                    dirty_box=Box3D((5.0, 5.0, 5.0), (6.0, 6.0, 6.0)),
                ),
                "dirty-box-mismatch",
            ),
        ],
    )
    def test_reason_tags(self, grid_mesh, make_delta, reason):
        with pytest.raises(DeltaValidationError) as excinfo:
            validate_topology_delta(make_delta(grid_mesh.n_vertices), grid_mesh)
        assert excinfo.value.reason == reason


class TestStructuralAudits:
    def test_adjacency_audit_passes_on_real_mesh(self, grid_mesh):
        audit_adjacency(grid_mesh)
        audit_adjacency(grid_mesh, vertex_ids=np.asarray([0, 1, 2], dtype=np.int64))

    def test_adjacency_audit_catches_bad_frame(self):
        adjacency = SimpleNamespace(
            indptr=np.asarray([0, 2], dtype=np.int64),
            indices=np.asarray([1, 0, 1], dtype=np.int64),
        )
        mesh = SimpleNamespace(adjacency=adjacency, n_vertices=1)
        with pytest.raises(MeshConnectivityError, match="frame"):
            audit_adjacency(mesh)

    def test_adjacency_audit_catches_out_of_range_and_self_loops(self):
        mesh = SimpleNamespace(
            adjacency=SimpleNamespace(
                indptr=np.asarray([0, 1, 2], dtype=np.int64),
                indices=np.asarray([5, 0], dtype=np.int64),
            ),
            n_vertices=2,
        )
        with pytest.raises(MeshConnectivityError, match="out of range"):
            audit_adjacency(mesh)
        looped = SimpleNamespace(
            adjacency=SimpleNamespace(
                indptr=np.asarray([0, 1, 2], dtype=np.int64),
                indices=np.asarray([0, 0], dtype=np.int64),
            ),
            n_vertices=2,
        )
        with pytest.raises(MeshConnectivityError, match="itself"):
            audit_adjacency(looped, vertex_ids=np.asarray([0], dtype=np.int64))


# ----------------------------------------------------------------------
# the degradation ladder
# ----------------------------------------------------------------------
class FlakyScan(LinearScanExecutor):
    """A linear scan whose paths can be armed to fail (the ladder's test dummy)."""

    name = "linear-scan"

    def __init__(self, fail_query=False, fail_batch=False, on_step_failures=0, fail_prepare=False):
        super().__init__()
        self.fail_query = fail_query
        self.fail_batch = fail_batch
        self.on_step_failures = on_step_failures
        self.fail_prepare = fail_prepare
        self.applied_deltas = []

    def prepare(self, mesh):
        if self.fail_prepare and getattr(self, "_prepared_once", False):
            raise RuntimeError("rebuild failed")
        self._prepared_once = True
        return super().prepare(mesh)

    def query(self, box):
        if self.fail_query:
            raise RuntimeError("index state corrupted")
        return super().query(box)

    def query_many(self, boxes):
        if self.fail_batch:
            raise RuntimeError("batch engine crashed")
        return super().query_many(boxes)

    def on_step(self, delta):
        self.applied_deltas.append(delta)
        if self.on_step_failures > 0:
            self.on_step_failures -= 1
            raise RuntimeError("incremental maintenance failed")
        return super().on_step(delta)


def reference_ids(mesh, box):
    scan = LinearScanExecutor()
    scan.prepare(mesh)
    return scan.query(box).vertex_ids


class TestResilientQueries:
    def test_query_falls_back_to_scan(self, grid_mesh):
        mesh = grid_mesh.copy()
        wrapped = ResilientStrategy(FlakyScan(fail_query=True))
        wrapped.prepare(mesh)
        box = Box3D((0.1, 0.1, 0.1), (0.6, 0.6, 0.6))
        result = wrapped.query(box)
        assert np.array_equal(result.vertex_ids, reference_ids(mesh, box))
        (event,) = wrapped.drain_degradation_events()
        assert (event.operation, event.rung, event.reason) == ("query", "scan", "strategy-error")
        assert wrapped.drain_degradation_events() == []  # drained

    def test_batch_falls_back_to_sequential(self, grid_mesh):
        mesh = grid_mesh.copy()
        wrapped = ResilientStrategy(FlakyScan(fail_batch=True))
        wrapped.prepare(mesh)
        wrapped.note_step(4)
        boxes = random_query_workload(mesh, selectivity=0.05, n_queries=3, seed=0).boxes
        results = wrapped.query_many(boxes)
        for box, result in zip(boxes, results):
            assert np.array_equal(result.vertex_ids, reference_ids(mesh, box))
        events = wrapped.drain_degradation_events()
        assert [event.rung for event in events] == ["sequential"]
        assert events[0].step == 4

    def test_sequential_rung_leaves_no_fused_record(self, grid_mesh):
        """OCTOPUS answers each box of the rung as a batch of one; none of
        those one-box batches may pose as the failed batch's record."""

        class FailingBatch(OctopusExecutor):
            def query_many(self, boxes):
                raise RuntimeError("batch engine down")

        mesh = grid_mesh.copy()
        wrapped = ResilientStrategy(FailingBatch())
        wrapped.prepare(mesh)
        boxes = random_query_workload(mesh, selectivity=0.05, n_queries=3, seed=0).boxes
        results = wrapped.query_many(boxes)
        for box, result in zip(boxes, results):
            assert np.array_equal(result.vertex_ids, reference_ids(mesh, box))
        assert [event.rung for event in wrapped.drain_degradation_events()] == ["sequential"]
        assert wrapped.last_fused_crawl is None

    def test_malformed_queries_propagate(self, grid_mesh):
        wrapped = ResilientStrategy(FlakyScan())
        wrapped.prepare(grid_mesh.copy())
        bad = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        bad.lo[1] = 5.0
        with pytest.raises(QueryError):
            wrapped.query(bad)
        with pytest.raises(QueryError):
            wrapped.query_many([bad])
        assert wrapped.drain_degradation_events() == []  # caller bug, not a fallback


class TestResilientMaintenance:
    def test_failed_increment_retries_with_full_delta(self, grid_mesh):
        mesh = grid_mesh.copy()
        inner = FlakyScan(on_step_failures=1)
        wrapped = ResilientStrategy(inner)
        wrapped.prepare(mesh)
        wrapped.on_step(sparse_delta(mesh))
        assert len(inner.applied_deltas) == 2
        assert inner.applied_deltas[-1].is_full
        (event,) = wrapped.drain_degradation_events()
        assert (event.operation, event.rung) == ("on_step", "full-delta")

    def test_failed_full_delta_rebuilds(self, grid_mesh):
        mesh = grid_mesh.copy()
        inner = FlakyScan(on_step_failures=2)
        wrapped = ResilientStrategy(inner)
        wrapped.prepare(mesh)
        wrapped.on_step(sparse_delta(mesh))
        rungs = [event.rung for event in wrapped.drain_degradation_events()]
        assert rungs == ["full-delta", "rebuild"]

    def test_exhausted_ladder_raises_structured_error(self, grid_mesh):
        mesh = grid_mesh.copy()
        inner = FlakyScan(on_step_failures=2, fail_prepare=True)
        wrapped = ResilientStrategy(inner)
        wrapped.prepare(mesh)
        wrapped.note_step(7)
        with pytest.raises(DegradedExecutionError) as excinfo:
            wrapped.on_step(sparse_delta(mesh))
        assert excinfo.value.context() == {"strategy": "linear-scan", "step": 7}

    def test_paranoid_quarantines_invalid_delta(self, grid_mesh):
        mesh = grid_mesh.copy()
        inner = FlakyScan()
        wrapped = ResilientStrategy(inner, paranoid=True)
        wrapped.prepare(mesh)
        bad = DeformationDelta(
            mesh.n_vertices,
            np.asarray([3, 1], dtype=np.int64),  # unsorted: fails the audit
        )
        wrapped.on_step(bad)
        (applied,) = inner.applied_deltas
        assert applied.is_full  # the inner strategy never saw the lying delta
        (event,) = wrapped.drain_degradation_events()
        assert (event.rung, event.reason) == ("quarantine", "unsorted-ids")

    def test_paranoid_quarantines_invalid_topology_delta(self, grid_mesh):
        mesh = grid_mesh.copy()
        wrapped = ResilientStrategy(FlakyScan(), paranoid=True)
        wrapped.prepare(mesh)
        lying = TopologyDelta(
            mesh.n_vertices, np.asarray([0, 1], dtype=np.int64), n_vertices_added=1
        )
        wrapped.on_restructure(lying)
        (event,) = wrapped.drain_degradation_events()
        assert (event.operation, event.rung) == ("on_restructure", "quarantine")
        assert event.reason == "added-outside-dirty"

    def test_non_paranoid_applies_deltas_untouched(self, grid_mesh):
        mesh = grid_mesh.copy()
        inner = FlakyScan()
        wrapped = ResilientStrategy(inner)  # paranoid off: zero-validation fast path
        wrapped.prepare(mesh)
        delta = sparse_delta(mesh)
        wrapped.on_step(delta)
        assert inner.applied_deltas == [delta]
        assert wrapped.drain_degradation_events() == []


class TestResilientAccounting:
    def test_wrapping_prepared_strategy_keeps_accounting(self, grid_mesh):
        inner = LinearScanExecutor()
        inner.prepare(grid_mesh.copy())
        before = inner.preprocessing_time
        wrapped = ResilientStrategy(inner)
        assert wrapped.preprocessing_time == before  # not zeroed by the wrapper

    def test_accounting_forwards_both_ways(self, grid_mesh):
        inner = LinearScanExecutor()
        wrapped = ResilientStrategy(inner)
        wrapped.prepare(grid_mesh.copy())
        wrapped.maintenance_entries = 42
        assert inner.maintenance_entries == 42
        inner.maintenance_time = 1.5
        assert wrapped.maintenance_time == 1.5
        assert wrapped.name == inner.name
        assert wrapped.memory_overhead_bytes() == inner.memory_overhead_bytes()

    def test_maintenance_time_includes_wrapper_overhead(self, grid_mesh):
        mesh = grid_mesh.copy()
        wrapped = ResilientStrategy(LinearScanExecutor(), paranoid=True)
        wrapped.prepare(mesh)
        before = wrapped.maintenance_time
        elapsed = wrapped.on_step(sparse_delta(mesh))
        assert elapsed >= 0.0
        assert wrapped.maintenance_time >= before

    def test_describe_marks_the_wrapper(self, grid_mesh):
        wrapped = ResilientStrategy(LinearScanExecutor(), paranoid=True)
        wrapped.prepare(grid_mesh.copy())
        record = wrapped.describe()
        assert record["resilient"] is True
        assert record["paranoid"] is True


#: one constructor per StrategyWrapper subclass
WRAPPERS = {
    "resilient": lambda inner: ResilientStrategy(inner, paranoid=True),
    "cached": CachingStrategy,
    "standing": StandingStrategy,
    "faulty-batch": lambda inner: FaultyBatchStrategy(inner, FaultPlan(seed=0)),
}


class TestWrapperLedger:
    """Every wrapper reads and writes the one ledger of the strategy it wraps."""

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_wrapping_a_prepared_strategy_keeps_its_ledger(self, grid_mesh, wrapper):
        inner = OctopusExecutor()
        inner.prepare(grid_mesh.copy())
        inner.maintenance_time = 0.5
        inner.maintenance_entries = 17
        ledger = (inner.preprocessing_time, 0.5, 17)
        wrapped = WRAPPERS[wrapper](inner)
        # the constructor must not zero the ledger through the forwarding setters
        assert (inner.preprocessing_time, inner.maintenance_time, inner.maintenance_entries) == ledger
        assert (
            wrapped.preprocessing_time,
            wrapped.maintenance_time,
            wrapped.maintenance_entries,
        ) == ledger
        assert wrapped.mesh is inner.mesh
