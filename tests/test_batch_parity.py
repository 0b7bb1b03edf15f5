"""Cross-strategy batch parity suite.

Property-based lockdown of the batched query engine: for **every** registered
execution strategy, ``query_many(boxes)`` must be indistinguishable from the
sequential ``query(box)`` loop — same result ids, same per-query counters,
same result metadata — across random meshes, overlapping / disjoint / empty /
mixed box batches, and after deformation steps.  The random content is driven
by the ``REPRO_PARITY_SEED`` environment variable (CI runs the suite under two
different seeds) so each run exercises a fresh sample of the property space
while staying reproducible.

Also pins down the :meth:`ExecutionStrategy.query_many` failure contract: a
query that raises mid-batch aborts the whole batch with no partial results and
no change to the strategy's cumulative accounting.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import OctopusConExecutor, OctopusExecutor
from repro.core.executor import ExecutionStrategy
from repro.core.result import QueryResult
from repro.experiments.harness import make_strategy
from repro.generators import random_delaunay_mesh, structured_tetrahedral_mesh
from repro.mesh import Box3D
from repro.simulation import RandomWalkDeformation
from repro.workloads import random_query_workload

#: every strategy name the harness can instantiate (the full Figure-6+ set)
ALL_STRATEGIES = (
    "octopus",
    "octopus-con",
    "linear-scan",
    "octree",
    "lur-tree",
    "qu-trade",
    "rum-tree",
)

PARITY_SEED = int(os.environ.get("REPRO_PARITY_SEED", "0"))


@pytest.fixture(scope="module")
def parity_rng() -> np.random.Generator:
    return np.random.default_rng(PARITY_SEED)


@pytest.fixture(scope="module")
def random_mesh():
    """A random irregular (Delaunay) mesh whose size depends on the suite seed."""
    rng = np.random.default_rng(1000 + PARITY_SEED)
    n_points = int(rng.integers(220, 380))
    return random_delaunay_mesh(n_points, seed=PARITY_SEED + 17)


@pytest.fixture(scope="module")
def structured_mesh():
    return structured_tetrahedral_mesh((4, 4, 4))


def _batch_kinds(mesh, seed: int) -> dict[str, list[Box3D]]:
    """The box-batch families the parity property quantifies over."""
    rng = np.random.default_rng(seed)
    bounding = mesh.bounding_box()
    diagonal = float(np.linalg.norm(bounding.extents))

    overlapping_center = mesh.vertices[int(rng.integers(0, mesh.n_vertices))]
    overlapping = [
        Box3D.cube(overlapping_center + rng.normal(0.0, 0.03 * diagonal, 3), 0.3 * diagonal)
        for _ in range(7)
    ]
    corners = bounding.corners()
    disjoint = [Box3D.cube(corner, 0.2 * diagonal) for corner in corners[:6]]
    empty_boxes = [
        Box3D.cube(bounding.hi + 3.0 * diagonal, 0.3 * diagonal),
        Box3D.cube(bounding.lo - 2.0 * diagonal, 0.2 * diagonal),
    ]
    random_boxes = random_query_workload(
        mesh, selectivity=0.03, n_queries=6, seed=seed
    ).boxes
    mixed = random_boxes[:3] + empty_boxes[:1] + overlapping[:2] + [random_boxes[0]]
    return {
        "overlapping": overlapping,
        "disjoint": disjoint,
        "empty": empty_boxes,
        "mixed": mixed,
    }


def _assert_parity(strategy: ExecutionStrategy, boxes: list[Box3D]) -> None:
    sequential = [strategy.query(box) for box in boxes]
    batched = strategy.query_many(boxes)
    assert len(batched) == len(sequential)
    for index, (got, expected) in enumerate(zip(batched, sequential)):
        context = f"{strategy.name}, box {index}"
        assert got.same_vertices_as(expected), context
        assert got.counters.as_dict() == expected.counters.as_dict(), context
        assert got.n_results == expected.n_results, context
        assert got.vertex_ids.dtype == expected.vertex_ids.dtype, context
        assert got.total_time >= 0.0, context
        phase_sum = (
            got.probe_time + got.walk_time + got.crawl_time + got.scan_time + got.index_time
        )
        assert got.total_time == pytest.approx(phase_sum, rel=1e-9, abs=1e-12), context


@pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
@pytest.mark.parametrize("mesh_fixture", ["random_mesh", "structured_mesh"])
def test_query_many_equals_sequential(strategy_name, mesh_fixture, request):
    """The central property: batched ≡ sequential for every strategy and batch kind."""
    mesh = request.getfixturevalue(mesh_fixture)
    strategy = make_strategy(strategy_name)
    strategy.prepare(mesh)
    for kind, boxes in _batch_kinds(mesh, seed=PARITY_SEED + 31).items():
        _assert_parity(strategy, boxes)
    assert strategy.query_many([]) == []


@pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
def test_query_many_parity_after_deformation_steps(strategy_name, parity_rng):
    """Parity holds mid-simulation: positions moved, maintenance performed."""
    mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
    strategy = make_strategy(strategy_name)
    strategy.prepare(mesh)
    deformation = RandomWalkDeformation(amplitude=0.004, seed=PARITY_SEED + 5)
    deformation.bind(mesh)
    for step in (1, 2):
        delta = deformation.apply(step)
        strategy.on_step(delta)
        boxes = _batch_kinds(mesh, seed=PARITY_SEED + 100 * step)["mixed"]
        _assert_parity(strategy, boxes)


def test_all_strategies_agree_on_batched_results(random_mesh):
    """Batched executions of all exact strategies retrieve identical vertex sets."""
    boxes = _batch_kinds(random_mesh, seed=PARITY_SEED + 47)["mixed"]
    reference: list[QueryResult] | None = None
    reference_name = ""
    for name in ALL_STRATEGIES:
        strategy = make_strategy(name)
        strategy.prepare(random_mesh)
        results = strategy.query_many(boxes)
        if reference is None:
            reference, reference_name = results, name
            continue
        for index, (got, expected) in enumerate(zip(results, reference)):
            assert got.same_vertices_as(expected), (
                f"{name} disagrees with {reference_name} on box {index}"
            )


class _ExplodingStrategy(ExecutionStrategy):
    """Minimal strategy whose query() raises on a chosen box index."""

    name = "exploding"

    def __init__(self, fail_at: int) -> None:
        super().__init__()
        self.fail_at = fail_at
        self.calls = 0

    def query(self, box: Box3D) -> QueryResult:
        if self.calls == self.fail_at:
            raise RuntimeError("boom")
        self.calls += 1
        return QueryResult(vertex_ids=np.empty(0, dtype=np.int64))


class TestMidBatchFailureContract:
    """query_many is all-or-nothing: a mid-batch failure yields no partial state."""

    def test_base_loop_discards_partial_results_and_annotates(self, structured_mesh):
        strategy = _ExplodingStrategy(fail_at=2)
        strategy.prepare(structured_mesh)
        boxes = [Box3D.cube((0.5, 0.5, 0.5), 0.2)] * 4
        before = strategy.describe()
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            strategy.query_many(boxes)
        assert strategy.calls == 2  # two queries completed, their results discarded
        assert strategy.describe() == before  # cumulative accounting untouched
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("all-or-nothing" in note for note in notes)

    def test_strategy_usable_after_failed_batch(self, structured_mesh):
        strategy = _ExplodingStrategy(fail_at=1)
        strategy.prepare(structured_mesh)
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        with pytest.raises(RuntimeError):
            strategy.query_many([box, box])
        strategy.fail_at = -1
        results = strategy.query_many([box, box])
        assert len(results) == 2

    @pytest.mark.parametrize("executor_factory", [OctopusExecutor, OctopusConExecutor])
    def test_native_batches_leave_accounting_unchanged(self, structured_mesh, executor_factory):
        """Native overrides keep the same contract: accounting never moves on queries."""
        executor = executor_factory()
        executor.prepare(structured_mesh)
        before = (
            executor.maintenance_time,
            executor.maintenance_entries,
            executor.preprocessing_time,
        )
        boxes = _batch_kinds(structured_mesh, seed=PARITY_SEED)["mixed"]
        executor.query_many(boxes)
        after = (
            executor.maintenance_time,
            executor.maintenance_entries,
            executor.preprocessing_time,
        )
        assert before == after
