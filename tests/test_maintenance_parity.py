"""Delta/full maintenance parity: incremental upkeep must change nothing.

The delta-aware lifecycle contract (``ExecutionStrategy.on_step(delta)``)
promises that maintenance keyed off a sparse :class:`DeformationDelta` leaves
the index able to answer every query **bit-identically** to a full-recompute
reference — the same strategy driven with ``delta.as_full()`` (the whole-mesh
fast path, i.e. the delta-blind behaviour of the pre-delta pipeline).

Every strategy is crossed with every deformation model, including sparse
workloads whose rest steps move **zero** vertices.  Two tiers of parity are
enforced:

* **result parity** (all strategies): identical ``QueryResult`` vertex ids at
  every step;
* **state parity** (all strategies except the RUM-Tree): identical query
  *counters* and maintenance-entry totals too, because the incremental path
  reproduces the exact index state of the full path (the canonical order of
  the R-tree reinsert sequence makes this deterministic).

The RUM-Tree is the documented exception: its incremental path inserts new
entries only for moved vertices, whereas the full path re-inserts everything,
so the trees legitimately diverge in shape (hence in nodes visited) while the
memo protocol keeps the *results* exact; its maintenance-entry total must be
bounded by the full path's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DeformationDelta, OctopusConExecutor
from repro.errors import SimulationError
from repro.experiments.harness import make_strategy
from repro.generators import structured_tetrahedral_mesh
from repro.simulation import (
    AffineDeformation,
    LocalizedPulseDeformation,
    RandomWalkDeformation,
    SequenceReplayDeformation,
    SinusoidalWaveDeformation,
    SpinePulsationDeformation,
)
from repro.workloads import random_query_workload

N_STEPS = 5


def _make_mesh():
    return structured_tetrahedral_mesh((4, 4, 4)).copy()


def _replay_frames():
    base = structured_tetrahedral_mesh((4, 4, 4)).vertices
    rng = np.random.default_rng(17)
    return [base + rng.normal(0.0, 0.004, size=base.shape) for _ in range(3)]


#: name -> deformation factory; includes a sparse model with rest steps so the
#: ``n_moved == 0`` edge is part of every strategy's matrix
DEFORMATIONS = {
    "random-walk": lambda: RandomWalkDeformation(amplitude=0.004, seed=3),
    "wave": lambda: SinusoidalWaveDeformation(amplitude=0.01, period_steps=7),
    "pulsation": lambda: SpinePulsationDeformation(amplitude=0.01, period_steps=5, seed=4),
    "affine": lambda: AffineDeformation(
        stretch_amplitude=0.05, shear_amplitude=0.02, rotation_amplitude=0.05
    ),
    "replay": lambda: SequenceReplayDeformation(_replay_frames()),
    "localized-pulse": lambda: LocalizedPulseDeformation(
        sparsity=0.05, amplitude=0.02, rest_every=3, seed=5
    ),
}

#: strategy label -> (factory, state_parity)
STRATEGIES = {
    "octopus": (lambda: make_strategy("octopus"), True),
    "octopus-con-stale": (lambda: OctopusConExecutor(), True),
    "linear-scan": (lambda: make_strategy("linear-scan"), True),
    "octree": (lambda: make_strategy("octree"), True),
    "lur-tree": (lambda: make_strategy("lur-tree", fanout=16), True),
    "qu-trade": (lambda: make_strategy("qu-trade", fanout=16, window_fraction=0.01), True),
    "rum-tree": (lambda: make_strategy("rum-tree", fanout=16), False),
}


def _run_parity(strategy_label: str, deformation_name: str) -> None:
    factory, state_parity = STRATEGIES[strategy_label]
    mesh_delta = _make_mesh()
    mesh_full = _make_mesh()
    incremental = factory()
    incremental.prepare(mesh_delta)
    reference = factory()
    reference.prepare(mesh_full)
    model_delta = DEFORMATIONS[deformation_name]()
    model_delta.bind(mesh_delta)
    model_full = DEFORMATIONS[deformation_name]()
    model_full.bind(mesh_full)

    saw_sparse = saw_empty = False
    for step in range(1, N_STEPS + 1):
        delta = model_delta.apply(step)
        full_view = model_full.apply(step).as_full()
        assert np.allclose(mesh_delta.vertices, mesh_full.vertices)
        saw_sparse |= not delta.is_full
        saw_empty |= delta.n_moved == 0
        incremental.on_step(delta)
        reference.on_step(full_view)

        workload = random_query_workload(
            mesh_delta, selectivity=0.05, n_queries=4, seed=100 * step
        )
        got_batch = incremental.query_many(workload.boxes)
        want_batch = reference.query_many(workload.boxes)
        for box_index, (got, want) in enumerate(zip(got_batch, want_batch)):
            context = f"{strategy_label}/{deformation_name} step {step} box {box_index}"
            assert got.same_vertices_as(want), context
            if state_parity:
                assert got.counters.as_dict() == want.counters.as_dict(), context

    if deformation_name == "localized-pulse":
        assert saw_sparse and saw_empty  # the matrix really covered both edges
    if state_parity:
        assert incremental.maintenance_entries == reference.maintenance_entries or (
            deformation_name == "localized-pulse"
        )
        # Incremental upkeep never touches more entries than the full path.
        assert incremental.maintenance_entries <= reference.maintenance_entries
    else:
        assert incremental.maintenance_entries <= reference.maintenance_entries


@pytest.mark.parametrize("deformation_name", sorted(DEFORMATIONS))
@pytest.mark.parametrize("strategy_label", sorted(STRATEGIES))
def test_delta_parity_matrix(strategy_label, deformation_name):
    """Every strategy x every deformation: incremental == full recompute."""
    _run_parity(strategy_label, deformation_name)


class TestDeltaValue:
    def test_every_model_returns_a_delta(self):
        mesh = _make_mesh()
        for name, factory in DEFORMATIONS.items():
            model = factory()
            model.bind(mesh)
            delta = model.apply(1)
            assert isinstance(delta, DeformationDelta), name
            assert delta.n_vertices == mesh.n_vertices

    def test_sparse_delta_reports_exact_moved_set(self):
        mesh = _make_mesh()
        before = mesh.vertices.copy()
        model = LocalizedPulseDeformation(sparsity=0.1, amplitude=0.02, seed=9)
        model.bind(mesh)
        delta = model.apply(1)
        assert not delta.is_full
        changed = np.nonzero(np.any(mesh.vertices != before, axis=1))[0]
        # Every vertex that actually moved is in the reported set...
        assert np.all(np.isin(changed, delta.moved_ids))
        # ...old/new positions are aligned with the ids...
        assert np.array_equal(delta.old_positions, before[delta.moved_ids])
        assert np.array_equal(delta.new_positions, mesh.vertices[delta.moved_ids])
        # ...and the dirty AABB covers both endpoints of every move.
        assert delta.dirty_box is not None
        for positions in (delta.old_positions, delta.new_positions):
            assert np.all(positions >= delta.dirty_box.lo - 1e-12)
            assert np.all(positions <= delta.dirty_box.hi + 1e-12)

    def test_rest_step_yields_empty_delta(self):
        mesh = _make_mesh()
        model = LocalizedPulseDeformation(sparsity=0.1, rest_every=2, seed=9)
        model.bind(mesh)
        before = mesh.vertices.copy()
        delta = model.apply(2)  # step 2 is a rest step
        assert delta.n_moved == 0 and not delta.is_full
        assert np.array_equal(mesh.vertices, before)

    def test_full_fast_path_materialises_nothing(self):
        delta = DeformationDelta.full(1000)
        assert delta.is_full and delta.n_moved == 1000
        assert delta.moved_ids is None
        assert delta.old_positions is None and delta.new_positions is None
        assert np.array_equal(delta.ids(), np.arange(1000))
        assert delta.as_full().is_full

    def test_sparse_constructor_sorts_and_validates(self):
        ids = np.array([5, 2, 9])
        old = np.arange(9, dtype=float).reshape(3, 3)
        new = old + 1.0
        delta = DeformationDelta.sparse(20, ids, old, new)
        assert np.array_equal(delta.moved_ids, [2, 5, 9])
        assert np.array_equal(delta.old_positions[1], old[0])  # id 5's row
        with pytest.raises(SimulationError):
            DeformationDelta.sparse(20, np.array([1, 1]), old[:2], new[:2])
        with pytest.raises(SimulationError):
            DeformationDelta.sparse(20, ids, old[:2], new)


class TestRestructuringGuards:
    """Zero-moved skips must not trust the delta across a vertex-set change."""

    def _grow_mesh(self, strategy):
        """Re-bind the strategy's mesh to a refined copy with more vertices
        (simulating a restructuring step that re-bound the shared mesh)."""
        from repro.simulation import split_cells

        bigger, _ = split_cells(strategy.mesh, np.arange(4))
        strategy._mesh = bigger
        return bigger

    def test_throwaway_rebuilds_on_vertex_count_change(self):
        strategy = make_strategy("octree")
        strategy.prepare(_make_mesh())
        bigger = self._grow_mesh(strategy)
        entries_before = strategy.maintenance_entries
        strategy.on_step(DeformationDelta.empty(bigger.n_vertices))
        # The zero-motion skip is overridden: the index was rebuilt over the
        # grown vertex set and now answers for the new vertices too.
        assert strategy.maintenance_entries == entries_before + bigger.n_vertices
        box = bigger.bounding_box()
        assert strategy.query(box).n_results == bigger.n_vertices

    @pytest.mark.parametrize("name", ["lur-tree", "qu-trade", "rum-tree"])
    def test_updatable_trees_rebuild_on_vertex_count_change(self, name):
        strategy = make_strategy(name, fanout=16)
        strategy.prepare(_make_mesh())
        bigger = self._grow_mesh(strategy)
        strategy.on_step(DeformationDelta.empty(bigger.n_vertices))
        box = bigger.bounding_box()
        assert strategy.query(box).n_results == bigger.n_vertices
