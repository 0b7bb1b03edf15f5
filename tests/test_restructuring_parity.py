"""Topology/full restructuring parity: incremental upkeep must change nothing.

The restructuring arm of the delta-aware lifecycle
(``ExecutionStrategy.on_restructure(delta)``) promises that maintenance keyed
off a sparse :class:`TopologyDelta` leaves the index able to answer every
query **exactly** like a full-recompute reference — the same strategy driven
with ``delta.as_full()`` (the delta-blind behaviour: rebuild or whole-surface
reconciliation after every restructuring).

Every strategy is crossed with split / remove / mixed restructuring schedules
and with interleaved deformation, including a sparse workload whose rest
steps put a **zero-moved deformation delta and a topology change in the same
tick**.  Two tiers of parity are enforced, mirroring
``tests/test_maintenance_parity.py``:

* **result parity** (all strategies): identical ``QueryResult`` vertex ids at
  every step;
* **state parity** (all strategies except the three updatable R-trees):
  identical query *counters* too, because the incremental path reproduces the
  exact index state of the full path — the surface-index reconciliation
  narrowed to the event's dirty ids yields the same hash table as the
  whole-surface diff, OCTOPUS-CON's stale grid is never touched, and the
  throwaway indexes rebuild over identical positions (or skip when removal
  changed neither ids nor positions, which leaves the previously identical
  structure in place).

The LUR-Tree, QU-Trade and RUM-Tree are the documented exceptions: their
incremental path inserts only the appended tail vertices in canonical
ascending-id order, whereas the full path re-packs the whole tree with STR
bulk loading, so the trees legitimately diverge in *shape* (hence in nodes
visited) while answering queries identically; their maintenance-entry totals
must be bounded by the full path's.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from seed_families import parity_seed_family

import repro.mesh.base
import repro.simulation.restructuring as restructuring
from repro.core import OctopusConExecutor, TopologyDelta
from repro.errors import MeshConnectivityError, SimulationError
from repro.experiments.harness import make_strategy, per_step_workload_provider
from repro.generators import neuron_mesh, structured_tetrahedral_mesh
from repro.mesh import AdjacencyList, extract_surface
from repro.mesh.adjacency import row_keys
from repro.mesh.surface import cell_faces, sorted_faces
from repro.simulation import (
    LocalizedPulseDeformation,
    MeshSimulation,
    RandomWalkDeformation,
    periodic_restructuring,
    remove_cells_inplace,
    split_cells,
    split_cells_inplace,
)
from repro.workloads import random_query_workload

PARITY_SEEDS = parity_seed_family()

N_STEPS = 6
#: steps at which the parity scenarios restructure (even steps, which for the
#: rest_every=2 sparse workload are exactly its zero-moved rest steps)
RESTRUCTURE_EVERY = 2


def _make_mesh():
    return structured_tetrahedral_mesh((4, 4, 4)).copy()


def _restructure(mesh, step: int, scenario: str) -> TopologyDelta | None:
    """Apply the scenario's step operation in place; returns its delta."""
    if step % RESTRUCTURE_EVERY != 0:
        return None
    round_index = step // RESTRUCTURE_EVERY
    if scenario == "split":
        operation = "split"
    elif scenario == "remove":
        operation = "remove"
    else:  # mixed: alternate, starting with a split
        operation = "split" if round_index % 2 == 1 else "remove"
    rng = np.random.default_rng(1000 * round_index)
    count = 3
    offset = int(rng.integers(0, mesh.n_cells - count + 1))
    cell_ids = np.arange(offset, offset + count, dtype=np.int64)
    if operation == "split":
        return split_cells_inplace(mesh, cell_ids).delta
    return remove_cells_inplace(mesh, cell_ids).delta


SCENARIOS = ("split", "remove", "mixed")

DEFORMATIONS = {
    # rest_every=2 puts every restructuring on a zero-moved tick
    "localized-pulse": lambda: LocalizedPulseDeformation(
        sparsity=0.05, amplitude=0.02, rest_every=2, seed=5
    ),
    "random-walk": lambda: RandomWalkDeformation(amplitude=0.004, seed=3),
}

#: strategy label -> (factory, state_parity)
STRATEGIES = {
    "octopus": (lambda: make_strategy("octopus"), True),
    "octopus-con-stale": (lambda: OctopusConExecutor(), True),
    "linear-scan": (lambda: make_strategy("linear-scan"), True),
    "octree": (lambda: make_strategy("octree"), True),
    "lur-tree": (lambda: make_strategy("lur-tree", fanout=16), False),
    "qu-trade": (lambda: make_strategy("qu-trade", fanout=16, window_fraction=0.01), False),
    "rum-tree": (lambda: make_strategy("rum-tree", fanout=16), False),
}


def _run_parity(strategy_label: str, scenario: str, deformation_name: str) -> None:
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

    saw_topology = saw_rest_with_topology = False
    for step in range(1, N_STEPS + 1):
        topology = _restructure(mesh_delta, step, scenario)
        topology_full = _restructure(mesh_full, step, scenario)
        assert (topology is None) == (topology_full is None)
        if topology is not None:
            assert np.array_equal(topology.ids(), topology_full.ids())
            saw_topology = True
            # Mirror the simulator: re-anchor the models, then maintain.
            model_delta.bind(mesh_delta)
            model_full.bind(mesh_full)
            incremental.on_restructure(topology)
            reference.on_restructure(topology_full.as_full())

        delta = model_delta.apply(step)
        full_view = model_full.apply(step).as_full()
        assert np.allclose(mesh_delta.vertices, mesh_full.vertices)
        if topology is not None and delta.n_moved == 0:
            saw_rest_with_topology = True
        incremental.on_step(delta)
        reference.on_step(full_view)

        workload = random_query_workload(
            mesh_delta, selectivity=0.05, n_queries=4, seed=100 * step
        )
        got_batch = incremental.query_many(workload.boxes)
        want_batch = reference.query_many(workload.boxes)
        for box_index, (got, want) in enumerate(zip(got_batch, want_batch)):
            context = f"{strategy_label}/{scenario}/{deformation_name} step {step} box {box_index}"
            assert got.same_vertices_as(want), context
            if state_parity:
                assert got.counters.as_dict() == want.counters.as_dict(), context

    assert saw_topology  # the scenario really restructured
    if deformation_name == "localized-pulse":
        # The satellite edge: a zero-moved deformation delta and a topology
        # change landed in the same tick for every strategy.
        assert saw_rest_with_topology
    # Incremental upkeep never touches more entries than the full path.
    assert incremental.maintenance_entries <= reference.maintenance_entries


@pytest.mark.parametrize("deformation_name", sorted(DEFORMATIONS))
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("strategy_label", sorted(STRATEGIES))
def test_restructuring_parity_matrix(strategy_label, scenario, deformation_name):
    """Every strategy x split/remove/mixed x deformation: incremental == full."""
    _run_parity(strategy_label, scenario, deformation_name)


class TestTopologyDeltaValue:
    def test_split_event_carries_delta(self):
        mesh = _make_mesh()
        n_before, c_before = mesh.n_vertices, mesh.n_cells
        refined, event = split_cells(mesh, np.array([0, 5, 7]))
        delta = event.delta
        assert isinstance(delta, TopologyDelta)
        assert delta.n_vertices == refined.n_vertices == n_before + 3
        assert delta.n_vertices_added == 3
        assert delta.n_cells_added == 12 and delta.n_cells_removed == 3
        assert np.array_equal(delta.added_vertex_ids(), np.arange(n_before, n_before + 3))
        # The dirty set covers the split cells' vertices and the centroids.
        expected = np.union1d(mesh.cells[[0, 5, 7]].ravel(), delta.added_vertex_ids())
        assert np.array_equal(delta.dirty_ids, expected)
        assert refined.n_cells == c_before + 9
        # The dirty AABB covers every dirty vertex's position.
        dirty_positions = refined.vertices[delta.dirty_ids]
        assert np.all(dirty_positions >= delta.dirty_box.lo - 1e-12)
        assert np.all(dirty_positions <= delta.dirty_box.hi + 1e-12)

    def test_remove_event_carries_delta_and_preserves_vertices(self):
        mesh = _make_mesh()
        event = remove_cells_inplace(mesh, np.arange(4))
        delta = event.delta
        assert delta.n_vertices == mesh.n_vertices  # vertex ids preserved
        assert delta.n_vertices_added == 0
        assert delta.n_cells_removed == 4 and delta.n_cells_added == 0
        assert delta.added_vertex_ids().size == 0
        # Every surface-membership change lies inside the dirty set.
        changed = np.union1d(
            event.inserted_surface_vertices, event.removed_surface_vertices
        )
        assert np.all(np.isin(changed, delta.dirty_ids))

    def test_fast_paths_and_views(self):
        full = TopologyDelta.full(100)
        assert full.is_full and not full.is_empty and full.n_dirty == 100
        assert np.array_equal(full.ids(), np.arange(100))
        assert full.as_full().is_full
        empty = TopologyDelta.empty(100)
        assert empty.is_empty and not empty.is_full and empty.n_dirty == 0
        assert empty.dirty_box is None

    def test_sparse_constructor_validates(self):
        positions = np.zeros((10, 3))
        with pytest.raises(SimulationError):
            TopologyDelta.sparse(10, np.array([11]), positions)
        with pytest.raises(SimulationError):
            TopologyDelta.sparse(10, np.array([], dtype=np.int64), positions, n_cells_removed=1)
        collapsed = TopologyDelta.sparse(10, np.array([], dtype=np.int64), positions)
        assert collapsed.is_empty


class TestStalePositionRegressions:
    """Pins the fixes for the restructure-time position-array aliasing bugs."""

    def test_restructure_preserves_array_identity_on_equal_count(self):
        mesh = _make_mesh()
        before = mesh.vertices
        remove_cells_inplace(mesh, np.arange(4))
        assert mesh.vertices is before  # removal: same object, holders stay valid
        split_cells_inplace(mesh, np.arange(4))
        assert mesh.vertices is not before  # growth must swap the array

    @pytest.mark.parametrize("name", ["lur-tree", "qu-trade"])
    def test_trees_read_live_positions_after_removal_only_event(self, name):
        # Removal-only restructuring used to leave tree._positions aliased to
        # a dead array; subsequent escape reinserts then recomputed MBRs from
        # frozen positions and queries silently missed vertices.  Position
        # indexes must agree with the linear scan exactly (isolated vertices
        # included — both index all ids).
        kwargs = {"fanout": 16}
        if name == "lur-tree":
            kwargs["extension_fraction"] = 1e-4  # every motion escapes
        else:
            kwargs["window_fraction"] = 1e-4
        mesh = _make_mesh()
        tree = make_strategy(name, **kwargs)
        scan = make_strategy("linear-scan")
        tree.prepare(mesh)
        scan.prepare(mesh)
        model = RandomWalkDeformation(amplitude=0.05, seed=11)
        model.bind(mesh)
        for step in range(1, 4):
            event = remove_cells_inplace(mesh, np.arange(3))
            tree.on_restructure(event.delta)
            scan.on_restructure(event.delta)
            model.bind(mesh)
            delta = model.apply(step)
            tree.on_step(delta)
            scan.on_step(delta)
            workload = random_query_workload(mesh, selectivity=0.1, n_queries=8, seed=step)
            for got, want in zip(tree.query_many(workload.boxes), scan.query_many(workload.boxes)):
                assert got.same_vertices_as(want)
        assert tree.tree._positions is mesh.vertices

    def test_octopus_full_refresh_when_more_than_one_version_behind(self):
        from repro.simulation import remove_cells

        mesh = _make_mesh()
        octopus = make_strategy("octopus")
        octopus.prepare(mesh)
        before = mesh.surface_vertices()
        # An unannounced connectivity change (no event reaches the strategy)…
        smaller, _ = remove_cells(mesh, np.arange(20, 26))
        mesh.restructure(mesh.vertices, smaller.cells)
        # …followed by an announced event: counting over its dirty ids would
        # miss the unannounced change's membership flips, so the gap (now 2)
        # must force the whole-array count.
        event = remove_cells_inplace(mesh, np.arange(4))
        octopus.on_restructure(event.delta)
        after = mesh.surface_vertices()
        assert octopus.surface_index.surface_ids() is after
        flipped = np.setdiff1d(after, before).size + np.setdiff1d(before, after).size
        assert octopus.maintenance_entries == flipped

    def test_octopus_empty_delta_on_stale_index_reconciles_fully(self):
        from repro.simulation import remove_cells

        mesh = _make_mesh()
        octopus = make_strategy("octopus")
        octopus.prepare(mesh)
        before = mesh.surface_vertices()
        # Foreign connectivity change, then an *empty* event delta: there are
        # no dirty ids to count over, so the whole arrays are diffed.
        smaller, _ = remove_cells(mesh, np.arange(8))
        mesh.restructure(mesh.vertices, smaller.cells)
        octopus.on_restructure(TopologyDelta.empty(mesh.n_vertices))
        after = mesh.surface_vertices()
        assert octopus.surface_index.surface_ids() is after
        flipped = np.setdiff1d(after, before).size + np.setdiff1d(before, after).size
        assert flipped > 0
        assert octopus.maintenance_entries == flipped


class TestSimulatorIntegration:
    def _run(self, schedule, strategies, n_steps=6, validate=False):
        mesh = _make_mesh()
        simulation = MeshSimulation(
            mesh=mesh,
            deformation=LocalizedPulseDeformation(sparsity=0.05, rest_every=3, seed=1),
            strategies=strategies,
            query_provider=per_step_workload_provider(0.05, 3, seed=0),
            restructuring=schedule,
            validate_results=validate,
        )
        return simulation.run(n_steps)

    def test_schedule_flows_into_records_and_ledger(self):
        report = self._run(
            periodic_restructuring(every=2, kind="mixed", n_cells=3, seed=0),
            [make_strategy("octopus"), make_strategy("octree")],
        )
        octopus = report["octopus"]
        assert octopus.counts["simulation.restructurings"] == 3
        assert octopus.counts["simulation.topology_dirty"] > 0
        flags = [record.counts["simulation.restructurings"] for record in octopus.steps]
        assert flags == [0, 1, 0, 1, 0, 1]
        # Restructuring work lands in the shared maintenance ledger: the
        # octree rebuilds on the split steps even though two of the three
        # restructuring ticks are zero-moved rest steps.
        octree = report["octree"]
        split_steps = [
            record
            for record in octree.steps
            if record.counts["simulation.restructurings"] and record.counts["simulation.moved"] == 0
        ]
        assert any(record.counts["maintenance.entries"] > 0 for record in split_steps)

    def test_cross_strategy_results_agree_across_restructuring(self):
        # The position-index strategies answer from the live vertex array, so
        # their results must agree exactly at every step of a restructured
        # run (crawl-based strategies are excluded here: their in-box
        # connectivity assumption does not cover vertices isolated by
        # removals or low-degree centroids cut off inside tiny boxes — the
        # parity matrix above pins them against their own full-recompute
        # reference instead).
        report = self._run(
            periodic_restructuring(every=2, kind="mixed", n_cells=3, seed=0),
            [make_strategy("linear-scan"), make_strategy("octree"), make_strategy("lur-tree")],
            validate=True,
        )
        assert report["octree"].counts["simulation.restructurings"] == 3

    def test_schedule_type_is_validated(self):
        def bad_schedule(mesh, step):
            return "not-a-delta"

        with pytest.raises(SimulationError):
            self._run(bad_schedule, [make_strategy("linear-scan")], n_steps=1)

    def test_schedule_mesh_mismatch_is_detected(self):
        def stale_schedule(mesh, step):
            return TopologyDelta.full(mesh.n_vertices + 7)

        with pytest.raises(SimulationError):
            self._run(stale_schedule, [make_strategy("linear-scan")], n_steps=1)

    def test_periodic_schedule_validates_parameters(self):
        with pytest.raises(SimulationError):
            periodic_restructuring(every=0)
        with pytest.raises(SimulationError):
            periodic_restructuring(kind="merge")
        with pytest.raises(SimulationError):
            periodic_restructuring(n_cells=0)


# ----------------------------------------------------------------------
# the mesh's own caches: spliced on restructure, equal to a rebuild
# ----------------------------------------------------------------------
class BuildSpy:
    """Counts the CSR builds and surface extractions the mesh runs."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[str] = []
        from_cells = AdjacencyList.from_cells

        def counted_from_cells(cls, n_vertices, cells):
            self.calls.append("from_cells")
            return from_cells(n_vertices, cells)

        def counted_extract_surface(cells):
            self.calls.append("extract_surface")
            return extract_surface(cells)

        monkeypatch.setattr(AdjacencyList, "from_cells", classmethod(counted_from_cells))
        monkeypatch.setattr(repro.mesh.base, "extract_surface", counted_extract_surface)


#: the unspied builds, for the cold references
cold_adjacency = AdjacencyList.from_cells
cold_surface = extract_surface


def assert_caches_equal_rebuild(mesh) -> None:
    adjacency = cold_adjacency(mesh.n_vertices, mesh.cells)
    surface = cold_surface(mesh.cells)
    assert np.array_equal(mesh.adjacency.indptr, adjacency.indptr)
    assert np.array_equal(mesh.adjacency.indices, adjacency.indices)
    assert np.array_equal(mesh.surface.surface_vertices, surface.surface_vertices)
    assert np.array_equal(mesh.surface.surface_faces, surface.surface_faces)
    assert mesh.surface.n_faces_total == surface.n_faces_total


class TestConnectivitySplice:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    @pytest.mark.parametrize(
        "make_mesh",
        [lambda: neuron_mesh(14).copy(), lambda: structured_tetrahedral_mesh((5, 4, 4)).copy()],
        ids=["neuron-14", "tet-grid"],
    )
    def test_inplace_restructuring_splices_bit_for_bit(self, seed, make_mesh, monkeypatch):
        mesh = make_mesh()
        _ = mesh.adjacency, mesh.surface
        events = []

        def recording(operation):
            def run(mesh, cell_ids):
                events.append(operation(mesh, cell_ids))
                return events[-1]
            return run

        # The schedule looks both operations up in the module at call time.
        for name in ("split_cells_inplace", "remove_cells_inplace"):
            monkeypatch.setattr(restructuring, name, recording(getattr(restructuring, name)))
        schedule = periodic_restructuring(every=1, kind="mixed", n_cells=6, seed=seed)
        for step in range(1, 13):
            with monkeypatch.context() as patch:
                spy = BuildSpy(patch)
                version = mesh.connectivity_version
                delta = schedule(mesh, step)
                assert spy.calls == []  # spliced, never rebuilt
            assert delta is events[-1].delta and len(events) == step
            assert mesh.connectivity_version == version + 1
            assert_caches_equal_rebuild(mesh)
            assert np.array_equal(
                events[-1].surface_vertices_after, extract_surface(mesh.cells).surface_vertices
            )
        assert {event.kind for event in events} == {"split", "remove"}

    def test_direct_restructure_splices(self, monkeypatch):
        mesh = structured_tetrahedral_mesh((4, 3, 3)).copy()
        _ = mesh.adjacency, mesh.surface
        cells = mesh.cells.copy()
        removed = np.array([4, 5, 17])
        keep = np.ones(len(cells), dtype=bool)
        keep[removed] = False
        # A detached copy of cell 0 on appended vertices.
        copy = mesh.vertices[cells[0]] + 2.0
        appended = mesh.n_vertices + np.arange(4)
        steps = [
            (mesh.vertices, cells[keep], cells[removed].ravel()),
            (mesh.vertices, cells, cells[removed].ravel()),
            (np.vstack([mesh.vertices, copy]), np.vstack([cells, appended[None, :]]), appended),
        ]
        for vertices, new_cells, dirty in steps:
            with monkeypatch.context() as patch:
                spy = BuildSpy(patch)
                mesh.restructure(vertices.copy(), new_cells, dirty_ids=dirty)
                assert spy.calls == []
            assert_caches_equal_rebuild(mesh)

    def test_surface_splice_past_the_face_key_bound(self):
        # Vertex ids from 2**21 put every triangle face past its int64 key
        # bound, so the splice takes the row-wise path.
        cells = structured_tetrahedral_mesh((4, 3, 3)).cells + 2**21
        assert row_keys(sorted_faces(cell_faces(cells))) is None
        n_vertices = int(cells.max()) + 1
        keep = np.ones(len(cells), dtype=bool)
        keep[[4, 5, 17]] = False
        appended = n_vertices + np.arange(4)
        steps = [  # old cells, new cells, dirty ids, new vertex count
            (cells, cells[keep], cells[~keep].ravel(), n_vertices),
            (cells[keep], cells, cells[~keep].ravel(), n_vertices),
            (cells, np.vstack([cells, appended[None, :]]), appended, n_vertices + 4),
        ]
        for old, new, dirty, n in steps:
            region, touching = repro.mesh.base._splice_region(old, new, dirty, n)
            spliced = extract_surface(old).spliced(region, touching, len(new))
            rebuilt = extract_surface(new)
            assert np.array_equal(spliced.surface_vertices, rebuilt.surface_vertices)
            assert np.array_equal(spliced.surface_faces, rebuilt.surface_faces)
            assert spliced.n_faces_total == rebuilt.n_faces_total

    def test_dirty_set_missing_a_changed_cell_falls_back(self, monkeypatch):
        mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
        _ = mesh.adjacency, mesh.surface
        removed = np.array([10, 40])
        keep = np.ones(mesh.n_cells, dtype=bool)
        keep[removed] = False
        # Only cell 10's vertices are named; cell 40 shares none of them.
        dirty = mesh.cells[10]
        assert not np.isin(mesh.cells[40], dirty).any()
        spy = BuildSpy(monkeypatch)
        mesh.restructure(mesh.vertices, mesh.cells[keep], dirty_ids=dirty)
        assert spy.calls == []
        assert_caches_equal_rebuild(mesh)
        assert sorted(spy.calls) == ["extract_surface", "from_cells"]  # rebuilt lazily

    def test_without_dirty_ids_caches_are_dropped(self, monkeypatch):
        mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
        _ = mesh.adjacency, mesh.surface
        version = mesh.connectivity_version
        spy = BuildSpy(monkeypatch)
        mesh.restructure(mesh.vertices, mesh.cells[3:])
        assert mesh.connectivity_version == version + 1
        assert spy.calls == []
        assert_caches_equal_rebuild(mesh)
        assert sorted(spy.calls) == ["extract_surface", "from_cells"]

    def test_unbuilt_caches_stay_unbuilt(self, monkeypatch):
        mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
        _ = mesh.adjacency
        spy = BuildSpy(monkeypatch)
        remove_cells_inplace(mesh, np.arange(3))  # reads the surface before and after
        assert spy.calls == ["extract_surface"]
        mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
        _ = mesh.surface
        spy.calls.clear()
        remove_cells_inplace(mesh, np.arange(3))
        assert spy.calls == []
        assert_caches_equal_rebuild(mesh)
        assert spy.calls == ["from_cells"]

    def test_non_manifold_region_drops_the_surface(self):
        mesh = structured_tetrahedral_mesh((3, 3, 3)).copy()
        _ = mesh.adjacency, mesh.surface
        # Two more copies of an interior cell put its faces in four cells.
        cells = np.vstack([mesh.cells, mesh.cells[20:21], mesh.cells[20:21]])
        mesh.restructure(mesh.vertices, cells, dirty_ids=mesh.cells[20])
        with pytest.raises(MeshConnectivityError) as expected:
            extract_surface(cells)
        with pytest.raises(MeshConnectivityError, match=re.escape(str(expected.value))):
            _ = mesh.surface
        adjacency = cold_adjacency(mesh.n_vertices, cells)
        assert np.array_equal(mesh.adjacency.indices, adjacency.indices)

