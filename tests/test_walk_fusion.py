"""Batch invariance and work invariants of the fused directed walk
(``directed_walk_many``).

The fused lockstep walk must be a pure *dispatch/work-sharing*
optimisation:

* batch invariance: each box's seed vertex, step count, path and counters
  equal those of a one-box ``directed_walk_many`` call with the same start,
  whatever else rides in its batch;
* a one-box call walks as :func:`_reference_walk`, a plain-Python greedy
  walk, does: same vertex found, same path, same distance computations;
* a walk that finds a vertex found one the linear scan puts in the box;
* the per-query distance counters sum exactly to the batch's *attributed*
  walk work;
* the *unique* walk work (distinct candidate positions gathered per lockstep
  round) never exceeds the attributed work, and is strictly smaller when
  overlapping walks traverse the same vertices;
* the executor-level batched path threads the fused walk end to end,
  including >64-query batches that drive the crawl's multi-word ownership
  bitsets, and answers as the linear scan does.

Random content is driven by ``REPRO_PARITY_SEED`` (CI runs two seeds), like
``tests/test_batch_parity.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines import LinearScanExecutor
from repro.core import (
    CrawlScratch,
    OctopusConExecutor,
    OctopusExecutor,
    QueryCounters,
    directed_walk_many,
)
from repro.mesh import Box3D, point_box_distance, points_in_box

PARITY_SEED = int(os.environ.get("REPRO_PARITY_SEED", "0"))


def _walk_families(mesh, seed: int) -> dict[str, tuple[list[Box3D], list]]:
    """Box/start families covering success, stuck, shared and multi-source walks."""
    rng = np.random.default_rng(seed)
    bounding = mesh.bounding_box()
    diagonal = float(np.linalg.norm(bounding.extents))
    surface = mesh.surface_vertices()
    center = bounding.center

    # Enclosed interior boxes: walks from a surface vertex that should succeed.
    interior = [
        Box3D.cube(center + rng.normal(0.0, 0.05 * diagonal, 3), 0.2 * diagonal)
        for _ in range(6)
    ]
    interior_starts = [int(surface[int(rng.integers(0, surface.size))]) for _ in interior]

    # Far-away boxes: every walk gets stuck (query misses the mesh).
    missing = [
        Box3D.cube(bounding.hi + (2.0 + i) * diagonal, 0.2 * diagonal) for i in range(4)
    ]
    missing_starts = [int(surface[0]) for _ in missing]

    # Heavily shared walks: identical start, near-identical boxes.
    shared_start = int(surface[int(rng.integers(0, surface.size))])
    shared = [
        Box3D.cube(center + rng.normal(0.0, 0.01 * diagonal, 3), 0.15 * diagonal)
        for _ in range(8)
    ]
    shared_starts = [shared_start] * len(shared)

    # Multi-source starts (OCTOPUS-CON style) plus an empty start list.
    multi = interior[:3] + missing[:1]
    multi_starts = [
        np.asarray(surface[rng.integers(0, surface.size, size=3)], dtype=np.int64),
        np.asarray(surface[rng.integers(0, surface.size, size=2)], dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.asarray([int(surface[-1])], dtype=np.int64),
    ]

    mixed = interior[:2] + missing[:2] + shared[:2]
    mixed_starts = interior_starts[:2] + missing_starts[:2] + shared_starts[:2]

    return {
        "interior": (interior, interior_starts),
        "missing": (missing, missing_starts),
        "shared": (shared, shared_starts),
        "multi_source": (multi, multi_starts),
        "mixed": (mixed, mixed_starts),
    }


def _reference_walk(mesh, box, start) -> tuple[int | None, list[int], int]:
    """Algorithm 1's directed walk for one box, in plain Python.

    Starts at the closest of the distinct start vertices, then steps to the
    closest neighbour that is strictly closer to the box than the current
    vertex, until a vertex lies in the box (distance 0) or no neighbour is
    closer; among equally close vertices the smallest id wins.  Returns the
    vertex found (None when the walk got stuck), the path, and the distance
    computations: one per distinct start plus one per distinct neighbour of
    every vertex the walk expanded.
    """
    indptr, indices = mesh.adjacency.indptr, mesh.adjacency.indices

    def distance(vertex: int) -> float:
        return point_box_distance(mesh.vertices[vertex], box)

    def closest(vertices: list[int]) -> int:
        return min(vertices, key=lambda vertex: (distance(vertex), vertex))

    candidates = sorted(set(np.atleast_1d(start).tolist()))
    if not candidates:
        return None, [], 0
    computations = len(candidates)
    path = [closest(candidates)]
    while distance(path[-1]) > 0.0:
        current = path[-1]
        neighbours = sorted(set(indices[indptr[current] : indptr[current + 1]].tolist()))
        computations += len(neighbours)
        closer = [vertex for vertex in neighbours if distance(vertex) < distance(current)]
        if not closer:
            return None, path, computations
        path.append(closest(closer))
    return path[-1], path, computations


def _assert_walk_parity(mesh, boxes, starts) -> None:
    one_box_scratch = CrawlScratch()
    expected_counters = [QueryCounters() for _ in boxes]
    expected = [
        directed_walk_many(mesh, [box], [start], [counters], scratch=one_box_scratch).outcomes[0]
        for box, start, counters in zip(boxes, starts, expected_counters)
    ]
    for index, (box, start, want, counters) in enumerate(
        zip(boxes, starts, expected, expected_counters)
    ):
        found, path, computations = _reference_walk(mesh, box, start)
        context = f"box {index}"
        assert (want.found_id, want.path, want.n_steps) == (found, path, len(path)), context
        assert counters.walk_vertices_visited == len(path), context
        assert counters.walk_distance_computations == computations, context
    fused_counters = [QueryCounters() for _ in boxes]
    batch = directed_walk_many(mesh, boxes, starts, fused_counters, scratch=CrawlScratch())
    assert len(batch.outcomes) == len(boxes)
    for index, (got, want) in enumerate(zip(batch.outcomes, expected)):
        context = f"box {index}"
        assert got.found_id == want.found_id, context
        assert got.n_steps == want.n_steps, context
        assert got.path == want.path, context
        assert (
            fused_counters[index].as_dict() == expected_counters[index].as_dict()
        ), context
        if got.found_id is not None:
            assert points_in_box(mesh.vertices[[got.found_id]], boxes[index])[0], context
    assert batch.n_attributed_distance_computations == sum(
        c.walk_distance_computations for c in fused_counters
    )
    assert batch.n_unique_distance_computations <= batch.n_attributed_distance_computations


class TestFusedWalkParity:
    @pytest.mark.parametrize("mesh_fixture", ["grid_mesh", "neuron_small", "delaunay_small"])
    def test_bit_identical_across_families(self, mesh_fixture, request):
        mesh = request.getfixturevalue(mesh_fixture)
        for family, (boxes, starts) in _walk_families(mesh, seed=PARITY_SEED + 13).items():
            _assert_walk_parity(mesh, boxes, starts)

    def test_empty_batch_and_empty_starts(self, grid_mesh):
        empty = directed_walk_many(grid_mesh, [], [])
        assert empty.outcomes == [] and empty.n_rounds == 0
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        batch = directed_walk_many(grid_mesh, [box], [np.empty(0, dtype=np.int64)])
        assert batch.outcomes[0].found_id is None
        assert batch.outcomes[0].n_steps == 0
        assert batch.outcomes[0].path == []
        assert batch.n_attributed_distance_computations == 0

    def test_length_mismatch_rejected(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        with pytest.raises(ValueError):
            directed_walk_many(grid_mesh, [box], [])
        with pytest.raises(ValueError):
            directed_walk_many(grid_mesh, [box], [0], counters_list=[])

    def test_batch_larger_than_64_queries(self, grid_mesh):
        """Invariance holds for >64 walks in one batch (multi-word crawl scale)."""
        rng = np.random.default_rng(PARITY_SEED + 71)
        surface = grid_mesh.surface_vertices()
        boxes = [
            Box3D.cube(rng.uniform(0.3, 0.7, 3), 0.12) for _ in range(70)
        ]
        starts = [int(surface[int(rng.integers(0, surface.size))]) for _ in boxes]
        _assert_walk_parity(grid_mesh, boxes, starts)


class TestFusedWalkWork:
    def test_shared_walks_share_position_gathers(self, neuron_small):
        """Identical walks cost one position gather per round, not one per query."""
        boxes, starts = _walk_families(neuron_small, seed=PARITY_SEED + 3)["shared"]
        batch = directed_walk_many(neuron_small, boxes, starts)
        assert batch.n_unique_distance_computations < batch.n_attributed_distance_computations

    def test_rounds_bounded_by_longest_walk(self, neuron_small):
        boxes, starts = _walk_families(neuron_small, seed=PARITY_SEED + 5)["mixed"]
        batch = directed_walk_many(neuron_small, boxes, starts)
        longest = max(outcome.n_steps for outcome in batch.outcomes)
        # Start round plus at most one expansion round per accepted step, plus
        # a possible final stuck round for the longest walker.
        assert batch.n_rounds <= longest + 1


class TestExecutorFusedWalks:
    def test_octopus_batched_walks_match_sequential(self, neuron_small):
        """End-to-end: probe misses walk fused, results identical to query()
        and to the linear scan."""
        executor = OctopusExecutor()
        executor.prepare(neuron_small)
        scan = LinearScanExecutor()
        scan.prepare(neuron_small)
        bounding = neuron_small.bounding_box()
        diagonal = float(np.linalg.norm(bounding.extents))
        rng = np.random.default_rng(PARITY_SEED + 83)
        # Interior boxes (probe misses walk in), plus clean misses.
        boxes = [
            Box3D.cube(bounding.center + rng.normal(0.0, 0.03 * diagonal, 3), 0.1 * diagonal)
            for _ in range(5)
        ] + [Box3D.cube(bounding.hi + 2.0 * diagonal, 0.1 * diagonal)]
        sequential = [executor.query(box) for box in boxes]
        batched = executor.query_many(boxes)
        for got, want, truth in zip(batched, sequential, scan.query_many(boxes)):
            assert got.same_vertices_as(want)
            assert got.same_vertices_as(truth)
            assert got.counters.as_dict() == want.counters.as_dict()
        assert executor.last_fused_crawl is not None

    def test_octopus_con_records_fused_walk_work(self, grid_mesh):
        """Every OCTOPUS-CON query walks; the batch must report walk sharing."""
        executor = OctopusConExecutor()
        executor.prepare(grid_mesh)
        rng = np.random.default_rng(PARITY_SEED + 97)
        boxes = [Box3D.cube(rng.uniform(0.35, 0.65, 3), 0.2) for _ in range(6)]
        results = executor.query_many(boxes)
        batch = executor.last_fused_crawl
        assert batch is not None
        assert batch.n_attributed_walk_distance_computations == sum(
            r.counters.walk_distance_computations for r in results
        )
        assert 0 < batch.n_unique_walk_distance_computations
        assert (
            batch.n_unique_walk_distance_computations
            <= batch.n_attributed_walk_distance_computations
        )

    def test_over_64_query_executor_batch_single_fused_crawl(self, grid_mesh):
        """A 70-query batch runs as one fused crawl (2 ownership words) with
        walk+crawl counters bit-identical to one-box queries, and the linear
        scan's answers."""
        executor = OctopusConExecutor()
        executor.prepare(grid_mesh)
        scan = LinearScanExecutor()
        scan.prepare(grid_mesh)
        rng = np.random.default_rng(PARITY_SEED + 101)
        boxes = [Box3D.cube(rng.uniform(0.2, 0.8, 3), 0.15) for _ in range(70)]
        sequential = [executor.query(box) for box in boxes]
        batched = executor.query_many(boxes)
        batch = executor.last_fused_crawl
        assert batch is not None
        assert batch.n_words == 2
        truths = scan.query_many(boxes)
        for index, (got, want) in enumerate(zip(batched, sequential)):
            assert got.same_vertices_as(want), f"box {index}"
            assert got.same_vertices_as(truths[index]), f"box {index}"
            assert got.counters.as_dict() == want.counters.as_dict(), f"box {index}"


class TestCrossQueryGatherSharing:
    """Beams sitting on the same vertex share one CSR gather per round."""

    def test_shared_beams_share_csr_gathers(self, neuron_small):
        boxes, starts = _walk_families(neuron_small, seed=9)["shared"]
        batch = directed_walk_many(neuron_small, boxes, starts, scratch=CrawlScratch())
        assert batch.n_attributed_csr_gather_entries > 0
        # Identical starts and near-identical targets keep the walks on the
        # same corridor, so the deduplicated gathers do strictly less work.
        assert (
            batch.n_unique_csr_gather_entries < batch.n_attributed_csr_gather_entries
        )

    def test_disjoint_beams_share_nothing(self, neuron_small):
        families = _walk_families(neuron_small, seed=11)
        boxes, starts = families["interior"]
        # Distinct single starts per query: rounds may still overlap later,
        # but the unique work can never exceed the attributed work.
        batch = directed_walk_many(neuron_small, boxes, starts, scratch=CrawlScratch())
        assert (
            batch.n_unique_csr_gather_entries <= batch.n_attributed_csr_gather_entries
        )
