"""Invariants of the fused multi-query crawl (``crawl_many``).

The fused shared-frontier BFS must be a pure *work-sharing* optimisation:

* batch invariance: each box's result and counters equal those of a one-box
  ``crawl_many`` call with the same start vertices, whatever else rides in
  its batch;
* every result holds only in-box vertices, and from an in-box start on the
  convex grid it is the linear-scan answer;
* the per-query counters sum exactly to the batch's *attributed* work (each
  fused operation counted once per owning query);
* the *unique* work the fused BFS actually performed never exceeds the
  summed work of one-box crawls, and is strictly smaller on overlapping
  batches (that is the point of fusing);
* an executor's ``query(box)`` is a fused batch of one that does not go
  through ``query_many``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CrawlScratch, OctopusConExecutor, OctopusExecutor, QueryCounters, crawl_many
from repro.core.crawler import GROUP_SIZE, _OwnershipBits
from repro.kernels import KERNELS
from repro.mesh import Box3D, points_in_box
from repro.mesh.geometry import box_bounds
from repro.workloads import random_query_workload


def _scan(mesh, box) -> np.ndarray:
    """The linear-scan answer: every vertex inside ``box``."""
    return np.nonzero(points_in_box(mesh.vertices, box))[0]


def _start_sets(mesh, boxes, per_box=2):
    return [_scan(mesh, box)[:per_box] for box in boxes]


def _one_box_crawls(mesh, boxes, starts):
    """Each box crawled alone: one-box ``crawl_many`` calls on one arena."""
    scratch = CrawlScratch()
    outcomes, counters = [], []
    for box, box_starts in zip(boxes, starts):
        counter = QueryCounters()
        outcomes.append(crawl_many(mesh, [box], [box_starts], [counter], scratch=scratch).outcomes[0])
        counters.append(counter)
    return outcomes, counters


def _assert_batch_invariant(mesh, boxes, starts, batch, batch_counters=None):
    """Each box of ``batch`` equals its one-box crawl; results are in-box."""
    alone, alone_counters = _one_box_crawls(mesh, boxes, starts)
    assert len(batch.outcomes) == len(boxes)
    for index, (got, want) in enumerate(zip(batch.outcomes, alone)):
        context = f"box {index}"
        assert np.array_equal(got.result_ids, want.result_ids), context
        assert got.n_vertices_visited == want.n_vertices_visited, context
        assert got.n_edges_followed == want.n_edges_followed, context
        assert np.isin(got.result_ids, _scan(mesh, boxes[index])).all(), context
        if batch_counters is not None:
            assert batch_counters[index].as_dict() == alone_counters[index].as_dict(), context
    return alone


def _overlapping_boxes(mesh, n_boxes=12, seed=0):
    rng = np.random.default_rng(seed)
    diagonal = float(np.linalg.norm(mesh.bounding_box().extents))
    center = mesh.vertices[mesh.n_vertices // 2]
    return [
        Box3D.cube(center + rng.normal(0.0, 0.02 * diagonal, 3), 0.35 * diagonal)
        for _ in range(n_boxes)
    ]


class TestFusedCrawlParity:
    def test_bit_identical_results_and_counters(self, neuron_small):
        boxes = random_query_workload(neuron_small, selectivity=0.02, n_queries=10, seed=3).boxes
        starts = _start_sets(neuron_small, boxes)
        counters = [QueryCounters() for _ in boxes]
        batch = crawl_many(neuron_small, boxes, starts, counters)
        _assert_batch_invariant(neuron_small, boxes, starts, batch, counters)

    def test_results_match_the_linear_scan_on_a_convex_mesh(self, grid_mesh):
        """From an in-box start, the convex grid's crawl is the scan answer."""
        rng = np.random.default_rng(5)
        boxes = [Box3D.cube(rng.uniform(0.2, 0.8, 3), 0.35) for _ in range(12)]
        starts = _start_sets(grid_mesh, boxes, per_box=1)
        batch = crawl_many(grid_mesh, boxes, starts)
        for box, outcome in zip(boxes, batch.outcomes):
            assert np.array_equal(outcome.result_ids, _scan(grid_mesh, box))

    def test_empty_starts_and_empty_batch(self, grid_mesh):
        box = Box3D((0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
        batch = crawl_many(grid_mesh, [box], [np.empty(0, dtype=np.int64)])
        assert batch.outcomes[0].result_ids.size == 0
        assert batch.outcomes[0].n_vertices_visited == 0
        empty = crawl_many(grid_mesh, [], [])
        assert empty.outcomes == []

    def test_batch_larger_than_one_word_stays_one_fused_group(self, grid_mesh):
        """>64 queries widen the ownership rows instead of chunking the batch."""
        n_boxes = GROUP_SIZE + 9
        rng = np.random.default_rng(11)
        boxes = [
            Box3D.cube(rng.uniform(0.2, 0.8, 3), 0.3) for _ in range(n_boxes)
        ]
        starts = _start_sets(grid_mesh, boxes, per_box=1)
        batch = crawl_many(grid_mesh, boxes, starts)
        assert batch.n_words == 2
        _assert_batch_invariant(grid_mesh, boxes, starts, batch)

    def test_multi_word_batch_counters_bit_identical(self, grid_mesh):
        """Counter parity through the multi-word path, words exceeding two."""
        n_boxes = 3 * GROUP_SIZE + 5
        rng = np.random.default_rng(23)
        boxes = [Box3D.cube(rng.uniform(0.1, 0.9, 3), 0.25) for _ in range(n_boxes)]
        starts = _start_sets(grid_mesh, boxes, per_box=2)
        counters = [QueryCounters() for _ in boxes]
        batch = crawl_many(grid_mesh, boxes, starts, counters)
        assert batch.n_words == 4
        _assert_batch_invariant(grid_mesh, boxes, starts, batch, counters)

    def test_identical_boxes_across_words_pay_once(self, grid_mesh):
        """Work sharing spans word boundaries: 70 copies cost one crawl."""
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        starts = _start_sets(grid_mesh, [box], per_box=1)[0]
        single = crawl_many(grid_mesh, [box], [starts]).outcomes[0]
        n_copies = GROUP_SIZE + 6
        batch = crawl_many(grid_mesh, [box] * n_copies, [starts] * n_copies)
        assert batch.n_words == 2
        assert batch.n_unique_vertices_visited == single.n_vertices_visited
        assert batch.n_attributed_vertex_visits == n_copies * single.n_vertices_visited

    def test_length_mismatch_rejected(self, grid_mesh):
        box = Box3D((0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            crawl_many(grid_mesh, [box], [])
        with pytest.raises(ValueError):
            crawl_many(grid_mesh, [box], [np.empty(0, dtype=np.int64)], counters_list=[])


class TestFusionWorkInvariants:
    def test_fused_work_bounded_by_summed_independent_work(self, neuron_small):
        boxes = _overlapping_boxes(neuron_small, n_boxes=12, seed=1)
        starts = _start_sets(neuron_small, boxes)
        alone, _ = _one_box_crawls(neuron_small, boxes, starts)
        batch = crawl_many(neuron_small, boxes, starts)
        summed_visits = sum(o.n_vertices_visited for o in alone)
        summed_edges = sum(o.n_edges_followed for o in alone)
        assert batch.n_unique_vertices_visited <= summed_visits
        assert batch.n_unique_edges_followed <= summed_edges
        # Heavily overlapping boxes must actually share work.
        assert batch.n_unique_vertices_visited < summed_visits
        assert batch.n_unique_edges_followed < summed_edges

    def test_per_query_counters_sum_to_attributed_work_exactly(self, neuron_small):
        boxes = _overlapping_boxes(neuron_small, n_boxes=8, seed=2)
        starts = _start_sets(neuron_small, boxes)
        batch = crawl_many(neuron_small, boxes, starts)
        assert batch.n_attributed_vertex_visits == sum(
            o.n_vertices_visited for o in batch.outcomes
        )
        assert batch.n_attributed_edge_follows == sum(
            o.n_edges_followed for o in batch.outcomes
        )
        # The attributed total is exactly what one-box crawls would do.
        alone, _ = _one_box_crawls(neuron_small, boxes, starts)
        assert batch.n_attributed_vertex_visits == sum(o.n_vertices_visited for o in alone)
        assert batch.n_attributed_edge_follows == sum(o.n_edges_followed for o in alone)

    def test_well_separated_boxes_share_nothing(self, grid_mesh):
        """With disjoint crawled regions, unique work equals attributed work."""
        boxes = [
            Box3D((0.0, 0.0, 0.0), (0.2, 0.2, 0.2)),
            Box3D((0.8, 0.8, 0.8), (1.0, 1.0, 1.0)),
        ]
        starts = _start_sets(grid_mesh, boxes, per_box=1)
        batch = crawl_many(grid_mesh, boxes, starts)
        assert batch.n_unique_vertices_visited == batch.n_attributed_vertex_visits
        assert batch.n_unique_edges_followed == batch.n_attributed_edge_follows

    def test_identical_boxes_pay_once(self, grid_mesh):
        """N copies of the same query cost one crawl of unique work."""
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        starts = _start_sets(grid_mesh, [box], per_box=1)[0]
        single = crawl_many(grid_mesh, [box], [starts]).outcomes[0]
        n_copies = 10
        batch = crawl_many(grid_mesh, [box] * n_copies, [starts] * n_copies)
        assert batch.n_unique_vertices_visited == single.n_vertices_visited
        assert batch.n_unique_edges_followed == single.n_edges_followed
        assert batch.n_attributed_vertex_visits == n_copies * single.n_vertices_visited


class TestExecutorFusion:
    def test_octopus_query_many_records_fused_stats(self, neuron_small):
        executor = OctopusExecutor()
        executor.prepare(neuron_small)
        boxes = _overlapping_boxes(neuron_small, n_boxes=6, seed=4)
        assert executor.last_fused_crawl is None
        results = executor.query_many(boxes)
        batch = executor.last_fused_crawl
        assert batch is not None and len(batch.outcomes) == len(boxes)
        assert batch.n_unique_vertices_visited <= batch.n_attributed_vertex_visits
        # The attributed crawl work is what the per-result counters report.
        assert batch.n_attributed_vertex_visits == sum(
            r.counters.crawl_vertices_visited for r in results
        )

    def test_one_box_query_records_its_walk_and_crawl(self, grid_mesh):
        """query(box) runs the fused path for a batch of one, so
        last_fused_crawl accounts for that box's walk and crawl."""
        executor = OctopusConExecutor()
        executor.prepare(grid_mesh)
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        result = executor.query(box)
        assert np.array_equal(result.vertex_ids, _scan(grid_mesh, box))
        batch = executor.last_fused_crawl
        assert batch is not None and len(batch.outcomes) == 1
        assert np.array_equal(batch.outcomes[0].result_ids, result.vertex_ids)
        assert batch.n_attributed_vertex_visits == result.counters.crawl_vertices_visited
        assert (
            batch.n_attributed_walk_distance_computations
            == result.counters.walk_distance_computations
            > 0
        )

    @pytest.mark.parametrize(
        "executor_type", [OctopusExecutor, OctopusConExecutor], ids=["octopus", "octopus-con"]
    )
    def test_query_does_not_route_through_query_many(self, grid_mesh, executor_type, monkeypatch):
        """The e2e tracer wraps both query() and query_many(); a one-box call
        must open one query span, not two nested ones."""
        executor = executor_type()
        executor.prepare(grid_mesh)

        def refuse(self, boxes):
            raise AssertionError("query() went through query_many()")

        monkeypatch.setattr(executor_type, "query_many", refuse)
        box = Box3D.cube((0.5, 0.5, 0.5), 0.2)
        assert np.array_equal(executor.query(box).vertex_ids, _scan(grid_mesh, box))

    def test_batch_arena_isolated_between_groups(self, neuron_small):
        """A batch hands the next one the same arena, all zero, under a new epoch."""
        scratch = CrawlScratch()
        boxes = _overlapping_boxes(neuron_small, n_boxes=5, seed=1)
        crawl_many(neuron_small, boxes, _start_sets(neuron_small, boxes), scratch=scratch)
        words, epoch = scratch._batch_words, scratch.batch_epoch
        words2, epoch2 = scratch.acquire_batch(neuron_small.n_vertices)
        assert words2 is words
        assert epoch2 == epoch + 1
        assert not words2.any()

    def test_batch_arena_regrows_and_forgets(self):
        scratch = CrawlScratch()
        words, _ = scratch.acquire_batch(8)
        words2, _ = scratch.acquire_batch(200)
        assert words2.shape[0] >= 200
        assert not words2.any()

    def test_batch_arena_rejects_nonpositive_word_count(self):
        with pytest.raises(ValueError):
            CrawlScratch().acquire_batch(8, n_words=0)

    def test_batch_arena_word_axis_grows_and_forgets(self):
        """Widening the ownership rows (>64-query batch) hands out a zeroed arena."""
        scratch = CrawlScratch()
        words, _ = scratch.acquire_batch(16)
        assert words.ndim == 2 and words.shape[1] == 1
        words2, _ = scratch.acquire_batch(16, n_words=3)
        assert words2.shape[1] >= 3
        assert not words2.any()
        # Same-width reacquire keeps the widened arena.
        words3, _ = scratch.acquire_batch(16, n_words=2)
        assert words3 is words2
        # Widening only the word axis must not double the row capacity.
        assert words2.shape[0] == words.shape[0]

    def test_multi_word_batch_leaves_an_all_zero_arena(self, neuron_small):
        """Every batch clears the rows it set, across all ownership words."""
        scratch = CrawlScratch()
        boxes = _overlapping_boxes(neuron_small, n_boxes=70, seed=6)
        batch = crawl_many(neuron_small, boxes, _start_sets(neuron_small, boxes), scratch=scratch)
        assert batch.n_words == 2 and batch.n_unique_vertices_visited > 0
        assert not scratch._batch_words.any()

    @pytest.mark.parametrize(
        "module_name, function_name",
        [("repro.core.crawler", "csr_gather"), ("repro.kernels", "columns_in_boxes")],
        ids=["between-levels", "mid-level"],
    )
    def test_failed_batch_leaves_an_all_zero_arena(
        self, neuron_small, monkeypatch, module_name, function_name
    ):
        """A batch that raises half-way — between levels, or inside a level
        after its reaches were ORed into the arena — clears every row it set,
        so the arena's next batch answers as a fresh arena does."""
        import importlib

        module = importlib.import_module(module_name)
        scratch = CrawlScratch()
        boxes = _overlapping_boxes(neuron_small, n_boxes=6, seed=7)
        starts = _start_sets(neuron_small, boxes)
        real = getattr(module, function_name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, function_name, failing)
        with pytest.raises(MemoryError):
            crawl_many(neuron_small, boxes, starts, scratch=scratch)
        monkeypatch.setattr(module, function_name, real)
        assert len(calls) == 3
        assert not scratch._batch_words.any()
        again = crawl_many(neuron_small, boxes, starts, scratch=scratch)
        fresh = crawl_many(neuron_small, boxes, starts, scratch=CrawlScratch())
        for got, want in zip(again.outcomes, fresh.outcomes):
            assert np.array_equal(got.result_ids, want.result_ids)
            assert got.n_vertices_visited == want.n_vertices_visited
            assert got.n_edges_followed == want.n_edges_followed


class TestAttributionChunking:
    """The bounded-transient attribution path never changes results or counters."""

    def test_parity_under_tiny_attribution_budget(self, neuron_small, monkeypatch):
        import repro.mesh.geometry as geometry_module

        boxes = _overlapping_boxes(neuron_small, n_boxes=9, seed=5)
        starts = _start_sets(neuron_small, boxes)
        reference_counters = [QueryCounters() for _ in boxes]
        reference = crawl_many(
            neuron_small, boxes, starts, reference_counters, scratch=CrawlScratch()
        )
        monkeypatch.setattr(geometry_module, "_BROADCAST_ELEMENT_BUDGET", 7)
        chunked_counters = [QueryCounters() for _ in boxes]
        chunked = crawl_many(
            neuron_small, boxes, starts, chunked_counters, scratch=CrawlScratch()
        )
        for got, want in zip(chunked.outcomes, reference.outcomes):
            assert np.array_equal(got.result_ids, want.result_ids)
            assert got.n_vertices_visited == want.n_vertices_visited
            assert got.n_edges_followed == want.n_edges_followed
        assert [c.as_dict() for c in chunked_counters] == [
            c.as_dict() for c in reference_counters
        ]
        assert chunked.n_unique_vertices_visited == reference.n_unique_vertices_visited
        assert chunked.n_unique_edges_followed == reference.n_unique_edges_followed
        assert (
            chunked.n_attributed_vertex_visits == reference.n_attributed_vertex_visits
        )
        assert chunked.n_attributed_edge_follows == reference.n_attributed_edge_follows

    def test_chunk_never_degenerates_to_zero(self):
        from repro.mesh import box_batch_chunk

        assert box_batch_chunk(0) >= 1
        assert box_batch_chunk(10**9) == 1


class TestStampAndTestKernel:
    def test_crawl_stamp_and_test_empty_candidates(self):
        bits = _OwnershipBits(3)
        scratch = CrawlScratch()
        words, _ = scratch.acquire_batch(10, bits.n_words)
        frontier, frontier_bits, fresh = KERNELS.crawl_stamp_and_test(
            np.empty(0, dtype=np.int64),
            np.empty((0, 1), dtype=np.uint64),
            words[:, :1],
            np.zeros((10, 3)),
            [box_bounds(np.zeros((3, 3)), np.ones((3, 3)))],
            bits,
            1024,
        )
        assert frontier.size == 0
        assert frontier_bits.shape == (0, 1)
        assert fresh.size == 0
