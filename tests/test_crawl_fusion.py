"""Invariants of the fused multi-query crawl (``crawl_many``).

The fused shared-frontier BFS must be a pure *work-sharing* optimisation:

* per-query results and counters are bit-identical to independent
  :func:`~repro.core.crawler.crawl` calls;
* the per-query counters sum exactly to the batch's *attributed* work (each
  fused operation counted once per owning query);
* the *unique* work the fused BFS actually performed never exceeds the
  summed work of independent crawls, and is strictly smaller on overlapping
  batches (that is the point of fusing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CrawlScratch, OctopusExecutor, QueryCounters, crawl, crawl_many
from repro.core.crawler import GROUP_SIZE, _OwnershipBits
from repro.kernels import KERNELS
from repro.mesh import Box3D, points_in_box
from repro.workloads import random_query_workload


def _start_sets(mesh, boxes, per_box=2):
    starts = []
    for box in boxes:
        inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
        starts.append(inside[:per_box])
    return starts


def _independent_crawls(mesh, boxes, starts):
    scratch = CrawlScratch()
    return [crawl(mesh, box, s, scratch=scratch) for box, s in zip(boxes, starts)]


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
        independent = _independent_crawls(neuron_small, boxes, starts)
        counters = [QueryCounters() for _ in boxes]
        batch = crawl_many(neuron_small, boxes, starts, counters)
        for got, expected, counter in zip(batch.outcomes, independent, counters):
            assert np.array_equal(got.result_ids, expected.result_ids)
            assert got.n_vertices_visited == expected.n_vertices_visited
            assert got.n_edges_followed == expected.n_edges_followed
            assert counter.crawl_vertices_visited == expected.n_vertices_visited
            assert counter.crawl_edges_followed == expected.n_edges_followed

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
        independent = _independent_crawls(grid_mesh, boxes, starts)
        batch = crawl_many(grid_mesh, boxes, starts)
        assert batch.n_words == 2
        for got, expected in zip(batch.outcomes, independent):
            assert np.array_equal(got.result_ids, expected.result_ids)
            assert got.n_vertices_visited == expected.n_vertices_visited

    def test_multi_word_batch_counters_bit_identical(self, grid_mesh):
        """Counter parity through the multi-word path, words exceeding two."""
        n_boxes = 3 * GROUP_SIZE + 5
        rng = np.random.default_rng(23)
        boxes = [Box3D.cube(rng.uniform(0.1, 0.9, 3), 0.25) for _ in range(n_boxes)]
        starts = _start_sets(grid_mesh, boxes, per_box=2)
        independent = _independent_crawls(grid_mesh, boxes, starts)
        counters = [QueryCounters() for _ in boxes]
        batch = crawl_many(grid_mesh, boxes, starts, counters)
        assert batch.n_words == 4
        for got, expected, counter in zip(batch.outcomes, independent, counters):
            assert np.array_equal(got.result_ids, expected.result_ids)
            assert got.n_vertices_visited == expected.n_vertices_visited
            assert got.n_edges_followed == expected.n_edges_followed
            assert counter.crawl_vertices_visited == expected.n_vertices_visited
            assert counter.crawl_edges_followed == expected.n_edges_followed

    def test_identical_boxes_across_words_pay_once(self, grid_mesh):
        """Work sharing spans word boundaries: 70 copies cost one crawl."""
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        starts = _start_sets(grid_mesh, [box], per_box=1)[0]
        single = crawl(grid_mesh, box, starts)
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
        independent = _independent_crawls(neuron_small, boxes, starts)
        batch = crawl_many(neuron_small, boxes, starts)
        summed_visits = sum(o.n_vertices_visited for o in independent)
        summed_edges = sum(o.n_edges_followed for o in independent)
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
        # The attributed total is exactly what the independent crawls would do.
        independent = _independent_crawls(neuron_small, boxes, starts)
        assert batch.n_attributed_vertex_visits == sum(o.n_vertices_visited for o in independent)
        assert batch.n_attributed_edge_follows == sum(o.n_edges_followed for o in independent)

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
        single = crawl(grid_mesh, box, starts)
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

    def test_batch_arena_isolated_between_groups(self):
        scratch = CrawlScratch()
        stamps, words, epoch = scratch.acquire_batch(16)
        words[3] = np.uint64(0xFF)
        stamps[3] = epoch
        stamps2, words2, epoch2 = scratch.acquire_batch(16)
        assert stamps2 is stamps and words2 is words
        assert epoch2 == epoch + 1
        # The old group's word is garbage now: its stamp no longer matches.
        assert stamps2[3] != epoch2

    def test_batch_arena_regrows_and_forgets(self):
        scratch = CrawlScratch()
        stamps, words, epoch = scratch.acquire_batch(8)
        stamps[:] = epoch
        stamps2, words2, epoch2 = scratch.acquire_batch(200)
        assert stamps2.size >= 200
        assert not (stamps2[:200] == epoch2).any()

    def test_batch_arena_rejects_nonpositive_word_count(self):
        with pytest.raises(ValueError):
            CrawlScratch().acquire_batch(8, n_words=0)

    def test_batch_arena_word_axis_grows_and_forgets(self):
        """Widening the ownership rows (>64-query batch) invalidates old stamps."""
        scratch = CrawlScratch()
        stamps, words, epoch = scratch.acquire_batch(16)
        assert words.ndim == 2 and words.shape[1] == 1
        stamps[:16] = epoch
        stamps2, words2, epoch2 = scratch.acquire_batch(16, n_words=3)
        assert words2.shape[1] >= 3
        assert not (stamps2[:16] == epoch2).any()
        # Same-width reacquire keeps the widened arena.
        stamps3, words3, epoch3 = scratch.acquire_batch(16, n_words=2)
        assert words3 is words2
        # Widening only the word axis must not double the row capacity.
        assert stamps2.size == stamps.size

    def test_batch_arena_epoch_rollover_clears_stamps(self):
        scratch = CrawlScratch()
        stamps, epoch_words, epoch = scratch.acquire_batch(4)
        stamps[:] = epoch
        scratch._batch_epoch = np.iinfo(np.int32).max - 1
        stamps2, words2, epoch2 = scratch.acquire_batch(4)
        assert epoch2 == 1
        assert not (stamps2 == epoch2).any()


class TestAttributionChunking:
    """The bounded-transient attribution path never changes results or counters."""

    def test_parity_under_tiny_attribution_budget(self, neuron_small, monkeypatch):
        import repro.core.crawler as crawler_module

        boxes = _overlapping_boxes(neuron_small, n_boxes=9, seed=5)
        starts = _start_sets(neuron_small, boxes)
        reference_counters = [QueryCounters() for _ in boxes]
        reference = crawl_many(
            neuron_small, boxes, starts, reference_counters, scratch=CrawlScratch()
        )
        monkeypatch.setattr(crawler_module, "_ATTRIBUTION_BUDGET", 7)
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
        from repro.core.crawler import _attribution_chunk

        assert _attribution_chunk(0) >= 1
        assert _attribution_chunk(10**9) == 1


class TestStampAndTestKernel:
    def test_crawl_stamp_and_test_empty_candidates(self):
        bits = _OwnershipBits(3)
        scratch = CrawlScratch()
        stamps, words, epoch = scratch.acquire_batch(10, bits.n_words)
        visited = np.zeros(3, dtype=np.int64)
        frontier, frontier_bits, n_fresh = KERNELS.crawl_stamp_and_test(
            np.empty(0, dtype=np.int64),
            np.empty((0, 1), dtype=np.uint64),
            stamps,
            words[:, :1],
            epoch,
            np.zeros((10, 3)),
            np.zeros((3, 3)),
            np.ones((3, 3)),
            bits,
            visited,
            1024,
        )
        assert frontier.size == 0
        assert frontier_bits.shape == (0, 1)
        assert n_fresh == 0
        assert visited.sum() == 0
