"""Concurrency parity: threaded query traffic is bit-identical to sequential.

The thread-safety contract this suite pins down:

* ``query``/``query_many`` are safe from any number of client threads —
  per-thread crawl arenas (:class:`~repro.core.ThreadLocalScratch`) mean
  concurrent queries share no mutable state, so results cannot depend on
  scheduling;
* ticks (``on_step``) and queries serialize through the service's
  readers-writer lock, so a query never observes a half-applied delta;
* a :class:`~repro.errors.ConcurrencyError` — not silent corruption — is
  what happens if a crawl arena *is* shared across threads.

Every test replays a seeded workload twice (one thread vs. many) and demands
bit-identical per-request results; ``REPRO_CHAOS_SEED`` widens the seed
family the way the fault-injection suite does.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core import CrawlScratch, OctopusExecutor, ThreadLocalScratch
from repro.errors import ConcurrencyError
from repro.service import ShardedQueryService, TrafficProfile, generate_requests, run_traffic
from repro.simulation import LocalizedPulseDeformation
from repro.workloads import random_query_workload

_EXTRA_SEED = os.environ.get("REPRO_CHAOS_SEED")
CHAOS_SEEDS = (7, 19) + ((int(_EXTRA_SEED),) if _EXTRA_SEED else ())


def _serve(target, client_requests, sink, index):
    sink[index] = [target.query_many(boxes) for boxes in client_requests]


def _replay(mesh, profile, n_shards, threaded):
    """Replay the traffic schedule; return per-(step, client, request) id arrays."""
    requests = generate_requests(mesh, profile)
    run_mesh = mesh.copy()
    deformation = LocalizedPulseDeformation(
        sparsity=profile.deformation_sparsity,
        amplitude=profile.deformation_amplitude,
        seed=profile.seed,
    )
    deformation.bind(run_mesh)
    collected = []
    with ShardedQueryService(n_shards=n_shards) as service:
        service.prepare(run_mesh)
        for step_index, step_requests in enumerate(requests):
            service.on_step(deformation.apply(step_index + 1))
            sink = [None] * len(step_requests)
            if threaded:
                threads = [
                    threading.Thread(target=_serve, args=(service, client, sink, i))
                    for i, client in enumerate(step_requests)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            else:
                for i, client in enumerate(step_requests):
                    _serve(service, client, sink, i)
            collected.append(
                [
                    [result.vertex_ids for result in request]
                    for client in sink
                    for request in client
                ]
            )
    return collected


class TestCallerThread:
    def test_serving_starts_no_threads(self, neuron_small):
        # shard sub-batches run on the caller's thread: preparing, warming
        # and answering a batch routed to both shards leaves the count alone
        before = threading.active_count()
        service = ShardedQueryService(n_shards=2)
        service.prepare(neuron_small.copy())
        service.warm()
        boxes = [neuron_small.bounding_box()] + random_query_workload(
            neuron_small, selectivity=0.01, n_queries=8, seed=4
        ).boxes
        assert service.route(boxes[0]).tolist() == [0, 1]
        results = service.query_many(boxes)
        assert len(results) == len(boxes)
        assert threading.active_count() == before


class TestThreadedQueryParity:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_threads_vs_sequential_bit_identical(self, neuron_small, seed):
        profile = TrafficProfile(
            n_steps=2,
            n_clients=4,
            requests_per_client=2,
            queries_per_request=4,
            selectivity=0.01,
            seed=seed,
        )
        sequential = _replay(neuron_small, profile, n_shards=4, threaded=False)
        threaded = _replay(neuron_small, profile, n_shards=4, threaded=True)
        for step_seq, step_thr in zip(sequential, threaded):
            for want, got in zip(step_seq, step_thr):
                for want_ids, got_ids in zip(want, got):
                    np.testing.assert_array_equal(want_ids, got_ids)

    def test_threads_hammering_one_executor(self, neuron_small):
        # the satellite fix in isolation: many threads, ONE strategy instance
        executor = OctopusExecutor()
        executor.prepare(neuron_small.copy())
        workload = random_query_workload(
            neuron_small, selectivity=0.01, n_queries=24, seed=3
        )
        boxes = workload.boxes
        expected = [executor.query(box).vertex_ids for box in boxes]

        failures = []

        def hammer(rounds):
            try:
                for _ in range(rounds):
                    for box, want in zip(boxes, expected):
                        got = executor.query(box).vertex_ids
                        if not np.array_equal(got, want):
                            failures.append("result drift")
            except Exception as error:  # noqa: BLE001 - collected for the assert
                failures.append(repr(error))

        threads = [threading.Thread(target=hammer, args=(3,)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # one crawl arena per thread that actually queried, plus the main thread's
        assert executor._scratch.n_arenas >= 2

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_traffic_driver_checksum_parity(self, neuron_small, seed):
        profile = TrafficProfile(
            n_steps=2,
            n_clients=3,
            requests_per_client=2,
            queries_per_request=4,
            selectivity=0.01,
            seed=seed,
        )
        threaded = run_traffic(neuron_small, profile, n_shards=2, n_clients=3)
        single = run_traffic(neuron_small, profile, n_shards=2, n_clients=1)
        assert threaded["results_checksum"] == single["results_checksum"]
        assert threaded["n_queries"] == profile.total_queries()


class TestThreadLocalScratch:
    def test_per_thread_isolation(self):
        scratch = ThreadLocalScratch()
        main_arena = scratch.get()
        assert scratch.get() is main_arena  # stable within a thread
        seen = {}

        def grab(index):
            seen[index] = scratch.get()

        threads = [threading.Thread(target=grab, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        arenas = [main_arena, *seen.values()]
        assert len({id(arena) for arena in arenas}) == len(arenas)
        assert scratch.n_arenas == 4
        assert scratch.memory_bytes() >= 0

    def test_expected_bytes_accounts_all_arenas(self, neuron_small):
        scratch = ThreadLocalScratch()
        no_arena_estimate = scratch.expected_bytes(neuron_small.n_vertices)
        assert no_arena_estimate > 0
        scratch.get().acquire_batch(neuron_small.n_vertices)
        assert scratch.expected_bytes(neuron_small.n_vertices) >= no_arena_estimate


class TestConcurrencyErrorGuard:
    def test_batch_epoch_check_raises_on_foreign_epoch(self):
        scratch = CrawlScratch()
        _, epoch = scratch.acquire_batch(64)
        scratch.check_batch_epoch(epoch)  # own round: fine
        with pytest.raises(ConcurrencyError, match="ThreadLocalScratch"):
            scratch.check_batch_epoch(epoch - 1)

    def test_shared_scratch_across_rounds_is_detected(self, neuron_small):
        # two interleaved crawls sharing one arena: the second round moves the
        # epoch, so resuming the first must fail loudly instead of corrupting
        from repro.core import crawl_many

        mesh = neuron_small
        mesh.adjacency  # noqa: B018 - build outside the guarded region
        scratch = CrawlScratch()
        box = mesh.bounding_box()
        seeds = np.arange(4, dtype=np.int64)
        outcome = crawl_many(mesh, [box], [seeds], scratch=scratch).outcomes[0]
        assert outcome.result_ids.size > 0
        stale_epoch = scratch.batch_epoch
        scratch.acquire_batch(mesh.n_vertices)  # a "second thread" starts its round
        with pytest.raises(ConcurrencyError):
            scratch.check_batch_epoch(stale_epoch)
