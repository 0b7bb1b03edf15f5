"""The caching wrapper: any strategy + a delta-invalidated result cache.

:class:`CachingStrategy` composes through the
:class:`~repro.core.executor.StrategyWrapper` surface, so it stacks with
:class:`~repro.core.resilience.ResilientStrategy` in either order.  The
recommended order is the ladder outside —
``build_strategy("octopus", caching=True, resilience=True)`` produces
``ResilientStrategy(CachingStrategy(octopus))`` — so a paranoid ladder audits
each delta before the cache invalidates from it; see ``docs/caching.md``.

Correctness stance:

* only ``complete`` results are stored (an answer that may miss in-box
  vertices is not the exact answer and must never be replayed as one);
* invalidation runs *before* the inner maintenance forward, because by the
  time ``on_step``/``on_restructure`` fires the simulator has already mutated
  the mesh — entries are stale even if the inner maintenance then raises;
* hits return a **fresh** :class:`~repro.core.result.QueryResult` carrying
  the cached vertex ids, zeroed work counters and the lookup's own
  wall-clock.  That is the honest account: a hit does no mesh work, and the
  parity suites compare ``vertex_ids``, never counters, across strategies.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.executor import ExecutionStrategy, StrategyWrapper
from ..core.resilience import check_query_box, check_query_boxes
from ..core.result import QueryResult
from ..errors import ReproError
from ..mesh import Box3D, PolyhedralMesh
from .result_cache import DEFAULT_MAX_ENTRIES, CacheStats, QueryResultCache

__all__ = ["CachingStrategy", "cache_capacity"]


def cache_capacity(caching: bool | int | None, error: type[ReproError]) -> int | None:
    """The ``max_entries`` a ``caching=`` option asks for; ``None`` means no cache.

    ``True`` takes the default capacity and an ``int`` names it.  Anything
    else raises ``error``: ``build_strategy`` adopts a ready
    :class:`QueryResultCache` before asking, but the sharded service cannot,
    because its per-shard caches hold shard-local ids.
    """
    if caching is None or caching is False:
        return None
    if caching is True:
        return DEFAULT_MAX_ENTRIES
    if isinstance(caching, int):
        return caching
    shared = isinstance(caching, QueryResultCache)
    raise error(
        f"caching must be True or an int (max_entries), got {caching!r}"
        + (" (per-shard caches cannot share one QueryResultCache)" if shared else "")
    )


class CachingStrategy(StrategyWrapper):
    """Serve repeated range queries from a delta-invalidated result cache.

    Parameters
    ----------
    inner:
        The strategy (or wrapper stack) that answers cache misses.
    cache:
        An existing :class:`~repro.cache.QueryResultCache` to adopt;
        ``None`` builds one holding ``max_entries`` answers.
    max_entries:
        Capacity of the cache built when ``cache`` is ``None``.

    The wrapper registers under ``cached-<inner name>`` so a simulation can
    run the cached and fresh variants of one strategy side by side (the
    simulator requires unique strategy names, and the parity suites rely on
    exactly that pairing).
    """

    def __init__(
        self,
        inner: ExecutionStrategy,
        cache: QueryResultCache | None = None,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        super().__init__(inner)
        self.cache = cache if cache is not None else QueryResultCache(max_entries)
        self.name = f"cached-{inner.name}"

    # -- lifecycle ------------------------------------------------------
    def prepare(self, mesh: PolyhedralMesh) -> float:
        """Flush (a new mesh invalidates everything), then forward.

        The sharded service re-prepares each shard strategy on repartition,
        so the repartition-flushes-the-cache rule falls out of this override.
        """
        self.cache.flush()
        return super().prepare(mesh)

    def _invalidated_forward(self, invalidate, forward, delta) -> float:
        # invalidate FIRST: the mesh is already mutated when this hook runs,
        # so the entries are stale even if the inner maintenance raises.
        start = time.perf_counter()
        invalidate(delta)
        overhead = time.perf_counter() - start
        spent = forward(delta)
        # invalidation is maintenance work; charge it to the shared ledger so
        # reported response times stay honest about what caching costs
        self.inner.maintenance_time += overhead
        return spent + overhead

    def on_step(self, delta: DeformationDelta) -> float:
        return self._invalidated_forward(
            self.cache.invalidate_deformation, super().on_step, delta
        )

    def on_restructure(self, delta: TopologyDelta) -> float:
        return self._invalidated_forward(
            self.cache.invalidate_topology, super().on_restructure, delta
        )

    # -- querying -------------------------------------------------------
    def query(self, box: Box3D) -> QueryResult:
        check_query_box(box)
        start = time.perf_counter()
        cached_ids = self.cache.get(box)
        if cached_ids is not None:
            elapsed = time.perf_counter() - start
            return QueryResult(vertex_ids=cached_ids, total_time=elapsed)
        result = super().query(box)
        self.cache.put(box, result)
        return result

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Hits answered from the cache, misses batched through the inner
        ``query_many`` (one fused traversal for all of them).

        The all-or-nothing contract is preserved: if the inner batch raises,
        nothing is returned — the hit lookups leave no observable trace
        beyond cache statistics.
        """
        box_list = check_query_boxes(boxes)
        results: list[QueryResult | None] = [None] * len(box_list)
        miss_indices: list[int] = []
        start = time.perf_counter()
        for index, box in enumerate(box_list):
            cached_ids = self.cache.get(box)
            if cached_ids is None:
                miss_indices.append(index)
            else:
                results[index] = QueryResult(vertex_ids=cached_ids)
        if len(miss_indices) < len(box_list):
            lookup_each = (time.perf_counter() - start) / len(box_list)
            for index in range(len(box_list)):
                if results[index] is not None:
                    results[index].total_time = lookup_each
        if miss_indices:
            miss_results = super().query_many([box_list[i] for i in miss_indices])
            for index, result in zip(miss_indices, miss_results):
                self.cache.put(box_list[index], result)
                results[index] = result
        elif box_list:
            # an all-hit batch leaves no fused-traversal record behind
            self.last_fused_crawl = None
        return results  # type: ignore[return-value]

    # -- accounting -----------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Non-destructive copy of this layer's counters (plus nested caches)."""
        stats = self.cache.stats()
        inner_stats = getattr(self.inner, "cache_stats", None)
        if inner_stats is not None:
            stats += inner_stats()
        return stats

    def drain_cache_stats(self) -> CacheStats:
        """Counters since the last drain, merged with any nested cache's."""
        stats = self.cache.drain_stats()
        inner_stats = super().drain_cache_stats()
        if inner_stats is not None:
            stats += inner_stats
        return stats

    def memory_overhead_bytes(self) -> int:
        return super().memory_overhead_bytes() + self.cache.memory_bytes()

    def describe(self) -> dict:
        record = super().describe()
        record["cached"] = True
        record["cache"] = self.cache.describe()
        return record
