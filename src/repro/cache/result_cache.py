"""Delta-invalidated query-result cache.

The paper's steering workloads (Section V-C) are dominated by clients
re-polling the same spatial regions tick after tick.  A range query's answer
is a pure function of the vertex positions inside its box, so the exact dirty
AABBs the delta pipeline already computes (:class:`~repro.core.delta.
DeformationDelta`, :class:`~repro.core.delta.TopologyDelta`) double as cache
invalidation certificates: an entry whose box is disjoint from every dirty
region since it was stored is still the exact answer, and a repeated query
becomes a hash lookup instead of a probe/walk/crawl.

**Invalidation contract** (why a surviving entry is still exact): the entry
boxes live in a :class:`~repro.core.delta.BoxSet`, and
:meth:`~repro.core.delta.BoxSet.affected` decides which entries a delta
drops, the same decision the standing registry ticks on:

* deformation — a vertex's membership in a closed box can only change if the
  vertex moved, and every moved vertex's old *and* new position lie inside
  the delta's dirty AABB (audited by
  :func:`~repro.core.resilience.validate_delta`).  An entry box disjoint from
  the dirty AABB therefore gained no vertex and lost none;
* topology — restructuring never moves pre-existing vertices and appended
  vertices lie inside the dirty AABB (the appended-tail contract), so box
  membership can only change inside that AABB;
* ``full()`` deltas and deltas without a dirty AABB flush the whole cache —
  there is no certificate to key off.

Entries are keyed on the query box's six corner coordinates exactly, so a hit
is a box whose corners equal the stored ones, and two distinct boxes never
share an entry however close they are.  All public methods are thread-safe:
the sharded service answers queries from several client threads while
maintenance is excluded by its write lock, but the cache does not rely on
that.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..core.delta import BoxSet
from ..errors import QueryError
from ..mesh import Box3D

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.delta import DeformationDelta, TopologyDelta
    from ..core.result import QueryResult

__all__ = ["CacheStats", "QueryResultCache"]

#: LRU capacity when the caller names none
DEFAULT_MAX_ENTRIES = 2048


@dataclass
class CacheStats:
    """Counters of one cache's traffic since construction (or the last drain).

    Attributes
    ----------
    hits / misses:
        Lookup outcomes.
    invalidations:
        Entries dropped because a delta's dirty region reached their box.
    flushes:
        Whole-cache clears (``full()`` deltas, repartitions, ``prepare``).
    evictions:
        Entries dropped by the LRU capacity bound, not by staleness.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    flushes: int = 0
    evictions: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new record with the component-wise sum."""
        merged = CacheStats()
        for f in fields(CacheStats):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged

    def __iadd__(self, other: "CacheStats") -> "CacheStats":
        for f in fields(CacheStats):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 with no traffic)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        record = {f.name: getattr(self, f.name) for f in fields(CacheStats)}
        record["hit_rate"] = self.hit_rate()
        return record


class _Entry:
    """One cached answer: its key, the BoxSet row of its corners, the ids."""

    __slots__ = ("key", "row", "vertex_ids")

    def __init__(self, key: tuple, row: int, vertex_ids: np.ndarray) -> None:
        self.key = key
        self.row = row
        self.vertex_ids = vertex_ids


class QueryResultCache:
    """LRU cache of range-query answers keyed by query box corners.

    Parameters
    ----------
    max_entries:
        LRU capacity bound; the least-recently-used entry is evicted first.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise QueryError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._by_row: dict[int, _Entry] = {}
        self._boxes = BoxSet()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    @staticmethod
    def _key(box: Box3D) -> tuple:
        return (*box.lo.tolist(), *box.hi.tolist())

    def get(self, box: Box3D) -> np.ndarray | None:
        """The cached vertex ids for ``box``, or ``None`` on a miss.

        Hits refresh the entry's LRU position.
        """
        key = self._key(box)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry.vertex_ids

    def put(self, box: Box3D, result: "QueryResult") -> None:
        """Store a complete result; a result that may miss in-box vertices
        (``complete=False``) is not the exact answer and is silently ignored."""
        if not result.complete:
            return
        key = self._key(box)
        vertex_ids = np.asarray(result.vertex_ids, dtype=np.int64)
        with self._lock:
            stale = self._entries.pop(key, None)
            if stale is not None:
                self._forget(stale)
            while len(self._entries) >= self.max_entries:
                self._forget(self._entries.popitem(last=False)[1])
                self._stats.evictions += 1
            entry = _Entry(key, self._boxes.add(box), vertex_ids)
            self._entries[key] = entry
            self._by_row[entry.row] = entry

    def _forget(self, entry: _Entry) -> None:
        """Release an entry already popped from the LRU map."""
        del self._by_row[entry.row]
        self._boxes.discard(entry.row)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _invalidate(self, delta: "DeformationDelta | TopologyDelta") -> int:
        with self._lock:
            rows, whole = self._boxes.affected(delta)
            if whole:
                return self._flush_locked()
            for row in rows.tolist():
                entry = self._by_row[row]
                del self._entries[entry.key]
                self._forget(entry)
            self._stats.invalidations += rows.size
            return int(rows.size)

    def invalidate_deformation(self, delta: "DeformationDelta") -> int:
        """Drop entries a deformation step may have changed; returns the count.

        Zero-moved rest steps keep every entry live; ``full()`` deltas (and
        sparse deltas missing their dirty AABB) flush everything.
        """
        return self._invalidate(delta)

    def invalidate_topology(self, delta: "TopologyDelta") -> int:
        """Drop entries a restructuring step may have changed; returns the count.

        Connectivity changes alter crawl reachability inside the dirty
        region, so every entry whose box meets the dirty AABB drops.
        """
        return self._invalidate(delta)

    def flush(self) -> int:
        """Drop every entry (full deltas, repartitions, prepare)."""
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._by_row.clear()
        self._boxes.clear()
        self._stats.flushes += 1
        return dropped

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """A copy of the counters accumulated since the last drain."""
        with self._lock:
            return CacheStats().merge(self._stats)

    def drain_stats(self) -> CacheStats:
        """Return the counters accumulated since the last drain, and reset."""
        with self._lock:
            stats = self._stats
            self._stats = CacheStats()
            return stats

    def memory_bytes(self) -> int:
        """Bytes held by cached corner rows and result ids."""
        with self._lock:
            return self._boxes.memory_bytes() + sum(
                e.vertex_ids.nbytes for e in self._entries.values()
            )

    def describe(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries), "max_entries": self.max_entries}
