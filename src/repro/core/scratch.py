"""Reusable per-executor scratch memory for the query hot path.

The crawl needs a "have I visited this vertex?" test over all mesh vertices.
Allocating (and zeroing) a fresh boolean array per query re-introduces an
O(n_vertices) term into every query — exactly the dataset-size dependence the
crawl is designed to avoid (Section IV claims cost proportional to selectivity
and mesh degree only).  :class:`CrawlScratch` removes it with the classic
epoch-stamping trick: one persistent ``int32`` array holds, per vertex, the
epoch of the last query that visited it.  A vertex is "visited" in the current
query iff its stamp equals the current epoch, so starting a new query is a
single integer increment — no clearing, no allocation.

The arena also keeps a growable identity ramp (``0, 1, 2, ...``) that the
CSR neighbour gather slices instead of re-materialising ``np.arange`` per
frontier expansion.

For the fused multi-query crawl the scratch additionally owns a
*(vertex, query-bitset)* arena: per vertex, a row of ``uint64`` words whose
bit ``q`` of word ``q // 64`` records "visited by query ``q`` of the current
batch", guarded by its own epoch-stamp array so that starting a new batch is
again a single increment (a stale stamp means the row is garbage and is
treated as all-zeros).  The word axis widens on demand, so one fused crawl
serves arbitrarily large batches — there is no 64-query ceiling.

The directed walks use only the identity ramp; their per-query state is a
few batch-sized arrays allocated per call.

A scratch instance is owned by one thread at a time and is **not**
thread-safe; two concurrent queries must use two scratches.  That contract
used to be documentation only — now it is enforced: the crawl round loops
re-check the arena epoch every round and raise
:class:`~repro.errors.ConcurrencyError` when another acquisition moved it
mid-query (the signature of a second thread sharing the arena), and
executors route concurrent callers onto distinct arenas through
:class:`ThreadLocalScratch`, which lazily grows one :class:`CrawlScratch`
per calling thread.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ConcurrencyError

__all__ = ["CrawlScratch", "ThreadLocalScratch"]

#: stamp value reserved for "never visited" (fresh arenas are zero-filled)
_NEVER = 0
_EPOCH_LIMIT = np.iinfo(np.int32).max - 1


class CrawlScratch:
    """Epoch-stamped visited arena plus reusable gather buffers.

    Usage::

        stamps, epoch = scratch.acquire(mesh.n_vertices)
        stamps[v] = epoch            # mark v visited
        stamps[ids] == epoch         # visited test, vectorised

    ``acquire`` starts a new query: it bumps the epoch (making every previous
    stamp stale at zero cost) and grows the arena if the mesh gained vertices
    since the last query (e.g. after a restructuring step).
    """

    __slots__ = (
        "_stamps",
        "_epoch",
        "_iota",
        "_batch_stamps",
        "_batch_words",
        "_batch_epoch",
    )

    def __init__(self) -> None:
        self._stamps = np.empty(0, dtype=np.int32)
        self._epoch = _NEVER
        self._iota = np.empty(0, dtype=np.int64)
        self._batch_stamps = np.empty(0, dtype=np.int32)
        self._batch_words = np.empty((0, 1), dtype=np.uint64)
        self._batch_epoch = _NEVER

    # ------------------------------------------------------------------
    # the visited arena
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epoch of the most recent :meth:`acquire` (0 before any query)."""
        return self._epoch

    def acquire(self, n_vertices: int) -> tuple[np.ndarray, int]:
        """Begin a new query; returns ``(stamps, epoch)`` covering ``n_vertices``.

        The returned array may be larger than ``n_vertices`` (capacity is kept
        across mesh shrinkage); only indices below ``n_vertices`` are
        meaningful to the caller.
        """
        if self._stamps.size < n_vertices:
            # Grow geometrically so repeated restructuring amortises; a grow
            # resets all stamps, which the epoch rollover below accounts for.
            capacity = max(n_vertices, 2 * self._stamps.size)
            self._stamps = np.zeros(capacity, dtype=np.int32)
            self._epoch = _NEVER
        elif self._epoch >= _EPOCH_LIMIT:
            # int32 epochs last ~2 billion queries; on rollover pay one clear.
            self._stamps.fill(_NEVER)
            self._epoch = _NEVER
        self._epoch += 1
        return self._stamps, self._epoch

    # ------------------------------------------------------------------
    # the (vertex, query-bitset) batch arena
    # ------------------------------------------------------------------
    @property
    def batch_epoch(self) -> int:
        """Epoch of the most recent :meth:`acquire_batch` (0 before any batch)."""
        return self._batch_epoch

    def acquire_batch(
        self, n_vertices: int, n_words: int = 1
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Begin a fused multi-query group; returns ``(stamps, words, epoch)``.

        ``words[v]`` is a row of ``n_words`` ``uint64`` bitset words whose bit
        ``q % 64`` of word ``q // 64`` means "vertex ``v`` was visited by
        query ``q`` of the current group" — but only where
        ``stamps[v] == epoch``; a stale stamp marks the row as garbage from an
        earlier group, to be treated as all-zeros and overwritten.  Like
        :meth:`acquire`, starting a group is a single epoch increment: the
        words are never cleared (``np.empty`` on growth), only the ``int32``
        stamp array pays a bulk clear on growth or on epoch rollover.

        The word axis grows to the widest batch seen so far, so the ownership
        bitsets have no intrinsic query-count limit; memory scales as
        ``8 * n_vertices * ceil(n_queries / 64)`` bytes.
        """
        if n_words < 1:
            raise ValueError("acquire_batch: n_words must be at least 1")
        if self._batch_stamps.size < n_vertices or self._batch_words.shape[1] < n_words:
            if self._batch_stamps.size < n_vertices:
                capacity = max(n_vertices, 2 * self._batch_stamps.size)
            else:
                # Widening only the word axis keeps the current row capacity —
                # doubling rows is for vertex growth, not wider batches.
                capacity = self._batch_stamps.size
            word_capacity = max(n_words, self._batch_words.shape[1])
            self._batch_stamps = np.zeros(capacity, dtype=np.int32)
            self._batch_words = np.empty((capacity, word_capacity), dtype=np.uint64)
            self._batch_epoch = _NEVER
        elif self._batch_epoch >= _EPOCH_LIMIT:
            self._batch_stamps.fill(_NEVER)
            self._batch_epoch = _NEVER
        self._batch_epoch += 1
        return self._batch_stamps, self._batch_words, self._batch_epoch

    # ------------------------------------------------------------------
    # single-owner enforcement
    # ------------------------------------------------------------------
    def check_epoch(self, epoch: int) -> None:
        """Assert the visited arena still belongs to the query that acquired it.

        The crawl round loop calls this with the epoch its :meth:`acquire`
        returned; a mismatch means another :meth:`acquire` ran mid-query —
        i.e. a second thread is sharing this scratch — and the visited stamps
        the caller is reading are garbage.  One integer compare per round.
        """
        if self._epoch != epoch:
            raise ConcurrencyError(
                f"CrawlScratch visited arena re-acquired mid-query (epoch moved "
                f"{epoch} -> {self._epoch}); a scratch serves one thread at a time — "
                "use one scratch per thread (see ThreadLocalScratch)"
            )

    def check_batch_epoch(self, epoch: int) -> None:
        """Same guard as :meth:`check_epoch` for the fused batch arena."""
        if self._batch_epoch != epoch:
            raise ConcurrencyError(
                f"CrawlScratch batch arena re-acquired mid-batch (epoch moved "
                f"{epoch} -> {self._batch_epoch}); a scratch serves one thread at a "
                "time — use one scratch per thread (see ThreadLocalScratch)"
            )

    # ------------------------------------------------------------------
    # gather buffers
    # ------------------------------------------------------------------
    def iota(self, n: int) -> np.ndarray:
        """A read-only view of ``[0, 1, ..., n-1]`` backed by a reused buffer."""
        if self._iota.size < n:
            self._iota = np.arange(max(n, 2 * self._iota.size, 1024), dtype=np.int64)
        return self._iota[:n]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Current footprint of the arenas and buffers."""
        return int(
            self._stamps.nbytes
            + self._iota.nbytes
            + self._batch_stamps.nbytes
            + self._batch_words.nbytes
        )

    #: steady-state arena bytes per vertex: 4 (visited stamps) + 4 (batch
    #: stamps) + 8 (one uint64 ownership word) — batching is the harness
    #: default, so both arenas count; batches beyond 64 queries widen the
    #: ownership rows by 8 bytes per vertex per additional 64 queries, which
    #: ``memory_bytes()`` reflects once such a batch has run
    BYTES_PER_VERTEX = 16

    def expected_bytes(self, n_vertices: int) -> int:
        """Steady-state footprint for serving queries on an ``n_vertices`` mesh.

        Used by ``memory_overhead_bytes()`` so executors report a stable
        scratch cost regardless of whether the lazily grown arenas (visited
        stamps, batch stamps + ownership words) have been touched yet — the
        reported overhead must not jump depending on query history.
        """
        return max(self.memory_bytes(), self.BYTES_PER_VERTEX * int(n_vertices))


class ThreadLocalScratch:
    """One lazily created :class:`CrawlScratch` per calling thread.

    A :class:`CrawlScratch` is strictly single-owner — its epoch trick is a
    read-modify-write on shared arrays — so an executor that may be queried
    from several threads (the sharded query service serves concurrent client
    threads) must hand each thread its own arena.  This holder does exactly
    that: :meth:`get` returns the calling thread's scratch, creating it on
    first use, and keeps a registry of every arena created so memory
    accounting still sees the whole footprint.

    Maintenance and queries keep working unchanged on the single-threaded
    paths: the first (only) thread always receives the same arena it would
    have owned before.
    """

    __slots__ = ("_local", "_arenas", "_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._arenas: list[CrawlScratch] = []
        self._lock = threading.Lock()

    def get(self) -> CrawlScratch:
        """The calling thread's scratch arena (created on first use)."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = CrawlScratch()
            with self._lock:
                self._arenas.append(scratch)
            self._local.scratch = scratch
        return scratch

    @property
    def n_arenas(self) -> int:
        """Number of distinct threads that have acquired a scratch so far."""
        with self._lock:
            return len(self._arenas)

    def memory_bytes(self) -> int:
        """Combined footprint of every per-thread arena created so far."""
        with self._lock:
            return sum(arena.memory_bytes() for arena in self._arenas)

    def expected_bytes(self, n_vertices: int) -> int:
        """Steady-state footprint: at least one arena's worth, plus any extras.

        Mirrors :meth:`CrawlScratch.expected_bytes` for the common
        single-threaded case (exactly one arena) so reported overheads do not
        change when an executor is wrapped by the service but only ever
        queried from one thread.
        """
        with self._lock:
            arenas = list(self._arenas)
        if not arenas:
            return CrawlScratch.BYTES_PER_VERTEX * int(n_vertices)
        return sum(arena.expected_bytes(n_vertices) for arena in arenas)
