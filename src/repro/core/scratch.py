"""Reusable per-executor scratch memory for the query hot path.

The crawl needs a "have I visited this vertex?" test over all mesh vertices.
Allocating (and zeroing) a fresh array per query re-introduces an
O(n_vertices) term into every query — exactly the dataset-size dependence
the crawl is designed to avoid (Section IV claims cost proportional to
selectivity and mesh degree only).  :class:`CrawlScratch` removes it with
one persistent arena: per vertex, a row of ``uint64`` ownership words whose
bit ``q % 64`` of word ``q // 64`` records "visited by query ``q`` of the
current batch".  Every row is zero between batches, because each batch
clears the rows it set before it returns (on failure, every row it
reached), so starting a batch costs nothing and clearing costs what the
crawl itself cost.  The word axis widens on demand, so one fused crawl
serves arbitrarily large batches — there is no 64-query ceiling — and a
single query is a batch of one.

The arena also keeps a growable identity ramp (``0, 1, 2, ...``) that the
CSR neighbour gather slices instead of re-materialising ``np.arange`` per
frontier expansion.  The directed walks use only the ramp; their per-query
state is a few batch-sized arrays allocated per call.

A scratch instance is owned by one thread at a time and is **not**
thread-safe; two concurrent queries must use two scratches.  That contract
used to be documentation only — now it is enforced: every batch takes a new
epoch, the crawl round loop re-checks it every round and raises
:class:`~repro.errors.ConcurrencyError` when another acquisition moved it
mid-batch (the signature of a second thread sharing the arena), and
executors route concurrent callers onto distinct arenas through
:class:`ThreadLocalScratch`, which lazily grows one :class:`CrawlScratch`
per calling thread.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ConcurrencyError

__all__ = ["CrawlScratch", "ThreadLocalScratch"]


class CrawlScratch:
    """Per-vertex (query-bitset) visited arena plus gather buffers.

    Usage::

        words, epoch = scratch.acquire_batch(mesh.n_vertices, n_words)
        words[v]                          # queries of this batch that visited v
        scratch.check_batch_epoch(epoch)  # still this batch's arena?
        words[visited] = 0                # before the batch returns

    ``acquire_batch`` starts a new batch: it bumps the epoch and grows the
    arena if the mesh gained vertices since the last batch (e.g. after a
    restructuring step).
    """

    __slots__ = ("_iota", "_batch_words", "_batch_epoch")

    def __init__(self) -> None:
        self._iota = np.empty(0, dtype=np.int64)
        self._batch_words = np.zeros((0, 1), dtype=np.uint64)
        self._batch_epoch = 0

    # ------------------------------------------------------------------
    # the (vertex, query-bitset) batch arena
    # ------------------------------------------------------------------
    @property
    def batch_epoch(self) -> int:
        """Epoch of the most recent :meth:`acquire_batch` (0 before any batch)."""
        return self._batch_epoch

    def acquire_batch(self, n_vertices: int, n_words: int = 1) -> tuple[np.ndarray, int]:
        """Begin a fused multi-query batch; returns ``(words, epoch)``.

        ``words[v]`` is a row of ``n_words`` ``uint64`` bitset words whose bit
        ``q % 64`` of word ``q // 64`` means "vertex ``v`` was visited by
        query ``q`` of the current batch".  Every row is zero when the batch
        starts, and the batch must zero the rows it set before the next one
        starts (:func:`repro.core.crawler.crawl_many` does, also when it
        fails), so no batch pays an O(n_vertices) clear.  Growth allocates a
        zeroed arena: geometric in the rows, so repeated restructuring
        amortises, and as wide as the widest batch seen so far, so the
        ownership bitsets have no intrinsic query-count limit; memory scales
        as ``8 * n_vertices * ceil(n_queries / 64)`` bytes.
        """
        if n_words < 1:
            raise ValueError("acquire_batch: n_words must be at least 1")
        capacity, word_capacity = self._batch_words.shape
        if capacity < n_vertices or word_capacity < n_words:
            # Widening only the word axis keeps the current row capacity —
            # doubling rows is for vertex growth, not wider batches.
            if capacity < n_vertices:
                capacity = max(n_vertices, 2 * capacity)
            self._batch_words = np.zeros((capacity, max(n_words, word_capacity)), dtype=np.uint64)
        self._batch_epoch += 1
        return self._batch_words, self._batch_epoch

    # ------------------------------------------------------------------
    # single-owner enforcement
    # ------------------------------------------------------------------
    def check_batch_epoch(self, epoch: int) -> None:
        """Assert the arena still belongs to the batch that acquired it.

        The crawl round loop calls this with the epoch its
        :meth:`acquire_batch` returned; a mismatch means another acquisition
        ran mid-batch — i.e. a second thread is sharing this scratch — and
        the visited rows the caller is reading are garbage.  One integer
        compare per round.
        """
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
        """Current footprint of the arena and the gather ramp."""
        return int(self._iota.nbytes + self._batch_words.nbytes)

    #: steady-state arena bytes per vertex: one ``uint64`` ownership word;
    #: batches beyond 64 queries widen the ownership rows by 8 bytes per
    #: vertex per additional 64 queries, which ``expected_bytes`` reflects
    #: once such a batch has run
    BYTES_PER_VERTEX = 8

    def expected_bytes(self, n_vertices: int) -> int:
        """Steady-state footprint for serving queries on an ``n_vertices`` mesh.

        Used by ``memory_overhead_bytes()`` so executors report a stable
        scratch cost regardless of whether the lazily grown arena has been
        touched yet — the reported overhead must not jump depending on query
        history.  The gather ramp is left out for the same reason: it grows
        with the largest neighbour gather a query has made.
        """
        return max(self._batch_words.nbytes, self.BYTES_PER_VERTEX * int(n_vertices))


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
