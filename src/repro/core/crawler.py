"""The crawling phase (Section IV-B): breadth-first traversal of mesh edges.

Starting from one or more vertices inside the query box, the crawl repeatedly
expands the frontier along mesh edges, testing each newly reached vertex
against the box and never expanding vertices that fall outside it.  The number
of vertices and edges visited therefore depends only on the query selectivity
and the mesh degree — not on the dataset size — which is the source of
OCTOPUS's sub-linear scaling.

The frontier expansion is vectorised: all neighbours of the current frontier
are gathered with one CSR slice-gather, deduplicated, and tested against the
box in a single NumPy operation.  The visit order differs from a textbook
queue-based BFS but the set of visited vertices (and hence the result and the
work counters) is identical.

Per-query memory is O(frontier + result) when the caller supplies a
:class:`~repro.core.scratch.CrawlScratch`: the visited test uses the scratch's
epoch-stamped arena instead of a fresh O(n_vertices) bitmap, so repeated
queries on a prepared executor never pay a dataset-size allocation.

:func:`crawl_many` fuses a whole *batch* of crawls into one shared-frontier
BFS: each vertex carries a row of ``uint64`` ownership words — bit ``q % 64``
of word ``q // 64`` means "in query ``q``'s BFS" — and every level expands the
*union* frontier with a single CSR gather, a single deduplication, and a
single broadcasted position test.  The word axis widens with the batch, so a
single fused crawl serves arbitrarily large batches (there is no 64-query
grouping).  Overlapping boxes share the work of walking the same mesh region,
while the ownership bitmask keeps per-query counters exactly attributable:
each query's reported vertex visits and edge follows are bit-identical to
what an independent :func:`crawl` would have counted, and they sum to the
batch's attributed work (each fused operation counted once per owning query).
The *unique* fused work — the operations the machine actually performed — is
reported separately and is never larger than the attributed total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import KERNELS
from ..mesh import (
    Box3D,
    PolyhedralMesh,
    boxes_to_arrays,
    csr_gather,
    points_in_box,
)
from .result import QueryCounters
from .scratch import CrawlScratch

__all__ = ["crawl", "crawl_many", "CrawlOutcome", "BatchCrawlOutcome"]

#: queries per ownership word (the bit width of one uint64); batches larger
#: than this widen the per-vertex ownership row instead of being chunked
GROUP_SIZE = 64

#: cap on the (candidates x queries) attribution transients one fused-crawl
#: level materialises (boolean membership matrices and their int64 edge
#: products); the candidate axis is chunked to stay under it, so
#: multi-thousand-query batches on large meshes keep a bounded scratch
#: footprint instead of allocating n_frontier x n_queries at once
_ATTRIBUTION_BUDGET = 4_000_000


def _attribution_chunk(n_queries: int) -> int:
    """Candidate-axis chunk size keeping one attribution transient under budget."""
    return max(1, _ATTRIBUTION_BUDGET // max(n_queries, 1))


class CrawlOutcome:
    """Vertices retrieved by a crawl plus the work it performed."""

    __slots__ = ("result_ids", "n_vertices_visited", "n_edges_followed")

    def __init__(
        self, result_ids: np.ndarray, n_vertices_visited: int, n_edges_followed: int
    ) -> None:
        self.result_ids = result_ids
        self.n_vertices_visited = n_vertices_visited
        self.n_edges_followed = n_edges_followed


def _gather_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    scratch: CrawlScratch | None = None,
    return_counts: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """All neighbour ids of the frontier vertices (with duplicates).

    With ``return_counts`` the per-frontier-vertex neighbour counts (vertex
    degrees) are returned alongside, in frontier order — the fused crawl uses
    them to attribute the shared gather to the owning queries.
    """
    neighbors, counts = csr_gather(
        indptr, indices, frontier, ramp=scratch.iota if scratch is not None else None
    )
    return (neighbors, counts) if return_counts else neighbors


def crawl(
    mesh: PolyhedralMesh,
    box: Box3D,
    start_vertices: np.ndarray,
    counters: QueryCounters | None = None,
    scratch: CrawlScratch | None = None,
) -> CrawlOutcome:
    """Breadth-first crawl of the mesh restricted to the query box.

    Parameters
    ----------
    mesh:
        The mesh whose *current* vertex positions define "inside the box".
    box:
        The range query.
    start_vertices:
        Candidate starting vertex ids.  Vertices outside the box are filtered
        out (they contribute position tests to the counters but are not
        expanded), so callers may pass the raw surface-probe output.
    counters:
        Optional counter record updated in place.
    scratch:
        Reusable arena for the visited test and gather buffers.  When omitted
        a throwaway arena is allocated, which restores the old
        one-allocation-per-call behaviour; executors pass their own so
        repeated queries allocate only O(frontier + result) memory.
    """
    adjacency = mesh.adjacency
    positions = mesh.vertices
    indptr, indices = adjacency.indptr, adjacency.indices

    starts = np.unique(np.asarray(start_vertices, dtype=np.int64))
    n_vertices_visited = 0
    n_edges_followed = 0
    if starts.size == 0:
        return CrawlOutcome(np.empty(0, dtype=np.int64), 0, 0)

    if scratch is None:
        scratch = CrawlScratch()
    stamps, epoch = scratch.acquire(mesh.n_vertices)
    stamps[starts] = epoch
    inside_mask = points_in_box(positions[starts], box)
    n_vertices_visited += int(starts.size)
    frontier = starts[inside_mask]
    collected = [frontier]

    while frontier.size:
        scratch.check_epoch(epoch)
        neighbors = _gather_neighbors(indptr, indices, frontier, scratch)
        n_edges_followed += int(neighbors.size)
        if neighbors.size == 0:
            break
        candidates = np.unique(neighbors)
        candidates = candidates[stamps[candidates] != epoch]
        if candidates.size == 0:
            break
        stamps[candidates] = epoch
        n_vertices_visited += int(candidates.size)
        inside = points_in_box(positions[candidates], box)
        frontier = candidates[inside]
        if frontier.size:
            collected.append(frontier)

    result_ids = np.sort(np.concatenate(collected)) if collected else np.empty(0, dtype=np.int64)
    if counters is not None:
        counters.crawl_vertices_visited += n_vertices_visited
        counters.crawl_edges_followed += n_edges_followed
    return CrawlOutcome(result_ids, n_vertices_visited, n_edges_followed)


class BatchCrawlOutcome:
    """Per-query outcomes of a fused crawl plus the batch's work accounting.

    Attributes
    ----------
    outcomes:
        One :class:`CrawlOutcome` per query, in order, bit-identical (result
        ids and counters) to independent :func:`crawl` calls.
    n_unique_vertices_visited / n_unique_edges_followed:
        The work the fused BFS actually performed: vertices stamped and edges
        gathered over *union* frontiers, each counted once no matter how many
        queries share it.  Never larger than the attributed totals; strictly
        smaller whenever overlapping queries visit the same region at the same
        BFS level.
    n_attributed_vertex_visits / n_attributed_edge_follows:
        The same work counted once per *owning query* — exactly the sum of the
        per-query counters, which is also what the sequential crawls would
        have performed in total.
    n_unique_walk_distance_computations / n_attributed_walk_distance_computations:
        The walk-phase analogue, filled by the executors when the batch's
        directed walks also ran fused
        (:func:`~repro.core.directed_walk.directed_walk_many`): unique counts
        each candidate position gathered per lockstep round once, attributed
        counts it once per walking query — exactly the sum of the per-query
        ``walk_distance_computations`` counters.  Zero when no query in the
        batch needed a walk.
    n_words:
        Width of the per-vertex ownership row (``ceil(n_queries / 64)``
        ``uint64`` words); batches beyond 64 queries take the multi-word path.
    """

    __slots__ = (
        "outcomes",
        "n_unique_vertices_visited",
        "n_unique_edges_followed",
        "n_attributed_vertex_visits",
        "n_attributed_edge_follows",
        "n_unique_walk_distance_computations",
        "n_attributed_walk_distance_computations",
        "n_words",
    )

    def __init__(self) -> None:
        self.outcomes: list[CrawlOutcome] = []
        self.n_unique_vertices_visited = 0
        self.n_unique_edges_followed = 0
        self.n_attributed_vertex_visits = 0
        self.n_attributed_edge_follows = 0
        self.n_unique_walk_distance_computations = 0
        self.n_attributed_walk_distance_computations = 0
        self.n_words = 0


def _or_duplicates(ids: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate ``ids``, OR-combining the ownership ``bits`` of duplicates.

    ``bits`` is ``(n, n_words)``; returns sorted unique ids and, per unique
    id, the union of the bitset rows of all its occurrences.
    """
    order = np.argsort(ids)
    sorted_ids = ids[order]
    sorted_bits = bits[order]
    boundaries = np.empty(sorted_ids.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundaries[1:])
    starts = np.nonzero(boundaries)[0]
    return sorted_ids[starts], np.bitwise_or.reduceat(sorted_bits, starts, axis=0)


class _OwnershipBits:
    """Multi-word query-ownership bitsets for one fused batch.

    Query ``q`` owns bit ``q % 64`` of word ``q // 64``; a set of queries is a
    ``(n_words,)`` ``uint64`` row, and a set per vertex a ``(n, n_words)``
    array.  All batch-wide bit plumbing (membership matrices, packing a
    boolean membership back into rows) lives here so :func:`_crawl_fused`
    reads like the single-word version.
    """

    __slots__ = ("n_queries", "n_words", "word_of", "mask_of")

    def __init__(self, n_queries: int) -> None:
        self.n_queries = n_queries
        self.n_words = (n_queries + GROUP_SIZE - 1) // GROUP_SIZE
        self.word_of = np.arange(n_queries, dtype=np.int64) // GROUP_SIZE
        self.mask_of = np.left_shift(
            np.uint64(1), (np.arange(n_queries, dtype=np.uint64) % np.uint64(GROUP_SIZE))
        )

    def row_for_query(self, query_index: int) -> np.ndarray:
        """The ``(n_words,)`` row with only query ``query_index``'s bit set."""
        row = np.zeros(self.n_words, dtype=np.uint64)
        row[self.word_of[query_index]] = self.mask_of[query_index]
        return row

    def owned_matrix(self, rows: np.ndarray) -> np.ndarray:
        """``(n, n_queries)`` boolean membership from ``(n, n_words)`` rows.

        Expands word by word so the transient ``uint64`` broadcast stays at
        ``n x 64`` per slab instead of ``n x n_queries`` all at once (the
        boolean result is what attribution needs and is 8x smaller).
        """
        out = np.empty((rows.shape[0], self.n_queries), dtype=bool)
        for word in range(self.n_words):
            lo = word * GROUP_SIZE
            hi = min(lo + GROUP_SIZE, self.n_queries)
            out[:, lo:hi] = (rows[:, word, None] & self.mask_of[None, lo:hi]) != np.uint64(0)
        return out

    def pack(self, membership: np.ndarray) -> np.ndarray:
        """``(n, n_words)`` rows from an ``(n, n_queries)`` boolean membership."""
        packed = np.zeros((membership.shape[0], self.n_words), dtype=np.uint64)
        for word in range(self.n_words):
            lo = word * GROUP_SIZE
            hi = min(lo + GROUP_SIZE, self.n_queries)
            slab = membership[:, lo:hi].astype(np.uint64)
            packed[:, word] = (slab * self.mask_of[None, lo:hi]).sum(axis=1, dtype=np.uint64)
        return packed

    def query_mask(self, rows: np.ndarray, query_index: int) -> np.ndarray:
        """Boolean mask of which ``(n, n_words)`` rows contain ``query_index``."""
        return (rows[:, self.word_of[query_index]] & self.mask_of[query_index]) != np.uint64(0)


def _crawl_fused(
    positions: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    start_lists: Sequence[np.ndarray],
    scratch: CrawlScratch,
    n_vertices: int,
) -> tuple[list[CrawlOutcome], int, int, int]:
    """Fused shared-frontier BFS over the whole batch (any number of queries).

    Returns the per-query outcomes plus the batch's unique (fused) vertex and
    edge work and the ownership-row width in words.  The BFS is
    level-synchronised: level ``k`` of every query runs in the same iteration,
    so each query's stamp/visit/expand sequence is exactly the one its
    independent crawl would have executed.
    """
    n_queries = len(start_lists)
    bits = _OwnershipBits(n_queries)
    stamps, words, epoch = scratch.acquire_batch(n_vertices, bits.n_words)
    word_columns = words[:, : bits.n_words]

    visited_per_query = np.zeros(n_queries, dtype=np.int64)
    edges_per_query = np.zeros(n_queries, dtype=np.int64)
    unique_visited = 0
    unique_edges = 0
    level_ids: list[np.ndarray] = []
    level_bits: list[np.ndarray] = []

    def stamp_and_test(candidates: np.ndarray, reach_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stamp newly reached (vertex, query) pairs, count them, test positions.

        Returns the next union frontier (vertices inside at least one owning
        box) and its ownership rows.  The loop itself is
        :meth:`repro.kernels.KernelBackend.crawl_stamp_and_test`, which runs
        the per-query attribution and the position tests in candidate-axis
        chunks so the expanded ``(candidates, n_queries)`` boolean
        transients stay under ``_ATTRIBUTION_BUDGET`` however large the
        batch is.
        """
        nonlocal unique_visited
        frontier, frontier_bits, n_fresh = KERNELS.crawl_stamp_and_test(
            candidates,
            reach_bits,
            stamps,
            word_columns,
            epoch,
            positions,
            los,
            his,
            bits,
            visited_per_query,
            _attribution_chunk(n_queries),
        )
        unique_visited += n_fresh
        if frontier.size:
            level_ids.append(frontier)
            level_bits.append(frontier_bits)
        return frontier, frontier_bits

    # Level 0: each query's deduplicated start vertices, merged into one
    # ownership-tagged union (a start shared by several queries is stamped,
    # counted, and position-tested once for all of them).
    id_chunks: list[np.ndarray] = []
    bit_chunks: list[np.ndarray] = []
    for query_index, raw_starts in enumerate(start_lists):
        starts = np.unique(np.asarray(raw_starts, dtype=np.int64))
        if starts.size:
            id_chunks.append(starts)
            bit_chunks.append(
                np.broadcast_to(bits.row_for_query(query_index), (starts.size, bits.n_words))
            )
    if id_chunks:
        candidates, reach_bits = _or_duplicates(
            np.concatenate(id_chunks), np.concatenate(bit_chunks)
        )
        frontier, frontier_bits = stamp_and_test(candidates, reach_bits)

        while frontier.size:
            scratch.check_batch_epoch(epoch)
            neighbors, degrees = _gather_neighbors(
                indptr, indices, frontier, scratch, return_counts=True
            )
            # Edge attribution in frontier-axis chunks: the expanded
            # (frontier, n_queries) int64 product is the largest transient of
            # the fused crawl, so it is the most important one to bound.
            chunk = _attribution_chunk(n_queries)
            for lo in range(0, frontier.size, chunk):
                hi = lo + chunk
                owned = bits.owned_matrix(frontier_bits[lo:hi])
                edges_per_query += (degrees[lo:hi, None] * owned).sum(axis=0)
            unique_edges += int(neighbors.size)
            if neighbors.size == 0:
                break
            neighbor_bits = np.repeat(frontier_bits, degrees, axis=0)
            candidates, reach_bits = _or_duplicates(neighbors, neighbor_bits)
            frontier, frontier_bits = stamp_and_test(candidates, reach_bits)

    if level_ids:
        all_ids = np.concatenate(level_ids)
        all_bits = np.concatenate(level_bits)
    else:
        all_ids = np.empty(0, dtype=np.int64)
        all_bits = np.empty((0, bits.n_words), dtype=np.uint64)
    outcomes = []
    for query_index in range(n_queries):
        mask = bits.query_mask(all_bits, query_index)
        outcomes.append(
            CrawlOutcome(
                np.sort(all_ids[mask]),
                int(visited_per_query[query_index]),
                int(edges_per_query[query_index]),
            )
        )
    return outcomes, unique_visited, unique_edges, bits.n_words


def crawl_many(
    mesh: PolyhedralMesh,
    boxes: Sequence[Box3D],
    start_lists: Sequence[np.ndarray],
    counters_list: Sequence[QueryCounters | None] | None = None,
    scratch: CrawlScratch | None = None,
) -> BatchCrawlOutcome:
    """Fused breadth-first crawl of a whole batch of range queries.

    All BFS levels run lock-step over one *union* frontier, so overlapping
    boxes share CSR gathers, deduplication, and position tests instead of
    re-walking the same region once per query.  Ownership is tracked with
    multi-word per-vertex bitsets (``ceil(n_queries / 64)`` ``uint64`` words),
    so the whole batch — however large — executes as **one** fused crawl;
    results and per-query counters are bit-identical to calling :func:`crawl`
    once per box with the same start vertices.

    Parameters
    ----------
    mesh:
        The mesh whose current vertex positions define "inside the box".
    boxes:
        The range queries.
    start_lists:
        One array of candidate start vertex ids per box (the surface-probe or
        grid/walk output); an empty array yields an empty result for that box.
    counters_list:
        Optional per-query counter records updated in place (entries may be
        ``None`` to skip a query's accounting).
    scratch:
        Reusable arena providing the (vertex, query-bitset) visited words and
        gather buffers; a throwaway arena is allocated when omitted.
    """
    box_list = list(boxes)
    if len(start_lists) != len(box_list):
        raise ValueError(
            f"crawl_many: {len(box_list)} boxes but {len(start_lists)} start lists"
        )
    if counters_list is not None and len(counters_list) != len(box_list):
        raise ValueError(
            f"crawl_many: {len(box_list)} boxes but {len(counters_list)} counter records"
        )
    if scratch is None:
        scratch = CrawlScratch()

    batch = BatchCrawlOutcome()
    if not box_list:
        return batch
    adjacency = mesh.adjacency
    positions = mesh.vertices
    indptr, indices = adjacency.indptr, adjacency.indices

    los, his = boxes_to_arrays(box_list)
    outcomes, unique_visited, unique_edges, n_words = _crawl_fused(
        positions, indptr, indices, los, his, start_lists, scratch, mesh.n_vertices
    )
    batch.outcomes.extend(outcomes)
    batch.n_unique_vertices_visited += unique_visited
    batch.n_unique_edges_followed += unique_edges
    batch.n_words = n_words

    for outcome in batch.outcomes:
        batch.n_attributed_vertex_visits += outcome.n_vertices_visited
        batch.n_attributed_edge_follows += outcome.n_edges_followed
    if counters_list is not None:
        for counters, outcome in zip(counters_list, batch.outcomes):
            if counters is not None:
                counters.crawl_vertices_visited += outcome.n_vertices_visited
                counters.crawl_edges_followed += outcome.n_edges_followed
    return batch
