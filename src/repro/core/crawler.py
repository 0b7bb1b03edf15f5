"""The crawling phase (Section IV-B): breadth-first traversal of mesh edges.

Starting from one or more vertices inside the query box, the crawl repeatedly
expands the frontier along mesh edges, testing each newly reached vertex
against the box and never expanding vertices that fall outside it.  The number
of vertices and edges visited therefore depends only on the query selectivity
and the mesh degree — not on the dataset size — which is the source of
OCTOPUS's sub-linear scaling.

:func:`crawl_many` crawls a whole *batch* of boxes — one box is a batch of
one — as one shared-frontier BFS: each vertex carries a row of ``uint64``
ownership words — bit ``q % 64`` of word ``q // 64`` means "in query ``q``'s
BFS" — and every level expands the *union* frontier with a single CSR
gather, a single deduplication, and a single broadcasted position test.  The
word axis widens with the batch, so a single fused crawl serves arbitrarily
large batches (there is no 64-query grouping).  The visit order differs from
a textbook queue-based BFS but the set of visited vertices (and hence the
result and the work counters) is identical.

Per-query memory is O(frontier + result): the visited test reads the
reusable arena of a :class:`~repro.core.scratch.CrawlScratch` instead of a
fresh O(n_vertices) bitmap, and a batch clears only the rows it set, so
repeated queries on a prepared executor never pay a dataset-size
allocation or clear.

Overlapping boxes share the work of walking the same mesh region, while the
ownership bitmask keeps per-query counters exactly attributable: a box's
vertex visits, edge follows and result do not depend on the other boxes of
its batch, and they sum to the batch's attributed work (each fused operation
counted once per owning query).  The *unique* fused work — the operations
the machine actually performed — is reported separately and is never larger
than the attributed total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import KERNELS
from ..mesh import Box3D, PolyhedralMesh, box_batch_chunk, boxes_to_arrays, csr_gather
from ..mesh.adjacency import sorted_unique
from ..mesh.geometry import box_bounds
from .result import QueryCounters
from .scratch import CrawlScratch

__all__ = ["crawl_many", "CrawlOutcome", "BatchCrawlOutcome"]

#: queries per ownership word (the bit width of one uint64); batches larger
#: than this widen the per-vertex ownership row instead of being chunked
GROUP_SIZE = 64

class CrawlOutcome:
    """Vertices retrieved by a crawl plus the work it performed."""

    __slots__ = ("result_ids", "n_vertices_visited", "n_edges_followed")

    def __init__(
        self, result_ids: np.ndarray, n_vertices_visited: int, n_edges_followed: int
    ) -> None:
        self.result_ids = result_ids
        self.n_vertices_visited = n_vertices_visited
        self.n_edges_followed = n_edges_followed


class BatchCrawlOutcome:
    """Per-query outcomes of a fused crawl plus the batch's work accounting.

    Attributes
    ----------
    outcomes:
        One :class:`CrawlOutcome` per query, in order; each equals (result
        ids and counters) the outcome of crawling its box alone.
    n_unique_vertices_visited / n_unique_edges_followed:
        The work the fused BFS actually performed: vertices stamped and edges
        gathered over *union* frontiers, each counted once no matter how many
        queries share it.  Never larger than the attributed totals; strictly
        smaller whenever overlapping queries visit the same region at the same
        BFS level.
    n_attributed_vertex_visits / n_attributed_edge_follows:
        The same work counted once per *owning query* — exactly the sum of the
        per-query counters, which is also what one-box crawls of the same
        boxes would have performed in total.
    n_unique_walk_distance_computations / n_attributed_walk_distance_computations:
        The walk-phase analogue, filled by the executors from the batch's
        fused walks (:func:`~repro.core.directed_walk.directed_walk_many`):
        unique counts
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


#: bit ``b`` of an ownership word, for ``b`` in ``0 .. GROUP_SIZE - 1``
_WORD_BITS = np.left_shift(np.uint64(1), np.arange(GROUP_SIZE, dtype=np.uint64))


class _OwnershipBits:
    """Multi-word query-ownership bitsets for one fused batch.

    Query ``q`` owns bit ``q % 64`` of word ``q // 64``; a set of queries is a
    ``(n_words,)`` ``uint64`` row, and a set per vertex a ``(n, n_words)``
    array.  Row ``q`` of ``query_rows`` is the set holding only query ``q``,
    and ``word_masks[w]`` holds the bits of word ``w``'s queries, so a boolean
    membership of those queries packs into the word with one integer product
    (the bits are distinct powers of two, so their sum is their OR).  All
    batch-wide bit plumbing lives here so :func:`_crawl_fused` reads like the
    single-word version.
    """

    __slots__ = ("n_queries", "n_words", "word_masks", "query_rows")

    def __init__(self, n_queries: int) -> None:
        self.n_queries = n_queries
        self.n_words = (n_queries + GROUP_SIZE - 1) // GROUP_SIZE
        self.word_masks = [_WORD_BITS[: n_queries - lo] for lo in range(0, n_queries, GROUP_SIZE)]
        self.query_rows = np.zeros((n_queries, self.n_words), dtype=np.uint64)
        for word, masks in enumerate(self.word_masks):
            self.query_rows[word * GROUP_SIZE : word * GROUP_SIZE + masks.size, word] = masks

    def owned_matrix(self, rows: np.ndarray) -> np.ndarray:
        """``(n, n_queries)`` boolean membership from ``(n, n_words)`` rows.

        Expands word by word so the transient ``uint64`` broadcast stays at
        ``n x 64`` per slab instead of ``n x n_queries`` all at once (the
        boolean result is what attribution needs and is 8x smaller).
        """
        out = np.empty((rows.shape[0], self.n_queries), dtype=bool)
        for word, masks in enumerate(self.word_masks):
            lo = word * GROUP_SIZE
            out[:, lo : lo + masks.size] = (rows[:, word, None] & masks) != np.uint64(0)
        return out

    def query_mask(self, rows: np.ndarray, query_index: int) -> np.ndarray:
        """Boolean mask of which ``(n, n_words)`` rows contain ``query_index``."""
        word, bit = divmod(query_index, GROUP_SIZE)
        return (rows[:, word] & _WORD_BITS[bit]) != np.uint64(0)


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
    so each query's stamp/visit/expand sequence is exactly the one a crawl of
    its box alone would have executed.
    """
    n_queries = len(start_lists)
    bits = _OwnershipBits(n_queries)
    words, epoch = scratch.acquire_batch(n_vertices, bits.n_words)
    word_columns = words[:, : bits.n_words]
    chunk = box_batch_chunk(n_queries)
    bounds = [
        box_bounds(los[lo : lo + GROUP_SIZE], his[lo : lo + GROUP_SIZE])
        for lo in range(0, n_queries, GROUP_SIZE)
    ]

    unique_visited = 0
    unique_edges = 0
    fresh_levels: list[np.ndarray] = []
    level_ids: list[np.ndarray] = []
    level_bits: list[np.ndarray] = []
    level_degrees: list[np.ndarray] = []

    # Level 0 reaches every query's start vertices, each tagged with its
    # query's bit (a start listed twice, or shared by several queries, is
    # stamped, counted, and position-tested once).  The loop body is one
    # level: stamp the vertices newly reached by a query and test their
    # positions (the kernel), then gather the next level's reaches.
    starts = [np.asarray(raw, dtype=np.int64) for raw in start_lists]
    reached = np.concatenate(starts)
    reach_bits = bits.query_rows.repeat([ids.size for ids in starts], axis=0)
    visited_per_query = np.zeros(n_queries, dtype=np.int64)
    try:
        while reached.size:
            frontier, frontier_bits, fresh = KERNELS.crawl_stamp_and_test(
                reached, reach_bits, word_columns, positions, bounds, bits, chunk
            )
            unique_visited += fresh.size
            fresh_levels.append(fresh)
            if frontier.size == 0:
                break
            level_ids.append(frontier)
            level_bits.append(frontier_bits)
            scratch.check_batch_epoch(epoch)
            reached, degrees = csr_gather(indptr, indices, frontier, ramp=scratch.iota)
            level_degrees.append(degrees)
            unique_edges += reached.size
            reach_bits = frontier_bits.repeat(degrees, axis=0)

        # Attribution, once per batch.  A query visited a vertex iff its bit
        # is set in the vertex's final row, so its visit count is one column
        # sum over the rows stamped this batch (a row stamped at two levels,
        # for different queries, is counted once); clearing those rows hands
        # the next batch an all-zero arena.  A query follows the edges of
        # every vertex it expands, which are exactly its result ids.
        if unique_visited:
            visited = sorted_unique(np.concatenate(fresh_levels))
            for lo in range(0, visited.size, chunk):
                rows = visited[lo : lo + chunk]
                visited_per_query += bits.owned_matrix(word_columns.take(rows, axis=0)).sum(axis=0)
                word_columns[rows] = 0
    except BaseException:
        # A batch stopped half-way has set the rows it stamped, and maybe
        # any row the level in progress reached.
        for rows in (*fresh_levels, reached):
            word_columns[rows] = 0
        raise
    if level_ids:
        all_ids = np.concatenate(level_ids)
        all_bits = np.concatenate(level_bits)
        all_degrees = np.concatenate(level_degrees)
    else:
        all_ids = all_degrees = np.empty(0, dtype=np.int64)
        all_bits = np.empty((0, bits.n_words), dtype=np.uint64)
    outcomes = []
    for query_index in range(n_queries):
        mask = bits.query_mask(all_bits, query_index)
        outcomes.append(
            CrawlOutcome(
                np.sort(all_ids[mask]),
                int(visited_per_query[query_index]),
                int(all_degrees[mask].sum()),
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
    so the whole batch — however large — executes as **one** fused crawl.
    Each box's result and counters equal those of a one-box call with the
    same start vertices: they do not depend on the rest of the batch.

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
