"""The directed walk phase (Section IV-D).

When no surface vertex lies inside the query box — either because the query is
fully enclosed in the mesh interior or because it misses the mesh entirely —
OCTOPUS walks from the surface vertex closest to the query, greedily stepping
towards the box until it either enters the box (success: the reached vertex
seeds the crawl) or can no longer get closer (the query does not intersect the
mesh; the result is empty).

Each step is the paper's single-vertex greedy step (Algorithm 1): the current
vertex's neighbours come out of one CSR gather, their box distances out of one
NumPy pass, and the closest strict improvement becomes the next vertex; no
candidate strictly closer means the walk is stuck.  The box distance strictly
falls at every accepted step, so no vertex is visited twice and a walk ends
within ``n_vertices`` steps.  A walk may start from several vertices
(multi-source): it begins at the one closest to the box.

:func:`directed_walk_many` walks a whole query batch — one box is a batch of
one — in lockstep, so each round performs **one** CSR neighbour gather over
the union of the active walkers' current vertices and **one** vectorised
distance kernel over all (query, candidate) pairs; per-query work (dedup,
strict-improvement test, closest-candidate selection) operates on segment
views of those shared arrays.  Candidate positions are gathered once per
distinct vertex per round, however many queries reach it, which is the
batch's *unique* walk work; each walk's seed, path and counters do not depend
on the rest of the batch and sum to the *attributed* work.  The per-query
walk state is a handful of arrays the size of the batch, allocated per call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import KERNELS
from ..mesh import Box3D, PolyhedralMesh, boxes_to_arrays, csr_gather
from .crawler import BatchCrawlOutcome
from .result import QueryCounters
from .scratch import CrawlScratch

__all__ = ["directed_walk_many", "WalkOutcome", "BatchWalkOutcome"]


class WalkOutcome:
    """Result of a directed walk.

    Attributes
    ----------
    found_id:
        Id of the first vertex reached inside the query box, or ``None`` when
        the walk got stuck (no candidate closer to the box than the best
        vertex seen so far), which Algorithm 1 interprets as "the query misses
        the mesh".
    n_steps:
        Number of accepted steps (including the start); equals ``len(path)``.
    path:
        The best vertex id after each step, in order (useful for debugging and
        visual examples).  Distances along the path strictly decrease.
    """

    __slots__ = ("found_id", "n_steps", "path")

    def __init__(self, found_id: int | None, n_steps: int, path: list[int]) -> None:
        self.found_id = found_id
        self.n_steps = n_steps
        self.path = path


class BatchWalkOutcome:
    """Per-query outcomes of a fused directed walk plus its work accounting.

    Attributes
    ----------
    outcomes:
        One :class:`WalkOutcome` per query, in order; each equals (seed
        vertex, step count, path, counters) the outcome of walking its box
        alone.
    n_unique_distance_computations:
        Candidate positions the fused walk actually gathered and evaluated:
        per lockstep round, each distinct candidate vertex counts once no
        matter how many queries reached it.  Never larger than the attributed
        total; strictly smaller when overlapping walks traverse the same
        vertices in the same round.
    n_attributed_distance_computations:
        The same evaluations counted once per owning query — exactly the sum
        of the per-query ``walk_distance_computations`` counters, which is
        what one-box walks of the same boxes would have performed in total.
    n_rounds:
        Lockstep iterations executed (shared CSR gathers + shared distance
        kernels, including the start-distance round); one-box walks pay the
        *sum* of the per-query step counts, the fused walk pays the
        *maximum*.
    n_unique_csr_gather_entries / n_attributed_csr_gather_entries:
        Adjacency entries the fused walk's CSR gathers physically read vs.
        what per-query gathers would have read: per round, the frontier is
        deduplicated *across queries* before the gather, so a vertex that
        several walks stand on has its neighbour slice gathered once for all
        of them.  Equal when no walks coincide; strictly smaller when
        overlapping walks travel the same corridor.
    """

    __slots__ = (
        "outcomes",
        "n_unique_distance_computations",
        "n_attributed_distance_computations",
        "n_rounds",
        "n_unique_csr_gather_entries",
        "n_attributed_csr_gather_entries",
    )

    def __init__(self) -> None:
        self.outcomes: list[WalkOutcome] = []
        self.n_unique_distance_computations = 0
        self.n_attributed_distance_computations = 0
        self.n_rounds = 0
        self.n_unique_csr_gather_entries = 0
        self.n_attributed_csr_gather_entries = 0

    def attach_to(self, crawl_batch: BatchCrawlOutcome) -> None:
        """Copy the walk-phase work counters onto a fused crawl's accounting,
        so one :class:`~repro.core.crawler.BatchCrawlOutcome` accounts for the
        whole fused batch (what ``last_fused_crawl`` exposes)."""
        crawl_batch.n_unique_walk_distance_computations = self.n_unique_distance_computations
        crawl_batch.n_attributed_walk_distance_computations = (
            self.n_attributed_distance_computations
        )


def directed_walk_many(
    mesh: PolyhedralMesh,
    boxes: Sequence[Box3D],
    start_lists: Sequence[int | np.ndarray],
    counters_list: Sequence[QueryCounters | None] | None = None,
    scratch: CrawlScratch | None = None,
) -> BatchWalkOutcome:
    """Fused greedy walks for a whole batch of query boxes.

    All per-box walks advance in lockstep: each round performs one CSR
    neighbour gather over the union of the active walkers' current vertices
    and one vectorised distance kernel over all (query, candidate) pairs,
    then every active query picks its next vertex from a segment view of the
    shared arrays.  Each box's seed vertex, step count, path and counters
    equal those of a one-box call with the same start: they do not depend on
    the rest of the batch.

    Parameters
    ----------
    mesh:
        Mesh providing adjacency and *current* positions.
    boxes:
        Target query boxes.
    start_lists:
        One start vertex id — or array of ids (multi-source) — per box; an
        empty array yields ``WalkOutcome(None, 0, [])`` for that box.
    counters_list:
        Optional per-query counter records updated in place (entries may be
        ``None`` to skip a query's accounting).
    scratch:
        Reusable arena providing the gather buffers; a throwaway arena is
        allocated when omitted.
    """
    box_list = list(boxes)
    if len(start_lists) != len(box_list):
        raise ValueError(
            f"directed_walk_many: {len(box_list)} boxes but {len(start_lists)} start lists"
        )
    if counters_list is not None and len(counters_list) != len(box_list):
        raise ValueError(
            f"directed_walk_many: {len(box_list)} boxes but {len(counters_list)} counter records"
        )
    batch = BatchWalkOutcome()
    if not box_list:
        return batch
    if scratch is None:
        scratch = CrawlScratch()

    adjacency = mesh.adjacency
    positions = mesh.vertices
    indptr, indices = adjacency.indptr, adjacency.indices
    n_vertices = mesh.n_vertices
    n_queries = len(box_list)
    los, his = boxes_to_arrays(box_list)

    # Per-query walk state: the closest vertex so far (each round's frontier
    # is best_id[active]), the vertex reached inside the box (-1 while
    # searching) and the work counters.
    best_distance = np.full(n_queries, np.inf)
    best_id = np.full(n_queries, -1, dtype=np.int64)
    found = np.full(n_queries, -1, dtype=np.int64)
    n_steps = np.zeros(n_queries, dtype=np.int64)
    n_distance = np.zeros(n_queries, dtype=np.int64)
    active = np.zeros(n_queries, dtype=bool)
    paths: list[list[int]] = [[] for _ in range(n_queries)]

    def step(query: int, candidates: np.ndarray, distances: np.ndarray) -> None:
        """Accept a step for ``query``: the closest candidate of its segment
        (the first, so the smallest id, among equally close ones), best-so-far
        update, path append, found bookkeeping."""
        pick = int(distances.argmin())
        best_distance[query] = float(distances[pick])
        best_id[query] = int(candidates[pick])
        n_steps[query] += 1
        paths[query].append(int(candidates[pick]))
        if best_distance[query] == 0.0:
            found[query] = best_id[query]
            active[query] = False

    # Round 0: every query's deduplicated start vertices, distance-tested in
    # one fused kernel (each distinct start position gathered once).
    seed_ids: list[np.ndarray] = []
    seed_owners: list[np.ndarray] = []
    for query, raw_starts in enumerate(start_lists):
        starts = np.unique(np.atleast_1d(np.asarray(raw_starts, dtype=np.int64)))
        if starts.size == 0:
            continue
        active[query] = True
        seed_ids.append(starts)
        seed_owners.append(np.full(starts.size, query, dtype=np.int64))
    if seed_ids:
        pair_vertices = np.concatenate(seed_ids)
        pair_owners = np.concatenate(seed_owners)
        distances, unique_rows = KERNELS.pair_box_distances(
            positions, pair_vertices, pair_owners, los, his
        )
        batch.n_unique_distance_computations += unique_rows
        batch.n_attributed_distance_computations += int(pair_vertices.size)
        batch.n_rounds += 1
        offset = 0
        for starts, owners in zip(seed_ids, seed_owners):
            query = int(owners[0])
            segment = distances[offset : offset + starts.size]
            n_distance[query] = starts.size
            step(query, starts, segment)
            offset += starts.size

    # Lockstep rounds: one union gather + one distance kernel per round, then
    # per-query strict-improvement selection on segment views.
    while True:
        active_queries = np.nonzero(active)[0]
        if active_queries.size == 0:
            break
        # Share CSR gathers *across* queries: the union frontier is
        # deduplicated first, each distinct vertex's neighbour slice is
        # gathered once, and the per-entry views are fanned back out with a
        # second (cheap, index-space) CSR gather over the unique slices.
        unique_frontier, inverse = np.unique(best_id[active_queries], return_inverse=True)
        unique_neighbors, unique_degrees = csr_gather(
            indptr, indices, unique_frontier, ramp=scratch.iota
        )
        if unique_neighbors.size == 0:
            active[active_queries] = False
            break
        unique_offsets = np.concatenate([[0], np.cumsum(unique_degrees)])
        neighbors, degrees = csr_gather(
            unique_offsets, unique_neighbors, inverse, ramp=scratch.iota
        )
        batch.n_unique_csr_gather_entries += int(unique_neighbors.size)
        batch.n_attributed_csr_gather_entries += int(neighbors.size)
        neighbor_owners = np.repeat(active_queries, degrees)
        # Deduplicate per (query, vertex): unique keys sort by query then by
        # vertex id, so each query's segment is exactly its np.unique() set.
        keys = np.unique(neighbor_owners * np.int64(n_vertices) + neighbors)
        pair_owners = keys // n_vertices
        pair_vertices = keys - pair_owners * n_vertices
        distances, unique_rows = KERNELS.pair_box_distances(
            positions, pair_vertices, pair_owners, los, his
        )
        batch.n_unique_distance_computations += unique_rows
        batch.n_attributed_distance_computations += int(pair_vertices.size)
        batch.n_rounds += 1
        segment_sizes = np.bincount(pair_owners, minlength=n_queries)
        segment_ends = np.cumsum(segment_sizes)
        for query in active_queries:
            size = int(segment_sizes[query])
            if size == 0:
                # This walker's vertex has no neighbours at all.
                active[query] = False
                continue
            end = int(segment_ends[query])
            candidates = pair_vertices[end - size : end]
            segment = distances[end - size : end]
            n_distance[query] += size
            improving = segment < best_distance[query]
            if not improving.any():
                # No candidate is strictly closer: stuck (Algorithm 1 reports
                # that the query box does not intersect the mesh).
                active[query] = False
                continue
            step(query, candidates[improving], segment[improving])

    for query in range(n_queries):
        steps = int(n_steps[query])
        outcome = WalkOutcome(
            int(found[query]) if found[query] >= 0 else None, steps, paths[query]
        )
        batch.outcomes.append(outcome)
        if counters_list is not None and counters_list[query] is not None and steps:
            counters_list[query].walk_vertices_visited += steps
            counters_list[query].walk_distance_computations += int(n_distance[query])
    return batch
