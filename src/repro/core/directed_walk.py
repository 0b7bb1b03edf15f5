"""The directed walk phase (Section IV-D).

When no surface vertex lies inside the query box — either because the query is
fully enclosed in the mesh interior or because it misses the mesh entirely —
OCTOPUS walks from the surface vertex closest to the query, greedily stepping
towards the box until it either enters the box (success: the reached vertex
seeds the crawl) or can no longer get closer (the query does not intersect the
mesh; the result is empty).

The walk is vectorised as a greedy beam: each step gathers the neighbours of
up to ``beam_width`` frontier candidates in one CSR gather, evaluates all
their box distances in one NumPy pass, and keeps the ``beam_width`` closest
strict improvements.  The default width of 1 reproduces the paper's
single-vertex greedy walk (Algorithm 1) exactly — same steps, same stuck
condition, same work counters; wider beams are opt-in, amortise NumPy
dispatch over several candidates per step, and are strictly more robust (a
beam only gets stuck where every candidate is a local minimum).  Either way
the bounded outer loop over steps remains, but no per-vertex Python work
happens inside it.

The walk also accepts multiple start vertices (multi-source): OCTOPUS-CON can
seed it with several grid candidates and the batched query path can reuse one
call per query box.

:func:`directed_walk_many` fuses the walks of a whole query batch: all
per-box beams advance in lockstep, so each round performs **one** CSR
neighbour gather over the union of the active frontiers and **one**
vectorised distance kernel over all (query, candidate) pairs — per-query work
(dedup, strict-improvement test, arg-sorted beam selection) operates on
segment views of those shared arrays.  Candidate positions are gathered once
per distinct vertex per round, however many queries reach it, which is the
batch's *unique* walk work; the per-query counters remain bit-identical to
sequential :func:`directed_walk` calls and sum to the *attributed* work.  The
per-query walk state lives in a :class:`~repro.core.scratch.WalkArena` owned
by the scratch, so the batched path allocates nothing proportional to the
mesh or the batch.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..kernels import KERNELS
from ..mesh import Box3D, PolyhedralMesh, boxes_to_arrays, csr_gather, points_box_distance
from .crawler import BatchCrawlOutcome, _gather_neighbors
from .result import QueryCounters
from .scratch import CrawlScratch

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from .resilience import BudgetTracker

__all__ = [
    "directed_walk",
    "directed_walk_many",
    "fused_walk_phase",
    "WalkOutcome",
    "BatchWalkOutcome",
]


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
    complete:
        ``False`` when a query budget truncated the walk before it either
        entered the box or got stuck — ``found_id is None`` is then "ran out
        of budget", not "the query misses the mesh".  A walk that *found* its
        target is complete even if the budget ran out on the same round.
    """

    __slots__ = ("found_id", "n_steps", "path", "complete")

    def __init__(
        self,
        found_id: int | None,
        n_steps: int,
        path: list[int],
        complete: bool = True,
    ) -> None:
        self.found_id = found_id
        self.n_steps = n_steps
        self.path = path
        self.complete = complete


class BatchWalkOutcome:
    """Per-query outcomes of a fused directed walk plus its work accounting.

    Attributes
    ----------
    outcomes:
        One :class:`WalkOutcome` per query, in order, bit-identical (seed
        vertex, step count, path, counters) to independent
        :func:`directed_walk` calls.
    n_unique_distance_computations:
        Candidate positions the fused walk actually gathered and evaluated:
        per lockstep round, each distinct candidate vertex counts once no
        matter how many queries reached it.  Never larger than the attributed
        total; strictly smaller when overlapping walks traverse the same
        vertices in the same round.
    n_attributed_distance_computations:
        The same evaluations counted once per owning query — exactly the sum
        of the per-query ``walk_distance_computations`` counters, which is
        what the sequential walks would have performed in total.
    n_rounds:
        Lockstep iterations executed (shared CSR gathers + shared distance
        kernels, including the start-distance round); the sequential
        equivalent is the *sum* of the per-query step counts, the fused walk
        pays the *maximum*.
    n_unique_csr_gather_entries / n_attributed_csr_gather_entries:
        Adjacency entries the fused walk's CSR gathers physically read vs.
        what per-query gathers would have read: per round, the frontier is
        deduplicated *across queries* before the gather, so a vertex that
        sits on several queries' beams has its neighbour slice gathered once
        for all of them.  Equal when no beams coincide; strictly smaller when
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


def directed_walk(
    mesh: PolyhedralMesh,
    box: Box3D,
    start_vertex: int | np.ndarray,
    counters: QueryCounters | None = None,
    max_steps: int | None = None,
    beam_width: int = 1,
    scratch: CrawlScratch | None = None,
    budget: "BudgetTracker | None" = None,
) -> WalkOutcome:
    """Greedy beam walk along mesh edges towards the query box.

    Parameters
    ----------
    mesh:
        Mesh providing adjacency and *current* positions.
    box:
        Target query box.
    start_vertex:
        Vertex id — or array of vertex ids (multi-source) — to start walking
        from (typically the surface vertex closest to the box, or vertices
        suggested by the stale grid in OCTOPUS-CON).
    counters:
        Optional counter record updated in place.
    max_steps:
        Safety bound on the number of accepted steps (defaults to the vertex
        count, so the walk always terminates even on adversarial inputs).
    beam_width:
        Number of candidate vertices carried per step; the default of 1 is
        the paper's single-vertex greedy walk, wider beams trade extra
        distance computations for robustness on non-convex meshes.
    scratch:
        Optional shared arena whose gather buffers the CSR neighbour gather
        reuses.
    budget:
        Optional :class:`~repro.core.resilience.BudgetTracker` charged once
        per round with that round's distance evaluations (the round that
        crosses the limit is fully counted, then the walk stops).  The fused
        :func:`directed_walk_many` truncates at the identical round.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    adjacency = mesh.adjacency
    positions = mesh.vertices
    indptr, indices = adjacency.indptr, adjacency.indices
    limit = max_steps if max_steps is not None else mesh.n_vertices + 1

    starts = np.unique(np.atleast_1d(np.asarray(start_vertex, dtype=np.int64)))
    if starts.size == 0:
        return WalkOutcome(None, 0, [])
    start_distances = points_box_distance(positions[starts], box)
    n_distance = int(starts.size)
    order = np.argsort(start_distances)[:beam_width]
    frontier = starts[order]
    best_distance = float(start_distances[order[0]])
    best_id = int(frontier[0])
    n_steps = 1
    path = [best_id]

    found: int | None = best_id if best_distance == 0.0 else None
    truncated = False
    if budget is not None and not budget.spend(distances=int(starts.size)):
        truncated = True
    while not truncated and found is None and n_steps < limit:
        neighbors = _gather_neighbors(indptr, indices, frontier, scratch)
        if neighbors.size == 0:
            break
        candidates = np.unique(neighbors)
        distances = points_box_distance(positions[candidates], box)
        n_distance += int(candidates.size)
        if budget is not None and not budget.spend(distances=int(candidates.size)):
            truncated = True
            break
        improving = distances < best_distance
        if not improving.any():
            # No candidate is strictly closer: the walk is stuck, meaning the
            # query box does not intersect the mesh (Algorithm 1).
            break
        candidates = candidates[improving]
        distances = distances[improving]
        order = np.argsort(distances)[:beam_width]
        frontier = candidates[order]
        best_distance = float(distances[order[0]])
        best_id = int(frontier[0])
        n_steps += 1
        path.append(best_id)
        if best_distance == 0.0:
            found = best_id

    if counters is not None:
        counters.walk_vertices_visited += n_steps
        counters.walk_distance_computations += n_distance
    return WalkOutcome(found, n_steps, path, complete=found is not None or not truncated)


def directed_walk_many(
    mesh: PolyhedralMesh,
    boxes: Sequence[Box3D],
    start_lists: Sequence[int | np.ndarray],
    counters_list: Sequence[QueryCounters | None] | None = None,
    max_steps: int | None = None,
    beam_width: int = 1,
    scratch: CrawlScratch | None = None,
    budgets: "Sequence[BudgetTracker | None] | None" = None,
) -> BatchWalkOutcome:
    """Fused greedy beam walks for a whole batch of query boxes.

    All per-box walks advance in lockstep: each round performs one CSR
    neighbour gather over the union of the active frontiers and one
    vectorised distance kernel over all (query, candidate) pairs, then every
    active query selects its next beam from a segment view of the shared
    arrays.  Seed vertices, step counts, paths and counters are bit-identical
    to calling :func:`directed_walk` once per box with the same arguments.

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
    max_steps / beam_width:
        As in :func:`directed_walk`, applied to every query.
    scratch:
        Reusable arena providing the per-query :class:`WalkArena` rows and
        gather buffers; a throwaway arena is allocated when omitted.
    budgets:
        Optional per-query :class:`~repro.core.resilience.BudgetTracker`
        records (entries may be ``None``); each query truncates (or raises)
        on exactly the round its sequential :func:`directed_walk` would.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    box_list = list(boxes)
    if len(start_lists) != len(box_list):
        raise ValueError(
            f"directed_walk_many: {len(box_list)} boxes but {len(start_lists)} start lists"
        )
    if counters_list is not None and len(counters_list) != len(box_list):
        raise ValueError(
            f"directed_walk_many: {len(box_list)} boxes but {len(counters_list)} counter records"
        )
    if budgets is not None and len(budgets) != len(box_list):
        raise ValueError(
            f"directed_walk_many: {len(box_list)} boxes but {len(budgets)} budget trackers"
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
    limit = max_steps if max_steps is not None else n_vertices + 1
    n_queries = len(box_list)
    los, his = boxes_to_arrays(box_list)

    arena = scratch.acquire_walk(n_queries, beam_width)
    generation = arena.generation
    best_distance = arena.best_distance
    best_id = arena.best_id
    found = arena.found
    n_steps = arena.n_steps
    n_distance = arena.n_distance
    active = arena.active
    frontier = arena.frontier
    frontier_len = arena.frontier_len
    best_distance[:n_queries] = np.inf
    best_id[:n_queries] = -1
    found[:n_queries] = -1
    n_steps[:n_queries] = 0
    n_distance[:n_queries] = 0
    active[:n_queries] = False
    frontier_len[:n_queries] = 0
    paths: list[list[int]] = [[] for _ in range(n_queries)]
    truncated = np.zeros(n_queries, dtype=bool)

    def charge_budget(query: int, n_evaluations: int) -> bool:
        """Charge one round's distance evaluations; False deactivates the walk.

        Same placement as the sequential walk: the crossing round is fully
        counted, then the walk stops before gathering another frontier.
        """
        if budgets is None or budgets[query] is None:
            return True
        if budgets[query].spend(distances=n_evaluations):
            return True
        truncated[query] = True
        active[query] = False
        return False

    def select_beam(query: int, candidates: np.ndarray, distances: np.ndarray) -> None:
        """Accept a step for ``query`` from its candidate segment.

        Mirrors the sequential walk's beam update exactly: arg-sorted
        ``beam_width`` closest candidates, best-so-far update, path append,
        found/stuck bookkeeping.
        """
        order = np.argsort(distances)[:beam_width]
        chosen = candidates[order]
        frontier[query, : chosen.size] = chosen
        frontier_len[query] = chosen.size
        best_distance[query] = float(distances[order[0]])
        best_id[query] = int(chosen[0])
        n_steps[query] += 1
        paths[query].append(int(chosen[0]))
        if best_distance[query] == 0.0:
            found[query] = best_id[query]
            active[query] = False
        elif n_steps[query] >= limit:
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
            select_beam(query, starts, segment)
            charge_budget(query, int(starts.size))
            offset += starts.size

    # Lockstep rounds: one union gather + one distance kernel per round, then
    # per-query strict-improvement selection on segment views.
    while True:
        arena.check_generation(generation)
        active_queries = np.nonzero(active[:n_queries])[0]
        if active_queries.size == 0:
            break
        flat_frontier = np.concatenate(
            [frontier[query, : frontier_len[query]] for query in active_queries]
        )
        frontier_owners = np.repeat(active_queries, frontier_len[active_queries])
        # Share CSR gathers *across* queries: the union frontier is
        # deduplicated first, each distinct vertex's neighbour slice is
        # gathered once, and the per-entry views are fanned back out with a
        # second (cheap, index-space) CSR gather over the unique slices.
        unique_frontier, inverse = np.unique(flat_frontier, return_inverse=True)
        unique_neighbors, unique_degrees = _gather_neighbors(
            indptr, indices, unique_frontier, scratch, return_counts=True
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
        neighbor_owners = np.repeat(frontier_owners, degrees)
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
                # This walker's frontier had no neighbours at all.
                active[query] = False
                continue
            end = int(segment_ends[query])
            candidates = pair_vertices[end - size : end]
            segment = distances[end - size : end]
            n_distance[query] += size
            if not charge_budget(query, size):
                continue
            improving = segment < best_distance[query]
            if not improving.any():
                # No candidate is strictly closer: stuck (Algorithm 1 reports
                # that the query box does not intersect the mesh).
                active[query] = False
                continue
            select_beam(query, candidates[improving], segment[improving])

    for query in range(n_queries):
        steps = int(n_steps[query])
        outcome = WalkOutcome(
            int(found[query]) if found[query] >= 0 else None,
            steps,
            paths[query],
            complete=bool(found[query] >= 0 or not truncated[query]),
        )
        batch.outcomes.append(outcome)
        if counters_list is not None and counters_list[query] is not None and steps:
            counters_list[query].walk_vertices_visited += steps
            counters_list[query].walk_distance_computations += int(n_distance[query])
    return batch


def fused_walk_phase(
    mesh: PolyhedralMesh,
    box_list: Sequence[Box3D],
    walk_indices: Sequence[int],
    start_ids: Sequence[int | np.ndarray | None],
    counters_list: Sequence[QueryCounters],
    scratch: CrawlScratch,
    budgets: "Sequence[BudgetTracker | None] | None" = None,
) -> tuple[list[float], dict[int, np.ndarray], BatchWalkOutcome | None]:
    """The batched executors' walk phase: one fused walk over selected boxes.

    Runs :func:`directed_walk_many` for the boxes named by ``walk_indices``
    (whose per-box starts are ``start_ids[i]``), updating their counter
    records in place.  Returns per-box walk seconds (the shared fused-walk
    wall-clock apportioned evenly over the boxes that walked, 0.0 elsewhere),
    the crawl start vertices produced by successful walks (keyed by box
    index), and the :class:`BatchWalkOutcome` — ``None`` when nothing walked.
    ``budgets`` (when given) is indexed by *box*, like ``start_ids``; each
    walking box's tracker is threaded through to the fused walk.
    """
    walk_times = [0.0] * len(box_list)
    if not walk_indices:
        return walk_times, {}, None
    walk_start = time.perf_counter()
    batch = directed_walk_many(
        mesh,
        [box_list[i] for i in walk_indices],
        [start_ids[i] for i in walk_indices],
        [counters_list[i] for i in walk_indices],
        scratch=scratch,
        budgets=[budgets[i] for i in walk_indices] if budgets is not None else None,
    )
    shared_time = (time.perf_counter() - walk_start) / len(walk_indices)
    crawl_starts: dict[int, np.ndarray] = {}
    for index, walk in zip(walk_indices, batch.outcomes):
        walk_times[index] = shared_time
        if walk.found_id is not None:
            crawl_starts[index] = np.asarray([walk.found_id], dtype=np.int64)
    return walk_times, crawl_starts, batch
