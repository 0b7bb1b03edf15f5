"""Figure 13: the Hilbert data-layout optimisation (Section IV-H1).

Sorting vertex records along a Hilbert curve keeps spatially close vertices
close in memory and speeds up the crawl.  The wall-clock effect of cache
locality is much weaker through NumPy than in the paper's C++ implementation,
so in addition to crawl seconds this driver reports a machine-independent
*locality score* (mean vertex-id distance across mesh edges, normalised) for
the shuffled and the Hilbert layouts, which shows the same qualitative
ordering the paper measures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core import OctopusExecutor
from ...mesh import hilbert_layout, layout_locality_score, random_layout
from ...workloads import random_query_workload
from ..datasets import neuron_largest

__all__ = ["figure13_hilbert_layout"]


#: timed passes per layout; each box keeps its fastest pass
_REPEATS = 3


def _crawl_seconds(meshes, boxes) -> list[tuple[float, float, int]]:
    """Per mesh: (crawl seconds, probe seconds, crawl vertex visits) over a workload.

    Each box is answered ``_REPEATS`` times per mesh, alternating the meshes
    pass by pass so neither layout gets the warmer caches, and its fastest
    crawl and probe times are summed: a one-off stall then costs one box one
    pass, not the layout's total.
    """
    executors = []
    for mesh in meshes:
        executor = OctopusExecutor()
        executor.prepare(mesh)
        executors.append(executor)
    best = [np.full((len(boxes), 2), np.inf) for _ in meshes]
    visits = [0] * len(meshes)
    for _ in range(_REPEATS):
        for index, executor in enumerate(executors):
            visits[index] = 0
            for row, box in enumerate(boxes):
                result = executor.query(box)
                np.minimum(best[index][row], (result.crawl_time, result.probe_time), out=best[index][row])
                visits[index] += result.counters.crawl_vertices_visited
    return [(float(times[:, 0].sum()), float(times[:, 1].sum()), count) for times, count in zip(best, visits)]


def figure13_hilbert_layout(
    profile: str = "small",
    selectivities: Sequence[float] = (0.0001, 0.0005, 0.001, 0.0015, 0.002),
    n_queries: int = 6,
    seed: int = 0,
) -> list[dict]:
    """One row per selectivity comparing the shuffled layout with the Hilbert layout."""
    base = neuron_largest(profile)
    shuffled = random_layout(base, seed=seed)
    hilbert = hilbert_layout(shuffled)
    shuffled_locality = layout_locality_score(shuffled)
    hilbert_locality = layout_locality_score(hilbert)

    rows = []
    for selectivity in selectivities:
        workload = random_query_workload(
            shuffled, selectivity=selectivity, n_queries=n_queries, seed=seed
        )
        # The two layouts describe the same geometry, so the same boxes apply.
        (crawl_without, probe_without, visits_without), (crawl_with, probe_with, visits_with) = _crawl_seconds(
            (shuffled, hilbert), workload.boxes
        )
        rows.append(
            {
                "selectivity_pct": selectivity * 100.0,
                "crawl_time_without_layout_s": crawl_without,
                "crawl_time_with_layout_s": crawl_with,
                "surface_probe_time_without_s": probe_without,
                "surface_probe_time_with_s": probe_with,
                "crawl_speedup_pct": 100.0 * (crawl_without - crawl_with) / max(crawl_without, 1e-12),
                "crawl_vertices_without": visits_without,
                "crawl_vertices_with": visits_with,
                "locality_without_layout": shuffled_locality,
                "locality_with_layout": hilbert_locality,
            }
        )
    return rows
