"""Figure 7: sensitivity analysis of OCTOPUS versus the linear scan.

Four sweeps, each comparing OCTOPUS and the linear scan:

* (a, b) mesh detail with *fixed query volume* — the result count grows with
  detail; the linear scan grows proportionally to the dataset while OCTOPUS
  grows slower, so the speedup rises gently;
* (c, d) mesh detail with *fixed result count* — query volume shrinks as
  detail grows; OCTOPUS decouples from the dataset size and the speedup rises
  sharply;
* (e, f) number of time steps — both scale linearly, the speedup is flat;
* (g, h) query selectivity — crawling dominates as queries grow, the speedup
  falls.
"""

from __future__ import annotations

from typing import Sequence

from ...simulation import RandomWalkDeformation
from ...workloads import random_query_workload
from ..datasets import neuron_series
from ..harness import fixed_workload_provider, run_comparison, strategy_suite

__all__ = [
    "figure7_mesh_detail_fixed_query",
    "figure7_mesh_detail_fixed_results",
    "figure7_time_steps",
    "figure7_selectivity",
]

_PAIR = ("octopus", "linear-scan")


def _compare_pair(mesh, boxes, n_steps: int, seed: int) -> dict:
    """Run OCTOPUS vs linear scan on fixed boxes; return the summary columns."""
    report = run_comparison(
        mesh=mesh.copy(),
        strategies=strategy_suite(_PAIR),
        deformation=RandomWalkDeformation(amplitude=0.0005, seed=seed),
        n_steps=n_steps,
        query_provider=fixed_workload_provider(boxes),
    )
    octopus = report["octopus"]
    linear = report["linear-scan"]
    return {
        "octopus_time_s": octopus.total_response_time,
        "linear_scan_time_s": linear.total_response_time,
        "octopus_work": octopus.total_work(),
        "linear_scan_work": linear.total_work(),
        "speedup_time": octopus.speedup_against(linear),
        "speedup_work": octopus.speedup_against(linear, use_work=True),
        "total_results": octopus.total_results,
    }


def figure7_mesh_detail_fixed_query(
    profile: str = "small",
    n_steps: int = 3,
    queries_per_step: int = 8,
    selectivity: float = 0.001,
    seed: int = 0,
) -> list[dict]:
    """Figure 7(a, b): increasing mesh detail, query volume held fixed.

    The query boxes are sized for the target selectivity on the *coarsest*
    mesh and then reused verbatim on every level of detail, so the physical
    query volume is constant and the number of results grows with detail.
    """
    series = neuron_series(profile)
    reference_workload = random_query_workload(
        series[0], selectivity=selectivity, n_queries=queries_per_step, seed=seed
    )
    rows = []
    for mesh in series:
        summary = _compare_pair(mesh, reference_workload.boxes, n_steps, seed)
        summary.update({"dataset": mesh.name, "n_tetrahedra": mesh.n_cells, "n_vertices": mesh.n_vertices})
        rows.append(summary)
    return rows


def figure7_mesh_detail_fixed_results(
    profile: str = "small",
    n_steps: int = 3,
    queries_per_step: int = 8,
    results_per_query: int = 200,
    seed: int = 0,
) -> list[dict]:
    """Figure 7(c, d): increasing mesh detail, result count held fixed.

    The per-mesh selectivity is ``results_per_query / n_vertices``, so finer
    meshes get smaller queries and the linear scan's advantage disappears.
    """
    rows = []
    for mesh in neuron_series(profile):
        selectivity = min(0.5, max(results_per_query / mesh.n_vertices, 1e-5))
        workload = random_query_workload(
            mesh, selectivity=selectivity, n_queries=queries_per_step, seed=seed
        )
        summary = _compare_pair(mesh, workload.boxes, n_steps, seed)
        summary.update(
            {
                "dataset": mesh.name,
                "n_tetrahedra": mesh.n_cells,
                "n_vertices": mesh.n_vertices,
                "selectivity": selectivity,
            }
        )
        rows.append(summary)
    return rows


def figure7_time_steps(
    profile: str = "small",
    steps_list: Sequence[int] = (2, 4, 6, 8, 10),
    queries_per_step: int = 8,
    selectivity: float = 0.001,
    seed: int = 0,
) -> list[dict]:
    """Figure 7(e, f): increasing the number of simulated time steps."""
    series = neuron_series(profile)
    mesh = series[len(series) // 2]
    workload = random_query_workload(
        mesh, selectivity=selectivity, n_queries=queries_per_step, seed=seed
    )
    rows = []
    for n_steps in steps_list:
        summary = _compare_pair(mesh, workload.boxes, int(n_steps), seed)
        summary["time_steps"] = int(n_steps)
        rows.append(summary)
    return rows


def figure7_selectivity(
    profile: str = "small",
    selectivities: Sequence[float] = (0.001, 0.005, 0.01, 0.02, 0.05),
    n_steps: int = 3,
    queries_per_step: int = 8,
    seed: int = 0,
) -> list[dict]:
    """Figure 7(g, h): increasing query selectivity on a fixed mesh.

    The paper sweeps 0.01%-0.2%; on the scaled-down meshes those selectivities
    return almost no vertices, so the default sweep here covers 0.1%-5% — the
    same relative position with respect to the crossover selectivity of
    Equation 6.
    """
    series = neuron_series(profile)
    mesh = series[-1]
    rows = []
    for selectivity in selectivities:
        workload = random_query_workload(
            mesh, selectivity=selectivity, n_queries=queries_per_step, seed=seed
        )
        summary = _compare_pair(mesh, workload.boxes, n_steps, seed)
        summary["selectivity_pct"] = selectivity * 100.0
        rows.append(summary)
    return rows
