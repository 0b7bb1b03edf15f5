"""The analytical cost model of Section IV-G (Equations 1–6).

The model predicts OCTOPUS's query response time from four quantities:

* ``V``   — total number of vertices;
* ``S``   — surface-to-volume ratio (surface vertices / total vertices);
* ``M``   — mesh degree (average edges per vertex);
* ``sel`` — query selectivity (fraction of vertices in the result);

and two machine constants:

* ``cs`` — cost of sequentially accessing one vertex and comparing it to the
  query (the linear scan / surface probe unit cost);
* ``cr`` — cost of accessing one vertex through the adjacency list during the
  crawl (random access, roughly 4x ``cs`` on the paper's hardware).

Equation numbers in the docstrings refer to the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ExperimentError
from ..mesh import PolyhedralMesh, points_in_box
from .crawler import crawl_many

__all__ = ["CostModel", "calibrate_cost_model"]


@dataclass(frozen=True)
class CostModel:
    """Analytical model of OCTOPUS and linear-scan query cost.

    Parameters
    ----------
    cs:
        Sequential per-vertex access cost in seconds (paper: 6.6e-9 s).
    cr:
        Crawl per-vertex access cost in seconds (paper: 2.7e-8 s).
    """

    cs: float = 6.6e-9
    cr: float = 2.7e-8

    def __post_init__(self) -> None:
        if self.cs <= 0 or self.cr <= 0:
            raise ExperimentError("cost constants must be positive")

    # ------------------------------------------------------------------
    # component costs
    # ------------------------------------------------------------------
    def surface_probe_cost(self, n_vertices: int, surface_ratio: float) -> float:
        """Equation 1: ``Cs * (S * V)``."""
        return self.cs * surface_ratio * n_vertices

    def crawling_cost(self, n_vertices: int, mesh_degree: float, selectivity: float) -> float:
        """Equation 2: ``Cr * M * (sel * V)``."""
        return self.cr * mesh_degree * selectivity * n_vertices

    def octopus_cost(
        self, n_vertices: int, surface_ratio: float, mesh_degree: float, selectivity: float
    ) -> float:
        """Equation 3: surface probe plus crawling."""
        return self.surface_probe_cost(n_vertices, surface_ratio) + self.crawling_cost(
            n_vertices, mesh_degree, selectivity
        )

    def linear_scan_cost(self, n_vertices: int) -> float:
        """Equation 4: ``Cs * V``."""
        return self.cs * n_vertices

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def speedup(self, surface_ratio: float, mesh_degree: float, selectivity: float) -> float:
        """Equation 5: predicted speedup of OCTOPUS over the linear scan."""
        denominator = surface_ratio + mesh_degree * selectivity / (self.cs / self.cr)
        if denominator <= 0:
            raise ExperimentError("speedup undefined for non-positive denominator")
        return 1.0 / denominator

    def max_selectivity(self, surface_ratio: float, mesh_degree: float) -> float:
        """Equation 6: the selectivity above which the linear scan wins."""
        if mesh_degree <= 0:
            raise ExperimentError("mesh degree must be positive")
        return (1.0 - surface_ratio) * (self.cs / self.cr) / mesh_degree

    def should_use_octopus(
        self, surface_ratio: float, mesh_degree: float, selectivity: float
    ) -> bool:
        """Decision rule derived from Equation 6 (Section VIII-B)."""
        return selectivity < self.max_selectivity(surface_ratio, mesh_degree)

    # ------------------------------------------------------------------
    # convenience over meshes
    # ------------------------------------------------------------------
    def predict_for_mesh(self, mesh: PolyhedralMesh, selectivity: float) -> dict:
        """Predicted per-query costs and speedup for a concrete mesh."""
        surface_ratio = mesh.surface_to_volume_ratio()
        mesh_degree = mesh.mesh_degree()
        return {
            "octopus_seconds": self.octopus_cost(
                mesh.n_vertices, surface_ratio, mesh_degree, selectivity
            ),
            "linear_scan_seconds": self.linear_scan_cost(mesh.n_vertices),
            "speedup": self.speedup(surface_ratio, mesh_degree, selectivity),
            "max_selectivity": self.max_selectivity(surface_ratio, mesh_degree),
        }


def calibrate_cost_model(mesh: PolyhedralMesh, n_repeats: int = 3) -> CostModel:
    """Measure the ``cs`` and ``cr`` constants empirically on the current machine.

    ``cs`` is obtained by timing full linear scans of the mesh's vertices and
    dividing by the vertex count; ``cr`` by timing a whole-mesh crawl (a range
    query covering the full bounding box) and dividing by the number of vertex
    accesses it performed.  This mirrors the paper's calibration procedure
    ("averaging a long run of a linear scan and graph traversal").
    """
    if n_repeats < 1:
        raise ExperimentError("n_repeats must be at least 1")
    box = mesh.bounding_box().expanded(1e-9)

    scan_seconds = []
    for _ in range(n_repeats):
        start = time.perf_counter()
        points_in_box(mesh.vertices, box)
        scan_seconds.append(time.perf_counter() - start)
    cs = float(np.median(scan_seconds) / max(mesh.n_vertices, 1))

    crawl_seconds = []
    accesses = 1
    surface_ids = mesh.surface_vertices()
    start_vertex = surface_ids[:1] if surface_ids.size else np.asarray([0])
    for _ in range(n_repeats):
        start = time.perf_counter()
        outcome = crawl_many(mesh, [box], [start_vertex]).outcomes[0]
        crawl_seconds.append(time.perf_counter() - start)
        accesses = max(outcome.n_vertices_visited + outcome.n_edges_followed, 1)
    cr = float(np.median(crawl_seconds) / accesses)

    # Guard against degenerate measurements on very small meshes.
    cs = max(cs, 1e-12)
    cr = max(cr, cs)
    return CostModel(cs=cs, cr=cr)
