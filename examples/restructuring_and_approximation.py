"""Advanced features: mesh restructuring and the surface-approximation knob.

Two of OCTOPUS's less-travelled code paths:

1. **Mesh restructuring** (Section IV-E2) — when the simulation splits or
   removes cells, the surface can change; the mesh splices its own set of
   surface vertex ids, which the probe reads, so OCTOPUS only counts which
   ids joined or left the surface.
2. **Surface approximation** (Section IV-H2) — probing only a sample of the
   surface trades a little recall for probe time, useful for visualization
   workloads.

Run with::

    python examples/restructuring_and_approximation.py
"""

from __future__ import annotations

import numpy as np

from repro import Box3D, LinearScanExecutor, OctopusExecutor
from repro.core import evaluate_surface_approximation
from repro.generators import neuron_mesh
from repro.simulation import remove_cells_inplace, split_cells_inplace
from repro.workloads import random_query_workload


def restructuring_demo() -> None:
    print("=== mesh restructuring ===")
    mesh = neuron_mesh(resolution=18, name="restructured-neuron")
    octopus = OctopusExecutor()
    octopus.prepare(mesh)
    print(f"initial surface size: {len(octopus.surface_index)} vertices")

    # Refine a region: split 50 cells 1-to-4 (centroid insertion).  The event
    # carries the TopologyDelta that feeds the strategy lifecycle.
    split_event = split_cells_inplace(mesh, np.arange(50))
    seconds = octopus.on_restructure(split_event.delta)
    print(f"split 50 cells: +{split_event.n_new_vertices} vertices, "
          f"surface gained {split_event.inserted_surface_vertices.size} / "
          f"lost {split_event.removed_surface_vertices.size} vertices; "
          f"octopus maintenance {seconds * 1e3:.2f} ms "
          f"(membership counted over {split_event.delta.n_dirty} dirty vertices)")

    # Erode the mesh: remove 100 cells, exposing interior vertices.  The
    # count again only looks at the removed cells' vertices.
    remove_event = remove_cells_inplace(mesh, np.arange(mesh.n_cells - 100, mesh.n_cells))
    seconds = octopus.on_restructure(remove_event.delta)
    print(f"removed 100 cells: surface gained {remove_event.inserted_surface_vertices.size} "
          f"vertices; octopus maintenance {seconds * 1e3:.2f} ms "
          f"({octopus.maintenance_entries} surface ids joined or left so far)")

    # Queries remain exact after the restructuring.
    linear = LinearScanExecutor()
    linear.prepare(mesh)
    box = Box3D.cube(mesh.vertices[0], 0.5)
    octopus_ids = octopus.query(box).vertex_ids
    referenced = np.unique(mesh.cells)
    scan_ids = np.intersect1d(linear.query(box).vertex_ids, referenced)
    print(f"post-restructuring query matches the scan: {np.array_equal(octopus_ids, scan_ids)}\n")


def approximation_demo() -> None:
    print("=== surface approximation ===")
    mesh = neuron_mesh(resolution=24, name="approximated-neuron")
    workload = random_query_workload(mesh, selectivity=0.002, n_queries=6, seed=0)
    points = evaluate_surface_approximation(
        mesh, workload.boxes, fractions=(0.001, 0.01, 0.1, 1.0), seed=0
    )
    print(f"{'probe fraction [%]':>19} {'accuracy [%]':>13} {'speedup vs exact':>17}")
    for point in points:
        print(f"{point.fraction * 100:>19.3f} {point.accuracy * 100:>13.1f} "
              f"{point.speedup_vs_exact:>17.2f}")
    print("(probing ~1% of the surface already retrieves essentially the full result)")


if __name__ == "__main__":
    restructuring_demo()
    approximation_demo()
