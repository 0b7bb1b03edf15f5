"""Per-figure experiment drivers.

Each function regenerates the data series of one table or figure of the
paper's evaluation; ``python -m repro.cli`` prints their rows, and
``benchmarks/paper_results.py`` checks the paper's claims on them and records
which hold in ``PAPER_RESULTS.json``.
"""

from .fig04_05 import figure4_rows, figure5_rows
from .fig06 import figure6, run_microbenchmark
from .fig07 import (
    figure7_mesh_detail_fixed_query,
    figure7_mesh_detail_fixed_results,
    figure7_selectivity,
    figure7_time_steps,
)
from .fig09 import figure9_convex_comparison, figure9_grid_resolution
from .fig10 import figure10_breakdown, figure10_footprint
from .fig11 import figure11_model_validation
from .fig12 import figure12_surface_approximation
from .fig13 import figure13_hilbert_layout
from .fig14_15 import figure14_rows, figure15_animation

__all__ = [
    "figure10_breakdown",
    "figure10_footprint",
    "figure11_model_validation",
    "figure12_surface_approximation",
    "figure13_hilbert_layout",
    "figure14_rows",
    "figure15_animation",
    "figure4_rows",
    "figure5_rows",
    "figure6",
    "figure7_mesh_detail_fixed_query",
    "figure7_mesh_detail_fixed_results",
    "figure7_selectivity",
    "figure7_time_steps",
    "figure9_convex_comparison",
    "figure9_grid_resolution",
    "run_microbenchmark",
]
