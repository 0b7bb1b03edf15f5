"""Experiment harness: datasets, comparison plumbing, per-figure drivers, reporting."""

from . import figures
from .datasets import (
    PROFILES,
    animation_sequences,
    earthquake_pair,
    neuron_largest,
    neuron_series,
)
from .harness import (
    PAPER_COMPARISON,
    cache_comparison_rows,
    comparison_rows,
    counts_rows,
    degradation_rows,
    fault_injection_rows,
    fixed_workload_provider,
    make_deformation,
    make_strategy,
    per_step_workload_provider,
    restructuring_maintenance_rows,
    run_comparison,
    sparse_maintenance_rows,
    sparsity_sweep_rows,
    strategy_suite,
)
from .report import format_table, format_value

__all__ = [
    "PAPER_COMPARISON",
    "PROFILES",
    "animation_sequences",
    "cache_comparison_rows",
    "comparison_rows",
    "counts_rows",
    "degradation_rows",
    "earthquake_pair",
    "fault_injection_rows",
    "figures",
    "fixed_workload_provider",
    "format_table",
    "format_value",
    "make_deformation",
    "make_strategy",
    "neuron_largest",
    "neuron_series",
    "per_step_workload_provider",
    "restructuring_maintenance_rows",
    "run_comparison",
    "sparse_maintenance_rows",
    "sparsity_sweep_rows",
    "strategy_suite",
]
