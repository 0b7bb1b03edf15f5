"""Tests for the experiment harness: datasets registry, reporting, comparisons."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    PROFILES,
    animation_sequences,
    comparison_rows,
    counts_rows,
    earthquake_pair,
    fixed_workload_provider,
    format_table,
    format_value,
    make_strategy,
    neuron_largest,
    neuron_series,
    per_step_workload_provider,
    run_comparison,
    strategy_suite,
)
from repro.experiments.harness import MAINTENANCE_COMPARISON, PAPER_COMPARISON
from repro.factory import STRATEGY_FACTORIES
from repro.simulation import RandomWalkDeformation
from repro.workloads import random_query_workload


class TestDatasetsRegistry:
    def test_profiles_exist(self):
        assert {"tiny", "small", "medium"} <= set(PROFILES)

    def test_neuron_series_tiny(self):
        series = neuron_series("tiny")
        assert len(series) == 5
        sizes = [mesh.n_vertices for mesh in series]
        assert sizes == sorted(sizes)
        ratios = [mesh.surface_to_volume_ratio() for mesh in series]
        assert ratios == sorted(ratios, reverse=True)

    def test_neuron_series_cached(self):
        assert neuron_series("tiny") is neuron_series("tiny")

    def test_largest_matches_series_tail(self):
        largest = neuron_largest("tiny")
        series = neuron_series("tiny")
        assert largest.n_vertices == series[-1].n_vertices

    def test_earthquake_pair_ordering(self):
        sf2, sf1 = earthquake_pair("tiny")
        assert sf1.n_vertices > sf2.n_vertices

    def test_animation_sequences(self):
        sequences = animation_sequences("tiny")
        assert [s.name for s in sequences] == [
            "horse-gallop", "facial-expression", "camel-compress"
        ]

    def test_unknown_profile(self):
        with pytest.raises(ExperimentError):
            neuron_series("enormous")


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(True) == "True"
        assert format_value(3.14159, precision=2) == "3.14"
        assert "e" in format_value(1.5e-9)

    def test_format_table_alignment_and_content(self):
        rows = [
            {"strategy": "octopus", "time": 1.5},
            {"strategy": "linear-scan", "time": 12.25},
        ]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "strategy" in lines[1]
        assert any("octopus" in line for line in lines)
        assert any("12.25" in line for line in lines)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestHarness:
    def test_make_strategy_by_name(self):
        assert make_strategy("octopus").name == "octopus"
        assert make_strategy("qu-trade", window_fraction=0.1).name == "qu-trade"
        with pytest.raises(ExperimentError):
            make_strategy("nonexistent")

    def test_strategy_suite_default_matches_paper(self):
        names = [s.name for s in strategy_suite()]
        assert names == ["octopus", "linear-scan", "octree", "lur-tree", "qu-trade"]

    def test_every_registered_strategy_is_compared(self):
        # A strategy no comparison runs reaches no record: register none.
        compared = set(PAPER_COMPARISON) | set(MAINTENANCE_COMPARISON)
        assert set(STRATEGY_FACTORIES) <= compared

    def test_run_comparison_and_rows(self):
        mesh = neuron_series("tiny")[0].copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=3, seed=0)
        report = run_comparison(
            mesh=mesh,
            strategies=strategy_suite(("octopus", "linear-scan")),
            deformation=RandomWalkDeformation(amplitude=0.0005),
            n_steps=2,
            query_provider=fixed_workload_provider(workload),
        )
        rows = comparison_rows(report)
        assert {row["strategy"] for row in rows} == {"octopus", "linear-scan"}
        by_name = {row["strategy"]: row for row in rows}
        assert by_name["linear-scan"]["speedup_vs_baseline_time"] == pytest.approx(1.0)
        assert by_name["octopus"]["speedup_vs_baseline_work"] > 1.0
        assert by_name["octopus"]["total_results"] == by_name["linear-scan"]["total_results"]

    def test_work_sharing_surfaces_in_rows_and_table(self):
        """Runs report per-strategy fused-work savings in the output."""
        mesh = neuron_series("tiny")[0].copy()
        workload = random_query_workload(mesh, selectivity=0.03, n_queries=6, seed=1)
        report = run_comparison(
            mesh=mesh,
            strategies=strategy_suite(("octopus", "linear-scan")),
            deformation=RandomWalkDeformation(amplitude=0.0005),
            n_steps=2,
            query_provider=fixed_workload_provider(workload),
        )
        octopus = report["octopus"]
        # OCTOPUS fused its crawls; the attributed work equals what the
        # per-query counters reported, and work sharing is a valid ratio.
        counts, ratios = octopus.counts, octopus.ratios()
        assert counts["core.crawl_visits_attributed"] == octopus.counters.crawl_vertices_visited
        assert 0 < counts["core.crawl_visits_unique"] <= counts["core.crawl_visits_attributed"]
        assert ratios["core.crawl_sharing"] >= 1.0
        assert ratios["core.walk_sharing"] >= 1.0
        # The linear scan has no fused engine: no fused counts at all.
        linear = report["linear-scan"]
        assert not any(key.startswith("core.") for key in linear.counts)

        rows = counts_rows(report, "core.")
        by_name = {row["strategy"]: row for row in rows}
        assert by_name["octopus"]["core.crawl_sharing"] == ratios["core.crawl_sharing"]
        assert by_name["linear-scan"]["core.crawl_sharing"] == "-"
        table = format_table(rows)
        assert "core.crawl_sharing" in table and "octopus" in table
        # The comparison rows carry the same ratios into every figure table,
        # with 1.0 (no sharing) for strategies without a fused engine.
        comparison = {row["strategy"]: row for row in comparison_rows(report)}
        assert comparison["octopus"]["crawl_work_sharing"] == ratios["core.crawl_sharing"]
        assert comparison["octopus"]["walk_work_sharing"] == ratios["core.walk_sharing"]
        assert comparison["linear-scan"]["crawl_work_sharing"] == 1.0

    def test_comparison_rows_requires_baseline(self):
        mesh = neuron_series("tiny")[0].copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=2, seed=0)
        report = run_comparison(
            mesh=mesh,
            strategies=strategy_suite(("octopus",)),
            deformation=RandomWalkDeformation(amplitude=0.0005),
            n_steps=1,
            query_provider=fixed_workload_provider(workload),
        )
        with pytest.raises(ExperimentError):
            comparison_rows(report, baseline="linear-scan")

    def test_per_step_workload_provider_varies_queries(self):
        mesh = neuron_series("tiny")[0]
        provider = per_step_workload_provider(selectivity=0.01, queries_per_step=2, seed=0)
        first = provider(mesh, 1)
        second = provider(mesh, 2)
        assert len(first) == len(second) == 2
        assert not np.allclose(first[0].lo, second[0].lo)


class TestMaintenanceLedger:
    def test_make_deformation_by_name_and_sparsity_knob(self):
        from repro.experiments import make_deformation
        from repro.simulation import LocalizedPulseDeformation, RandomWalkDeformation

        assert isinstance(make_deformation("random-walk"), RandomWalkDeformation)
        pulse = make_deformation("localized-pulse", sparsity=0.02, rest_every=4)
        assert isinstance(pulse, LocalizedPulseDeformation)
        assert pulse.sparsity == 0.02 and pulse.rest_every == 4
        with pytest.raises(ExperimentError):
            make_deformation("tsunami")

    def test_maintenance_rows_and_table(self):
        from repro.experiments import make_deformation

        mesh = neuron_series("tiny")[0].copy()
        workload = random_query_workload(mesh, selectivity=0.01, n_queries=2, seed=1)
        report = run_comparison(
            mesh=mesh,
            strategies=strategy_suite(("octopus", "octree")),
            deformation=make_deformation("localized-pulse", sparsity=0.05, rest_every=3),
            n_steps=3,
            query_provider=fixed_workload_provider(workload),
        )
        rows = counts_rows(report, "simulation.", "maintenance.")
        by_name = {row["strategy"]: row for row in rows}
        assert by_name["octopus"]["maintenance.entries"] == 0
        assert by_name["octree"]["maintenance.entries"] == 2 * mesh.n_vertices
        assert by_name["octree"]["maintenance.entries_per_moved"] > 1.0
        assert by_name["octree"]["maintenance_time_s"] == report["octree"].total_maintenance_time
        assert not any(key.startswith(("core.", "cache.")) for key in by_name["octopus"])
        table = format_table(rows)
        assert "maintenance.entries_per_moved" in table and "octree" in table

    def test_sparse_maintenance_scenario_rows(self):
        from repro.experiments import sparse_maintenance_rows

        rows = sparse_maintenance_rows(
            "tiny", sparsity=0.05, n_steps=2, queries_per_step=2
        )
        names = {row["strategy"] for row in rows}
        assert {"octopus", "octopus-con", "lur-tree", "qu-trade", "rum-tree", "octree"} == names
        by_name = {row["strategy"]: row for row in rows}
        # The incrementally maintained strategies touch far fewer entries than
        # the rebuild-everything octree on a sparse workload.
        assert by_name["octopus-con"]["maintenance.entries"] < by_name["octree"]["maintenance.entries"]
        assert by_name["rum-tree"]["maintenance.entries"] < by_name["octree"]["maintenance.entries"]

    def test_restructuring_maintenance_scenario_rows(self):
        from repro.experiments import restructuring_maintenance_rows

        rows = restructuring_maintenance_rows(
            "tiny", n_steps=4, restructure_every=2, cells_per_event=4, queries_per_step=2
        )
        names = {row["strategy"] for row in rows}
        assert {"octopus", "octopus-con", "lur-tree", "qu-trade", "rum-tree", "octree"} == names
        by_name = {row["strategy"]: row for row in rows}
        # Every strategy saw the same restructuring events, and the
        # incrementally maintained strategies touch far fewer entries than
        # the rebuild-everything octree.
        assert all(row["simulation.restructurings"] == 2 for row in rows)
        assert all(row["simulation.topology_dirty"] > 0 for row in rows)
        assert by_name["octopus"]["maintenance.entries"] < by_name["octree"]["maintenance.entries"]
        assert by_name["octopus-con"]["maintenance.entries"] < by_name["octree"]["maintenance.entries"]

    def test_sparsity_sweep_rows(self):
        from repro.experiments import sparsity_sweep_rows

        rows = sparsity_sweep_rows(
            "tiny", sparsities=(0.02, 0.5), n_steps=2, queries_per_step=2
        )
        # One row per (sparsity, strategy), sparsity leading.
        assert {row["sparsity"] for row in rows} == {0.02, 0.5}
        per_level = {row["sparsity"] for row in rows}
        assert len(rows) == 5 * len(per_level)
        moved = {
            sparsity: next(
                row["simulation.moved"] for row in rows if row["sparsity"] == sparsity
            )
            for sparsity in per_level
        }
        # More sparsity knob -> more motion reported by the deltas.
        assert moved[0.5] > moved[0.02]
