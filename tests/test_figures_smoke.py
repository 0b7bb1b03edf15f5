"""Smoke tests for the per-figure experiment drivers.

Each driver is run on the ``tiny`` profile with minimal parameters; the tests
check the structure of the returned rows (row counts, dataset and strategy
names).  The qualitative relations the paper's evaluation reports (who wins,
which direction trends go) are the claims of ``benchmarks/paper_results.py``,
which ``benchmarks/test_paper_results.py`` checks at ``tiny``.
"""

from repro.experiments import earthquake_pair, figures
from repro.workloads import NEUROSCIENCE_BENCHMARKS


class TestCharacterisationTables:
    def test_figure4(self):
        assert len(figures.figure4_rows("tiny")) == 5

    def test_figure5(self):
        rows = figures.figure5_rows()
        assert [r["benchmark"] for r in rows] == ["A", "B", "C", "D"]

    def test_figure8_via_figure14_style_pair(self):
        # Figure 8 is the earthquake characterisation: the coarse mesh first.
        assert [mesh.name for mesh in earthquake_pair("tiny")] == ["SF2", "SF1"]

    def test_figure14(self):
        rows = figures.figure14_rows("tiny")
        assert len(rows) == 3
        assert {r["dataset"] for r in rows} == {"horse-gallop", "facial-expression", "camel-compress"}
        assert [r["time_steps"] for r in rows] == [48, 9, 53]


class TestComparisonFigures:
    def test_figure6_single_benchmark(self):
        rows = figures.figure6(
            profile="tiny",
            n_steps=1,
            strategies=("octopus", "linear-scan", "octree"),
            benchmarks=NEUROSCIENCE_BENCHMARKS[1:2],  # benchmark B: fewest queries
        )
        assert {r["strategy"] for r in rows} == {"octopus", "linear-scan", "octree"}

    def test_figure7_fixed_query(self):
        rows = figures.figure7_mesh_detail_fixed_query(profile="tiny", n_steps=1, queries_per_step=3)
        assert len(rows) == 5


class TestConvexAndOverheadFigures:
    def test_figure9_convex_comparison(self):
        rows = figures.figure9_convex_comparison(profile="tiny", n_steps=1, queries_per_step=3)
        assert {r["dataset"] for r in rows} == {"SF1", "SF2"}

    def test_figure9_grid_resolution_tradeoff(self):
        rows = figures.figure9_grid_resolution(profile="tiny", resolutions=(2, 6, 10), n_queries=4)
        assert [r["grid_resolution_per_axis"] for r in rows] == [2, 6, 10]
        assert [r["grid_cells_total"] for r in rows] == [8, 216, 1000]

    def test_figure10_breakdown(self):
        rows = figures.figure10_breakdown(profile="tiny", n_steps=1, queries_per_step=3, selectivity=0.01)
        assert len(rows) == 5


class TestModelAndOptimisationFigures:
    def test_figure11_model_accuracy(self):
        rows = figures.figure11_model_validation(profile="tiny", selectivities=(0.005,), n_queries=3)
        assert len(rows) == 5

    def test_figure15(self):
        rows = figures.figure15_animation(profile="tiny", queries_per_step=3, max_steps=2)
        assert len(rows) == 3
