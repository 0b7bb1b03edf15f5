"""Tests for query workload generation and microbenchmarks."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.mesh import Box3D
from repro.workloads import (
    NEUROSCIENCE_BENCHMARKS,
    benchmark_by_id,
    box_for_selectivity,
    measure_selectivity,
    random_query_workload,
    workload_for_step,
)


class TestBoxForSelectivity:
    def test_hits_target_selectivity(self, neuron_small):
        target = 0.02
        box = box_for_selectivity(neuron_small, neuron_small.vertices[10], target)
        measured = measure_selectivity(neuron_small, box)
        assert measured == pytest.approx(target, rel=0.6)
        assert measured > 0

    def test_larger_selectivity_gives_larger_box(self, neuron_small):
        center = neuron_small.vertices[50]
        small = box_for_selectivity(neuron_small, center, 0.005)
        large = box_for_selectivity(neuron_small, center, 0.05)
        assert large.volume > small.volume

    def test_invalid_selectivity(self, neuron_small):
        with pytest.raises(WorkloadError):
            box_for_selectivity(neuron_small, (0, 0, 0), 0.0)
        with pytest.raises(WorkloadError):
            box_for_selectivity(neuron_small, (0, 0, 0), 1.5)


class TestRandomWorkload:
    def test_workload_size_and_metadata(self, neuron_small):
        workload = random_query_workload(neuron_small, selectivity=0.01, n_queries=5, seed=0)
        assert len(workload) == 5
        assert len(workload.measured_selectivities) == 5
        assert workload.mean_measured_selectivity() > 0
        assert all(isinstance(box, Box3D) for box in workload)

    def test_queries_intersect_the_mesh(self, neuron_small):
        workload = random_query_workload(neuron_small, selectivity=0.01, n_queries=5, seed=1)
        for box, measured in zip(workload.boxes, workload.measured_selectivities):
            assert measured > 0

    def test_deterministic_given_seed(self, neuron_small):
        a = random_query_workload(neuron_small, selectivity=0.01, n_queries=3, seed=7)
        b = random_query_workload(neuron_small, selectivity=0.01, n_queries=3, seed=7)
        assert all(np.allclose(x.lo, y.lo) for x, y in zip(a.boxes, b.boxes))

    def test_requires_positive_count(self, neuron_small):
        with pytest.raises(WorkloadError):
            random_query_workload(neuron_small, selectivity=0.01, n_queries=0)


class TestMicrobenchmarks:
    def test_figure5_definitions(self):
        assert [b.benchmark_id for b in NEUROSCIENCE_BENCHMARKS] == ["A", "B", "C", "D"]
        a = benchmark_by_id("a")
        assert a.use_case == "Structural Validation"
        assert a.queries_per_step_min == 13 and a.queries_per_step_max == 17
        assert a.selectivity_min == pytest.approx(0.0011)
        c = benchmark_by_id("C")
        assert c.queries_per_step_min == c.queries_per_step_max == 22

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            benchmark_by_id("Z")

    def test_describe_rows(self):
        rows = [b.describe() for b in NEUROSCIENCE_BENCHMARKS]
        assert rows[0]["queries_per_step"] == "13 to 17"
        assert rows[2]["queries_per_step"] == "22"

    def test_sampling_within_ranges(self, rng):
        benchmark = benchmark_by_id("B")
        for _ in range(20):
            n = benchmark.sample_queries_per_step(rng)
            assert benchmark.queries_per_step_min <= n <= benchmark.queries_per_step_max
            sel = benchmark.sample_selectivity(rng)
            assert benchmark.selectivity_min <= sel <= benchmark.selectivity_max

    def test_workload_for_step(self, neuron_small):
        benchmark = benchmark_by_id("B")
        workload = workload_for_step(neuron_small, benchmark, step=3, seed=0)
        assert benchmark.queries_per_step_min <= len(workload) <= benchmark.queries_per_step_max
        repeat = workload_for_step(neuron_small, benchmark, step=3, seed=0)
        assert len(repeat) == len(workload)
