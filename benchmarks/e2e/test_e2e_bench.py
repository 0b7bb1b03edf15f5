"""Self-test of the end-to-end benchmark, at smoke scale (a few seconds)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import OctopusExecutor

from . import inputs as inp
from .tracer import END, NAME, PARENT, REQUEST, ROOT_SPANS, START, self_times
from .workloads import SPECS, WORKLOADS, run

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: spans each workload exists to exercise
EXERCISED = {
    "monitor": {"core.query", "kernels", "mesh.adjacency_build", "simulation.deform"},
    "churn": {"resilience.audit", "core.surface_refresh", "mesh.surface_extract", "simulation.restructure"},
    "serve": {"service.query", "service.tick", "service.partition", "cache.query",
              "cache.invalidate", "standing.tick"},
    "cold-open": {"mesh.load", "mesh.surface_extract", "mesh.adjacency_build", "core.prepare"},
}


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e-cache")


@pytest.fixture(scope="module")
def results(cache) -> dict:
    """One untraced and one traced smoke run of every workload on seed 0."""
    return {
        (workload, trace): run(workload, seed=0, seconds=0.0, trace=trace, scale=inp.SMOKE, cache=cache)
        for workload in WORKLOADS
        for trace in (False, True)
    }


def test_every_declared_metric_is_emitted_with_its_unit(results):
    for (workload, trace), result in results.items():
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == {metric["name"]: metric["unit"] for metric in declared}, workload
        assert all(np.isfinite(metric["value"]) for metric in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result["notes"]


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_each_span_fires_on_the_workload_meant_to_exercise_it(results):
    for workload, names in EXERCISED.items():
        tracer = results[(workload, True)]["tracer"]
        assert tracer.absent == []
        assert names <= {span[NAME] for span in tracer.spans}, workload


def test_tracing_leaves_the_program_unpatched(results):
    assert "prepare" not in OctopusExecutor.__dict__
    assert not hasattr(OctopusExecutor.query_many, "__wrapped__")


def test_child_spans_never_exceed_their_parent(results):
    for workload in WORKLOADS:
        spans = results[(workload, True)]["tracer"].spans
        for span in spans:
            if span[PARENT] is not None:
                parent = spans[span[PARENT]]
                assert parent[START] <= span[START] and span[END] <= parent[END], (workload, span)


def test_self_times_sum_to_each_sequential_root(results):
    for workload in ("monitor", "churn", "cold-open"):
        spans = results[(workload, True)]["tracer"].spans
        own = self_times(spans)
        for index, span in enumerate(spans):
            if span[PARENT] is None and span[NAME] in ROOT_SPANS:
                duration = (span[END] - span[START]) / 1e9
                attributed = sum(s for s, other in zip(own, spans) if other[REQUEST] == index)
                assert attributed == pytest.approx(duration, rel=1e-6, abs=1e-9), workload


def test_same_seed_repeats_exactly(cache, results):
    for workload in WORKLOADS:
        first = results[(workload, False)]
        again = run(workload, seed=0, seconds=0.0, scale=inp.SMOKE, cache=cache)
        for key in ("checksums", "attempted", "failed", "correct"):
            assert again[key] == first[key], (workload, key)
    traced = results[("monitor", True)]["metrics"]
    retraced = run("monitor", seed=0, seconds=0.0, trace=True, scale=inp.SMOKE, cache=cache)["metrics"]
    for key in ("mesh.adjacency_builds", "core.vertices_visited", "core.crawl_sharing"):
        assert retraced[key] == traced[key], key


def test_another_seed_gives_other_inputs(cache):
    for workload in WORKLOADS:
        make_inputs = SPECS[workload][0]
        zero, one = make_inputs(cache, 0, inp.SMOKE), make_inputs(cache, 1, inp.SMOKE)
        assert any(not np.array_equal(zero[key], one[key]) for key in zero), workload
