"""Query workload generation, boxes sized by selectivity."""

from .microbenchmarks import (
    NEUROSCIENCE_BENCHMARKS,
    Microbenchmark,
    benchmark_by_id,
    workload_for_step,
)
from .queries import QueryWorkload, box_for_selectivity, measure_selectivity, random_query_workload
from .sessions import repeated_query_provider, zoomed_session_provider
from .steering import SteeringEvent, SteeringSchedule, subscription_steering

__all__ = [
    "Microbenchmark",
    "NEUROSCIENCE_BENCHMARKS",
    "QueryWorkload",
    "SteeringEvent",
    "SteeringSchedule",
    "benchmark_by_id",
    "box_for_selectivity",
    "measure_selectivity",
    "random_query_workload",
    "repeated_query_provider",
    "subscription_steering",
    "workload_for_step",
    "zoomed_session_provider",
]
