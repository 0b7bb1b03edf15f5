"""OCTOPUS core: the paper's primary contribution."""

from .approximation import ApproximationPoint, evaluate_surface_approximation
from .cost_model import CostModel, calibrate_cost_model
from .crawler import BatchCrawlOutcome, CrawlOutcome, crawl_many
from .delta import DeformationDelta, TopologyDelta
from .directed_walk import BatchWalkOutcome, WalkOutcome, directed_walk_many
from .executor import ExecutionStrategy, StrategyWrapper
from .octopus import OctopusExecutor
from .octopus_con import OctopusConExecutor
from .resilience import (
    FallbackEvent,
    ResilientStrategy,
    audit_adjacency,
    check_query_box,
    check_query_boxes,
    validate_delta,
    validate_topology_delta,
)
from .result import QueryCounters, QueryResult
from .scratch import CrawlScratch, ThreadLocalScratch
from .surface_index import SurfaceIndex, SurfaceProbeOutcome
from .uniform_grid import UniformGrid

__all__ = [
    "ApproximationPoint",
    "BatchCrawlOutcome",
    "BatchWalkOutcome",
    "CostModel",
    "CrawlOutcome",
    "CrawlScratch",
    "DeformationDelta",
    "ExecutionStrategy",
    "FallbackEvent",
    "OctopusConExecutor",
    "OctopusExecutor",
    "QueryCounters",
    "QueryResult",
    "ResilientStrategy",
    "StrategyWrapper",
    "SurfaceIndex",
    "SurfaceProbeOutcome",
    "ThreadLocalScratch",
    "TopologyDelta",
    "UniformGrid",
    "WalkOutcome",
    "audit_adjacency",
    "calibrate_cost_model",
    "check_query_box",
    "check_query_boxes",
    "crawl_many",
    "directed_walk_many",
    "evaluate_surface_approximation",
    "validate_delta",
    "validate_topology_delta",
]
