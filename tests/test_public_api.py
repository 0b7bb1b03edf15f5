"""The top-level public surface: pinned so accidental API growth fails CI.

``repro.__all__`` is the contract downstream code imports against.  Adding a
name is a deliberate API decision (update EXPECTED_EXPORTS here alongside the
export), and removing one is a breaking change — either way, this suite makes
the diff reviewable instead of silent.
"""

import pytest

import repro

#: the complete intended export set of ``import repro`` (order-independent;
#: the layer ordering of __all__ itself is asserted separately below)
EXPECTED_EXPORTS = {
    # version
    "__version__",
    # layer modules
    "baselines",
    "cache",
    "core",
    "experiments",
    "generators",
    "kernels",
    "mesh",
    "service",
    "simulation",
    "standing",
    "workloads",
    # mesh substrate
    "Box3D",
    "PolyhedralMesh",
    "TetrahedralMesh",
    # core engine
    "CostModel",
    "DeformationDelta",
    "OctopusConExecutor",
    "OctopusExecutor",
    "QueryCounters",
    "QueryResult",
    "SurfaceIndex",
    "TopologyDelta",
    "calibrate_cost_model",
    # baselines
    "LURTreeExecutor",
    "LinearScanExecutor",
    "QUTradeExecutor",
    "ThrowawayOctreeExecutor",
    # composition surface
    "CacheStats",
    "CachingStrategy",
    "MembershipUpdate",
    "QueryResultCache",
    "ResilientStrategy",
    "StandingQueryRegistry",
    "StandingStats",
    "StandingStrategy",
    "StrategyWrapper",
    "build_strategy",
    "make_strategy",
    # sharded service
    "MeshShard",
    "ShardedQueryService",
    "partition_mesh",
    # errors
    "ConcurrencyError",
    "DegradedExecutionError",
    "DeltaValidationError",
    "ExperimentError",
    "FaultInjectionError",
    "GeometryError",
    "MeshConnectivityError",
    "MeshError",
    "QueryError",
    "ReproError",
    "SimulationError",
    "SpatialIndexError",
    "WorkloadError",
}

#: __all__'s layer ordering: each group must appear as one contiguous block,
#: in this sequence (mesh substrate outward to the error hierarchy)
LAYER_GROUPS = [
    {"__version__"},
    {
        "baselines",
        "cache",
        "core",
        "experiments",
        "generators",
        "kernels",
        "mesh",
        "service",
        "simulation",
        "standing",
        "workloads",
    },
    {"Box3D", "PolyhedralMesh", "TetrahedralMesh"},
    {
        "CostModel",
        "DeformationDelta",
        "OctopusConExecutor",
        "OctopusExecutor",
        "QueryCounters",
        "QueryResult",
        "SurfaceIndex",
        "TopologyDelta",
        "calibrate_cost_model",
    },
    {
        "LURTreeExecutor",
        "LinearScanExecutor",
        "QUTradeExecutor",
        "ThrowawayOctreeExecutor",
    },
    {
        "CacheStats",
        "CachingStrategy",
        "MembershipUpdate",
        "QueryResultCache",
        "ResilientStrategy",
        "StandingQueryRegistry",
        "StandingStats",
        "StandingStrategy",
        "StrategyWrapper",
        "build_strategy",
        "make_strategy",
    },
    {"MeshShard", "ShardedQueryService", "partition_mesh"},
    {
        "ConcurrencyError",
        "DegradedExecutionError",
        "DeltaValidationError",
        "ExperimentError",
        "FaultInjectionError",
        "GeometryError",
        "MeshConnectivityError",
        "MeshError",
        "QueryError",
        "ReproError",
        "SimulationError",
        "SpatialIndexError",
        "WorkloadError",
    },
]


class TestExportSet:
    def test_all_matches_expected_exports(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS

    def test_no_duplicates_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize("name", sorted(EXPECTED_EXPORTS))
    def test_every_export_resolves(self, name):
        assert getattr(repro, name) is not None

    def test_layer_groups_cover_the_export_set(self):
        # the ordering contract below must describe exactly the pinned set
        union = set().union(*LAYER_GROUPS)
        assert union == EXPECTED_EXPORTS
        assert sum(len(group) for group in LAYER_GROUPS) == len(union)

    def test_all_is_ordered_by_layer(self):
        names = list(repro.__all__)
        position = 0
        for group in LAYER_GROUPS:
            block = names[position : position + len(group)]
            assert set(block) == group, (
                f"__all__[{position}:{position + len(group)}] should be the "
                f"{sorted(group)[0]}… layer block, got {block}"
            )
            position += len(block)
        assert position == len(names)


class TestCompositionSurface:
    def test_wrappers_subclass_strategy_wrapper(self):
        assert issubclass(repro.ResilientStrategy, repro.StrategyWrapper)
        assert issubclass(repro.CachingStrategy, repro.StrategyWrapper)
        assert issubclass(repro.StandingStrategy, repro.StrategyWrapper)

    def test_build_strategy_composes_the_documented_stack(self):
        strategy = repro.build_strategy(
            "octopus", caching=True, resilience=True, standing=True
        )
        # standing outermost (its re-queries flow through the cache); the
        # ladder above the cache, so its audits guard the cache's invalidation
        assert isinstance(strategy, repro.StandingStrategy)
        assert isinstance(strategy.inner, repro.ResilientStrategy)
        assert isinstance(strategy.inner.inner, repro.CachingStrategy)
        assert isinstance(strategy.unwrap(), repro.OctopusExecutor)

    def test_deprecated_index_error_alias_is_gone(self):
        with pytest.raises(AttributeError):
            repro.IndexError_  # noqa: B018
