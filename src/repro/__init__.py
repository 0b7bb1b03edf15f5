"""repro — a reproduction of OCTOPUS (ICDE 2014): efficient range queries on dynamic meshes.

The public API is organised in layers:

* :mod:`repro.mesh` — mesh substrate (geometry, connectivity, surface extraction);
* :mod:`repro.generators` — synthetic dataset generators;
* :mod:`repro.simulation` — deformation models, restructuring, monitoring, driver;
* :mod:`repro.baselines` — linear scan and index-based baselines;
* :mod:`repro.core` — OCTOPUS, OCTOPUS-CON, the surface index, the cost model,
  and the strategy-wrapper composition surface;
* :mod:`repro.kernels` — the NumPy kernels of the fused crawl, walk and probe;
* :mod:`repro.cache` — the delta-invalidated query-result cache;
* :mod:`repro.standing` — standing continuous queries over the delta stream;
* :mod:`repro.service` — mesh partitioning and the sharded query service;
* :mod:`repro.workloads` — query workloads sized by selectivity;
* :mod:`repro.experiments` — per-figure experiment drivers and reporting.

The most common entry points are re-exported here::

    from repro import Box3D, build_strategy
    from repro.generators import neuron_mesh

    mesh = neuron_mesh(resolution=16)
    octopus = build_strategy("octopus", caching=True, resilience=True)
    octopus.prepare(mesh)
    result = octopus.query(Box3D.cube(mesh.bounding_box().center, 0.5))

``build_strategy`` composes wrapper stacks (result caching, the resilience
ladder, standing queries) uniformly; the bare executor classes remain available
for direct construction.
"""

from . import (
    baselines,
    cache,
    core,
    experiments,
    generators,
    kernels,
    mesh,
    service,
    simulation,
    standing,
    workloads,
)
from .baselines import (
    LinearScanExecutor,
    LURTreeExecutor,
    QUTradeExecutor,
    ThrowawayOctreeExecutor,
)
from .cache import CacheStats, CachingStrategy, QueryResultCache
from .core import (
    CostModel,
    DeformationDelta,
    OctopusConExecutor,
    OctopusExecutor,
    QueryCounters,
    QueryResult,
    ResilientStrategy,
    StrategyWrapper,
    SurfaceIndex,
    TopologyDelta,
    calibrate_cost_model,
)
from .errors import (
    ConcurrencyError,
    DegradedExecutionError,
    DeltaValidationError,
    ExperimentError,
    FaultInjectionError,
    GeometryError,
    MeshConnectivityError,
    MeshError,
    QueryError,
    ReproError,
    SimulationError,
    SpatialIndexError,
    WorkloadError,
)
from .factory import build_strategy, make_strategy
from .mesh import Box3D, PolyhedralMesh, TetrahedralMesh
from .service import MeshShard, ShardedQueryService, partition_mesh
from .standing import (
    MembershipUpdate,
    StandingQueryRegistry,
    StandingStats,
    StandingStrategy,
)

__version__ = "1.0.0"

#: the public surface, ordered by layer (mesh substrate outward to the
#: experiment harness) and alphabetically within each layer; pinned by
#: tests/test_public_api.py so accidental surface growth fails CI
__all__ = [
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
    # core engine: deltas, results, executors, cost model
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
    # composition surface: wrappers, factory
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
]
