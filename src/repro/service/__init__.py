"""Sharded concurrent query service: partition, route, fan out, merge.

The production-shaped layer over the single-threaded query engine: the mesh
is cut into Hilbert-contiguous shards (:mod:`repro.service.partition`),
each served by its own execution strategy, behind a front-end that routes
boxes to the shards that can hold results, runs each shard's sub-batch on
the caller's thread and merges per-shard results
(:mod:`repro.service.service`).  A seeded mixed
query/deformation load generator (:mod:`repro.service.traffic`) drives it
for the throughput/latency benchmarks.  See ``docs/service.md``.
"""

from .partition import MeshShard, partition_mesh
from .service import ShardedQueryService
from .traffic import TRAFFIC_PROFILES, TrafficProfile, generate_requests, run_traffic

__all__ = [
    "TRAFFIC_PROFILES",
    "MeshShard",
    "ShardedQueryService",
    "TrafficProfile",
    "generate_requests",
    "partition_mesh",
    "run_traffic",
]
