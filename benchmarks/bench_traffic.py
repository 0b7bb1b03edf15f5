"""Traffic benchmark for the sharded concurrent query service.

Replays a seeded mixed query/deformation workload (``repro.service.traffic``)
against a grid of ``(strategy, shard-count, client-count)`` cells and
records, per cell, sustained throughput (queries/s over the query phase),
request latency (p50/p99) and an order-independent results checksum:

* ``n_shards=0`` — the **sequential baseline**: one unsharded strategy
  answering every request in arrival order on a single thread;
* ``n_shards=K, n_clients=C`` — the sharded service, K per-shard strategies
  behind the routing/merge front-end, hammered by C client threads.

Cells that share a shard count must agree on the results checksum — the
concurrency-parity gate: threads may reorder *requests*, never *results*.
Cells with different shard counts are compared for throughput only (shard
cut faces let the service retrieve rare in-box vertices the unsharded crawl
has no seed for, so cross-shard-count runs are not bit-comparable; see
docs/service.md).

The recorded ``speedup_vs_sequential`` is wall-clock and therefore
hardware-honest: client threads only run in parallel where cores exist, and
the GIL serialises the pure-Python crawl rounds even then — the record keeps
``cpu_count`` next to the numbers so a single-core container's ~1x is not
mistaken for a regression.  Run it directly::

    REPRO_BENCH_PROFILE=tiny python benchmarks/bench_traffic.py

CI regression gate: when ``REPRO_BENCH_FLOORS`` is set (comma-separated
``name=minimum`` pairs), the run fails if a gated value drops below its
floor.  Gates: ``traffic_qps`` (absolute queries/s of the sharded 4-shard
cell), ``traffic_parity`` (1.0 when every same-shard-count checksum pair
agrees), ``traffic_speedup`` (the sharded cell's wall-clock speedup vs. the
sequential baseline — only worth gating ≥1 on multi-core runners).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from floors import check_floors  # noqa: E402
from repro.experiments.datasets import neuron_largest  # noqa: E402
from repro.service import TRAFFIC_PROFILES, run_traffic  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_traffic.json"

REPS = 2
#: the benchmark grid: (strategy, n_shards [0 = sequential baseline], n_clients)
CELLS = [
    ("octopus", 0, 1),
    ("octopus", 1, 1),
    ("octopus", 4, 1),
    ("octopus", 4, 4),
    ("octopus-con", 0, 1),
    ("octopus-con", 4, 4),
]
#: gate name -> what it reads from the record (quoted in floor violations)
FLOOR_SCENARIOS = {
    "traffic_qps": "sharded-octopus 4-shard/4-client throughput (queries/s)",
    "traffic_parity": "1.0 iff same-shard-count cells agree on the results checksum",
    "traffic_speedup": "sharded-octopus 4/4 wall-clock speedup vs the sequential baseline",
}


def _run_cell(mesh, traffic_profile, strategy, n_shards, n_clients) -> dict:
    """Best-of-REPS run of one cell (throughput is max, latencies from that run)."""
    best = None
    for _ in range(REPS):
        cell = run_traffic(
            mesh, traffic_profile, n_shards=n_shards, n_clients=n_clients, strategy=strategy
        )
        if best is None or cell["throughput_qps"] > best["throughput_qps"]:
            best = cell
    return best


def run(profile: str | None = None) -> dict:
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "small")
    traffic_profile = TRAFFIC_PROFILES.get(profile, TRAFFIC_PROFILES["small"])
    mesh = neuron_largest(profile)

    cells = []
    for strategy, n_shards, n_clients in CELLS:
        cell = _run_cell(mesh, traffic_profile, strategy, n_shards, n_clients)
        cells.append(cell)

    # wall-clock speedup of every cell against its strategy's sequential baseline
    baselines = {
        cell["strategy"].removeprefix("sequential-"): cell["throughput_qps"]
        for cell in cells
        if cell["n_shards"] == 0
    }
    for cell in cells:
        strategy = cell["strategy"].split("-", 1)[1]
        baseline_qps = baselines.get(strategy)
        cell["speedup_vs_sequential"] = (
            cell["throughput_qps"] / baseline_qps if baseline_qps else 0.0
        )

    # concurrency parity: same shard count => bit-identical results, no matter
    # how many client threads carved up the request stream
    parity_ok = True
    by_key: dict[tuple[str, int], set[int]] = {}
    for cell in cells:
        strategy = cell["strategy"].split("-", 1)[1]
        by_key.setdefault((strategy, cell["n_shards"]), set()).add(cell["results_checksum"])
    for checksums in by_key.values():
        parity_ok = parity_ok and len(checksums) == 1

    headline = next(
        cell
        for cell in cells
        if cell["strategy"] == "sharded-octopus"
        and cell["n_shards"] == max(c["n_shards"] for c in cells)
        and cell["n_clients"] == max(c["n_clients"] for c in cells)
    )
    return {
        "benchmark": "traffic",
        "profile": profile,
        "mesh_vertices": mesh.n_vertices,
        "traffic": {
            "n_steps": traffic_profile.n_steps,
            "n_clients": traffic_profile.n_clients,
            "requests_per_client": traffic_profile.requests_per_client,
            "queries_per_request": traffic_profile.queries_per_request,
            "selectivity": traffic_profile.selectivity,
            "seed": traffic_profile.seed,
            "total_queries": traffic_profile.total_queries(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "reps": REPS,
        "cells": cells,
        "gates": {
            "traffic_qps": headline["throughput_qps"],
            "traffic_parity": 1.0 if parity_ok else 0.0,
            "traffic_speedup": headline["speedup_vs_sequential"],
        },
    }


def _print_record(record: dict) -> None:
    print(
        f"profile={record['profile']}  mesh_vertices={record['mesh_vertices']}  "
        f"cpu_count={record['cpu_count']}  queries/cell={record['traffic']['total_queries']}"
    )
    for cell in record["cells"]:
        print(
            f"{cell['strategy']:>22}  K={cell['n_shards']}  C={cell['n_clients']}  "
            f"{cell['throughput_qps']:8.0f} q/s  p50 {cell['p50_ms']:6.2f} ms  "
            f"p99 {cell['p99_ms']:6.2f} ms  ({cell['speedup_vs_sequential']:.2f}x vs sequential)"
        )
    gates = record["gates"]
    print(
        f"gates: traffic_qps={gates['traffic_qps']:.0f}  "
        f"traffic_parity={gates['traffic_parity']:.0f}  "
        f"traffic_speedup={gates['traffic_speedup']:.2f}"
    )


def main() -> int:
    record = run()
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _print_record(record)
    print(f"record written to {RECORD_PATH}")
    return 1 if check_floors(record["gates"], FLOOR_SCENARIOS) else 0


if __name__ == "__main__":
    sys.exit(main())
