"""Result-cache benchmark: reuse sensitivity of the delta-invalidated cache.

Replays session-style query workloads against fresh and ``caching=True``
variants of the same strategy (see ``repro.cache`` and docs/caching.md) and
records, per cell, the cache traffic (hits/misses/invalidations) and the
wall-clock speedup of the cached variant over the fresh one:

* the **reuse-sensitivity sweep** runs the repeated-query workload
  (``repro.workloads.repeated_query_provider``) at re-poll fractions from
  0.0 (every box fresh — the cache can only miss) up to 1.0 (every client
  re-polls the same box each step), under a sparse localized-pulse
  deformation with rest steps so the delta invalidation has both quiet
  ticks (entries survive) and dirty ticks (overlapping entries drop);
* the **zoomed-session scenario** runs ``zoomed_session_provider`` — clients
  dwell on a box for a few steps, then zoom in — the box-reuse pattern the
  cache is built for when selectivities shrink mid-session.

Every cell starts with a ``validate_results=True`` run holding both
variants: the simulator compares each cached answer bit-for-bit against the
fresh strategy's answer for the same box on the same step, so a completed
validation run *is* the parity proof — a cache that ever served a stale
result records a parity failure before any speedup is measured.  Timing
then comes from separate solo runs per variant over the identical seeded
workload (see ``_run_cell`` for why a shared run would skew the numbers).

Run it directly::

    REPRO_BENCH_PROFILE=tiny python benchmarks/bench_cache.py

CI regression gate: when ``REPRO_BENCH_FLOORS`` is set (comma-separated
``name=minimum`` pairs), the run fails if a gated value drops below its
floor.  Gates: ``cache_hit_speedup`` (steady-state wall-clock query-time
speedup of the cached strategy at the headline 1.0 re-poll fraction,
excluding the lazy-index warm-up step that dominates both variants
identically), ``cache_parity`` (1.0 iff every cell completed its
bit-identical validation), and ``repeated_hit_rate`` (hit rate of the
headline cell).
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
from repro.errors import SimulationError  # noqa: E402
from repro.experiments.datasets import neuron_largest  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    build_strategy,
    make_deformation,
    make_strategy,
    run_comparison,
)
from repro.workloads import repeated_query_provider, zoomed_session_provider  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_cache.json"

#: re-poll fractions of the reuse-sensitivity sweep (1.0 is the headline
#: cell: with every client re-polling, the measured speedup is the hit
#: path's capacity rather than a mix diluted by miss traffic)
REPOLL_FRACTIONS = (0.0, 0.5, 0.9, 1.0)
HEADLINE_REPOLL = 1.0
#: shared scenario knobs (mirrors repro.experiments.harness.cache_comparison_rows)
N_STEPS = 6
QUERIES_PER_STEP = 8
SELECTIVITY = 0.005
SPARSITY = 0.02
SEED = 0
#: gate name -> what it reads from the record (quoted in floor violations)
FLOOR_SCENARIOS = {
    "cache_hit_speedup": (
        "cached-octopus steady-state query-time speedup vs fresh at repoll=1.0 "
        "(steps after the lazy-index warm-up step)"
    ),
    "cache_parity": "1.0 iff every cell passed bit-identical cached-vs-fresh validation",
    "repeated_hit_rate": "cached-octopus hit rate at repoll=1.0",
}


def _run_cell(mesh, make_provider, scenario: str, **extra) -> dict:
    """One fresh-vs-cached comparison cell under bit-identical validation.

    Timing and parity come from *separate* runs: in a shared simulation the
    first strategy of every step touches the freshly-deformed position
    arrays cold while later strategies ride warm CPU caches (measured at
    ~4-5x on the tiny profile), so a shared run would credit the cache with
    speedup it did not earn.  Each variant is therefore timed in its own
    solo simulation over the identical seeded workload, and a third,
    untimed run holds both variants with ``validate_results=True`` so every
    cached answer is still checked bit-for-bit against fresh execution.
    ``make_provider`` builds a fresh (stateful) query provider per run.
    """

    def simulate(strategies, validate):
        return run_comparison(
            mesh.copy(),
            strategies,
            make_deformation("localized-pulse", sparsity=SPARSITY, rest_every=2, seed=SEED),
            n_steps=N_STEPS,
            query_provider=make_provider(),
            validate_results=validate,
        )

    try:
        simulate(
            [make_strategy("octopus"), build_strategy("octopus", caching=True)], validate=True
        )
    except SimulationError:
        # a cached answer deviated from fresh execution: record the parity
        # failure instead of crashing, so the gate (and CI) reports it
        return {"scenario": scenario, **extra, "parity": 0.0}
    fresh_report = simulate([make_strategy("octopus")], validate=False)
    cached_report = simulate([build_strategy("octopus", caching=True)], validate=False)
    fresh = fresh_report.strategies["octopus"]
    cached = cached_report.strategies["cached-octopus"]
    # steady state drops the first step: OCTOPUS builds its index lazily on
    # the first query, so step 1 carries a one-time cost that dominates both
    # variants identically and would swamp the caching effect being measured
    fresh_steady = sum(record.query_time for record in fresh.steps[1:])
    cached_steady = sum(record.query_time for record in cached.steps[1:])
    return {
        "scenario": scenario,
        **extra,
        "parity": 1.0,
        "cache_hits": cached.counts["cache.hits"],
        "cache_misses": cached.counts["cache.misses"],
        "hit_rate": cached.ratios()["cache.hit_rate"],
        "invalidations": cached.counts["cache.invalidations"],
        "flushes": cached.counts["cache.flushes"],
        "fresh_query_time_s": fresh.total_query_time,
        "cached_query_time_s": cached.total_query_time,
        "speedup_vs_fresh": fresh.total_query_time / max(cached.total_query_time, 1e-12),
        "steady_fresh_query_time_s": fresh_steady,
        "steady_cached_query_time_s": cached_steady,
        "steady_speedup_vs_fresh": fresh_steady / max(cached_steady, 1e-12),
    }


def run(profile: str | None = None) -> dict:
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "small")
    mesh = neuron_largest(profile)

    cells = []
    for repoll in REPOLL_FRACTIONS:
        cells.append(
            _run_cell(
                mesh,
                lambda repoll=repoll: repeated_query_provider(
                    SELECTIVITY, QUERIES_PER_STEP, repoll_fraction=repoll, seed=SEED
                ),
                scenario="repeated",
                repoll_fraction=repoll,
            )
        )
    cells.append(
        _run_cell(
            mesh,
            lambda: zoomed_session_provider(
                SELECTIVITY, n_clients=QUERIES_PER_STEP, dwell=3, seed=SEED
            ),
            scenario="zoomed",
            repoll_fraction=None,
        )
    )

    parity_ok = all(cell["parity"] == 1.0 for cell in cells)
    headline = next(
        cell
        for cell in cells
        if cell["scenario"] == "repeated" and cell["repoll_fraction"] == HEADLINE_REPOLL
    )
    return {
        "benchmark": "cache",
        "profile": profile,
        "mesh_vertices": mesh.n_vertices,
        "workload": {
            "n_steps": N_STEPS,
            "queries_per_step": QUERIES_PER_STEP,
            "selectivity": SELECTIVITY,
            "sparsity": SPARSITY,
            "repoll_fractions": list(REPOLL_FRACTIONS),
            "seed": SEED,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "gates": {
            "cache_hit_speedup": headline.get("steady_speedup_vs_fresh", 0.0),
            "cache_parity": 1.0 if parity_ok else 0.0,
            "repeated_hit_rate": headline.get("hit_rate", 0.0),
        },
    }


def _print_record(record: dict) -> None:
    print(
        f"profile={record['profile']}  mesh_vertices={record['mesh_vertices']}  "
        f"steps={record['workload']['n_steps']}  "
        f"queries/step={record['workload']['queries_per_step']}"
    )
    for cell in record["cells"]:
        repoll = cell["repoll_fraction"]
        label = f"repoll={repoll:.1f}" if repoll is not None else "zoomed   "
        if cell["parity"] != 1.0:
            print(f"{cell['scenario']:>9} {label}  PARITY FAILURE")
            continue
        print(
            f"{cell['scenario']:>9} {label}  "
            f"hits {cell['cache_hits']:4d}  misses {cell['cache_misses']:4d}  "
            f"hit_rate {cell['hit_rate']:.2f}  inval {cell['invalidations']:4d}  "
            f"({cell['steady_speedup_vs_fresh']:.2f}x steady, "
            f"{cell['speedup_vs_fresh']:.2f}x total vs fresh)"
        )
    gates = record["gates"]
    print(
        f"gates: cache_hit_speedup={gates['cache_hit_speedup']:.2f}  "
        f"cache_parity={gates['cache_parity']:.0f}  "
        f"repeated_hit_rate={gates['repeated_hit_rate']:.2f}"
    )


def main() -> int:
    record = run()
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _print_record(record)
    print(f"record written to {RECORD_PATH}")
    return 1 if check_floors(record["gates"], FLOOR_SCENARIOS) else 0


if __name__ == "__main__":
    sys.exit(main())
