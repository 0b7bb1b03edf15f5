"""Standing-query benchmark: incremental subscriptions vs naive re-querying.

Replays a seeded subscription-steering workload
(``repro.workloads.subscription_steering``) under a sparse localized-pulse
deformation and measures, per cell, how much cheaper keeping every
subscription current is with the delta-incremental
:class:`~repro.standing.StandingQueryRegistry` than with the naive
alternative — re-querying every subscribed box through the strategy on
every tick and diffing against the previous answer:

* the **watch** cell (headline) never changes the subscription set after
  start-up: clients subscribe once and watch, the regime standing queries
  exist for;
* the **steer** cell re-steers one client per step to a fresh box, so the
  subscribe/unsubscribe churn path is exercised alongside the ticks.

Both evaluation modes replay the *identical* schedule and the identical
seeded deformation in separate solo runs (a shared run would let the second
mode ride warm CPU caches), each driving its own strategy instance.  Every
cell first checks parity: after every tick the per-subscription memberships
of the incremental run must be bit-identical to the naive run's, so the
recorded speedup is only ever claimed for equivalent answers.  Timing
isolates the per-tick evaluation work (registry tick vs re-query-and-diff);
base strategy maintenance is identical in both modes and excluded.  Steady
state drops step 1, which carries the strategies' lazy-index warm-up.

Run it directly::

    REPRO_BENCH_PROFILE=tiny python benchmarks/bench_standing.py

CI regression gate: when ``REPRO_BENCH_FLOORS`` is set (comma-separated
``name=minimum`` pairs), the run fails if a gated value drops below its
floor.  Gates: ``standing_speedup`` (steady-state naive / incremental
evaluation time of the headline watch cell) and ``standing_parity`` (1.0
iff every cell's membership streams were bit-identical).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from floors import check_floors  # noqa: E402
from repro.experiments.datasets import neuron_largest  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    build_strategy,
    make_deformation,
)
from repro.standing import StandingQueryRegistry  # noqa: E402
from repro.workloads import subscription_steering  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_standing.json"

#: shared scenario knobs (mirrors repro.experiments.harness.standing_steering_rows)
N_STEPS = 8
N_SUBSCRIPTIONS = 16
SELECTIVITY = 0.005
SPARSITY = 0.02
SEED = 0
#: (cell name, re-steers per step); "watch" is the headline cell
CELLS = (("watch", 0), ("steer", 1))
HEADLINE_CELL = "watch"
#: gate name -> what it reads from the record (quoted in floor violations)
FLOOR_SCENARIOS = {
    "standing_speedup": (
        "steady-state naive / incremental per-tick evaluation time of the "
        "watch cell (steps after the lazy-index warm-up step)"
    ),
    "standing_parity": (
        "1.0 iff every cell's incremental membership stream was bit-identical "
        "to naive per-tick re-querying"
    ),
}


def _solo_run(mode: str, mesh, schedule) -> dict:
    """Replay the schedule in one evaluation mode; returns times + memberships.

    ``mode`` is ``"incremental"`` (a :class:`StandingQueryRegistry` ticked
    with the deformation deltas) or ``"naive"`` (every subscribed box
    re-queried through the strategy each step, memberships diffed by hand).
    The per-step membership snapshots ``{slot: ids}`` are returned so the
    caller can assert the two modes are bit-identical before timing is
    trusted.
    """
    mesh = mesh.copy()
    strategy = build_strategy("octopus")
    strategy.prepare(mesh)
    deformation = make_deformation(
        "localized-pulse", sparsity=SPARSITY, rest_every=2, seed=SEED
    )
    deformation.bind(mesh)

    def query_ids(box):
        return strategy.query(box).vertex_ids

    if mode == "incremental":
        registry = StandingQueryRegistry()
        subscribe = lambda box: registry.subscribe(box, query_ids)  # noqa: E731
        unsubscribe = registry.unsubscribe
    else:
        memberships: dict[int, np.ndarray] = {}
        boxes_by_sid: dict[int, object] = {}
        next_sid = [0]

        def subscribe(box):
            sid = next_sid[0]
            next_sid[0] += 1
            boxes_by_sid[sid] = box
            memberships[sid] = query_ids(box)
            return sid

        def unsubscribe(sid):
            del memberships[sid]
            del boxes_by_sid[sid]

    live = schedule.start(subscribe)
    step_times: list[float] = []
    snapshots: list[dict[int, np.ndarray]] = []
    for step in range(1, schedule.n_steps + 1):
        schedule.apply(step, subscribe, unsubscribe, live)
        delta = deformation.apply(step)
        strategy.on_step(delta)
        start = time.perf_counter()
        if mode == "incremental":
            registry.tick_deformation(delta, query_ids, step=step)
        else:
            # the naive client: re-run every standing box, diff by hand
            for sid, box in boxes_by_sid.items():
                current = query_ids(box)
                previous = memberships[sid]
                np.setdiff1d(current, previous, assume_unique=True)
                np.setdiff1d(previous, current, assume_unique=True)
                memberships[sid] = current
        step_times.append(time.perf_counter() - start)
        if mode == "incremental":
            snapshot = {
                slot: registry.membership(sid) for slot, sid in live.items()
            }
        else:
            snapshot = {slot: memberships[sid] for slot, sid in live.items()}
        snapshots.append(snapshot)
    result = {"step_times": step_times, "snapshots": snapshots}
    if mode == "incremental":
        result["stats"] = registry.drain_stats().as_dict()
        result["n_update_events"] = len(registry.drain_updates())
    return result


def _run_cell(mesh, name: str, resteer_per_step: int) -> dict:
    schedule = subscription_steering(
        mesh,
        n_subscriptions=N_SUBSCRIPTIONS,
        n_steps=N_STEPS,
        selectivity=SELECTIVITY,
        resteer_per_step=resteer_per_step,
        seed=SEED,
    )
    incremental = _solo_run("incremental", mesh, schedule)
    naive = _solo_run("naive", mesh, schedule)
    parity = all(
        set(inc) == set(nav)
        and all(np.array_equal(inc[slot], nav[slot]) for slot in inc)
        for inc, nav in zip(incremental["snapshots"], naive["snapshots"])
    )
    if not parity:
        # a diverged membership stream: record the failure instead of
        # crashing, so the gate (and CI) reports it
        return {"cell": name, "resteer_per_step": resteer_per_step, "parity": 0.0}
    # steady state drops step 1 (lazy-index warm-up dominates both modes)
    incremental_steady = sum(incremental["step_times"][1:])
    naive_steady = sum(naive["step_times"][1:])
    stats = incremental["stats"]
    return {
        "cell": name,
        "resteer_per_step": resteer_per_step,
        "parity": 1.0,
        "n_subscriptions": schedule.n_subscriptions,
        "n_update_events": incremental["n_update_events"],
        "skips": stats["skips"],
        "touched": stats["touched"],
        "recrawls": stats["recrawls"],
        "moved_tests": stats["moved_tests"],
        "incremental_eval_time_s": sum(incremental["step_times"]),
        "naive_eval_time_s": sum(naive["step_times"]),
        "speedup_vs_naive": (
            sum(naive["step_times"]) / max(sum(incremental["step_times"]), 1e-12)
        ),
        "steady_incremental_eval_time_s": incremental_steady,
        "steady_naive_eval_time_s": naive_steady,
        "steady_speedup_vs_naive": naive_steady / max(incremental_steady, 1e-12),
    }


def run(profile: str | None = None) -> dict:
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "small")
    mesh = neuron_largest(profile)

    cells = [_run_cell(mesh, name, resteer) for name, resteer in CELLS]
    parity_ok = all(cell["parity"] == 1.0 for cell in cells)
    headline = next(cell for cell in cells if cell["cell"] == HEADLINE_CELL)
    return {
        "benchmark": "standing",
        "profile": profile,
        "mesh_vertices": mesh.n_vertices,
        "workload": {
            "n_steps": N_STEPS,
            "n_subscriptions": N_SUBSCRIPTIONS,
            "selectivity": SELECTIVITY,
            "sparsity": SPARSITY,
            "cells": [{"cell": name, "resteer_per_step": r} for name, r in CELLS],
            "seed": SEED,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "gates": {
            "standing_speedup": headline.get("steady_speedup_vs_naive", 0.0),
            "standing_parity": 1.0 if parity_ok else 0.0,
        },
    }


def _print_record(record: dict) -> None:
    print(
        f"profile={record['profile']}  mesh_vertices={record['mesh_vertices']}  "
        f"steps={record['workload']['n_steps']}  "
        f"subscriptions={record['workload']['n_subscriptions']}"
    )
    for cell in record["cells"]:
        if cell["parity"] != 1.0:
            print(f"{cell['cell']:>6}  PARITY FAILURE")
            continue
        print(
            f"{cell['cell']:>6} resteer={cell['resteer_per_step']}  "
            f"updates {cell['n_update_events']:4d}  skips {cell['skips']:4d}  "
            f"recrawls {cell['recrawls']:3d}  moved_tests {cell['moved_tests']:6d}  "
            f"({cell['steady_speedup_vs_naive']:.2f}x steady, "
            f"{cell['speedup_vs_naive']:.2f}x total vs naive)"
        )
    gates = record["gates"]
    print(
        f"gates: standing_speedup={gates['standing_speedup']:.2f}  "
        f"standing_parity={gates['standing_parity']:.0f}"
    )


def main() -> int:
    record = run()
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _print_record(record)
    print(f"record written to {RECORD_PATH}")
    return 1 if check_floors(record["gates"], FLOOR_SCENARIOS) else 0


if __name__ == "__main__":
    sys.exit(main())
