"""Shared experiment plumbing.

The per-figure drivers in :mod:`repro.experiments.figures` all follow the same
recipe: pick a dataset, pick strategies, deform for N steps, issue the same
queries to every strategy, and summarise.  This module provides the two pieces
they share — the strategy factory mirroring the paper's comparison set
(Section V-A) and a thin wrapper around :class:`~repro.simulation.MeshSimulation`
that produces comparison rows ready for reporting.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core import ResilientStrategy
from ..core.executor import ExecutionStrategy
from ..errors import ExperimentError
from ..factory import build_strategy, make_strategy
from ..mesh import Box3D, PolyhedralMesh
from ..simulation import (
    AffineDeformation,
    DeformationModel,
    FaultPlan,
    FaultyBatchStrategy,
    LocalizedPulseDeformation,
    MeshSimulation,
    RandomWalkDeformation,
    SimulationReport,
    SinusoidalWaveDeformation,
    SpinePulsationDeformation,
    periodic_restructuring,
)
from ..workloads import QueryWorkload, random_query_workload, repeated_query_provider

__all__ = [
    "strategy_suite",
    "make_strategy",
    "build_strategy",
    "make_deformation",
    "run_comparison",
    "comparison_rows",
    "counts_rows",
    "sparse_maintenance_rows",
    "restructuring_maintenance_rows",
    "sparsity_sweep_rows",
    "degradation_rows",
    "fault_injection_rows",
    "cache_comparison_rows",
    "standing_steering_rows",
    "fixed_workload_provider",
    "per_step_workload_provider",
]

#: strategies compared in Figure 6, in the paper's order
PAPER_COMPARISON = ("octopus", "linear-scan", "octree", "lur-tree", "qu-trade")

#: the delta-aware strategies of the maintenance scenarios, with a throwaway
#: octree as the rebuild-everything yardstick
MAINTENANCE_COMPARISON = ("octopus", "octopus-con", "lur-tree", "qu-trade", "rum-tree", "octree")


def strategy_suite(names: Sequence[str] = PAPER_COMPARISON) -> list[ExecutionStrategy]:
    """Instantiate a list of strategies by name (defaults to the Figure 6 set)."""
    return [make_strategy(name) for name in names]


def make_deformation(name: str, *, sparsity: float = 0.05, **kwargs) -> DeformationModel:
    """Instantiate a deformation model by name.

    ``sparsity`` is the harness's sparse-workload knob: it parameterises the
    ``"localized-pulse"`` model (the fraction of vertices moving per step) and
    is ignored by the whole-mesh models, so sweep drivers can dial a scenario
    from "everything moves" (the paper's workload) down to "almost nothing
    moves" without special-casing the model construction.
    """
    factories: dict[str, Callable[..., DeformationModel]] = {
        "random-walk": RandomWalkDeformation,
        "wave": SinusoidalWaveDeformation,
        "pulsation": SpinePulsationDeformation,
        "affine": AffineDeformation,
        "localized-pulse": lambda **kw: LocalizedPulseDeformation(sparsity=sparsity, **kw),
    }
    try:
        factory = factories[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown deformation {name!r}; expected one of {sorted(factories)}"
        ) from exc
    return factory(**kwargs)


def fixed_workload_provider(workload: QueryWorkload | Sequence[Box3D]):
    """A query provider that issues the same boxes at every time step."""
    boxes = list(workload)

    def provider(mesh: PolyhedralMesh, step: int) -> list[Box3D]:
        return boxes

    return provider


def per_step_workload_provider(
    selectivity: float, queries_per_step: int, seed: int = 0
):
    """A query provider that draws fresh random queries of fixed selectivity each step."""

    def provider(mesh: PolyhedralMesh, step: int) -> list[Box3D]:
        workload = random_query_workload(
            mesh, selectivity=selectivity, n_queries=queries_per_step, seed=seed + 1000 * step
        )
        return workload.boxes

    return provider


def run_comparison(
    mesh: PolyhedralMesh,
    strategies: Sequence[ExecutionStrategy],
    deformation: DeformationModel,
    n_steps: int,
    query_provider,
    validate_results: bool = False,
    restructuring=None,
    fault_plan: FaultPlan | None = None,
) -> SimulationReport:
    """Run one simulation comparing the given strategies on identical queries.

    ``restructuring`` is the optional topology schedule (see
    :func:`repro.simulation.periodic_restructuring`); ``fault_plan`` the
    optional seeded corruption schedule (see :class:`repro.simulation.FaultPlan`).
    """
    simulation = MeshSimulation(
        mesh=mesh,
        deformation=deformation,
        strategies=strategies,
        query_provider=query_provider,
        restructuring=restructuring,
        validate_results=validate_results,
        fault_plan=fault_plan,
    )
    return simulation.run(n_steps)


def comparison_rows(report: SimulationReport, baseline: str = "linear-scan") -> list[dict]:
    """Flatten a simulation report into one comparison row per strategy.

    The speedup columns are computed against ``baseline`` (the linear scan in
    the paper) using both wall-clock response time and the machine-independent
    work counters.
    """
    if baseline not in report.strategies:
        raise ExperimentError(f"baseline {baseline!r} was not part of the comparison")
    reference = report.strategies[baseline]
    rows = []
    for name, strategy_report in report.strategies.items():
        ratios = strategy_report.ratios()
        rows.append(
            {
                "strategy": name,
                "response_time_s": strategy_report.total_response_time,
                "query_time_s": strategy_report.total_query_time,
                "maintenance_time_s": strategy_report.total_maintenance_time,
                "preprocessing_time_s": strategy_report.preprocessing_time,
                "memory_overhead_mb": strategy_report.memory_overhead_bytes / 1e6,
                "total_results": strategy_report.total_results,
                "total_work": strategy_report.total_work(),
                "speedup_vs_baseline_time": strategy_report.speedup_against(reference),
                "speedup_vs_baseline_work": strategy_report.speedup_against(reference, use_work=True),
                "crawl_work_sharing": ratios.get("core.crawl_sharing", 1.0),
                "walk_work_sharing": ratios.get("core.walk_sharing", 1.0),
            }
        )
    return rows


def counts_rows(report: SimulationReport, *prefixes: str) -> list[dict]:
    """One row per strategy: its query and maintenance time, counts and ratios.

    The counts are :attr:`~repro.simulation.StrategyReport.counts` and the
    ratios :meth:`~repro.simulation.StrategyReport.ratios` (keys listed in
    docs/architecture.md) whose key starts with one of ``prefixes``.  A key
    the strategy's stack never reported renders as ``-``, so "no cache"
    stays distinct from "cache, zero traffic".
    """
    values = {
        name: {
            key: value
            for key, value in {**strategy_report.counts, **strategy_report.ratios()}.items()
            if key.startswith(prefixes)
        }
        for name, strategy_report in report.strategies.items()
    }
    keys = list(dict.fromkeys(key for row in values.values() for key in row))
    return [
        {
            "strategy": name,
            "query_time_s": strategy_report.total_query_time,
            "maintenance_time_s": strategy_report.total_maintenance_time,
            **{key: values[name].get(key, "-") for key in keys},
        }
        for name, strategy_report in report.strategies.items()
    ]


def sparse_maintenance_rows(
    profile: str = "small",
    sparsity: float = 0.05,
    n_steps: int = 4,
    queries_per_step: int = 8,
    selectivity: float = 0.01,
    seed: int = 0,
) -> list[dict]:
    """The sparse-deformation scenario: localized motion, delta-keyed upkeep.

    Runs the :class:`~repro.simulation.LocalizedPulseDeformation` workload
    (``sparsity`` of the vertices moving per step, with rest steps) over
    :data:`MAINTENANCE_COMPARISON` — OCTOPUS, OCTOPUS-CON with its stale
    grid, the lazy/memo/grace-window R-trees, and a throwaway octree as the
    rebuild-everything yardstick — and returns the maintenance ledger, the
    ``simulation.*`` and ``maintenance.*`` :func:`counts_rows`, one per
    strategy.
    """
    from .datasets import neuron_largest

    mesh = neuron_largest(profile).copy()
    report = run_comparison(
        mesh,
        strategy_suite(MAINTENANCE_COMPARISON),
        make_deformation("localized-pulse", sparsity=sparsity, rest_every=4, seed=seed),
        n_steps=n_steps,
        query_provider=per_step_workload_provider(selectivity, queries_per_step, seed=seed),
    )
    return counts_rows(report, "simulation.", "maintenance.")


def restructuring_maintenance_rows(
    profile: str = "small",
    sparsity: float = 0.05,
    n_steps: int = 6,
    restructure_every: int = 2,
    cells_per_event: int = 8,
    queries_per_step: int = 8,
    selectivity: float = 0.01,
    seed: int = 0,
) -> list[dict]:
    """The restructuring scenario: topology deltas through ``on_restructure``.

    Runs a :class:`~repro.simulation.LocalizedPulseDeformation` workload with
    a :func:`~repro.simulation.periodic_restructuring` schedule (alternating
    localized splits and removals every ``restructure_every`` steps, so some
    restructurings land on zero-moved rest ticks) over the delta-aware
    strategy set (:data:`MAINTENANCE_COMPARISON`), and returns the
    maintenance ledger (the ``simulation.*`` and ``maintenance.*``
    :func:`counts_rows`) — one per strategy, with the
    restructuring counts populated.  OCTOPUS counts the handful of surface ids
    each event inserted or removed, OCTOPUS-CON's stale grid costs nothing,
    the updatable trees insert only the tail, and the throwaway octree shows
    the rebuild-everything yardstick.
    """
    from .datasets import neuron_largest

    mesh = neuron_largest(profile).copy()
    report = run_comparison(
        mesh,
        strategy_suite(MAINTENANCE_COMPARISON),
        make_deformation("localized-pulse", sparsity=sparsity, rest_every=4, seed=seed),
        n_steps=n_steps,
        query_provider=per_step_workload_provider(selectivity, queries_per_step, seed=seed),
        restructuring=periodic_restructuring(
            every=restructure_every, kind="mixed", n_cells=cells_per_event, seed=seed
        ),
    )
    return counts_rows(report, "simulation.", "maintenance.")


def sparsity_sweep_rows(
    profile: str = "small",
    sparsities: Sequence[float] = (0.01, 0.05, 0.2, 1.0),
    n_steps: int = 4,
    queries_per_step: int = 4,
    selectivity: float = 0.01,
    seed: int = 0,
) -> list[dict]:
    """Maintenance time vs. sparsity: the delta pipeline's headline curve.

    For each sparsity level the :class:`~repro.simulation.LocalizedPulseDeformation`
    workload is run over the delta-aware strategy set and the maintenance
    ledger (the ``simulation.*`` and ``maintenance.*`` :func:`counts_rows`) is
    collected; the returned rows carry a leading ``sparsity`` column, one row per (sparsity, strategy).  Plotting
    ``maintenance_time_s`` against ``sparsity`` shows the O(motion) vs.
    O(mesh) separation directly: delta-aware strategies' curves fall with the
    sparsity while rebuild-everything baselines stay flat (see
    ``docs/performance.md``).
    """
    from .datasets import neuron_largest

    rows: list[dict] = []
    for sparsity in sparsities:
        mesh = neuron_largest(profile).copy()
        report = run_comparison(
            mesh,
            strategy_suite(("octopus", "octopus-con", "lur-tree", "qu-trade", "octree")),
            make_deformation("localized-pulse", sparsity=sparsity, rest_every=4, seed=seed),
            n_steps=n_steps,
            query_provider=per_step_workload_provider(selectivity, queries_per_step, seed=seed),
        )
        for row in counts_rows(report, "simulation.", "maintenance."):
            rows.append({"sparsity": sparsity, **row})
    return rows


def degradation_rows(report: SimulationReport) -> list[dict]:
    """The degradation ledger: one row per recorded fallback event.

    Strategies wrapped in :class:`~repro.core.ResilientStrategy` record every
    descent down the degradation ladder (fused batch retried sequentially,
    quarantined deltas, failed queries answered by linear scan, full
    rebuilds); the simulator drains those events into each
    :class:`~repro.simulation.StrategyReport` and this function flattens them
    into rows — strategy, step, operation, ladder rung, and the classified
    reason — ordered by step then strategy.  Unwrapped strategies contribute
    nothing, so an empty table means the run never degraded.
    """
    rows = [
        {
            "strategy": name,
            "step": event.get("step"),
            "operation": event.get("operation"),
            "rung": event.get("rung"),
            "reason": event.get("reason"),
            "error": event.get("error"),
        }
        for name, strategy_report in report.strategies.items()
        for event in strategy_report.degradation_events
    ]
    rows.sort(key=lambda row: (row["step"] if row["step"] is not None else -1, row["strategy"]))
    return rows


#: chaos scenario mesh resolution per profile (vertices = resolution**3)
_FAULT_INJECTION_RESOLUTIONS = {"tiny": 6, "small": 9, "medium": 12}


def fault_injection_rows(
    profile: str = "small",
    seed: int = 7,
    n_steps: int = 8,
    probability: float = 0.6,
    sparsity: float = 0.05,
    amplitude: float = 0.02,
    queries_per_step: int = 4,
    selectivity: float = 0.02,
) -> list[dict]:
    """The chaos scenario: seeded corruption against the resilience layer.

    Runs a sparse :class:`~repro.simulation.LocalizedPulseDeformation`
    workload with a :class:`~repro.simulation.FaultPlan` corrupting the
    deltas the simulator hands out (truncated ids, wrong dirty boxes, NaN
    positions, mid-batch exceptions via
    :class:`~repro.simulation.FaultyBatchStrategy`).  Every strategy except
    the linear-scan reference is wrapped in a paranoid
    :class:`~repro.core.ResilientStrategy`, and ``validate_results=True``
    asserts the recovered answers stay bit-identical to the scan of the live
    positions — the run only completes if every injected fault was absorbed.
    Returns the degradation ledger (:func:`degradation_rows`): the fallbacks
    the faults actually forced.

    The scenario runs on a convex structured cube with a gentle pulse
    amplitude: OCTOPUS-CON's single-seed crawl is only exact on convex
    meshes, and large Gaussian kicks can disconnect a box's in-box subgraph,
    which breaks *any* crawl-based strategy's completeness (see
    :class:`~repro.simulation.LocalizedPulseDeformation`).  Chaos runs must
    isolate injected faults from those pre-existing geometric limits.
    """
    from ..generators import structured_tetrahedral_mesh

    try:
        resolution = _FAULT_INJECTION_RESOLUTIONS[profile]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown dataset profile {profile!r}; expected one of "
            f"{sorted(_FAULT_INJECTION_RESOLUTIONS)}"
        ) from exc
    mesh = structured_tetrahedral_mesh((resolution, resolution, resolution))
    plan = FaultPlan(seed=seed, probability=probability)
    strategies: list[ExecutionStrategy] = [
        make_strategy("linear-scan"),  # the live-position reference; deliberately unwrapped
        ResilientStrategy(FaultyBatchStrategy(make_strategy("octopus"), plan), paranoid=True),
        ResilientStrategy(make_strategy("octopus-con"), paranoid=True),
        ResilientStrategy(make_strategy("lur-tree"), paranoid=True),
    ]
    report = run_comparison(
        mesh,
        strategies,
        make_deformation("localized-pulse", sparsity=sparsity, amplitude=amplitude, seed=seed),
        n_steps=n_steps,
        query_provider=per_step_workload_provider(selectivity, queries_per_step, seed=seed),
        validate_results=True,
        fault_plan=plan,
    )
    return degradation_rows(report)


def cache_comparison_rows(
    profile: str = "small",
    repoll_fraction: float = 0.9,
    n_steps: int = 6,
    queries_per_step: int = 8,
    selectivity: float = 0.005,
    sparsity: float = 0.02,
    seed: int = 0,
) -> list[dict]:
    """The repeated-query caching scenario: re-polling clients, sparse motion.

    Runs a :func:`~repro.workloads.repeated_query_provider` workload (clients
    re-issue ``repoll_fraction`` of their boxes each step) under a sparse
    :class:`~repro.simulation.LocalizedPulseDeformation` with rest steps, over
    fresh and ``caching=True``-wrapped variants of OCTOPUS and the LUR-tree.
    ``validate_results=True`` asserts cached answers stay bit-identical to
    fresh execution while the run measures them; returns the cache ledger
    (the ``cache.*`` :func:`counts_rows`).  The full reuse-sensitivity sweep with regression
    floors lives in ``benchmarks/bench_cache.py``.
    """
    from .datasets import neuron_largest

    mesh = neuron_largest(profile).copy()
    strategies = [
        make_strategy("octopus"),
        build_strategy("octopus", caching=True),
        make_strategy("lur-tree"),
        build_strategy("lur-tree", caching=True),
    ]
    report = run_comparison(
        mesh,
        strategies,
        make_deformation("localized-pulse", sparsity=sparsity, rest_every=2, seed=seed),
        n_steps=n_steps,
        query_provider=repeated_query_provider(
            selectivity, queries_per_step, repoll_fraction, seed=seed
        ),
        validate_results=True,
    )
    return counts_rows(report, "cache.")


def standing_steering_rows(
    profile: str = "small",
    n_subscriptions: int = 12,
    n_steps: int = 8,
    selectivity: float = 0.005,
    sparsity: float = 0.02,
    seed: int = 0,
) -> list[dict]:
    """The standing-query steering scenario: watched regions, sparse motion.

    Subscribes a :func:`~repro.workloads.subscription_steering` schedule's
    watch boxes on standing-wrapped variants of OCTOPUS and the LUR-tree
    (plain variants run alongside as the no-registry baseline), deforms with
    a sparse :class:`~repro.simulation.LocalizedPulseDeformation`, and
    returns the standing ledger (the ``standing.*`` :func:`counts_rows`).
    The incremental
    vs naive re-query comparison with regression floors lives in
    ``benchmarks/bench_standing.py``.
    """
    from ..workloads import subscription_steering
    from .datasets import neuron_largest

    mesh = neuron_largest(profile).copy()
    schedule = subscription_steering(
        mesh,
        n_subscriptions=n_subscriptions,
        n_steps=n_steps,
        selectivity=selectivity,
        seed=seed,
    )
    boxes = list(schedule.initial_boxes)
    strategies = [
        make_strategy("octopus"),
        build_strategy("octopus", standing=boxes),
        make_strategy("lur-tree"),
        build_strategy("lur-tree", standing=boxes),
    ]
    report = run_comparison(
        mesh,
        strategies,
        make_deformation("localized-pulse", sparsity=sparsity, rest_every=2, seed=seed),
        n_steps=n_steps,
        query_provider=per_step_workload_provider(selectivity, 2, seed=seed),
        validate_results=True,
    )
    return counts_rows(report, "standing.")


def traffic_rows(profile: str = "small") -> list[dict]:
    """Sharded-service traffic cells: throughput and latency per configuration.

    Replays the seeded mixed query/deformation workload from
    :mod:`repro.service.traffic` against the sequential baseline and the
    sharded service (see ``docs/service.md``), one row per
    ``(strategy, shard-count, client-count)`` cell.  The full benchmark grid
    with regression floors lives in ``benchmarks/bench_traffic.py``; this is
    the quick CLI view of the same cells.
    """
    from ..experiments.datasets import neuron_largest
    from ..service import TRAFFIC_PROFILES, run_traffic

    traffic_profile = TRAFFIC_PROFILES.get(profile, TRAFFIC_PROFILES["small"])
    mesh = neuron_largest(profile)
    rows = []
    for n_shards, n_clients in ((0, 1), (4, 1), (4, 4)):
        cell = run_traffic(
            mesh, traffic_profile, n_shards=n_shards, n_clients=n_clients
        )
        rows.append(
            {
                "strategy": cell["strategy"],
                "n_shards": cell["n_shards"],
                "n_clients": cell["n_clients"],
                "throughput_qps": round(cell["throughput_qps"], 1),
                "p50_ms": round(cell["p50_ms"], 3),
                "p99_ms": round(cell["p99_ms"], 3),
                "maintenance_s": round(cell["maintenance_s"], 4),
            }
        )
    return rows
