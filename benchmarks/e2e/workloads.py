"""The four workloads and the end-to-end metrics they report.

Every workload runs *episodes*: it loads its mesh cold from ``.npz``, builds
the stack, prepares it (set-up), then drives it through the same seeded
inputs — the first operation on the cold stack timed on its own — and tears
it down.  Episodes repeat while the next one is expected to end within
``--seconds`` (at least :attr:`~inputs.Scale.min_episodes` of them), so
every number is taken over several cold starts (see :func:`end_to_end`).
All callers are closed loop: each waits for its reply before sending the
next operation.

* ``monitor`` — the paper's Figure 1(e) loop with the Figure 5 A-D query mix
  on a neuron under a smooth whole-mesh wave.  OCTOPUS does no per-step
  maintenance, so probe, walk and crawl dominate; cache, maintenance and
  service changes should leave it unchanged.
* ``churn`` — a smaller neuron under the same wave with a mixed split/remove
  of a few cells every tenth step and few queries, through the paranoid
  resilience ladder.  Every restructure drops the adjacency and the surface,
  so connectivity rebuilds dominate and query kernels barely show.
* ``serve`` — the sharded service with per-shard result caches, standing
  subscriptions and two client threads: one ticks a sparse travelling bump
  before each request, the other only reads.  Requests re-poll half of the
  client's previous boxes and draw the rest from a pool larger than the
  caches.  The only workload that exercises routing, fan-out and merge, the
  cache, standing ticks and the read-write lock under a concurrent writer.
* ``cold-open`` — opens several meshes (two neurons and the convex basin),
  answers one Figure 5 step on each and a few more; set-up and first-call
  lazy builds dominate, so moving or cheapening one-time work shows here
  and steady-state speed-ups barely do.

Every answer is checked outside the timed window against the expected
answers of :mod:`inputs` (computed by :mod:`oracle`).
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import Box3D, OctopusExecutor, ShardedQueryService, build_strategy
from repro.mesh import io as mesh_io

from . import inputs as inp
from .oracle import chain, digest, moved_answer
from .tracer import Tracer, layer_metrics

WORKLOADS = ("monitor", "churn", "serve", "cold-open")
DEFAULT_CACHE = Path(__file__).resolve().parent / ".cache"

now = time.perf_counter


@dataclass
class Episode:
    """What one cold start and its operations measured."""

    setup_s: float = 0.0
    first_step_s: float = 0.0
    steps_s: list[float] = field(default_factory=list)
    requests_s: list[float] = field(default_factory=list)
    total_response_s: float = 0.0
    queries: int = 0
    query_time_s: float = 0.0
    index_bytes: int = 0
    counters: dict[str, float] = field(default_factory=dict)


class Checker:
    """Answer bookkeeping: attempted, failed, and an order-sensitive checksum."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checksum = 0
        self.notes: list[str] = []

    def check(self, results, expected: np.ndarray, where: str) -> None:
        """Compare one batch with its expected digests (``results`` None = raised)."""
        self.attempted += len(expected)
        if results is None:
            self.failed += len(expected)
            return
        for index, (result, want) in enumerate(zip(results, expected)):
            got = digest(result.vertex_ids)
            self.checksum = chain(self.checksum, got)
            if not result.complete or got != int(want):
                self.failed += 1
                self.notes.append(f"{where} box {index}: answer differs from the oracle")

    def raised(self, where: str) -> None:
        self.notes.append(f"{where} raised:\n{traceback.format_exc()}")


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name, root=True) if tracer is not None else nullcontext()


def _count_fallbacks(strategy, episode: Episode) -> None:
    drain = getattr(strategy, "drain_degradation_events", None)
    if drain is not None:
        episode.counters["fallbacks"] = episode.counters.get("fallbacks", 0) + len(drain())


# ----------------------------------------------------------------------
# wave-driven workloads: monitor, churn, cold-open
# ----------------------------------------------------------------------
def _wave_run(cache: Path, data: dict, mesh_spec, build, tracer, episode: Episode,
              checker: Checker, restructuring=None, prefix: str = "") -> None:
    """Cold-start one stack and drive it through the input's wave steps."""
    los, his = data[prefix + "los"], data[prefix + "his"]
    digests, offsets = data[prefix + "digests"], data[prefix + "offsets"]
    batches = [
        ([Box3D(los[i], his[i]) for i in range(offsets[s], offsets[s + 1])],
         digests[offsets[s]:offsets[s + 1]])
        for s in range(offsets.size - 1)
    ]
    path = inp.mesh_file(cache, mesh_spec)

    start = now()
    with _span(tracer, "setup"):
        mesh = mesh_io.load_mesh(path)
        strategy = build()
        strategy.prepare(mesh)
    episode.setup_s += now() - start

    motion = inp.WaveMotion(mesh, int(data[prefix + "phase0"]), restructuring=restructuring)
    for step, (boxes, expected) in enumerate(batches, start=1):
        topology = None
        if restructuring is not None:
            with _span(tracer, "simulation.restructure"):
                topology = motion.restructure(step)
        with _span(tracer, "simulation.deform"):
            delta = motion.deform(step)
        results = None
        start = now()
        asked = answered = start
        with _span(tracer, "step"):
            try:
                if topology is not None:
                    strategy.on_restructure(topology)
                strategy.on_step(delta)
                asked = now()
                results = strategy.query_many(boxes)
                answered = now()
            except Exception:
                checker.raised(f"step {step}")
        elapsed = now() - start
        episode.total_response_s += elapsed
        if step == 1:
            episode.first_step_s += elapsed
        else:
            episode.steps_s.append(elapsed)
            episode.requests_s.append(answered - asked)
            episode.queries += len(boxes)
            episode.query_time_s += elapsed
        checker.check(results, expected, f"step {step}")
        _count_fallbacks(strategy, episode)
    episode.index_bytes += strategy.memory_overhead_bytes() + mesh.memory_bytes()


def monitor_episode(cache, data, scale, tracer, episode, checker) -> None:
    _wave_run(cache, data, scale.monitor_mesh, lambda: build_strategy("octopus"),
              tracer, episode, checker)


def churn_episode(cache, data, scale, tracer, episode, checker) -> None:
    _wave_run(cache, data, scale.churn_mesh,
              lambda: build_strategy("octopus", resilience="paranoid"),
              tracer, episode, checker, restructuring=inp.restructuring_for(scale, data["seed"]))


def cold_episode(cache, data, scale, tracer, episode, checker) -> None:
    for index, mesh_spec in enumerate(scale.cold_meshes):
        _wave_run(cache, data, mesh_spec, lambda: build_strategy("octopus"),
                  tracer, episode, checker, prefix=f"m{index}_")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeOracle:
    """Expected answers of pool boxes at any bump tick.

    Only the vertices of the tick's ball are displaced, so a box's answer at
    tick ``g`` is its rest-state answer with the ball's vertices re-tested at
    their tick-``g`` positions.
    """

    def __init__(self, data: dict, bump: inp.TravellingBump, referenced: np.ndarray) -> None:
        self.los, self.his = data["los"], data["his"]
        self.ids, self.offsets = data["answer_ids"], data["answer_offsets"]
        self.bump = bump
        self.referenced = referenced
        self._balls: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _ball(self, tick: int):
        if tick not in self._balls:
            ball = self.bump.ball(tick)
            ball = ball[self.referenced[ball]]
            in_ball = np.zeros(self.referenced.size, dtype=bool)
            in_ball[ball] = True
            self._balls[tick] = (ball, self.bump.positions_of(ball, tick), in_ball)
        return self._balls[tick]

    def digest(self, box: int, tick: int) -> int:
        rest = self.ids[self.offsets[box]:self.offsets[box + 1]]
        ball, positions, in_ball = self._ball(tick)
        return digest(moved_answer(rest, ball, positions, in_ball, self.los[box], self.his[box]))


def serve_episode(cache, data, scale, tracer, episode, checker) -> None:
    los, his, requests = data["los"], data["his"], data["requests"]
    n_requests = requests.shape[1]
    first = scale.serve_first
    # distinct Box3D objects per request slot: the tracer links a shard
    # worker's span to its request by the identity of the boxes it was handed
    client_boxes = [
        [[Box3D(los[i], his[i]) for i in row] for row in requests[client]] for client in range(2)
    ]
    subscriptions = [Box3D(los[i], his[i]) for i in data["subscriptions"]]
    path = inp.mesh_file(cache, scale.serve_mesh)

    generation = {"pending": 0, "done": 0}
    ticks: list[float] = []
    log: list[list] = [[], []]
    errors: list[str] = []

    def operate(client: int, row: int) -> float:
        """One closed-loop operation; client 1 ticks the bump before its request."""
        began = now()
        if client == 1:
            with _span(tracer, "simulation.deform"):
                delta = bump.tick(mesh, row + 1)
            generation["pending"] = row + 1
            began = now()
            try:
                with _span(tracer, "tick"):
                    service.on_step(delta)
            except Exception:
                errors.append(traceback.format_exc())
            ticks.append(now() - began)
            generation["done"] = row + 1
        low = generation["done"]
        asked = now()
        results = None
        try:
            with _span(tracer, "request"):
                results = service.query_many(client_boxes[client][row])
        except Exception:
            errors.append(traceback.format_exc())
        answered = now()
        log[client].append((row, low, generation["pending"], results, answered - asked))
        return answered - began

    def client_loop(client: int, from_row: int) -> None:
        for row in range(from_row, n_requests):
            operate(client, row)

    service = None
    try:
        start = now()
        with _span(tracer, "setup"):
            mesh = mesh_io.load_mesh(path)
            # An episode stores ~1000 answers per shard and the bump invalidates
            # about half of them; 256 entries per shard keeps the live set larger
            # than the cache, so LRU eviction runs.
            service = ShardedQueryService(OctopusExecutor, n_shards=2, caching=256)
            service.prepare(mesh)
            service.warm()
            sids = [service.subscribe(box) for box in subscriptions]
        episode.setup_s += now() - start
        bump = inp.bump_from(data, mesh.vertices.copy())

        episode.first_step_s += sum(operate(1, row) for row in range(first))
        ticks.clear()
        phase = now()
        threads = [threading.Thread(target=client_loop, args=(c, first if c == 1 else 0)) for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = now() - phase
        updates = service.drain_membership_updates()
        cache_stats = service.drain_cache_stats()
        standing = service.drain_standing_stats()
        episode.index_bytes += service.memory_overhead_bytes() + mesh.memory_bytes()
    finally:
        if service is not None:
            service.close()

    threaded = log[0] + log[1][first:]
    episode.total_response_s += episode.first_step_s + wall
    episode.steps_s.extend(ticks)
    episode.requests_s.extend(entry[4] for entry in threaded)
    episode.queries += sum(len(entry[3] or ()) for entry in threaded)
    episode.query_time_s += wall
    episode.counters.update(
        hits=cache_stats.hits, misses=cache_stats.misses,
        invalidations=cache_stats.invalidations, evictions=cache_stats.evictions,
        skips=standing.skips, touched=standing.touched,
        recrawls=standing.recrawls, updates=standing.updates,
    )

    # -- checking, outside the timed window ------------------------------
    for note in errors:
        checker.notes.append(f"serve request raised:\n{note}")
    referenced = np.zeros(mesh.n_vertices, dtype=bool)
    referenced[mesh.cells.ravel()] = True
    oracle = ServeOracle(data, bump, referenced)
    for client in (1, 0):
        for row, low, high, results, _latency in sorted(log[client], key=lambda e: e[0]):
            indices = requests[client][row]
            checker.attempted += len(indices)
            if results is None:
                checker.failed += len(indices)
                continue
            for box, result in zip(indices, results):
                got = digest(result.vertex_ids)
                ok = result.complete and any(
                    got == oracle.digest(int(box), tick) for tick in range(low, high + 1)
                )
                if client == 1:  # the writer sees exactly its own tick: deterministic
                    checker.checksum = chain(checker.checksum, got)
                if not ok:
                    checker.failed += 1
                    checker.notes.append(
                        f"serve client {client} request {row} pool box {int(box)}: answer differs "
                        f"from the oracle at every tick in [{low}, {high}]"
                    )
    final = {}
    for update in updates:
        final[update.subscription_id] = update.current
    for sid, box in zip(sids, data["subscriptions"]):
        checker.attempted += 1
        got = digest(final.get(sid, np.empty(0, dtype=np.int64)))
        checker.checksum = chain(checker.checksum, got)
        if got != oracle.digest(int(box), n_requests):
            checker.failed += 1
            checker.notes.append(f"serve subscription {sid}: membership differs from the oracle")


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
SPECS = {
    "monitor": (inp.monitor_inputs, monitor_episode),
    "churn": (inp.churn_inputs, churn_episode),
    "serve": (inp.serve_inputs, serve_episode),
    "cold-open": (inp.cold_inputs, cold_episode),
}

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "first_step_s": "s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "total_response_s": "s",
    "queries_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "index_mb": "MiB",
}

#: per-layer metrics: name -> unit
PER_LAYER = {
    "mesh.load_s": "s",
    "mesh.surface_extract_s": "s",
    "mesh.adjacency_build_s": "s",
    "mesh.adjacency_builds": "count",
    "core.prepare_s": "s",
    "core.query_s": "s",
    "core.probe_s": "s",
    "core.walk_s": "s",
    "core.crawl_s": "s",
    "core.vertices_visited": "count",
    "core.useful_visit_ratio": "ratio",
    "core.crawl_sharing": "ratio",
    "core.maintenance_s": "s",
    "core.surface_refresh_s": "s",
    "kernels.s": "s",
    "resilience.audit_s": "s",
    "resilience.fallbacks": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "ratio",
    "cache.invalidations": "count",
    "cache.evictions": "count",
    "cache.lookup_s": "s",
    "cache.invalidate_s": "s",
    "standing.tick_s": "s",
    "standing.skip_rate": "ratio",
    "standing.recrawls": "count",
    "standing.updates": "count",
    "service.query_s": "s",
    "service.self_s": "s",
    "service.shards_per_box": "ratio",
    "service.tick_s": "s",
    "service.partition_s": "s",
    "simulation.deform_s": "s",
    "simulation.restructure_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def end_to_end(episodes: list[Episode]) -> dict[str, float]:
    """The end-to-end metrics of a run's episodes.

    Every episode replays the same inputs, so the ``k``-th step (request,
    tick) of each episode is the same work.  Other tenants of a shared host
    only ever add time, in bursts that can last several episodes, so step
    and request percentiles are taken over each step's fastest repetition,
    and per-episode totals are the fastest episode's.  Set-up stays the
    median, so work moved into set-up shows at its typical cost.
    """
    steps = np.min([e.steps_s for e in episodes], axis=0) * 1e3
    requests = np.min([e.requests_s for e in episodes], axis=0) * 1e3
    return {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "first_step_s": min(e.first_step_s for e in episodes),
        "step_p50_ms": float(np.percentile(steps, 50)),
        "step_p95_ms": float(np.percentile(steps, 95)),
        "total_response_s": min(e.total_response_s for e in episodes),
        "queries_per_s": max(e.queries / e.query_time_s for e in episodes),
        "request_p50_ms": float(np.percentile(requests, 50)),
        "request_p95_ms": float(np.percentile(requests, 95)),
        "index_mb": statistics.median(e.index_bytes for e in episodes) / 2**20,
    }


def per_layer(tracer: Tracer, traced: list[Episode], plain: list[Episode]) -> dict[str, float]:
    """Per-layer metrics per traced episode, plus the tracing overhead against ``plain``."""
    metrics = layer_metrics(tracer.spans, tracer.counters, len(traced))
    per = 1.0 / len(traced)

    def total(key: str) -> float:
        return sum(e.counters.get(key, 0) for e in traced)

    lookups = total("hits") + total("misses")
    visits = total("skips") + total("touched")
    metrics.update({
        "resilience.fallbacks": total("fallbacks") * per,
        "cache.hits": total("hits") * per,
        "cache.misses": total("misses") * per,
        "cache.hit_rate": total("hits") / lookups if lookups else 0.0,
        "cache.invalidations": total("invalidations") * per,
        "cache.evictions": total("evictions") * per,
        "standing.skip_rate": total("skips") / visits if visits else 0.0,
        "standing.recrawls": total("recrawls") * per,
        "standing.updates": total("updates") * per,
        "trace.overhead_frac": (
            statistics.median(e.total_response_s for e in traced)
            / statistics.median(e.total_response_s for e in plain) - 1.0
            if plain else 0.0
        ),
    })
    return {name: metrics[name] for name in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool = False,
        scale: inp.Scale = inp.FULL, cache: Path = DEFAULT_CACHE) -> dict:
    """Run one workload for about ``seconds``; returns the result record.

    The record holds the four keys the benchmark prints (``correct``,
    ``attempted``, ``failed``, ``metrics``) plus diagnostics: per-episode
    checksums, notes on failures, the rejected-box count of the inputs and,
    when tracing, the spans and the absent targets.
    """
    make_inputs, episode_fn = SPECS[workload]
    data = dict(make_inputs(cache, seed, scale))
    data["seed"] = seed
    tracer = Tracer() if trace else None
    episodes: list[Episode] = []
    traced: list[Episode] = []
    plain: list[Episode] = []
    checkers: list[Checker] = []
    began = now()
    # start another episode only while it is expected to finish within the window
    while len(episodes) < scale.min_episodes or (now() - began) * (len(episodes) + 1) / len(episodes) <= seconds:
        use_tracer = tracer is not None and len(episodes) % 2 == 1
        gc.collect()
        episode = Episode()
        checker = Checker()
        if use_tracer:
            tracer.install()
        try:
            episode_fn(cache, data, scale, tracer if use_tracer else None, episode, checker)
        finally:
            if use_tracer:
                tracer.uninstall()
        episodes.append(episode)
        (traced if use_tracer else plain).append(episode)
        checkers.append(checker)

    if tracer is not None:
        metrics = per_layer(tracer, traced, plain)
        units = PER_LAYER
    else:
        metrics = end_to_end(episodes)
        units = END_TO_END
    failed = sum(c.failed for c in checkers)
    checksums = [c.checksum for c in checkers]
    return {
        "correct": failed == 0 and len(set(checksums)) == 1,
        "attempted": sum(c.attempted for c in checkers),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "checksums": checksums,
        "episodes": len(episodes),
        "rejected": int(data["rejected"]),
        "notes": [note for c in checkers for note in c.notes],
        "tracer": tracer,
    }
