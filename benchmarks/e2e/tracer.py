"""Span tracing from outside the program: wrap its entry points, keep spans in memory.

:class:`Tracer` patches the names the program's callers resolve (a module
global such as ``repro.mesh.base.extract_surface``, or a method on a class)
with thin wrappers that record a span — name, start, end, parent, request
id, thread — around each call, and restores the originals on
:meth:`Tracer.uninstall`.  A target that no longer exists is recorded in
:attr:`Tracer.absent` instead of failing, so the benchmark keeps running
when a layer is removed.

Parents come from a per-thread stack.  Worker threads of the sharded
service start with an empty stack, so a span opened there is linked to the
service request whose boxes it was handed (``ShardedQueryService.query_many``
registers the ids of its boxes); any other orphan is linked to the single
open benchmark root, when exactly one is open.

:func:`layer_metrics` turns the spans into per-layer numbers.  A span's self
time is its duration minus the part of it covered by its children; self
times of a sequential tree therefore add up to the root's duration, and
whatever a root spends outside every wrapped call is reported as
unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()

# span name, target ("module:Class.attr" or "module.attr"), observer name
TARGETS: tuple[tuple[str, str, str | None], ...] = (
    ("mesh.load", "repro.mesh.io.load_mesh", None),
    ("mesh.surface_extract", "repro.mesh.base.extract_surface", None),
    ("mesh.adjacency_build", "repro.mesh.adjacency:AdjacencyList.from_cells", None),
    ("core.prepare", "repro.core.octopus:OctopusExecutor.prepare", None),
    ("core.query", "repro.core.octopus:OctopusExecutor.query_many", "results"),
    ("core.query", "repro.core.octopus:OctopusExecutor.query", "result"),
    ("core.maintenance", "repro.core.octopus:OctopusExecutor.on_step", None),
    ("core.maintenance", "repro.core.octopus:OctopusExecutor.on_restructure", None),
    ("core.surface_refresh", "repro.core.surface_index:SurfaceIndex.refresh_from_mesh", None),
    ("kernels", "repro.kernels:KernelBackend.points_in_boxes", None),
    ("kernels", "repro.kernels:KernelBackend.pair_box_distances", None),
    ("kernels", "repro.kernels:KernelBackend.crawl_stamp_and_test", None),
    ("resilience.audit", "repro.core.resilience.validate_delta", None),
    ("resilience.audit", "repro.core.resilience.validate_topology_delta", None),
    ("resilience.audit", "repro.standing.strategy.validate_delta", None),
    ("resilience.audit", "repro.standing.strategy.validate_topology_delta", None),
    ("cache.query", "repro.cache.strategy:CachingStrategy.query_many", None),
    ("cache.invalidate", "repro.cache.result_cache:QueryResultCache.invalidate_deformation", None),
    ("cache.invalidate", "repro.cache.result_cache:QueryResultCache.invalidate_topology", None),
    ("standing.tick", "repro.standing.registry:StandingQueryRegistry.tick_deformation", None),
    ("standing.tick", "repro.standing.registry:StandingQueryRegistry.tick_topology", None),
    ("service.query", "repro.service.service:ShardedQueryService.query_many", "links"),
    ("service.tick", "repro.service.service:ShardedQueryService.on_step", None),
    ("service.tick", "repro.service.service:ShardedQueryService.on_restructure", None),
    ("service.partition", "repro.service.service.partition_mesh", None),
)

# span record fields
NAME, START, END, PARENT, REQUEST, THREAD, SIZE = range(7)

#: benchmark root spans that count as the program's time (set-up and operations);
#: the ``simulation.*`` roots (the benchmark moving the mesh) do not
ROOT_SPANS = frozenset({"setup", "step", "request", "tick"})


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._box_links: dict[int, int] = {}
        self._open_roots: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, boxes=None, root: bool = False) -> int:
        """Open a span; returns its index."""
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else None
            if parent is None and not root:
                if boxes:
                    parent = self._box_links.get(id(boxes[0]))
                if parent is None and len(self._open_roots) == 1:
                    parent = self._open_roots[0]
            index = len(self.spans)
            request = self.spans[parent][REQUEST] if parent is not None else index
            size = len(boxes) if boxes is not None else 0
            self.spans.append(
                [name, time.perf_counter_ns(), 0, parent, request, threading.get_ident(), size]
            )
            if root:
                self._open_roots.append(index)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened by :meth:`begin`."""
        stop = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans[index][END] = stop
            if index in self._open_roots:
                self._open_roots.remove(index)

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Record the enclosed block as one span (a benchmark root when ``root``)."""
        index = self.begin(name, root=root)
        try:
            yield index
        finally:
            self.end(index)

    def add(self, counter: str, value: float) -> None:
        """Accumulate a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + value

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        for name, target, observer in TARGETS:
            owner, attr = _resolve(target)
            if owner is None:
                if target not in self.absent:
                    self.absent.append(target)
                continue
            # a class attribute may be inherited (restored by deleting the
            # override) or a classmethod (wrapped around its function)
            saved = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(saved, classmethod):
                wrapped = classmethod(self._wrap(name, saved.__func__, observer))
            else:
                wrapped = self._wrap(name, getattr(owner, attr), observer)
            self._patches.append((owner, attr, saved))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name (idempotent)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _wrap(self, name: str, fn, observer: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            boxes = _boxes_argument(args, kwargs)
            index = tracer.begin(name, boxes)
            if observer == "links" and boxes:
                with tracer._lock:
                    for box in boxes:
                        tracer._box_links[id(box)] = index
            try:
                result = fn(*args, **kwargs)
            finally:
                if observer == "links" and boxes:
                    with tracer._lock:
                        for box in boxes:
                            tracer._box_links.pop(id(box), None)
                tracer.end(index)
            if observer == "results":
                tracer._observe_results(result, getattr(args[0], "last_fused_crawl", None))
            elif observer == "result":
                tracer._observe_results([result], None)
            return result

        return traced

    def _observe_results(self, results, fused) -> None:
        probe = walk = crawl = 0.0
        visited = found = 0
        for result in results:
            probe += result.probe_time
            walk += result.walk_time
            crawl += result.crawl_time
            visited += result.counters.crawl_vertices_visited + result.counters.walk_vertices_visited
            found += int(result.vertex_ids.size)
        self.add("core.probe_s", probe)
        self.add("core.walk_s", walk)
        self.add("core.crawl_s", crawl)
        self.add("core.vertices_visited", visited)
        self.add("core.results", found)
        if fused is not None:
            self.add("core.fused_attributed", fused.n_attributed_vertex_visits)
            self.add("core.fused_unique", fused.n_unique_vertices_visited)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one header line, then one line per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"absent": self.absent, "counters": self.counters}) + "\n")
            for record in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": record[NAME],
                            "start_ns": record[START],
                            "end_ns": record[END],
                            "parent": record[PARENT],
                            "request": record[REQUEST],
                            "thread": record[THREAD],
                            "boxes": record[SIZE],
                        }
                    )
                    + "\n"
                )


def _resolve(target: str):
    """(owner, attribute) of a target string, or (None, None) when it is gone."""
    if ":" in target:
        module_name, _, path = target.partition(":")
        class_name, _, attr = path.partition(".")
    else:
        module_name, _, attr = target.rpartition(".")
        class_name = ""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    if class_name:
        owner = getattr(owner, class_name, None)
    if owner is None or not hasattr(owner, attr):
        return None, None
    return owner, attr


def _boxes_argument(args, kwargs):
    """The box list of a ``query_many(self, boxes)`` call, else ``None``."""
    boxes = kwargs.get("boxes", args[1] if len(args) > 1 else None)
    return boxes if isinstance(boxes, list) else None


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its children."""
    children: dict[int, list[int]] = {}
    for index, record in enumerate(spans):
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append(index)
    out = []
    for index, record in enumerate(spans):
        covered = 0
        cursor = record[START]
        intervals = sorted(
            (max(spans[c][START], record[START]), min(spans[c][END], record[END]))
            for c in children.get(index, ())
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((record[END] - record[START] - covered) / 1e9)
    return out


def layer_metrics(spans: list[list], counters: dict[str, float], episodes: int) -> dict[str, float]:
    """Per-layer seconds and counts per episode from one tracer's spans.

    Program calls made by the benchmark's own simulation work (a cell split
    extracts the surface, say) count towards ``simulation.*``, whose times
    are inclusive, and not towards the program's layers.
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for record, seconds in zip(spans, own):
        name = record[NAME]
        if name.startswith("simulation."):
            seconds = (record[END] - record[START]) / 1e9
        elif spans[record[REQUEST]][NAME].startswith("simulation."):
            continue
        self_s[name] = self_s.get(name, 0.0) + seconds
        total_s[name] = total_s.get(name, 0.0) + (record[END] - record[START]) / 1e9
        count[name] = count.get(name, 0) + 1

    shard_boxes = request_boxes = 0
    for record in spans:
        if record[NAME] == "service.query":
            request_boxes += record[SIZE]
        elif record[NAME] == "cache.query" and record[PARENT] is not None:
            if spans[record[PARENT]][NAME] == "service.query":
                shard_boxes += record[SIZE]

    # benchmark roots (operations and set-up), not the simulation's roots
    root_self = root_total = 0.0
    for record, seconds in zip(spans, own):
        if record[PARENT] is None and record[NAME] in ROOT_SPANS:
            root_self += seconds
            root_total += (record[END] - record[START]) / 1e9

    per = 1.0 / max(episodes, 1)
    visited = counters.get("core.vertices_visited", 0.0)
    unique = counters.get("core.fused_unique", 0.0)
    return {
        "mesh.load_s": self_s.get("mesh.load", 0.0) * per,
        "mesh.surface_extract_s": self_s.get("mesh.surface_extract", 0.0) * per,
        "mesh.adjacency_build_s": self_s.get("mesh.adjacency_build", 0.0) * per,
        "mesh.adjacency_builds": count.get("mesh.adjacency_build", 0) * per,
        "core.prepare_s": self_s.get("core.prepare", 0.0) * per,
        "core.query_s": self_s.get("core.query", 0.0) * per,
        "core.probe_s": counters.get("core.probe_s", 0.0) * per,
        "core.walk_s": counters.get("core.walk_s", 0.0) * per,
        "core.crawl_s": counters.get("core.crawl_s", 0.0) * per,
        "core.vertices_visited": visited * per,
        "core.useful_visit_ratio": counters.get("core.results", 0.0) / visited if visited else 0.0,
        "core.crawl_sharing": counters.get("core.fused_attributed", 0.0) / unique if unique else 0.0,
        "core.maintenance_s": self_s.get("core.maintenance", 0.0) * per,
        "core.surface_refresh_s": self_s.get("core.surface_refresh", 0.0) * per,
        "kernels.s": self_s.get("kernels", 0.0) * per,
        "resilience.audit_s": self_s.get("resilience.audit", 0.0) * per,
        "cache.lookup_s": self_s.get("cache.query", 0.0) * per,
        "cache.invalidate_s": self_s.get("cache.invalidate", 0.0) * per,
        "standing.tick_s": self_s.get("standing.tick", 0.0) * per,
        "service.query_s": total_s.get("service.query", 0.0) * per,
        "service.self_s": self_s.get("service.query", 0.0) * per,
        "service.shards_per_box": shard_boxes / request_boxes if request_boxes else 0.0,
        "service.tick_s": self_s.get("service.tick", 0.0) * per,
        "service.partition_s": self_s.get("service.partition", 0.0) * per,
        "simulation.deform_s": self_s.get("simulation.deform", 0.0) * per,
        "simulation.restructure_s": self_s.get("simulation.restructure", 0.0) * per,
        "trace.unattributed_frac": root_self / root_total if root_total else 0.0,
    }
