"""The resilience layer: invariant audits and the degradation ladder.

The paper's setting is interactive simulation steering — queries arrive while
the mesh deforms and restructures underneath them — so a long-running service
must survive two failure classes that the offline parity suites can only
catch at test time:

* **corrupt change deltas** — a buggy producer emitting unsorted ids, lying
  dirty AABBs or NaN positions — applied on faith by every strategy's
  incremental maintenance (the :func:`validate_delta` /
  :func:`validate_topology_delta` audits quarantine them);
* **broken incremental state**, where the only safe answer is to fall back
  down a ladder of progressively blunter but better-understood tools:
  fused batch → sequential queries, incremental maintenance → full-delta
  maintenance → rebuild, failed query → a plain linear scan of the live
  positions (:class:`ResilientStrategy`).

Every fallback is recorded as a :class:`FallbackEvent` so degraded execution
is *visible* in the maintenance ledger and
:class:`~repro.simulation.simulator.StrategyReport` — the contract is "recover
exactly or fail loudly", never a silent divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import (
    DegradedExecutionError,
    DeltaValidationError,
    GeometryError,
    MeshConnectivityError,
    QueryError,
)
from ..mesh import Box3D, PolyhedralMesh, points_in_box
from .delta import DeformationDelta, TopologyDelta
from .executor import ExecutionStrategy, StrategyWrapper
from .result import QueryCounters, QueryResult

__all__ = [
    "FallbackEvent",
    "ResilientStrategy",
    "audit_adjacency",
    "check_query_box",
    "check_query_boxes",
    "screen_positions",
    "validate_delta",
    "validate_topology_delta",
]


# ----------------------------------------------------------------------
# query validation (consistent degenerate-box handling for every strategy)
# ----------------------------------------------------------------------
def check_query_box(box: Box3D) -> None:
    """Reject a malformed query box with a :class:`QueryError`.

    :class:`~repro.mesh.Box3D` validates at construction, but its corner
    arrays are plain NumPy arrays that callers can mutate in place afterwards
    — an inverted ``lo > hi`` or non-finite box reaching a strategy would
    otherwise fail in backend-specific ways (empty here, garbage there, an
    unbounded crawl elsewhere).  Every strategy calls this at the top of
    ``query``/``query_many`` so degenerate queries fail identically
    everywhere.  Zero-volume boxes (``lo == hi`` on some axis) are *valid*:
    the box is closed, a plane/line/point query is well-defined.
    """
    if not isinstance(box, Box3D):
        raise QueryError(f"query must be a Box3D, got {type(box).__name__}")
    lo = np.asarray(box.lo, dtype=np.float64)
    hi = np.asarray(box.hi, dtype=np.float64)
    if lo.shape != (3,) or hi.shape != (3,):
        raise QueryError("query box corners must be length-3 vectors")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise QueryError("query box corners must be finite")
    if np.any(lo > hi):
        raise QueryError(
            f"query box minimum corner {lo.tolist()} exceeds maximum corner {hi.tolist()}"
        )


def check_query_boxes(boxes: Sequence[Box3D]) -> list[Box3D]:
    """Validate a whole batch (see :func:`check_query_box`); returns the list."""
    box_list = list(boxes)
    for index, box in enumerate(box_list):
        try:
            check_query_box(box)
        except QueryError as exc:
            if hasattr(exc, "add_note"):  # pragma: no branch - py3.11+
                exc.add_note(f"query_many: box {index} of {len(box_list)} is malformed")
            raise
    return box_list


# ----------------------------------------------------------------------
# invariant audits (cheap, O(dirty) where a delta is involved)
# ----------------------------------------------------------------------
def screen_positions(
    positions: np.ndarray,
    what: str = "positions",
    strategy: str | None = None,
    step: int | None = None,
) -> None:
    """NaN/inf screen: reject non-finite coordinates."""
    pts = np.asarray(positions, dtype=np.float64)
    if pts.size and not np.all(np.isfinite(pts)):
        bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=-1)))
        raise DeltaValidationError(
            "nan-positions",
            f"{what}: {bad} rows contain NaN/inf coordinates",
            strategy=strategy,
            step=step,
        )


def _check_sorted_unique_ids(
    ids: np.ndarray,
    n_vertices: int,
    what: str,
    strategy: str | None,
    step: int | None,
) -> None:
    if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
        raise DeltaValidationError(
            "malformed-ids", f"{what}: ids must be a 1-D integer array",
            strategy=strategy, step=step,
        )
    if ids.size == 0:
        return
    if ids[0] < 0 or ids[-1] >= n_vertices:
        raise DeltaValidationError(
            "ids-out-of-range",
            f"{what}: ids span [{int(ids[0]) if ids.size else 0}, {int(ids[-1])}] "
            f"outside [0, {n_vertices})",
            strategy=strategy, step=step,
        )
    if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
        reason = "duplicate-ids" if np.any(ids[1:] == ids[:-1]) else "unsorted-ids"
        raise DeltaValidationError(
            reason, f"{what}: ids must be strictly increasing",
            strategy=strategy, step=step,
        )


def validate_delta(
    delta: DeformationDelta,
    mesh: PolyhedralMesh | None = None,
    strategy: str | None = None,
    step: int | None = None,
) -> None:
    """Audit a deformation delta against its own invariants and the mesh.

    O(n_moved): checks the id-array contract (sorted, unique, in range), the
    position-array shapes and finiteness, and that the dirty AABB really
    covers every old and new position.  Raises
    :class:`~repro.errors.DeltaValidationError` with a machine-friendly
    ``reason`` tag; passing silently means every incremental consumer can
    apply the delta safely.
    """
    if not isinstance(delta, DeformationDelta):
        raise DeltaValidationError(
            "wrong-type", f"expected a DeformationDelta, got {type(delta).__name__}",
            strategy=strategy, step=step,
        )
    if delta.n_vertices < 0:
        raise DeltaValidationError(
            "negative-count", "delta reports a negative vertex count",
            strategy=strategy, step=step,
        )
    if mesh is not None and delta.n_vertices != mesh.n_vertices:
        raise DeltaValidationError(
            "vertex-count-mismatch",
            f"delta says {delta.n_vertices} vertices, mesh has {mesh.n_vertices}",
            strategy=strategy, step=step,
        )
    if delta.is_full:
        return
    ids = delta.moved_ids
    _check_sorted_unique_ids(ids, delta.n_vertices, "deformation delta", strategy, step)
    for label, pts in (("old_positions", delta.old_positions), ("new_positions", delta.new_positions)):
        if pts is None:
            continue
        arr = np.asarray(pts)
        if arr.shape != (ids.size, 3):
            raise DeltaValidationError(
                "shape-mismatch",
                f"deformation delta {label} has shape {arr.shape}, "
                f"expected ({ids.size}, 3)",
                strategy=strategy, step=step,
            )
        screen_positions(arr, f"deformation delta {label}", strategy, step)
    if delta.dirty_box is not None:
        for label, pts in (
            ("old_positions", delta.old_positions),
            ("new_positions", delta.new_positions),
        ):
            if pts is None or np.asarray(pts).size == 0:
                continue
            if not bool(np.all(points_in_box(np.asarray(pts, dtype=np.float64), delta.dirty_box))):
                raise DeltaValidationError(
                    "dirty-box-mismatch",
                    f"deformation delta dirty AABB does not cover its {label}",
                    strategy=strategy, step=step,
                )


def validate_topology_delta(
    delta: TopologyDelta,
    mesh: PolyhedralMesh | None = None,
    strategy: str | None = None,
    step: int | None = None,
) -> None:
    """Audit a topology delta (O(n_dirty) plus the cheap scalar checks).

    Checks the dirty-id contract, the appended-tail contract (new vertices
    occupy ``[n_vertices - n_vertices_added, n_vertices)`` *inside* the dirty
    set), non-negative cell counts, agreement with the mesh's vertex count,
    and that the dirty AABB covers the dirty vertices' current positions.
    """
    if not isinstance(delta, TopologyDelta):
        raise DeltaValidationError(
            "wrong-type", f"expected a TopologyDelta, got {type(delta).__name__}",
            strategy=strategy, step=step,
        )
    if mesh is not None and delta.n_vertices != mesh.n_vertices:
        raise DeltaValidationError(
            "vertex-count-mismatch",
            f"topology delta says {delta.n_vertices} vertices, mesh has {mesh.n_vertices}",
            strategy=strategy, step=step,
        )
    if (
        delta.n_vertices_added < 0
        or delta.n_cells_added < 0
        or delta.n_cells_removed < 0
        or delta.n_vertices_added > delta.n_vertices
    ):
        raise DeltaValidationError(
            "negative-count", "topology delta change counts out of range",
            strategy=strategy, step=step,
        )
    if delta.is_full:
        return
    ids = delta.dirty_ids
    _check_sorted_unique_ids(ids, delta.n_vertices, "topology delta", strategy, step)
    if delta.is_empty:
        if delta.n_vertices_added or delta.n_cells_added or delta.n_cells_removed:
            raise DeltaValidationError(
                "changes-without-dirty",
                "topology delta reports changes but an empty dirty set",
                strategy=strategy, step=step,
            )
        return
    if delta.n_vertices_added:
        added = delta.added_vertex_ids()
        if not np.all(np.isin(added, ids)):
            raise DeltaValidationError(
                "added-outside-dirty",
                "appended vertex ids are not all inside the dirty set",
                strategy=strategy, step=step,
            )
    if mesh is not None:
        dirty_positions = mesh.vertices[ids]
        screen_positions(dirty_positions, "dirty vertex positions", strategy, step)
        if delta.dirty_box is not None and not bool(
            np.all(points_in_box(dirty_positions, delta.dirty_box))
        ):
            raise DeltaValidationError(
                "dirty-box-mismatch",
                "topology delta dirty AABB does not cover the dirty vertices",
                strategy=strategy, step=step,
            )


def audit_adjacency(mesh: PolyhedralMesh, vertex_ids: np.ndarray | None = None) -> None:
    """CSR adjacency audit: structure globally, content for the given ids.

    The structural part (monotone ``indptr``, index range) is a few
    vectorised passes; the content part checks that every neighbour of the
    audited vertices is a valid, distinct vertex — O(degree · n_audited), so
    paranoid restructuring passes the delta's dirty ids to stay O(dirty).
    Raises :class:`~repro.errors.MeshConnectivityError` on corruption.
    """
    adjacency = mesh.adjacency
    indptr, indices = adjacency.indptr, adjacency.indices
    n = mesh.n_vertices
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        raise MeshConnectivityError("adjacency indptr does not frame the index array")
    if indptr.size > 1 and np.any(indptr[1:] < indptr[:-1]):
        raise MeshConnectivityError("adjacency indptr is not monotone")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise MeshConnectivityError("adjacency indices reference vertices out of range")
    if vertex_ids is not None:
        for vid in np.asarray(vertex_ids, dtype=np.int64):
            row = indices[indptr[vid] : indptr[vid + 1]]
            if np.any(row == vid):
                raise MeshConnectivityError(f"vertex {int(vid)} lists itself as a neighbour")


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
@dataclass
class FallbackEvent:
    """One recorded descent down the degradation ladder."""

    #: wrapped strategy name
    strategy: str
    #: lifecycle operation that degraded ("query", "query_many", "on_step", "on_restructure")
    operation: str
    #: ladder rung taken ("sequential", "scan", "quarantine", "full-delta", "rebuild")
    rung: str
    #: short classification ("strategy-error", "unsorted-ids", "delta-invalid", ...)
    reason: str
    #: repr of the triggering exception (or validator message)
    error: str
    #: simulation step, when the caller provided one via note_step()
    step: int | None = None

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "operation": self.operation,
            "rung": self.rung,
            "reason": self.reason,
            "error": self.error,
            "step": self.step,
        }


class ResilientStrategy(StrategyWrapper):
    """Wrap any :class:`~repro.core.executor.ExecutionStrategy` in the ladder.

    Failure classes and the rung each one takes:

    * a batch (`query_many`) raising → retry the boxes **sequentially**
      through the inner ``query`` (one bad box no longer poisons the batch;
      OCTOPUS answers each as a batch of one);
    * a single query raising → answer it with a **linear scan** of the live
      vertex positions (always correct: the scan reads the mesh, not any
      index state);
    * paranoid mode finding an invalid delta → **quarantine** it and hand the
      inner strategy a whole-mesh ``full()`` delta derived from the *mesh's*
      vertex count (never the lying delta's);
    * incremental ``on_step``/``on_restructure`` raising → retry with the
      **full delta**, then with a complete **rebuild** (``prepare``);
    * everything failing → a structured
      :class:`~repro.errors.DegradedExecutionError` with the original cause.

    Malformed *queries* (:class:`~repro.errors.QueryError`,
    :class:`~repro.errors.GeometryError`) are caller errors and propagate — degrading them would mask bugs in the caller, not recover
    from faults below.

    Every descent is appended to :attr:`degradation_events`
    (:meth:`drain_degradation_events` consumes them; the simulator drains
    after each step and aggregates into the
    :class:`~repro.simulation.simulator.StrategyReport`).  Wrapper overhead
    (validation, bookkeeping) on the maintenance path is charged to the inner
    strategy's ``maintenance_time`` so the reported response time stays
    honest about what resilience costs.
    """

    def __init__(self, inner: ExecutionStrategy, paranoid: bool = False) -> None:
        super().__init__(inner)
        self.paranoid = paranoid
        self.degradation_events: list[FallbackEvent] = []
        self._step: int | None = None

    # -- event plumbing -------------------------------------------------
    def note_step(self, step: int | None) -> None:
        """Tag subsequent fallback events with the simulation step."""
        self._step = step
        super().note_step(step)

    def drain_degradation_events(self) -> list[FallbackEvent]:
        """Return and clear the recorded fallback events (own + inner's)."""
        events = self.degradation_events
        self.degradation_events = []
        events.extend(super().drain_degradation_events() or [])
        return events

    def _record(self, operation: str, rung: str, reason: str, error: BaseException | str) -> None:
        self.degradation_events.append(
            FallbackEvent(
                strategy=self.name,
                operation=operation,
                rung=rung,
                reason=reason,
                error=repr(error) if isinstance(error, BaseException) else str(error),
                step=self._step,
            )
        )

    # -- lifecycle ------------------------------------------------------
    def _maintain(
        self,
        operation: str,
        delta,
        apply: Callable[[object], float],
        full_delta: Callable[[], object],
        validate: Callable[[object], None],
    ) -> float:
        """Shared maintenance ladder: validate → apply → full delta → rebuild."""
        wrapper_start = time.perf_counter()
        inner_time_before = self.inner.maintenance_time
        used = delta
        if self.paranoid:
            try:
                validate(delta)
            except DeltaValidationError as exc:
                self._record(operation, "quarantine", exc.reason, exc)
                used = full_delta()
        try:
            apply(used)
        except (QueryError, GeometryError):
            raise  # caller errors, not index-state faults
        except Exception as exc:
            self._record(operation, "full-delta", "strategy-error", exc)
            try:
                if not getattr(used, "is_full", False):
                    apply(full_delta())
                else:
                    # the failing delta already was the full one; retrying it
                    # is pointless, go straight to the rebuild rung
                    raise exc
            except Exception as full_exc:
                self._record(operation, "rebuild", "strategy-error", full_exc)
                try:
                    self.inner.prepare(self.mesh)
                except Exception as rebuild_exc:
                    raise DegradedExecutionError(
                        f"{self.name}: {operation} failed on the incremental, "
                        "full-delta and rebuild rungs",
                        strategy=self.name,
                        step=self._step,
                    ) from rebuild_exc
        inner_spent = self.inner.maintenance_time - inner_time_before
        total = time.perf_counter() - wrapper_start
        overhead = max(0.0, total - inner_spent)
        self.inner.maintenance_time += overhead
        return inner_spent + overhead

    def on_step(self, delta: DeformationDelta) -> float:
        return self._maintain(
            "on_step",
            delta,
            self.inner.on_step,
            lambda: DeformationDelta.full(self.mesh.n_vertices),
            lambda d: validate_delta(d, self.mesh, strategy=self.name, step=self._step),
        )

    def on_restructure(self, delta: TopologyDelta) -> float:
        return self._maintain(
            "on_restructure",
            delta,
            self.inner.on_restructure,
            lambda: TopologyDelta.full(self.mesh.n_vertices),
            lambda d: validate_topology_delta(d, self.mesh, strategy=self.name, step=self._step),
        )

    # -- querying -------------------------------------------------------
    def _scan_answer(self, box: Box3D) -> QueryResult:
        """Last-resort rung: linear scan of the live vertex positions.

        Correct by construction — it consults no index state, only the mesh —
        and its cost is O(n_vertices), predictable where a degenerate crawl
        is not.
        """
        start = time.perf_counter()
        positions = self.mesh.vertices
        counters = QueryCounters(vertices_scanned=int(positions.shape[0]))
        if positions.shape[0]:
            ids = np.nonzero(points_in_box(positions, box))[0].astype(np.int64)
        else:
            ids = np.empty(0, dtype=np.int64)
        elapsed = time.perf_counter() - start
        return QueryResult(
            vertex_ids=ids, counters=counters, scan_time=elapsed, total_time=elapsed
        )

    def query(self, box: Box3D) -> QueryResult:
        check_query_box(box)
        try:
            return self.inner.query(box)
        except (QueryError, GeometryError):
            raise  # malformed query: the caller's bug, do not degrade
        except Exception as exc:
            self._record("query", "scan", "strategy-error", exc)
            try:
                return self._scan_answer(box)
            except Exception as scan_exc:
                raise DegradedExecutionError(
                    f"{self.name}: query failed and so did the scan fallback",
                    strategy=self.name,
                    step=self._step,
                ) from scan_exc

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        box_list = check_query_boxes(boxes)
        try:
            return self.inner.query_many(box_list)
        except (QueryError, GeometryError):
            raise
        except Exception as exc:
            # Rung 1: the batch engine failed — answer the boxes one by one,
            # each with its own scan fallback (rung 2) behind it.
            self._record("query_many", "sequential", "strategy-error", exc)
        results = [self.query(box) for box in box_list]
        # box-by-box answers leave no fused record of the batch behind
        self.last_fused_crawl = None
        return results

    # -- accounting -----------------------------------------------------
    def describe(self) -> dict:
        record = super().describe()
        record["resilient"] = True
        record["paranoid"] = self.paranoid
        return record

