"""The standing wrapper: any strategy + incremental subscription evaluation.

:class:`StandingStrategy` composes through the
:class:`~repro.core.executor.StrategyWrapper` surface like the cache and the
resilience ladder.  The recommended stack puts standing outermost —
``build_strategy("octopus", caching=True, standing=True)`` produces
``StandingStrategy(CachingStrategy(octopus))`` — so the registry's narrowed
re-queries flow through the result cache and share its invalidation stream:
a tick that leaves a subscription's region untouched also leaves the cached
entry for that box valid, and the rare re-crawl of an unchanged box is a
cache hit, not a new crawl.

Evaluation order inside the maintenance hooks mirrors
:class:`~repro.cache.CachingStrategy`: the inner maintenance forwards
*first* (indexes catch up with the already-mutated mesh), then the registry
ticks — so any re-query the tick needs is answered against the fully
maintained post-tick state.  The registry's wall-clock is charged to the
shared ``maintenance_time`` ledger; keeping subscriptions current is
maintenance work and reported response times stay honest about it.

In ``paranoid`` mode the wrapper validates every delta before trusting it
incrementally (the same validators the resilience ladder uses); a lying
delta is quarantined — recorded as a
:class:`~repro.core.resilience.FallbackEvent` on the ``standing-reeval``
rung — and the tick degrades to a full re-evaluation of every subscription
through ``query``, which reads the true mesh state.  A faulted paranoid run
therefore emits exactly the updates of a clean run, with the recoveries
visible in the degradation ledger (``tests/test_fault_injection.py``).
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.executor import ExecutionStrategy, StrategyWrapper
from ..core.resilience import FallbackEvent, validate_delta, validate_topology_delta
from ..errors import DeltaValidationError
from ..mesh import Box3D, PolyhedralMesh
from .registry import MembershipUpdate, StandingQueryRegistry, StandingStats

__all__ = ["StandingStrategy"]


class StandingStrategy(StrategyWrapper):
    """Maintain standing subscriptions incrementally over any strategy.

    Parameters
    ----------
    inner:
        The strategy (or wrapper stack) that answers the registry's
        re-queries and initial evaluations.
    registry:
        An existing :class:`~repro.standing.StandingQueryRegistry` to adopt;
        ``None`` builds a fresh one.
    boxes:
        Subscriptions to register up front.  They are subscribed immediately
        (initial membership evaluated at :meth:`prepare` when the wrapper is
        built before the strategy is prepared).
    paranoid:
        Validate every delta before using it incrementally; invalid deltas
        are quarantined and the tick degrades to a full re-evaluation (see
        module docstring).  ``build_strategy`` turns this on automatically
        when the stack's resilience is paranoid.

    The wrapper registers under ``standing-<inner name>`` so a simulation
    can run the standing and plain variants of one strategy side by side —
    the differential parity suite relies on exactly that pairing.
    """

    def __init__(
        self,
        inner: ExecutionStrategy,
        registry: StandingQueryRegistry | None = None,
        *,
        boxes: Iterable[Box3D] | None = None,
        paranoid: bool = False,
    ) -> None:
        super().__init__(inner)
        self.registry = registry if registry is not None else StandingQueryRegistry()
        self.paranoid = paranoid
        self.name = f"standing-{inner.name}"
        self._step: int | None = None
        self._events: list[FallbackEvent] = []
        if boxes is not None:
            for box in boxes:
                self.subscribe(box)

    # -- subscription surface -------------------------------------------
    def _query_ids(self, box: Box3D) -> np.ndarray:
        return super().query(box).vertex_ids

    @property
    def _prepared(self) -> bool:
        # the innermost strategy: a wrapper sets its own mesh only in its
        # own prepare, so one wrapped around a prepared stack has none
        return self.unwrap()._mesh is not None

    def subscribe(self, box: Box3D) -> int:
        """Register a standing query; returns the subscription id.

        When the strategy is already prepared the initial membership is
        evaluated immediately (one query through the stack below) and an
        ``"initial"`` update is queued; otherwise evaluation is deferred to
        :meth:`prepare`.
        """
        query_fn = self._query_ids if self._prepared else None
        return self.registry.subscribe(box, query_fn, step=self._step)

    def unsubscribe(self, sid: int) -> None:
        """Drop a subscription; already-queued updates stay drainable."""
        self.registry.unsubscribe(sid)

    def drain_membership_updates(self) -> list[MembershipUpdate]:
        """Return and clear the queued per-tick membership updates."""
        return self.registry.drain_updates()

    # -- lifecycle ------------------------------------------------------
    def prepare(self, mesh: PolyhedralMesh) -> float:
        """Forward, then (re)establish every subscription's membership."""
        spent = super().prepare(mesh)
        self.registry.rebase(self._query_ids, step=self._step)
        return spent

    def _ticked_forward(self, forward, tick, validate, delta) -> float:
        # forward FIRST: the tick's re-queries must see the fully maintained
        # post-step state (the mirror image of the cache's invalidate-first
        # rule — the registry reads results, the cache drops them)
        spent = forward(delta)
        start = time.perf_counter()
        use = delta
        if self.paranoid and len(self.registry):
            try:
                validate(delta, self.mesh)
            except DeltaValidationError as exc:
                # quarantine: never feed a lying delta to the incremental
                # paths — degrade to a full re-evaluation via query, which
                # reads the true (already maintained) mesh state
                self._events.append(
                    FallbackEvent(
                        strategy=self.name,
                        operation="standing-tick",
                        rung="standing-reeval",
                        reason="delta-invalid",
                        error=repr(exc),
                        step=self._step,
                    )
                )
                use = delta.as_full()
        tick(use, self._query_ids, step=self._step)
        overhead = time.perf_counter() - start
        # registry evaluation is maintenance work; charge the shared ledger
        self.inner.maintenance_time += overhead
        return spent + overhead

    def on_step(self, delta: DeformationDelta) -> float:
        return self._ticked_forward(
            super().on_step, self.registry.tick_deformation, validate_delta, delta
        )

    def on_restructure(self, delta: TopologyDelta) -> float:
        return self._ticked_forward(
            super().on_restructure,
            self.registry.tick_topology,
            validate_topology_delta,
            delta,
        )

    # -- event plumbing -------------------------------------------------
    def note_step(self, step: int | None) -> None:
        self._step = step
        super().note_step(step)

    def drain_degradation_events(self) -> list | None:
        """Own ``standing-reeval`` events plus the inner stack's.

        A paranoid wrapper is a ladder itself, so it always returns a list;
        otherwise ``None`` when the inner stack has no ladder either.
        """
        events, self._events = self._events, []
        inner = super().drain_degradation_events()
        if inner is None and not self.paranoid:
            return None
        return events + (inner or [])

    def drain_standing_stats(self) -> StandingStats:
        """Counters since the last drain, merged with any nested registry's."""
        stats = self.registry.drain_stats()
        inner_stats = super().drain_standing_stats()
        if inner_stats is not None:
            stats += inner_stats
        return stats

    def standing_stats(self) -> StandingStats:
        """Non-destructive snapshot of this layer's registry counters."""
        return self.registry.stats()

    # -- accounting -----------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        return super().memory_overhead_bytes() + self.registry.memory_bytes()

    def describe(self) -> dict:
        record = super().describe()
        record["standing"] = self.registry.describe()
        return record
