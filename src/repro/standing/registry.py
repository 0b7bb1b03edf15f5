"""Standing (continuous) range queries, evaluated incrementally off deltas.

The paper's steering scenario is not one-shot queries but scientists
*watching* regions of a deforming mesh tick after tick.  A
:class:`StandingQueryRegistry` turns that into a subscription model: a
client calls :meth:`~StandingQueryRegistry.subscribe` with a box once and
thereafter receives a :class:`MembershipUpdate` (which vertex ids entered,
which exited, the full current membership) only on the ticks where its
region actually changed.

The whole point is what the registry does *not* do: it never re-crawls a
subscription whose region a tick could not have touched.  The incremental
contract mirrors the result cache's invalidation certificates
(:mod:`repro.cache`), reading the same deltas a strategy's maintenance
hooks already consume:

* a vertex's membership in a box can only change if the vertex appears in
  the :class:`~repro.core.delta.DeformationDelta` moved set, appears in a
  :class:`~repro.core.delta.TopologyDelta` dirty set, or the box intersects
  the delta's dirty AABB.  Which subscriptions a tick reaches is decided by
  :meth:`~repro.core.delta.BoxSet.affected`, the same decision the cache
  invalidates on (closed boxes: an abutting box counts as intersecting);
* **deformation, sparse:** for the subscriptions whose box intersects the
  dirty AABB, membership is updated by point-in-box tests on the moved
  vertices' *new* positions — ids are stable and unmoved vertices cannot
  change membership, so the update is exact with no re-query at all;
* **topology, sparse:** connectivity changes can alter crawl reachability,
  which positional tests cannot see, so each intersecting subscription is
  answered by one narrowed re-query of its box through the strategy (the
  same conservative stance the cache takes for topology invalidation);
* **full deltas** (and a missing dirty box on a non-empty delta) force a
  re-query of every subscription;
* everything else is an O(1)-per-subscription skip: one vectorised
  AABB-overlap test over the subscription corner rows, no per-vertex work.

Quiet ticks therefore emit nothing; the updates a client drains are exactly
the ticks on which its membership changed.  Bit-identical equivalence with
naive per-tick re-querying is pinned by ``tests/test_standing_parity.py``
across every registered strategy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.delta import BoxSet
from ..core.resilience import check_query_box
from ..mesh import Box3D, points_in_boxes

__all__ = ["MembershipUpdate", "StandingStats", "StandingQueryRegistry"]

#: signature of the evaluation callback handed to the tick methods:
#: ``box -> sorted int64 vertex ids`` (typically ``strategy.query(box).vertex_ids``)
QueryFn = Callable[[Box3D], np.ndarray]


@dataclass(frozen=True)
class MembershipUpdate:
    """One subscription's membership change on one tick.

    Emitted only when the membership actually changed (or on the initial
    evaluation at subscribe time, where ``entered`` equals ``current``).
    All id arrays are sorted ``int64``.
    """

    #: the subscription this update belongs to
    subscription_id: int
    #: simulation step the change happened on (``None`` outside a simulation)
    step: int | None
    #: what produced the update: "initial", "deformation", "topology" or "rebase"
    reason: str
    #: ids that entered the box this tick
    entered: np.ndarray
    #: ids that left the box this tick
    exited: np.ndarray
    #: the full membership after the tick
    current: np.ndarray
    #: whether this update needed a re-query through the strategy (as opposed
    #: to the pure point-test incremental path)
    recrawled: bool = False


@dataclass
class StandingStats:
    """Counters of the registry's incremental evaluation work.

    Follows the :class:`~repro.cache.CacheStats` drain idiom: the simulator
    drains one of these per step per strategy and accumulates the totals on
    the :class:`~repro.simulation.StrategyReport`.
    """

    #: live subscriptions at drain time (a gauge, not additive)
    subscriptions: int = 0
    #: deformation/topology ticks the registry evaluated
    ticks: int = 0
    #: membership updates emitted (changed subscriptions only)
    updates: int = 0
    #: ids that entered / exited any subscription, summed
    entered: int = 0
    exited: int = 0
    #: subscriptions dismissed by the O(1) dirty-AABB overlap test
    skips: int = 0
    #: subscriptions that needed targeted work (point tests or a re-query)
    touched: int = 0
    #: narrowed re-queries through the strategy (topology / full-delta path)
    recrawls: int = 0
    #: whole-registry re-evaluations forced by full deltas or rebasing
    full_reevals: int = 0
    #: point-in-box tests performed on moved vertices (the incremental work)
    moved_tests: int = 0

    def merge(self, other: "StandingStats") -> "StandingStats":
        """Counter-wise sum (the gauge takes the larger snapshot)."""
        return StandingStats(
            subscriptions=max(self.subscriptions, other.subscriptions),
            ticks=self.ticks + other.ticks,
            updates=self.updates + other.updates,
            entered=self.entered + other.entered,
            exited=self.exited + other.exited,
            skips=self.skips + other.skips,
            touched=self.touched + other.touched,
            recrawls=self.recrawls + other.recrawls,
            full_reevals=self.full_reevals + other.full_reevals,
            moved_tests=self.moved_tests + other.moved_tests,
        )

    def __iadd__(self, other: "StandingStats") -> "StandingStats":
        merged = self.merge(other)
        self.__dict__.update(merged.__dict__)
        return self

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Subscription:
    """Registry-internal record of one standing query."""

    sid: int
    box: Box3D
    #: the subscription's row in the registry's BoxSet
    row: int
    #: sorted int64 membership as of the last evaluated tick
    current: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


class StandingQueryRegistry:
    """Standing range-query subscriptions with delta-incremental evaluation.

    The registry is passive: it holds boxes and memberships, and somebody —
    a :class:`~repro.standing.StandingStrategy`, the
    :class:`~repro.service.ShardedQueryService` — feeds it the per-tick
    deltas plus a ``query_fn`` for the rare paths that need a re-query.
    All methods are thread-safe behind one lock.  ``query_fn`` is invoked
    *while that lock is held*, so callers must hand in a function that does
    not re-enter the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscriptions: dict[int, _Subscription] = {}
        self._next_id = 1
        self._updates: list[MembershipUpdate] = []
        self._stats = StandingStats()
        # subscription boxes as BoxSet rows, so every tick's overlap test is
        # one vectorised comparison instead of a Python loop
        self._boxes = BoxSet()
        self._by_row: dict[int, _Subscription] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._subscriptions)

    def subscribe(
        self,
        box: Box3D,
        query_fn: QueryFn | None = None,
        step: int | None = None,
    ) -> int:
        """Register a standing query; returns the subscription id.

        ``box`` is validated with the same rules as a one-shot query
        (:func:`~repro.core.resilience.check_query_box`): zero-volume boxes
        are valid (the box is closed), malformed ones raise ``QueryError``.
        Duplicate boxes are independent subscriptions.  When ``query_fn`` is
        given the initial membership is evaluated immediately and an
        ``"initial"`` update (``entered == current``) is queued; otherwise
        the membership starts empty and is established by the next rebase.
        """
        check_query_box(box)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            subscription = _Subscription(sid=sid, box=box, row=self._boxes.add(box))
            self._subscriptions[sid] = subscription
            self._by_row[subscription.row] = subscription
            if query_fn is not None:
                # _emit diffs against the empty starting membership, so the
                # "initial" update reports entered == current
                current = self._evaluate(subscription.box, query_fn)
                self._emit(subscription, current, "initial", step, recrawled=True)
            return sid

    def unsubscribe(self, sid: int) -> None:
        """Remove a subscription; pending updates for it stay drainable."""
        with self._lock:
            if sid not in self._subscriptions:
                raise KeyError(f"unknown standing subscription id {sid}")
            subscription = self._subscriptions.pop(sid)
            del self._by_row[subscription.row]
            self._boxes.discard(subscription.row)

    def boxes(self) -> dict[int, Box3D]:
        """Live subscriptions as ``{subscription_id: box}``."""
        with self._lock:
            return {sid: sub.box for sid, sub in self._subscriptions.items()}

    def membership(self, sid: int) -> np.ndarray:
        """The current membership of one subscription (a copy)."""
        with self._lock:
            return self._subscriptions[sid].current.copy()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _evaluate(box: Box3D, query_fn: QueryFn) -> np.ndarray:
        ids = np.asarray(query_fn(box), dtype=np.int64)
        return ids if ids.ndim == 1 else ids.reshape(-1)

    def _emit(
        self,
        subscription: _Subscription,
        new_current: np.ndarray,
        reason: str,
        step: int | None,
        recrawled: bool,
        entered: np.ndarray | None = None,
        exited: np.ndarray | None = None,
    ) -> bool:
        """Diff, queue an update when changed, count; returns "changed"."""
        if entered is None:
            entered = np.setdiff1d(new_current, subscription.current, assume_unique=True)
        if exited is None:
            exited = np.setdiff1d(subscription.current, new_current, assume_unique=True)
        if entered.size == 0 and exited.size == 0 and reason != "initial":
            return False
        subscription.current = new_current
        self._updates.append(
            MembershipUpdate(
                subscription_id=subscription.sid,
                step=step,
                reason=reason,
                entered=entered,
                exited=exited,
                current=new_current,
                recrawled=recrawled,
            )
        )
        self._stats.updates += 1
        self._stats.entered += int(entered.size)
        self._stats.exited += int(exited.size)
        return True

    def _affected(self, delta) -> list[_Subscription] | None:
        """The subscriptions ``delta`` can have changed, ascending by id, with
        the skips and touches counted; ``None`` when it reaches every one."""
        rows, whole = self._boxes.affected(delta)
        if whole:
            return None
        self._stats.skips += len(self._subscriptions) - rows.size
        self._stats.touched += rows.size
        return sorted((self._by_row[row] for row in rows.tolist()), key=lambda sub: sub.sid)

    def rebase(self, query_fn: QueryFn, step: int | None = None) -> None:
        """Re-evaluate every subscription from scratch (mesh replaced/re-prepared)."""
        with self._lock:
            if not self._subscriptions:
                return
            self._stats.full_reevals += 1
            for subscription in self._subscriptions.values():
                self._stats.recrawls += 1
                current = self._evaluate(subscription.box, query_fn)
                self._emit(subscription, current, "rebase", step, recrawled=True)

    def tick_deformation(
        self, delta, query_fn: QueryFn, step: int | None = None
    ) -> None:
        """Evaluate one deformation tick against every subscription.

        Must be called *after* the mesh positions moved and after the
        strategy's own maintenance, so ``query_fn`` answers against the
        post-tick state on the paths that need it.
        """
        with self._lock:
            if not self._subscriptions:
                return
            self._stats.ticks += 1
            touched = self._affected(delta)
            if touched is None:
                self._reevaluate_all(query_fn, "deformation", step)
                return
            if not touched:
                return
            # positional update: for moved vertices, membership after the tick
            # is exactly "new position inside the box"; everything else is
            # untouched because ids are stable and only the moved set moved
            moved_ids = delta.moved_ids
            los, his = self._boxes.corners(np.array([sub.row for sub in touched]))
            new_in = points_in_boxes(delta.new_positions, los, his)
            self._stats.moved_tests += len(touched) * int(moved_ids.size)
            for subscription, inside in zip(touched, new_in):
                was_member = np.isin(moved_ids, subscription.current, assume_unique=True)
                entered = moved_ids[inside & ~was_member]
                exited = moved_ids[~inside & was_member]
                if entered.size == 0 and exited.size == 0:
                    continue
                current = np.union1d(
                    np.setdiff1d(subscription.current, exited, assume_unique=True),
                    entered,
                )
                self._emit(
                    subscription,
                    current,
                    "deformation",
                    step,
                    recrawled=False,
                    entered=entered,
                    exited=exited,
                )

    def tick_topology(self, delta, query_fn: QueryFn, step: int | None = None) -> None:
        """Evaluate one restructuring tick against every subscription.

        Connectivity changes can alter crawl reachability, which positional
        tests cannot observe — so every subscription whose box intersects the
        dirty AABB is answered by one narrowed re-query through ``query_fn``
        (the strategy has already restructured/re-prepared by the time this
        runs).  Restructuring never moves pre-existing vertices and appended
        vertices lie inside the dirty AABB, so subscriptions outside it are
        provably unchanged — the same conservative certificate the result
        cache uses for topology invalidation.
        """
        with self._lock:
            if not self._subscriptions:
                return
            self._stats.ticks += 1
            touched = self._affected(delta)
            if touched is None:
                self._reevaluate_all(query_fn, "topology", step)
                return
            for subscription in touched:
                self._stats.recrawls += 1
                current = self._evaluate(subscription.box, query_fn)
                self._emit(subscription, current, "topology", step, recrawled=True)

    def _reevaluate_all(self, query_fn: QueryFn, reason: str, step: int | None) -> None:
        self._stats.full_reevals += 1
        self._stats.touched += len(self._subscriptions)
        for subscription in self._subscriptions.values():
            self._stats.recrawls += 1
            current = self._evaluate(subscription.box, query_fn)
            self._emit(subscription, current, reason, step, recrawled=True)

    # ------------------------------------------------------------------
    # delivery and accounting
    # ------------------------------------------------------------------
    def drain_updates(self) -> list[MembershipUpdate]:
        """Return and clear the queued membership updates, in emission order."""
        with self._lock:
            updates, self._updates = self._updates, []
            return updates

    def drain_stats(self) -> StandingStats:
        """Counters since the last drain (the gauge reads the live count)."""
        with self._lock:
            stats, self._stats = self._stats, StandingStats()
            stats.subscriptions = len(self._subscriptions)
            return stats

    def stats(self) -> StandingStats:
        """Non-destructive snapshot of the counters."""
        with self._lock:
            snapshot = StandingStats(**self._stats.as_dict())
            snapshot.subscriptions = len(self._subscriptions)
            return snapshot

    def memory_bytes(self) -> int:
        """Bytes held in memberships and corner rows."""
        with self._lock:
            return self._boxes.memory_bytes() + sum(
                sub.current.nbytes for sub in self._subscriptions.values()
            )

    def describe(self) -> dict:
        with self._lock:
            return {
                "subscriptions": len(self._subscriptions),
                "pending_updates": len(self._updates),
                **self._stats.as_dict(),
            }
