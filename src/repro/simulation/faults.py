"""Deterministic fault injection for chaos-testing the resilience layer.

A :class:`FaultPlan` is a *seeded schedule* of corruptions applied by
:class:`~repro.simulation.simulator.MeshSimulation` to the change deltas it
hands the strategies — after the simulator's own lifecycle checks, so the
faults model a buggy delta *producer*, not a broken driver.  Every decision is
a pure function of ``(seed, step)``: two runs with the same plan inject the
identical faults at the identical steps, which is what lets the chaos suite
assert that a resilient run recovers *bit-identically* to a clean run (or
fails with a structured :class:`~repro.errors.ReproError` — never silent
divergence).

The fault kinds mirror the producer bugs the paranoid validators are built to
catch (see :mod:`repro.core.resilience`):

========================  =====================================================
``truncate-delta``        moved ids truncated, position arrays left full-length
``duplicate-delta``       the first moved id appears twice
``wrong-aabb``            the dirty AABB points somewhere far from the motion
``nan-positions``         a NaN smuggled into the delta's new positions
``lying-topology``        a topology delta claiming appended vertices that the
                          dirty set does not contain
``batch-exception``       the strategy's fused ``query_many`` raises mid-batch
                          (via :class:`FaultyBatchStrategy`)
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.delta import DeformationDelta, TopologyDelta
from ..core.executor import ExecutionStrategy, StrategyWrapper
from ..errors import FaultInjectionError, SimulationError
from ..mesh import Box3D

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultyBatchStrategy",
    "duplicate_delta",
    "lying_topology_delta",
    "nan_positions_delta",
    "truncate_delta",
    "wrong_aabb_delta",
]

#: every fault kind a plan can schedule
FAULT_KINDS = (
    "truncate-delta",
    "duplicate-delta",
    "wrong-aabb",
    "nan-positions",
    "lying-topology",
    "batch-exception",
)

#: the kinds that corrupt a DeformationDelta (vs. topology / query dispatch)
_DEFORMATION_KINDS = frozenset(
    {"truncate-delta", "duplicate-delta", "wrong-aabb", "nan-positions"}
)


# ----------------------------------------------------------------------
# corruption functions (raw delta constructors on purpose: the fault is a
# *lying producer*, so it must bypass the validating factory methods)
# ----------------------------------------------------------------------
def truncate_delta(delta: DeformationDelta) -> DeformationDelta:
    """Drop the last moved id but keep the position arrays full-length.

    Models a producer that lost a tail entry; the id/position shape mismatch
    is what :func:`~repro.core.resilience.validate_delta` flags.  Full or
    empty deltas have nothing to truncate and pass through unchanged.
    """
    if delta.is_full or delta.n_moved == 0:
        return delta
    return DeformationDelta(
        n_vertices=delta.n_vertices,
        moved_ids=delta.moved_ids[:-1],
        old_positions=delta.old_positions,
        new_positions=delta.new_positions,
        dirty_box=delta.dirty_box,
    )


def duplicate_delta(delta: DeformationDelta) -> DeformationDelta:
    """Repeat the first moved id (and its position rows, keeping alignment)."""
    if delta.is_full or delta.n_moved == 0:
        return delta

    def dup(rows: np.ndarray | None) -> np.ndarray | None:
        return None if rows is None else np.vstack([rows[:1], rows])

    return DeformationDelta(
        n_vertices=delta.n_vertices,
        moved_ids=np.concatenate([delta.moved_ids[:1], delta.moved_ids]),
        old_positions=dup(delta.old_positions),
        new_positions=dup(delta.new_positions),
        dirty_box=delta.dirty_box,
    )


def wrong_aabb_delta(delta: DeformationDelta) -> DeformationDelta:
    """Replace the dirty AABB with a far-away sliver that covers no motion."""
    if delta.is_full or delta.n_moved == 0:
        return delta
    far = Box3D(np.full(3, 1.0e9), np.full(3, 1.0e9 + 1.0e-3))
    return DeformationDelta(
        n_vertices=delta.n_vertices,
        moved_ids=delta.moved_ids,
        old_positions=delta.old_positions,
        new_positions=delta.new_positions,
        dirty_box=far,
    )


def nan_positions_delta(delta: DeformationDelta) -> DeformationDelta:
    """Smuggle a NaN into the delta's new positions (the mesh stays clean)."""
    if delta.is_full or delta.n_moved == 0 or delta.new_positions is None:
        return delta
    poisoned = np.array(delta.new_positions, dtype=np.float64, copy=True)
    poisoned[0, 0] = np.nan
    return DeformationDelta(
        n_vertices=delta.n_vertices,
        moved_ids=delta.moved_ids,
        old_positions=delta.old_positions,
        new_positions=poisoned,
        dirty_box=delta.dirty_box,
    )


def lying_topology_delta(delta: TopologyDelta) -> TopologyDelta:
    """Claim one more appended vertex than the dirty set accounts for."""
    if delta.is_full:
        return delta
    return TopologyDelta(
        n_vertices=delta.n_vertices,
        dirty_ids=delta.dirty_ids,
        n_vertices_added=delta.n_vertices_added + 1,
        n_cells_added=delta.n_cells_added,
        n_cells_removed=delta.n_cells_removed,
        dirty_box=delta.dirty_box,
    )


_DEFORMATION_CORRUPTIONS = {
    "truncate-delta": truncate_delta,
    "duplicate-delta": duplicate_delta,
    "wrong-aabb": wrong_aabb_delta,
    "nan-positions": nan_positions_delta,
}


# ----------------------------------------------------------------------
# the seeded schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """Seeded, order-independent schedule of injected faults.

    Attributes
    ----------
    seed:
        Root seed; every per-step decision derives from ``(seed, step)``
        alone, so the schedule does not depend on how many times (or in what
        order) it is consulted.
    kinds:
        The fault kinds this plan may inject (default: all of
        :data:`FAULT_KINDS`).
    probability:
        Chance that any given step is faulty at all.
    """

    seed: int
    kinds: tuple[str, ...] = FAULT_KINDS
    probability: float = 0.5

    def __post_init__(self) -> None:
        unknown = [k for k in self.kinds if k not in FAULT_KINDS]
        if unknown or not self.kinds:
            raise SimulationError(
                f"fault plan kinds must be a non-empty subset of {FAULT_KINDS}, "
                f"got {self.kinds!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise SimulationError("fault plan probability must be in [0, 1]")

    def kind_for_step(self, step: int) -> str | None:
        """The fault kind scheduled for ``step`` (``None`` = clean step)."""
        rng = np.random.default_rng([self.seed, int(step)])
        if rng.random() >= self.probability:
            return None
        return str(self.kinds[int(rng.integers(len(self.kinds)))])

    def corrupt_deformation(
        self, delta: DeformationDelta, step: int
    ) -> tuple[DeformationDelta, str | None]:
        """The (possibly corrupted) delta plus the fault kind applied."""
        kind = self.kind_for_step(step)
        corruption = _DEFORMATION_CORRUPTIONS.get(kind)
        if corruption is None:
            return delta, None
        corrupted = corruption(delta)
        if corrupted is delta:  # nothing to corrupt on this step's delta
            return delta, None
        return corrupted, kind

    def corrupt_topology(
        self, delta: TopologyDelta, step: int
    ) -> tuple[TopologyDelta, str | None]:
        """The (possibly corrupted) topology delta plus the fault kind."""
        if self.kind_for_step(step) != "lying-topology":
            return delta, None
        corrupted = lying_topology_delta(delta)
        if corrupted is delta:
            return delta, None
        return corrupted, "lying-topology"

    def raises_in_batch(self, step: int) -> bool:
        """Whether ``step`` schedules a mid-batch strategy exception."""
        return self.kind_for_step(step) == "batch-exception"


# ----------------------------------------------------------------------
# scheduled mid-batch failure
# ----------------------------------------------------------------------
class FaultyBatchStrategy(StrategyWrapper):
    """Wrap a strategy so its ``query_many`` raises at the plan's steps.

    Models a fused batch engine crashing mid-flight; wrap it in a
    :class:`~repro.core.resilience.ResilientStrategy` and the ladder retries
    the boxes sequentially through the unaffected ``query`` path.  Accounting
    forwards to the wrapped strategy, so reports stay honest about where the
    time went.
    """

    def __init__(self, inner: ExecutionStrategy, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self._step: int | None = None
        #: how many scheduled exceptions this wrapper has raised
        self.n_injected = 0

    def note_step(self, step: int | None) -> None:
        """Track the simulation step so the plan's schedule applies."""
        self._step = step
        super().note_step(step)

    def query_many(self, boxes: Sequence[Box3D]):
        if self._step is not None and self.plan.raises_in_batch(self._step):
            self.n_injected += 1
            raise FaultInjectionError(
                f"{self.name}: scheduled batch-exception fault at step {self._step}"
            )
        return super().query_many(boxes)

    def describe(self) -> dict:
        record = super().describe()
        record["fault_plan_seed"] = self.plan.seed
        return record
