"""Exception hierarchy for the OCTOPUS reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  More specific subclasses communicate which
subsystem rejected the input.

The resilience layer (:mod:`repro.core.resilience`,
:mod:`repro.simulation.faults`) adds *structured* errors: every failure a
production service has to route — a delta that failed validation, an
execution that exhausted its fallback ladder — carries machine-readable
context (strategy name, simulation tick) as attributes, not just
prose, so supervisors can classify without parsing messages.
"""

from __future__ import annotations

__all__ = [
    "ConcurrencyError",
    "DegradedExecutionError",
    "DeltaValidationError",
    "ExperimentError",
    "FaultInjectionError",
    "GeometryError",
    "MeshConnectivityError",
    "MeshError",
    "QueryError",
    "ReproError",
    "SimulationError",
    "SpatialIndexError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class MeshError(ReproError):
    """Raised when a mesh is structurally invalid or an operation on it fails."""


class MeshConnectivityError(MeshError):
    """Raised when cell/vertex connectivity references are inconsistent."""


class GeometryError(ReproError):
    """Raised for invalid geometric inputs (degenerate boxes, bad shapes)."""


class SpatialIndexError(ReproError):
    """Raised when a spatial index is misused (e.g. queried before building)."""


class QueryError(ReproError):
    """Raised for malformed range queries."""


class ConcurrencyError(ReproError):
    """A thread-affine resource was used from two threads at once.

    Raised by the query kernels when a :class:`~repro.core.scratch.CrawlScratch`
    epoch moves mid-query — the signature of a second thread acquiring the
    same arena while a crawl is in flight.  The single-owner contract
    used to be documentation only; this error makes the violation loud instead
    of silently corrupting visited rows.  Executors avoid it by keeping one
    scratch per thread (see :class:`~repro.core.scratch.ThreadLocalScratch`).
    """


class _StructuredError(ReproError):
    """Mixin base: an error with machine-readable execution context.

    ``strategy`` / ``step`` locate the failure in the simulation timeline
    (either may be ``None`` when unknown at the raise site); :meth:`context`
    returns the populated fields as a dict for ledgers and logs.
    """

    def __init__(
        self,
        message: str,
        *,
        strategy: str | None = None,
        step: int | None = None,
    ) -> None:
        super().__init__(message)
        self.strategy = strategy
        self.step = step

    def context(self) -> dict:
        """The populated structured fields (omits ``None`` entries)."""
        fields = {"strategy": self.strategy, "step": self.step}
        return {key: value for key, value in fields.items() if value is not None}


class DeltaValidationError(_StructuredError):
    """A :class:`~repro.core.delta.DeformationDelta` or
    :class:`~repro.core.delta.TopologyDelta` failed an invariant audit.

    Raised by the validators in :mod:`repro.core.resilience`; ``reason`` is a
    short machine-friendly tag (e.g. ``"unsorted-ids"``, ``"nan-positions"``,
    ``"dirty-box-mismatch"``) alongside the human-readable message.  A
    :class:`~repro.core.resilience.ResilientStrategy` in paranoid mode
    catches this, quarantines the delta and falls back to whole-mesh
    maintenance instead of letting the bad delta corrupt index state.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        *,
        strategy: str | None = None,
        step: int | None = None,
    ) -> None:
        super().__init__(message, strategy=strategy, step=step)
        self.reason = reason

    def context(self) -> dict:
        base = super().context()
        base["reason"] = self.reason
        return base


class DegradedExecutionError(_StructuredError):
    """Every rung of the degradation ladder failed for an operation.

    Raised by :class:`~repro.core.resilience.ResilientStrategy` when the
    primary path, the documented fallback *and* the last-resort rebuild or
    scan all raised — the supervisor has nothing safe left to try.  The
    original failure is attached as ``__cause__``.
    """


class SimulationError(ReproError):
    """Raised when a simulation is configured or driven incorrectly."""


class FaultInjectionError(ReproError):
    """An intentionally injected fault (deterministic chaos testing).

    Raised by the :mod:`repro.simulation.faults` harness at scheduled points
    (e.g. mid-batch strategy exceptions).  Never raised on production paths;
    seeing one escape a resilient run means the degradation ladder failed to
    contain a scheduled fault.
    """


class WorkloadError(ReproError):
    """Raised when a query workload cannot be generated as requested."""


class ExperimentError(ReproError):
    """Raised when an experiment driver receives inconsistent parameters."""
