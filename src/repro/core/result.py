"""Query results and machine-independent work counters.

Every execution strategy in the library (OCTOPUS, OCTOPUS-CON and all the
baselines) returns a :class:`QueryResult`, which carries the result vertex ids
plus a :class:`QueryCounters` record of how much work was done to produce
them.  The counters are the machine-independent backbone of the experiment
harness: wall-clock numbers from a pure-Python reproduction are noisy and not
comparable with the paper's C++ implementation, whereas "vertices scanned /
edges followed / index nodes visited" reproduce the paper's cost model
directly (Section IV-G measures exactly these quantities times per-operation
constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["QueryCounters", "QueryResult"]


@dataclass
class QueryCounters:
    """Work performed while answering one range query.

    Attributes
    ----------
    surface_probed:
        Surface vertices tested during the surface probe (OCTOPUS).
    probe_distance_computations:
        Point-to-box distance evaluations performed by the surface probe to
        find the closest outside vertex (only incurred when no surface vertex
        lies inside the query).  These reuse positions already counted in
        ``surface_probed``, so they are reported separately and excluded from
        :meth:`total_vertex_accesses`.
    walk_vertices_visited:
        Vertices visited during the directed walk.
    walk_distance_computations:
        Point-to-box distance evaluations during the directed walk.
    crawl_vertices_visited:
        Vertices whose position was tested during the crawl (inside or not).
    crawl_edges_followed:
        Mesh edges traversed by the crawl.
    vertices_scanned:
        Vertices tested by a full scan (linear scan baseline).
    index_nodes_visited:
        Tree/grid nodes visited while descending a spatial index.
    index_entries_updated:
        Index entries touched by maintenance work attributable to this query's
        time step (reported by the simulation harness, zero per query).
    """

    surface_probed: int = 0
    probe_distance_computations: int = 0
    walk_vertices_visited: int = 0
    walk_distance_computations: int = 0
    crawl_vertices_visited: int = 0
    crawl_edges_followed: int = 0
    vertices_scanned: int = 0
    index_nodes_visited: int = 0
    index_entries_updated: int = 0

    def merge(self, other: "QueryCounters") -> "QueryCounters":
        """Return a new counter record with the component-wise sum."""
        merged = QueryCounters()
        for f in fields(QueryCounters):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged

    def __iadd__(self, other: "QueryCounters") -> "QueryCounters":
        for f in fields(QueryCounters):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def total_vertex_accesses(self) -> int:
        """All vertex-position reads, regardless of which phase performed them."""
        return (
            self.surface_probed
            + self.walk_distance_computations
            + self.crawl_vertices_visited
            + self.vertices_scanned
        )

    def as_dict(self) -> dict:
        """Plain-dict view (used by reports and benchmarks)."""
        return {f.name: getattr(self, f.name) for f in fields(QueryCounters)}


@dataclass
class QueryResult:
    """Result of a range query plus the work and time spent computing it.

    Attributes
    ----------
    vertex_ids:
        Sorted array of the vertex ids whose current position lies inside the
        query box.
    counters:
        Machine-independent work counters.
    probe_time / walk_time / crawl_time / scan_time / index_time:
        Wall-clock seconds per phase (phases a strategy does not have stay 0).
    total_time:
        Wall-clock seconds for the whole query.
    complete:
        ``False`` when the strategy may miss in-box vertices by design
        (approximate OCTOPUS, or OCTOPUS-CON on a mesh that was not convex at
        ``prepare``): ``vertex_ids`` is then a (possibly empty) *subset* of
        the exact answer.
    """

    vertex_ids: np.ndarray
    counters: QueryCounters = field(default_factory=QueryCounters)
    probe_time: float = 0.0
    walk_time: float = 0.0
    crawl_time: float = 0.0
    scan_time: float = 0.0
    index_time: float = 0.0
    total_time: float = 0.0
    complete: bool = True

    def __post_init__(self) -> None:
        self.vertex_ids = np.unique(np.asarray(self.vertex_ids, dtype=np.int64))

    @property
    def n_results(self) -> int:
        """Number of vertices the query retrieved."""
        return int(self.vertex_ids.size)

    def same_vertices_as(self, other: "QueryResult") -> bool:
        """True when both results contain exactly the same vertex ids."""
        return bool(np.array_equal(self.vertex_ids, other.vertex_ids))

    def recall_against(self, reference: "QueryResult") -> float:
        """Fraction of the reference result retrieved by this result.

        Used by the surface-approximation experiment (Figure 12), where the
        reference is the exact result of the unapproximated OCTOPUS/linear scan.
        """
        if reference.n_results == 0:
            return 1.0
        found = np.intersect1d(self.vertex_ids, reference.vertex_ids, assume_unique=True)
        return float(found.size / reference.n_results)
