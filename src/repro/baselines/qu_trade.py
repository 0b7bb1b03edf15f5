"""The QU-Trade baseline (workload-aware grace windows, Tzoumas et al. 2009).

Instead of indexing the exact object positions, QU-Trade indexes a *grace
window* around them: an object only triggers index maintenance when it moves
outside the window, so a larger window means fewer updates at the price of
queries having to look at more irrelevant objects (the traversal must expand
every MBR by the window, and the leaves it reaches contain more non-matching
entries).

Following Section V-A, the executor exposes the window size as a tunable and
provides :meth:`QUTradeExecutor.tune_window_for`, which picks a window large
enough that fewer than a target fraction (1% in the paper) of the per-step
position updates trigger R-tree maintenance.
"""

from __future__ import annotations

import numpy as np

from ..core.delta import DeformationDelta
from ..core.result import QueryCounters
from ..errors import SpatialIndexError
from ..mesh import Box3D
from .index_executor import _RTreeExecutor

__all__ = ["QUTradeExecutor"]


class QUTradeExecutor(_RTreeExecutor):
    """R-tree with grace windows around leaf MBRs.

    Parameters
    ----------
    window_fraction:
        Grace-window size as a fraction of the mesh bounding-box diagonal.
    fanout:
        R-tree fanout (the paper uses 110).
    """

    name = "qu-trade"

    def __init__(self, window_fraction: float = 0.05, fanout: int = 110) -> None:
        super().__init__(fanout)
        if window_fraction < 0:
            raise SpatialIndexError("window_fraction must be non-negative")
        self.window_fraction = window_fraction
        self._window = 0.0

    def _build(self) -> float:
        seconds, diagonal = self._load_tree()
        self._window = self.window_fraction * diagonal
        return seconds

    @property
    def window(self) -> float:
        """Absolute grace-window size in model units."""
        return self._window

    def tune_window_for(self, per_step_displacement: float, target_update_fraction: float = 0.01) -> None:
        """Grow the grace window until the expected escape rate drops below target.

        ``per_step_displacement`` is the typical distance a vertex moves per
        simulation step; assuming an unpredictable direction, a window of
        ``displacement / target_fraction`` makes escapes (which need roughly
        ``window / displacement`` consecutive steps in the same direction)
        rare.  This is intentionally a simple heuristic — the point of the
        baseline is its behaviour class, not a faithful reimplementation of
        the original tuning advisor.
        """
        if per_step_displacement < 0 or not 0 < target_update_fraction <= 1:
            raise SpatialIndexError("invalid tuning parameters")
        self._window = max(self._window, per_step_displacement / target_update_fraction)

    def _escapees(
        self, delta: DeformationDelta, positions: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """The vertices that left their leaf's grace window.

        Every entry ends a step inside its leaf's window (escapees are
        reinserted exactly, and tightened MBRs still cover their remaining
        entries), so a sparse delta checks only the moved set and a full
        delta scans every leaf.  Touches no entry while checking.
        """
        tree = self.tree
        window = self._window
        if not delta.is_full:
            moved_ids = delta.moved_ids
            lo = np.array([tree._leaf_of[int(i)].lo for i in moved_ids])
            hi = np.array([tree._leaf_of[int(i)].hi for i in moved_ids])
            pts = positions[moved_ids]
            inside = np.all((pts >= lo - window) & (pts <= hi + window), axis=1)
            return moved_ids[~inside], 0
        leaves = {id(leaf): leaf for leaf in tree._leaf_of.values()}
        pieces: list[np.ndarray] = []
        for leaf in leaves.values():
            if not leaf.entries:
                continue
            ids = np.asarray(leaf.entries, dtype=np.int64)
            pts = positions[ids]
            inside = np.all((pts >= leaf.lo - window) & (pts <= leaf.hi + window), axis=1)
            if not inside.all():
                pieces.append(ids[~inside])
        return (np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)), 0

    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        return self.tree.query_many(
            boxes, self.mesh.vertices, counters_list, mbr_expansion=self._window
        )
