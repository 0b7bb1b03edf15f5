"""The LUR-Tree baseline (lazy update R-tree, Kwon et al. 2002).

The LUR-Tree avoids costly R-tree maintenance when an updated object stays
inside the minimum bounding rectangle of its current leaf: in that case only
the stored position changes (which in this reproduction is automatic, since
the index reads positions straight from the mesh's live array).  For objects
that step just outside their leaf MBR the LUR-Tree applies its lazy *MBR
extension* operation (grow the leaf rectangle instead of reorganising the
tree); only objects that move far trigger a delete followed by a reinsert.

With the "almost every vertex moves a little every step" workload of mesh
simulations, the check itself already costs a pass over all objects per step,
MBR extensions accumulate overlap that hurts queries, and the far movers still
trigger R-tree restructuring — which is why the paper measures the LUR-Tree
spending ~80% of its time on maintenance (Figure 6a).
"""

from __future__ import annotations

import numpy as np

from ..core.delta import DeformationDelta
from ..core.result import QueryCounters
from ..mesh import Box3D
from .index_executor import _RTreeExecutor
from .rtree import RTreeNode

__all__ = ["LURTreeExecutor"]


class LURTreeExecutor(_RTreeExecutor):
    """Lazy-update R-tree over the mesh vertices.

    Parameters
    ----------
    fanout:
        R-tree fanout (the paper uses 110).
    extension_fraction:
        Moves shorter than this fraction of the mesh bounding-box diagonal are
        absorbed by extending the leaf MBR (the LUR-Tree's lazy extension);
        longer moves are handled with delete + reinsert.
    """

    name = "lur-tree"

    def __init__(self, fanout: int = 110, extension_fraction: float = 0.02) -> None:
        super().__init__(fanout)
        self.extension_fraction = extension_fraction
        self._extension_distance = 0.0
        #: objects handled by delete + reinsert (as opposed to MBR extension)
        self.n_reinserts = 0
        #: objects handled by the cheap MBR-extension path
        self.n_extensions = 0

    def _build(self) -> float:
        seconds, diagonal = self._load_tree()
        self._extension_distance = self.extension_fraction * diagonal
        return seconds

    def _escapees(
        self, delta: DeformationDelta, positions: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Lazy maintenance: vertices still inside their leaf MBR need
        nothing, vertices slightly outside extend the leaf MBR (and its
        ancestors), and vertices that moved far are returned for reinsertion.

        Every entry ends each step inside its leaf's rectangle, so a sparse
        delta checks only the moved set, at a cost proportional to the
        motion; a full delta scans every leaf.  Both paths apply the same
        extensions.  Returns the far escapees and the extensions applied.
        """
        if delta.is_full:
            escapees, extended = self._check_all_leaves(positions)
        else:
            escapees, extended = self._check_moved(delta.moved_ids, positions)
        self.n_reinserts += int(escapees.size)
        return escapees, extended

    def _extend_leaf(self, leaf: RTreeNode, near_pts: np.ndarray) -> None:
        """Lazy MBR extension: grow ``leaf`` (and ancestors) over ``near_pts``
        without touching the tree structure."""
        new_lo = np.minimum(leaf.lo, near_pts.min(axis=0))
        new_hi = np.maximum(leaf.hi, near_pts.max(axis=0))
        leaf.lo, leaf.hi = new_lo, new_hi
        parent = leaf.parent
        while parent is not None:
            parent.lo = np.minimum(parent.lo, new_lo)
            parent.hi = np.maximum(parent.hi, new_hi)
            parent = parent.parent

    def _check_all_leaves(self, positions: np.ndarray) -> tuple[np.ndarray, int]:
        """Full-mesh pass: test every entry of every leaf (the delta-blind path).

        Returns the far escapee ids and the number of MBR extensions applied.
        """
        threshold = self._extension_distance
        tree = self.tree
        extended = 0
        reinserts: list[np.ndarray] = []
        # Group the containment test by leaf so the inner check is vectorised.
        leaves = {id(leaf): leaf for leaf in tree._leaf_of.values()}
        for leaf in leaves.values():
            if not leaf.entries:
                continue
            ids = np.asarray(leaf.entries, dtype=np.int64)
            pts = positions[ids]
            overshoot = np.maximum(leaf.lo - pts, 0.0) + np.maximum(pts - leaf.hi, 0.0)
            distance = np.linalg.norm(overshoot, axis=1)
            escaped = distance > 0.0
            if not escaped.any():
                continue
            near = escaped & (distance <= threshold)
            far = escaped & (distance > threshold)
            if near.any():
                self._extend_leaf(leaf, pts[near])
                self.n_extensions += int(near.sum())
                extended += int(near.sum())
            if far.any():
                reinserts.append(ids[far])
        escapees = (
            np.concatenate(reinserts) if reinserts else np.empty(0, dtype=np.int64)
        )
        return escapees, extended

    def _check_moved(
        self, moved_ids: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Delta path: test only the moved entries against their own leaf MBRs.

        One vectorised overshoot evaluation over the moved set, then MBR
        extensions grouped by leaf exactly as the full scan would have applied
        them (unmoved entries sit at overshoot zero, so the decisions match).
        """
        threshold = self._extension_distance
        tree = self.tree
        leaf_refs = [tree._leaf_of[int(i)] for i in moved_ids]
        lo = np.array([leaf.lo for leaf in leaf_refs])
        hi = np.array([leaf.hi for leaf in leaf_refs])
        pts = positions[moved_ids]
        overshoot = np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)
        distance = np.linalg.norm(overshoot, axis=1)
        escaped = distance > 0.0
        extended = 0
        if not escaped.any():
            return np.empty(0, dtype=np.int64), extended
        near = escaped & (distance <= threshold)
        if near.any():
            by_leaf: dict[int, tuple[RTreeNode, list[int]]] = {}
            for row in np.nonzero(near)[0]:
                leaf = leaf_refs[int(row)]
                by_leaf.setdefault(id(leaf), (leaf, []))[1].append(int(row))
            for leaf, rows in by_leaf.values():
                self._extend_leaf(leaf, pts[rows])
                self.n_extensions += len(rows)
                extended += len(rows)
        return moved_ids[escaped & ~near], extended

    def _search_many(
        self, boxes: list[Box3D], counters_list: list[QueryCounters]
    ) -> list[np.ndarray]:
        return self.tree.query_many(boxes, self.mesh.vertices, counters_list)
