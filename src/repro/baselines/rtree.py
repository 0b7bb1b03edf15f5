"""An in-memory R-tree over vertex positions.

This is the substrate shared by the LUR-Tree and QU-Trade baselines (both of
which the paper implements "based on the same in-memory R-Tree implementation
with a fanout of 110", Section V-A).  The tree is bulk-loaded with the Sort-
Tile-Recursive (STR) algorithm and supports point deletion, insertion with
least-enlargement leaf choice, node splitting on overflow, and range queries
that count visited nodes.

Positions are read through a reference to the caller's position array, so the
tree sees in-place updates automatically; what it maintains itself are the
entry-to-leaf assignments and the node MBRs.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..core.result import QueryCounters
from ..errors import SpatialIndexError
from ..mesh import Box3D, boxes_to_arrays, points_in_boxes

__all__ = ["RTree", "RTreeNode"]


class RTreeNode:
    """A node of the R-tree (leaf nodes hold point ids, internal nodes hold children)."""

    __slots__ = ("lo", "hi", "children", "entries", "parent", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.lo = np.full(3, np.inf)
        self.hi = np.full(3, -np.inf)
        self.children: list["RTreeNode"] = []
        self.entries: list[int] = []
        self.parent: Optional["RTreeNode"] = None

    def extend_to_point(self, point: np.ndarray) -> None:
        self.lo = np.minimum(self.lo, point)
        self.hi = np.maximum(self.hi, point)

    def recompute_mbr(self, positions: np.ndarray) -> None:
        """Tighten the MBR from current children / entries."""
        if self.is_leaf:
            if self.entries:
                pts = positions[np.asarray(self.entries, dtype=np.int64)]
                self.lo = pts.min(axis=0)
                self.hi = pts.max(axis=0)
            else:
                self.lo = np.full(3, np.inf)
                self.hi = np.full(3, -np.inf)
        else:
            if self.children:
                self.lo = np.min([c.lo for c in self.children], axis=0)
                self.hi = np.max([c.hi for c in self.children], axis=0)
            else:
                self.lo = np.full(3, np.inf)
                self.hi = np.full(3, -np.inf)


class RTree:
    """STR-bulk-loaded R-tree over a point set with insert/delete support.

    Parameters
    ----------
    fanout:
        Maximum number of entries per leaf and children per internal node
        (the paper uses 110).
    """

    def __init__(self, fanout: int = 110) -> None:
        if fanout < 4:
            raise SpatialIndexError("R-tree fanout must be at least 4")
        self.fanout = fanout
        self.root: Optional[RTreeNode] = None
        self._positions: Optional[np.ndarray] = None
        self._leaf_of: dict[int, RTreeNode] = {}
        self.n_nodes = 0
        self.build_time = 0.0

    # ------------------------------------------------------------------
    # bulk loading (STR)
    # ------------------------------------------------------------------
    def bulk_load(self, positions: np.ndarray) -> float:
        """Build the tree from scratch with Sort-Tile-Recursive packing."""
        start = time.perf_counter()
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise SpatialIndexError("bulk_load needs a non-empty (n, 3) position array")
        self._positions = pts
        ids = np.arange(pts.shape[0], dtype=np.int64)
        leaf_groups = self._str_partition(ids, pts)
        leaves = []
        self._leaf_of = {}
        for group in leaf_groups:
            node = RTreeNode(is_leaf=True)
            node.entries = [int(i) for i in group]
            node.recompute_mbr(pts)
            for i in node.entries:
                self._leaf_of[i] = node
            leaves.append(node)
        self.root = self._build_upper_levels(leaves)
        self.n_nodes = self._count_nodes(self.root)
        self.build_time = time.perf_counter() - start
        return self.build_time

    def _str_partition(self, ids: np.ndarray, pts: np.ndarray) -> list[np.ndarray]:
        """Partition point ids into leaf-sized groups with STR tiling."""
        capacity = self.fanout
        n = ids.size
        n_leaves = int(np.ceil(n / capacity))
        slabs_x = int(np.ceil(n_leaves ** (1.0 / 3.0)))
        # Sort by x, slice into vertical slabs.
        order_x = ids[np.argsort(pts[ids, 0], kind="stable")]
        slab_size_x = int(np.ceil(n / slabs_x))
        groups: list[np.ndarray] = []
        for sx in range(0, n, slab_size_x):
            slab = order_x[sx:sx + slab_size_x]
            slabs_y = int(np.ceil(np.ceil(slab.size / capacity) ** 0.5))
            order_y = slab[np.argsort(pts[slab, 1], kind="stable")]
            slab_size_y = int(np.ceil(slab.size / max(slabs_y, 1)))
            for sy in range(0, slab.size, max(slab_size_y, 1)):
                column = order_y[sy:sy + slab_size_y]
                order_z = column[np.argsort(pts[column, 2], kind="stable")]
                for sz in range(0, column.size, capacity):
                    groups.append(order_z[sz:sz + capacity])
        return groups

    def _build_upper_levels(self, nodes: list[RTreeNode]) -> RTreeNode:
        """Pack nodes bottom-up until a single root remains."""
        if len(nodes) == 1:
            nodes[0].parent = None
            return nodes[0]
        level = nodes
        while len(level) > 1:
            # Order parents along x of child centroids for spatial locality.
            centers = np.array([(n.lo + n.hi) / 2.0 for n in level])
            order = np.argsort(centers[:, 0], kind="stable")
            parents = []
            for start in range(0, len(level), self.fanout):
                parent = RTreeNode(is_leaf=False)
                for idx in order[start:start + self.fanout]:
                    child = level[int(idx)]
                    child.parent = parent
                    parent.children.append(child)
                parent.lo = np.min([c.lo for c in parent.children], axis=0)
                parent.hi = np.max([c.hi for c in parent.children], axis=0)
                parents.append(parent)
            level = parents
        level[0].parent = None
        return level[0]

    def _count_nodes(self, node: Optional[RTreeNode]) -> int:
        if node is None:
            return 0
        if node.is_leaf:
            return 1
        return 1 + sum(self._count_nodes(child) for child in node.children)

    def _require_built(self) -> RTreeNode:
        if self.root is None or self._positions is None:
            raise SpatialIndexError("R-tree has not been bulk loaded")
        return self.root

    # ------------------------------------------------------------------
    # dynamic maintenance
    # ------------------------------------------------------------------
    def leaf_of(self, entry_id: int) -> RTreeNode:
        """The leaf currently storing ``entry_id``."""
        self._require_built()
        try:
            return self._leaf_of[int(entry_id)]
        except KeyError as exc:
            raise SpatialIndexError(f"entry {entry_id} is not in the R-tree") from exc

    def rebind_positions(self, positions: np.ndarray) -> None:
        """Re-point the tree at a grown position array (mesh restructuring).

        Restructuring replaces the mesh's position array object (appending
        new vertices to the tail), so the reference captured at
        :meth:`bulk_load` time goes stale.  Entry-to-leaf assignments and
        MBRs are untouched — pre-existing ids keep their positions — the tree
        merely reads positions through the new array from now on, which is
        required before :meth:`insert` can place entries for the new tail
        ids.
        """
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < len(self._leaf_of):
            raise SpatialIndexError("rebind_positions needs an (n, 3) array covering every entry")
        self._positions = pts

    def delete(self, entry_id: int) -> None:
        """Remove one entry from its leaf and tighten MBRs up the path."""
        leaf = self.leaf_of(entry_id)
        leaf.entries.remove(int(entry_id))
        del self._leaf_of[int(entry_id)]
        self._tighten_upwards(leaf)

    def reinsert(self, entry_ids: np.ndarray, positions: np.ndarray) -> int:
        """Relocate a batch of entries: delete + insert each at its new position.

        The entries are processed in ascending id order regardless of the
        order given, so delta-keyed incremental maintenance and a full-scan
        pass that found the same escapee set mutate the tree through the
        *identical* operation sequence — leaving bit-identical tree structure
        and therefore bit-identical query traversals and counters.  Returns
        the number of entries relocated.
        """
        ids = np.sort(np.asarray(entry_ids, dtype=np.int64))
        pts = np.asarray(positions)
        for entry_id in ids:
            self.delete(int(entry_id))
            self.insert(int(entry_id), pts[int(entry_id)])
        return int(ids.size)

    def insert(self, entry_id: int, point: np.ndarray) -> int:
        """Insert an entry at ``point``; returns the number of nodes visited."""
        root = self._require_built()
        visited = 0
        node = root
        while not node.is_leaf:
            visited += 1
            node = self._choose_child(node.children, point)
        visited += 1
        node.entries.append(int(entry_id))
        self._leaf_of[int(entry_id)] = node
        self._enlarge_upwards(node, point)
        if len(node.entries) > self.fanout:
            self._split_leaf(node)
        return visited

    @staticmethod
    def _choose_child(children: list[RTreeNode], point: np.ndarray) -> RTreeNode:
        """The child whose MBR grows least in volume to cover ``point``.

        Ties go to the smaller volume, then to the first child.  One pass
        over the children's corner arrays.
        """
        los = np.array([child.lo for child in children])
        his = np.array([child.hi for child in children])
        volume = np.prod(np.maximum(his - los, 0.0), axis=1)
        grown = np.prod(np.maximum(np.maximum(his, point) - np.minimum(los, point), 0.0), axis=1)
        return children[int(np.lexsort((volume, grown - volume))[0])]

    def _enlarge_upwards(self, node: RTreeNode, point: np.ndarray) -> None:
        current: Optional[RTreeNode] = node
        while current is not None:
            current.extend_to_point(point)
            current = current.parent

    def _tighten_upwards(self, node: RTreeNode) -> None:
        positions = self._positions
        current: Optional[RTreeNode] = node
        while current is not None:
            current.recompute_mbr(positions)
            current = current.parent

    def _split_leaf(self, leaf: RTreeNode) -> None:
        """Split an overflowing leaf along its longest MBR axis (midpoint split)."""
        positions = self._positions
        entries = np.asarray(leaf.entries, dtype=np.int64)
        pts = positions[entries]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        half = entries.size // 2
        left_ids = entries[order[:half]]
        right_ids = entries[order[half:]]

        leaf.entries = [int(i) for i in left_ids]
        sibling = RTreeNode(is_leaf=True)
        sibling.entries = [int(i) for i in right_ids]
        for i in sibling.entries:
            self._leaf_of[i] = sibling
        leaf.recompute_mbr(positions)
        sibling.recompute_mbr(positions)
        self.n_nodes += 1

        parent = leaf.parent
        if parent is None:
            # The leaf was the root: grow the tree by one level.
            new_root = RTreeNode(is_leaf=False)
            new_root.children = [leaf, sibling]
            leaf.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbr(positions)
            self.root = new_root
            self.n_nodes += 1
            return
        sibling.parent = parent
        parent.children.append(sibling)
        parent.recompute_mbr(positions)
        if len(parent.children) > self.fanout:
            self._split_internal(parent)

    def _split_internal(self, node: RTreeNode) -> None:
        """Split an overflowing internal node along the longest axis of child centres."""
        positions = self._positions
        centers = np.array([(c.lo + c.hi) / 2.0 for c in node.children])
        axis = int(np.argmax(centers.max(axis=0) - centers.min(axis=0)))
        order = np.argsort(centers[:, axis], kind="stable")
        half = len(node.children) // 2
        children = [node.children[int(i)] for i in order]
        left, right = children[:half], children[half:]

        node.children = left
        sibling = RTreeNode(is_leaf=False)
        sibling.children = right
        for child in right:
            child.parent = sibling
        node.recompute_mbr(positions)
        sibling.recompute_mbr(positions)
        self.n_nodes += 1

        parent = node.parent
        if parent is None:
            new_root = RTreeNode(is_leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbr(positions)
            self.root = new_root
            self.n_nodes += 1
            return
        sibling.parent = parent
        parent.children.append(sibling)
        parent.recompute_mbr(positions)
        if len(parent.children) > self.fanout:
            self._split_internal(parent)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query_many(
        self,
        boxes: Sequence[Box3D],
        positions: np.ndarray | None = None,
        counters_list: Sequence[QueryCounters | None] | None = None,
        mbr_expansion: float = 0.0,
    ) -> list[np.ndarray]:
        """Range queries: per box, the sorted ids of the entries whose position
        in ``positions`` lies in it, by one shared tree traversal.

        The tree is walked once per batch: every node carries the set of
        queries still *active* at it (the queries whose traversal would have
        reached it), node MBRs are tested against all active boxes in one
        vectorised pass, and each leaf's entry positions are gathered once and
        tested against every intersecting box with a single broadcast.  A
        box's result and counters (nodes visited, entries scanned) do not
        depend on the rest of the batch.  ``mbr_expansion`` expands every
        node MBR during traversal; QU-Trade uses this to account for its
        grace windows.
        """
        box_list = list(boxes)
        if not box_list:
            return []
        root = self._require_built()
        pts = np.asarray(positions if positions is not None else self._positions)
        los, his = boxes_to_arrays(box_list)
        n_queries = len(box_list)
        nodes_visited = np.zeros(n_queries, dtype=np.int64)
        scanned = np.zeros(n_queries, dtype=np.int64)
        found: list[list[np.ndarray]] = [[] for _ in range(n_queries)]

        stack: list[tuple[RTreeNode, np.ndarray]] = [(root, np.arange(n_queries))]
        while stack:
            node, active = stack.pop()
            nodes_visited[active] += 1
            if not np.all(np.isfinite(node.lo)):
                continue
            node_lo = node.lo - mbr_expansion
            node_hi = node.hi + mbr_expansion
            hit = np.all((node_lo <= his[active]) & (los[active] <= node_hi), axis=1)
            live = active[hit]
            if live.size == 0:
                continue
            if node.is_leaf:
                if node.entries:
                    ids = np.asarray(node.entries, dtype=np.int64)
                    scanned[live] += ids.size
                    inside = points_in_boxes(pts[ids], los[live], his[live])
                    for row, query_index in enumerate(live):
                        mask = inside[row]
                        if mask.any():
                            found[query_index].append(ids[mask])
            else:
                for child in node.children:
                    stack.append((child, live))

        if counters_list is not None:
            for query_index, counters in enumerate(counters_list):
                if counters is not None:
                    counters.index_nodes_visited += int(nodes_visited[query_index])
                    counters.vertices_scanned += int(scanned[query_index])
        return [
            np.sort(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64)
            for pieces in found
        ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Number of levels of the tree."""
        node = self._require_built()
        levels = 1
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    def memory_bytes(self) -> int:
        """Approximate footprint: MBRs, child/entry lists, and the entry-to-leaf map."""
        if self.root is None:
            return 0
        per_node = 2 * 3 * 8 + 64           # two MBR corners plus object overhead
        n_entries = len(self._leaf_of)
        return self.n_nodes * per_node + n_entries * 16 + n_entries * 100
