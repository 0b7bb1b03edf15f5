"""The index trees' shared search, one box kind at a time.

Every index baseline answers a one-box query as a batch of one through its
tree's ``query_many``, so that one search must also get the edge cases
right: boxes that miss the tree or cover all of it, and boxes with no extent
along one, two or three axes.  For each tree shape and each box kind, the
search returns what a brute-force scan returns, and a box gets the same ids
and counters alone as at any place in a batch.
"""

import numpy as np
import pytest

from repro.baselines import Octree, RTree
from repro.core import QueryCounters
from repro.mesh import Box3D, points_in_box


def _points():
    """A 9^3 lattice, scattered points, and exact copies of some lattice
    points: ties on every axis and coincident points no split separates."""
    axis = np.linspace(0.0, 1.0, 9)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    scattered = np.random.default_rng(5).uniform(0.01, 0.99, size=(400, 3))
    return np.vstack([lattice, scattered, lattice[::17]])


POINTS = _points()
#: a lattice point stored twice (its copy sits at the end of ``POINTS``)
TWICE = POINTS[17]

BOXES = {
    "random": Box3D((0.2, 0.3, 0.1), (0.55, 0.8, 0.45)),
    "outside": Box3D.cube((3.0, 3.0, 3.0), 0.5),
    "whole": Box3D.from_points(POINTS),
    "enclosing": Box3D((-1.0, -1.0, -1.0), (2.0, 2.0, 2.0)),
    "plane": Box3D((0.5, -1.0, -1.0), (0.5, 2.0, 2.0)),
    "line": Box3D((0.25, 0.75, -1.0), (0.25, 0.75, 2.0)),
    "point": Box3D(TWICE, TWICE),
    "corner": Box3D((-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),
    "face": Box3D((1.0, 0.0, 0.0), (2.0, 1.0, 1.0)),
}


def _octree(bucket_size):
    def build():
        tree = Octree(bucket_size=bucket_size)
        tree.build(POINTS)
        return tree, lambda boxes, counters: tree.query_many(boxes, POINTS, counters)

    return build


def _rtree(mbr_expansion=0.0):
    def build():
        tree = RTree(fanout=8)
        tree.bulk_load(POINTS)
        return tree, lambda boxes, counters: tree.query_many(boxes, POINTS, counters, mbr_expansion=mbr_expansion)

    return build


def _grown_rtree():
    """Bulk-load half the points, insert the rest, then relocate every fifth
    entry: the shape an R-tree baseline has after maintenance."""
    tree = RTree(fanout=8)
    half = POINTS.shape[0] // 2
    tree.bulk_load(POINTS[:half])
    tree.rebind_positions(POINTS)
    for entry_id in range(half, POINTS.shape[0]):
        tree.insert(entry_id, POINTS[entry_id])
    tree.reinsert(np.arange(0, POINTS.shape[0], 5), POINTS)
    return tree, lambda boxes, counters: tree.query_many(boxes, POINTS, counters)


TREES = {
    "octree": _octree(32),
    # Bucket size 1 splits down to the depth limit around the copies.
    "octree-deep": _octree(1),
    "rtree": _rtree(),
    # QU-Trade's traversal: node MBRs widened by its grace window.
    "rtree-expanded": _rtree(mbr_expansion=0.05),
    "rtree-grown": _grown_rtree,
}


@pytest.fixture(scope="module", params=sorted(TREES))
def tree_search(request):
    return TREES[request.param]()


def _search(search, boxes):
    counters = [QueryCounters() for _ in boxes]
    return search(boxes, counters), counters


@pytest.mark.parametrize("kind", sorted(BOXES))
def test_matches_brute_force(tree_search, kind):
    tree, search = tree_search
    box = BOXES[kind]
    (ids,), (counters,) = _search(search, [box])
    expected = np.nonzero(points_in_box(POINTS, box))[0]
    assert ids.dtype == np.int64
    assert np.array_equal(ids, expected)
    if kind == "outside":
        # Only the root is looked at.
        assert counters.index_nodes_visited == 1
        assert counters.vertices_scanned == 0
    if kind in ("whole", "enclosing"):
        # Every node is reached and every stored point scanned once.
        assert counters.index_nodes_visited == tree.n_nodes
        assert counters.vertices_scanned == POINTS.shape[0] == ids.size
    if kind == "point":
        assert ids.size == 2 and np.array_equal(POINTS[ids], [TWICE, TWICE])


@pytest.mark.parametrize("kind", sorted(BOXES))
def test_alone_as_in_any_batch(tree_search, kind):
    _, search = tree_search
    box = BOXES[kind]
    (alone,), (alone_counters,) = _search(search, [box])
    every_kind = [BOXES[other] for other in sorted(BOXES)]
    for batch in (every_kind, every_kind[::-1], [box, box]):
        ids_list, counters_list = _search(search, batch)
        positions = [i for i, candidate in enumerate(batch) if candidate is box]
        assert positions
        for position in positions:
            assert np.array_equal(ids_list[position], alone)
            assert counters_list[position] == alone_counters
