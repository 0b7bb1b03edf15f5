"""Baseline range-query execution strategies the paper compares against."""

from .linear_scan import LinearScanExecutor
from .lur_tree import LURTreeExecutor
from .octree import Octree, ThrowawayOctreeExecutor
from .qu_trade import QUTradeExecutor
from .rtree import RTree, RTreeNode
from .rum_tree import RUMTreeExecutor

__all__ = [
    "LURTreeExecutor",
    "LinearScanExecutor",
    "Octree",
    "QUTradeExecutor",
    "RTree",
    "RTreeNode",
    "RUMTreeExecutor",
    "ThrowawayOctreeExecutor",
]
