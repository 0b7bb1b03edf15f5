"""The three hot loops of the fused query engine, as one NumPy kernel object.

The fused query paths spend almost all of their time in three loops: the
fused-crawl frontier expansion (stamp newly reached (vertex, query) pairs
and test positions against the owning boxes — see
:func:`repro.core.crawler._crawl_fused`), the fused directed walk's
(query, vertex) box-distance kernel
(:func:`repro.core.directed_walk.directed_walk_many`), and the batched
box-membership test of the OCTOPUS surface probe.  :class:`KernelBackend`
holds those loops as three methods so each is one named entry point that a
profiler can wrap and time; :data:`KERNELS` is the instance the engine
calls.  Every method computes in float64 with the arithmetic of
:mod:`repro.mesh.geometry`, so a box's answer does not depend on the other
boxes of its batch.
"""

from __future__ import annotations

import numpy as np

from ..mesh.adjacency import sorted_unique
from ..mesh.geometry import columns_in_boxes, offset_norms, points_in_boxes as _points_in_boxes

__all__ = ["KERNELS", "KernelBackend"]


class KernelBackend:
    """The fused query engine's three hot loops (NumPy, float64)."""

    # ------------------------------------------------------------------
    # kernel 1: batched box membership
    # ------------------------------------------------------------------
    def points_in_boxes(self, points: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Membership of ``(n, 3)`` points in each of ``(m, 3)`` lo/hi boxes.

        Returns an ``(m, n)`` boolean mask, exactly like
        :func:`repro.mesh.points_in_boxes`.
        """
        return _points_in_boxes(points, los, his)

    # ------------------------------------------------------------------
    # kernel 2: fused-walk pair distances
    # ------------------------------------------------------------------
    def pair_box_distances(
        self,
        positions: np.ndarray,
        pair_vertices: np.ndarray,
        pair_owners: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Box distances of (query, vertex) pairs, gathering each vertex once.

        The fused walk's distance kernel: for every pair, the Euclidean
        distance from ``positions[vertex]`` to the owner query's box, with
        the exact arithmetic of :func:`repro.mesh.points_box_distance`.
        Positions are gathered per *distinct* vertex and fanned back out;
        the distinct-vertex count is returned for the unique-work accounting.
        """
        unique_vertices, inverse = np.unique(pair_vertices, return_inverse=True)
        points = positions.take(unique_vertices, axis=0)[inverse]
        delta = np.maximum(los[pair_owners] - points, 0.0)
        delta += np.maximum(points - his[pair_owners], 0.0)
        return offset_norms(delta), int(unique_vertices.size)

    # ------------------------------------------------------------------
    # kernel 3: fused-crawl stamp-and-test
    # ------------------------------------------------------------------
    def crawl_stamp_and_test(
        self,
        reached: np.ndarray,
        reach_bits: np.ndarray,
        word_columns: np.ndarray,
        positions: np.ndarray,
        bounds: list[tuple[np.ndarray, ...]],
        bits,
        attribution_chunk: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fused-crawl level: stamp fresh (vertex, query) pairs, test boxes.

        Parameters mirror the state of one
        :func:`repro.core.crawler._crawl_fused` level: the vertex ids the
        level reached (a vertex reached along several edges repeats) with
        the ownership row each reach carries, the batch's visited rows
        (``word_columns``, see :class:`repro.core.scratch.CrawlScratch`), the
        mesh positions, the box corners of each ownership word's queries as
        :func:`repro.mesh.geometry.box_bounds` columns, the batch's
        ownership-bit helper (``bits``, a
        :class:`repro.core.crawler._OwnershipBits` providing ``word_masks``),
        and the candidate-axis chunk bounding the membership transients.  The
        reaches OR into the visited rows, so a vertex reached twice is
        stamped, counted and position-tested once.  A vertex joins a query's
        frontier when the query reached it fresh and its position lies in
        the query's box.

        Returns ``(frontier, frontier_bits, fresh)``: the next union frontier
        (ascending ids of vertices inside at least one owning box), its
        ownership rows, and the vertices stamped fresh for at least one query
        (their count is the level's unique visit count).
        """
        candidates = sorted_unique(reached)
        previous = word_columns.take(candidates, axis=0)
        np.bitwise_or.at(word_columns, reached, reach_bits)
        gained = word_columns.take(candidates, axis=0)
        gained ^= previous
        fresh = np.logical_or.reduce(gained, axis=1).nonzero()[0]
        candidates = candidates.take(fresh)
        frontier_bits = gained.take(fresh, axis=0)
        for lo_index in range(0, candidates.size, attribution_chunk):
            hi_index = lo_index + attribution_chunk
            xs, ys, zs = positions.take(candidates[lo_index:hi_index], axis=0).T.copy()
            for word, (masks, word_bounds) in enumerate(zip(bits.word_masks, bounds)):
                frontier_bits[lo_index:hi_index, word] &= masks @ columns_in_boxes(xs, ys, zs, word_bounds)
        keep = np.logical_or.reduce(frontier_bits, axis=1).nonzero()[0]
        return candidates.take(keep), frontier_bits.take(keep, axis=0), candidates


#: the kernel instance the fused crawl, the fused walk and the surface probe call
KERNELS = KernelBackend()
