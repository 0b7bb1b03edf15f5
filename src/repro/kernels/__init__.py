"""The three hot loops of the fused query engine, as one NumPy kernel object.

The fused query paths spend almost all of their time in three loops: the
fused-crawl frontier expansion (stamp newly reached (vertex, query) pairs,
count them, test positions against the owning boxes — see
:func:`repro.core.crawler._crawl_fused`), the fused directed walk's
(query, vertex) box-distance kernel
(:func:`repro.core.directed_walk.directed_walk_many`), and the batched
box-membership test of the OCTOPUS surface probe.  :class:`KernelBackend`
holds those loops as three methods so each is one named entry point that a
profiler can wrap and time; :data:`KERNELS` is the instance the engine
calls.  Every method computes in float64 with the arithmetic of the
sequential code paths, so batched and sequential queries agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..mesh.geometry import box_batch_chunk, offset_norms, points_in_boxes as _points_in_boxes

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
        points = positions[unique_vertices][inverse]
        delta = np.maximum(los[pair_owners] - points, 0.0)
        delta += np.maximum(points - his[pair_owners], 0.0)
        return offset_norms(delta), int(unique_vertices.size)

    # ------------------------------------------------------------------
    # kernel 3: fused-crawl stamp-and-test
    # ------------------------------------------------------------------
    def crawl_stamp_and_test(
        self,
        candidates: np.ndarray,
        reach_bits: np.ndarray,
        stamps: np.ndarray,
        word_columns: np.ndarray,
        epoch: int,
        positions: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
        bits,
        visited_per_query: np.ndarray,
        attribution_chunk: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One fused-crawl level: stamp fresh (vertex, query) pairs, test boxes.

        Parameters mirror the state of one
        :func:`repro.core.crawler._crawl_fused` level: sorted candidate ids
        with their reachability bitset rows, the epoch-stamped arena
        (``stamps`` / ``word_columns`` / ``epoch``), the mesh positions, the
        stacked box corners, the batch's ownership-bit helper (``bits``, a
        :class:`repro.core.crawler._OwnershipBits` providing
        ``owned_matrix`` / ``pack`` / ``n_queries``), the per-query visit
        counters (updated in place), and the candidate-axis chunk bounding
        the attribution transients.

        Returns ``(frontier, frontier_bits, n_fresh)``: the next union
        frontier (candidates inside at least one owning box, in candidate
        order), its ownership rows, and how many candidates were freshly
        stamped (the level's unique visit count).
        """
        zero = np.uint64(0)
        previous = np.where(
            (stamps[candidates] == epoch)[:, None], word_columns[candidates], zero
        )
        new_bits = reach_bits & ~previous
        fresh = (new_bits != zero).any(axis=1)
        candidates = candidates[fresh]
        if candidates.size == 0:
            return candidates, new_bits[fresh], 0
        new_bits = new_bits[fresh]
        word_columns[candidates] = previous[fresh] | new_bits
        stamps[candidates] = epoch
        n_fresh = int(candidates.size)
        frontier_pieces: list[np.ndarray] = []
        bit_pieces: list[np.ndarray] = []
        for lo_index in range(0, candidates.size, attribution_chunk):
            hi_index = lo_index + attribution_chunk
            chunk_candidates = candidates[lo_index:hi_index]
            owned = bits.owned_matrix(new_bits[lo_index:hi_index])
            visited_per_query += owned.sum(axis=0)
            inside = self._inside_per_query(positions, chunk_candidates, los, his)
            in_frontier = owned & inside.T
            chunk_bits = bits.pack(in_frontier)
            keep = (chunk_bits != zero).any(axis=1)
            if keep.any():
                frontier_pieces.append(chunk_candidates[keep])
                bit_pieces.append(chunk_bits[keep])
        if frontier_pieces:
            frontier = np.concatenate(frontier_pieces)
            frontier_bits = np.concatenate(bit_pieces)
        else:
            frontier = np.empty(0, dtype=np.int64)
            frontier_bits = np.empty((0, reach_bits.shape[1]), dtype=np.uint64)
        return frontier, frontier_bits, n_fresh

    def _inside_per_query(
        self, positions: np.ndarray, candidates: np.ndarray, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """``(n_queries, n_candidates)`` membership of candidate positions."""
        points = positions[candidates]
        out = np.empty((los.shape[0], candidates.size), dtype=bool)
        chunk = box_batch_chunk(candidates.size)
        for lo_index in range(0, los.shape[0], chunk):
            hi_index = lo_index + chunk
            out[lo_index:hi_index] = self.points_in_boxes(
                points, los[lo_index:hi_index], his[lo_index:hi_index]
            )
        return out


#: the kernel instance the fused crawl, the fused walk and the surface probe call
KERNELS = KernelBackend()
