"""Axis-aligned boxes and basic 3D geometry used throughout the library.

The central type is :class:`Box3D`, which represents both range queries and
bounding boxes.  All operations are vectorised over NumPy arrays of points so
that the linear scan baseline and the surface probe can test millions of
vertices without Python-level loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import GeometryError

__all__ = [
    "Box3D",
    "points_in_box",
    "points_in_boxes",
    "point_box_distance",
    "points_box_distance",
    "points_boxes_distance_sq",
    "boxes_to_arrays",
    "box_batch_chunk",
    "bounding_box",
    "boxes_overlap_volume",
]

#: cap on the (n_boxes x n_points) elements a batched box kernel materialises
_BROADCAST_ELEMENT_BUDGET = 4_000_000


@dataclass(frozen=True)
class Box3D:
    """An axis-aligned three dimensional box (used for range queries and MBRs).

    Parameters
    ----------
    lo:
        Length-3 array-like with the minimum corner ``(x, y, z)``.
    hi:
        Length-3 array-like with the maximum corner ``(x, y, z)``.

    The box is closed: points exactly on a face are considered inside.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise GeometryError("box corners must be finite")
        if np.any(lo > hi):
            raise GeometryError(f"box minimum corner {lo} exceeds maximum corner {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_center(cls, center: Sequence[float], extents: Sequence[float]) -> "Box3D":
        """Build a box from its center and full edge lengths."""
        center_arr = np.asarray(center, dtype=np.float64).reshape(3)
        extents_arr = np.asarray(extents, dtype=np.float64).reshape(3)
        if np.any(extents_arr < 0):
            raise GeometryError("box extents must be non-negative")
        half = extents_arr / 2.0
        return cls(center_arr - half, center_arr + half)

    @classmethod
    def cube(cls, center: Sequence[float], side: float) -> "Box3D":
        """Build an axis-aligned cube of the given side length."""
        return cls.from_center(center, (side, side, side))

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Box3D":
        """Return the tight bounding box of a non-empty ``(n, 3)`` point set."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise GeometryError("from_points expects a non-empty (n, 3) array")
        return cls(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------
    # scalar properties
    # ------------------------------------------------------------------
    @property
    def center(self) -> np.ndarray:
        """The center point of the box."""
        return (self.lo + self.hi) / 2.0

    @property
    def extents(self) -> np.ndarray:
        """Full edge lengths along each axis."""
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        """Volume of the box (0 for degenerate boxes)."""
        return float(np.prod(self.extents))

    @property
    def surface_area(self) -> float:
        """Total surface area of the box."""
        dx, dy, dz = self.extents
        return float(2.0 * (dx * dy + dy * dz + dz * dx))

    # ------------------------------------------------------------------
    # point predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """Return True if ``point`` lies inside (or on the boundary of) the box."""
        p = np.asarray(point, dtype=np.float64).reshape(3)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an ``(n, 3)`` array of points."""
        return points_in_box(points, self)

    def distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the box (0 if inside)."""
        return point_box_distance(np.asarray(point, dtype=np.float64), self)

    # ------------------------------------------------------------------
    # box/box predicates
    # ------------------------------------------------------------------
    def intersects(self, other: "Box3D") -> bool:
        """Return True if the two boxes share at least one point."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def contains_box(self, other: "Box3D") -> bool:
        """Return True if ``other`` lies entirely inside this box."""
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def intersection(self, other: "Box3D") -> "Box3D | None":
        """Return the overlap box, or None if the boxes are disjoint."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return Box3D(lo, hi)

    def union(self, other: "Box3D") -> "Box3D":
        """Return the smallest box enclosing both boxes."""
        return Box3D(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def expanded(self, margin: float) -> "Box3D":
        """Return a copy grown by ``margin`` on every side (shrunk if negative)."""
        lo = self.lo - margin
        hi = self.hi + margin
        if np.any(lo > hi):
            raise GeometryError("negative margin collapses the box")
        return Box3D(lo, hi)

    def scaled(self, factor: float) -> "Box3D":
        """Return a copy scaled about its center by ``factor`` per axis."""
        if factor < 0:
            raise GeometryError("scale factor must be non-negative")
        return Box3D.from_center(self.center, self.extents * factor)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def corners(self) -> np.ndarray:
        """Return the 8 corner points of the box as an ``(8, 3)`` array."""
        xs = (self.lo[0], self.hi[0])
        ys = (self.lo[1], self.hi[1])
        zs = (self.lo[2], self.hi[2])
        return np.array([(x, y, z) for x in xs for y in ys for z in zs], dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box3D(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def points_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Return a boolean mask of which rows of ``points`` lie inside ``box``.

    Parameters
    ----------
    points:
        ``(n, 3)`` array of coordinates.
    box:
        The query box.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError("points_in_box expects an (n, 3) array")
    return np.all((pts >= box.lo) & (pts <= box.hi), axis=1)


def offset_norms(delta: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an ``(n, 3)`` point-to-box offset array.

    ``np.linalg.norm`` squares before it sums, so an offset below about
    1e-154 underflows to a norm of 0, which every caller reads as "inside
    the box".  Only rows whose norm came out 0 although their offset is
    non-zero are recomputed, scaled by their largest component; every other
    row keeps the bits ``np.linalg.norm`` gave it.
    """
    norms = np.linalg.norm(delta, axis=1)
    lost = np.flatnonzero(norms == 0.0)
    lost = lost[delta[lost].any(axis=1)]
    if lost.size:
        rows = delta[lost]
        scale = np.abs(rows).max(axis=1, keepdims=True)
        norms[lost] = scale[:, 0] * np.linalg.norm(rows / scale, axis=1)
    return norms


def point_box_distance(point: np.ndarray, box: Box3D) -> float:
    """Euclidean distance from a single point to a box (0 inside the box)."""
    p = np.asarray(point, dtype=np.float64).reshape(1, 3)
    delta = np.maximum(box.lo - p, 0.0) + np.maximum(p - box.hi, 0.0)
    return float(offset_norms(delta)[0])


def points_box_distance(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Vectorised Euclidean distance from each row of ``points`` to ``box``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError("points_box_distance expects an (n, 3) array")
    delta = np.maximum(box.lo - pts, 0.0) + np.maximum(pts - box.hi, 0.0)
    return offset_norms(delta)


def boxes_to_arrays(boxes: "Iterable[Box3D]") -> tuple[np.ndarray, np.ndarray]:
    """Stack a sequence of boxes into ``(n_boxes, 3)`` lo and hi corner arrays.

    The stacked form is what the batched query paths broadcast against whole
    point sets, testing every box in a single NumPy pass.
    """
    box_list = list(boxes)
    if not box_list:
        empty = np.empty((0, 3), dtype=np.float64)
        return empty, empty.copy()
    return np.array([b.lo for b in box_list]), np.array([b.hi for b in box_list])


def _contiguous_columns(points: np.ndarray, caller: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x/y/z columns of an ``(n, 3)`` point array as contiguous 1-D arrays.

    The box-batch kernels below work axis by axis on 2-D ``(m, n)``
    broadcasts — an order of magnitude faster than materialising the
    ``(m, n, 3)`` cube and reducing over the last axis.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError(f"{caller} expects an (n, 3) point array")
    xs, ys, zs = pts.T.copy()
    return xs, ys, zs


def box_batch_chunk(n_points: int) -> int:
    """How many boxes :func:`points_in_boxes` / :func:`points_boxes_distance_sq`
    should be fed per call against ``n_points`` points.

    Keeps each ``(chunk, n_points)`` intermediate under a fixed element
    budget; callers loop over the box axis in slices of this size.
    """
    return max(1, _BROADCAST_ELEMENT_BUDGET // (int(n_points) + 1))


def points_in_boxes(points: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Membership of ``(n, 3)`` points in each of ``(m, 3)`` lo/hi boxes.

    Returns an ``(m, n)`` boolean mask.  Intermediates are ``m * n``
    elements, so callers with very large batches should chunk over the box
    axis (see :func:`box_batch_chunk`).
    """
    return columns_in_boxes(*_contiguous_columns(points, "points_in_boxes"), box_bounds(los, his))


def box_bounds(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, ...]:
    """The six ``(m, 1)`` corner columns :func:`columns_in_boxes` compares against.

    A caller testing many point sets against the same boxes builds them once.
    """
    return los[:, 0, None], his[:, 0, None], los[:, 1, None], his[:, 1, None], los[:, 2, None], his[:, 2, None]


def columns_in_boxes(
    xs: np.ndarray, ys: np.ndarray, zs: np.ndarray, bounds: tuple[np.ndarray, ...]
) -> np.ndarray:
    """:func:`points_in_boxes` of points given as x/y/z columns, boxes as :func:`box_bounds`."""
    x_lo, x_hi, y_lo, y_hi, z_lo, z_hi = bounds
    inside = xs >= x_lo
    inside &= xs <= x_hi
    inside &= ys >= y_lo
    inside &= ys <= y_hi
    inside &= zs >= z_lo
    inside &= zs <= z_hi
    return inside


def points_boxes_distance_sq(points: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Squared distance of ``(n, 3)`` points to each of ``(m, 3)`` lo/hi boxes.

    Returns an ``(m, n)`` array; squared distances preserve the argmin the
    batched probe needs while skipping the square root.
    """
    xs, ys, zs = _contiguous_columns(points, "points_boxes_distance_sq")
    dx = np.maximum(los[:, 0, None] - xs, 0.0) + np.maximum(xs - his[:, 0, None], 0.0)
    dy = np.maximum(los[:, 1, None] - ys, 0.0) + np.maximum(ys - his[:, 1, None], 0.0)
    dz = np.maximum(los[:, 2, None] - zs, 0.0) + np.maximum(zs - his[:, 2, None], 0.0)
    return dx * dx + dy * dy + dz * dz


def bounding_box(points: np.ndarray) -> Box3D:
    """Return the tight axis-aligned bounding box of a point set."""
    return Box3D.from_points(points)


def boxes_overlap_volume(a: Box3D, b: Box3D) -> float:
    """Volume of the intersection of two boxes (0 when disjoint)."""
    overlap = a.intersection(b)
    return 0.0 if overlap is None else overlap.volume
