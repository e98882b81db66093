"""Bounding-box arithmetic, IoU, and 2D affine transform fitting.

Boxes use the center+size convention (cx, cy, w, h) everywhere inside the
package; the corner convention only appears at file-format boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import DegenerateBox, DegenerateCorrespondence


@dataclass(frozen=True)
class BoundingBox:
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        isfinite = math.isfinite
        if not (isfinite(self.cx) and isfinite(self.cy)
                and isfinite(self.w) and isfinite(self.h)):
            raise DegenerateBox(f"non-finite box {self!r}")
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBox(f"non-positive size w={self.w} h={self.h}")

    def corners(self) -> np.ndarray:
        """4x2 array of corner coordinates (tl, tr, br, bl)."""
        x1, y1, x2, y2 = self.to_xyxy()
        return np.array([[x1, y1], [x2, y1], [x2, y2], [x1, y2]])

    def to_xyxy(self) -> tuple[float, float, float, float]:
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

    @staticmethod
    def from_ltwh(left: float, top: float, w: float, h: float) -> "BoundingBox":
        """The box with top-left corner (left, top) and size (w, h), as MOT
        files give it. The centre can overflow where these four values are
        finite; the error then says so and names them."""
        cx, cy = left + w / 2.0, top + h / 2.0
        if (all(map(math.isfinite, (left, top, w, h)))
                and not (math.isfinite(cx) and math.isfinite(cy))):
            raise DegenerateBox(f"box centre overflows: bb_left={left} bb_top={top} w={w} h={h}")
        return BoundingBox(cx, cy, w, h)

    @staticmethod
    def from_xyxy(x1: float, y1: float, x2: float, y2: float) -> "BoundingBox":
        return BoundingBox((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)


@dataclass(frozen=True)
class AffineTransform:
    """Row-major 2x3 affine matrix; the bottom row is implicitly [0, 0, 1]."""

    m11: float
    m12: float
    m13: float
    m21: float
    m22: float
    m23: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12, self.m13],
                         [self.m21, self.m22, self.m23]])

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        lin = np.array([[self.m11, self.m12], [self.m21, self.m22]])
        return pts @ lin.T + np.array([self.m13, self.m23])


_CENTRE_SIZE = attrgetter("cx", "cy", "w", "h")


def _edges(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The low edges (x1, y1) and high edges (x2, y2) of the boxes as two
    (2 × n) arrays, computed as `to_xyxy` does, and their areas."""
    m = np.fromiter(chain.from_iterable(map(_CENTRE_SIZE, boxes)), float).reshape(-1, 4).T
    half = m[2:] / 2.0
    # rows in C order: the pairwise passes read each row contiguously
    return np.subtract(m[:2], half, order="C"), np.add(m[:2], half, order="C"), m[2] * m[3]


def iou(a, b) -> np.ndarray:
    """Pairwise intersection-over-union of two box sequences: the
    (len(a), len(b)) matrix, entries in [0, 1] up to rounding. Disjoint
    boxes get an intersection of 0, hence 0. The edges of both sequences
    are computed in one pass, and the x and y overlaps in one array."""
    lo, hi, area = _edges(a if a is b else [*a, *b])
    n = len(a)
    a_lo, a_hi, a_area = lo[:, :n, None], hi[:, :n, None], area[:n, None]
    if a is not b:
        lo, hi, area = lo[:, n:], hi[:, n:], area[n:]
    # (x and y) × a × b, in place: separate temporaries of that size fall
    # out of cache on a 150-box frame
    overlap = np.minimum(a_hi, hi[:, None])
    overlap -= np.maximum(a_lo, lo[:, None])
    np.maximum(overlap, 0.0, out=overlap)
    inter = overlap[0] * overlap[1]
    return inter / (a_area + area - inter)


def solve_affine(src, dst) -> AffineTransform:
    """Least-squares affine mapping src points onto dst points.

    Uses the standard DLT linearization solved by normal equations (point
    counts here are tiny, so no normalization is applied). Raises
    DegenerateCorrespondence when the sources are collinear.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise DegenerateCorrespondence(
            f"need matching Nx2 point arrays, got {src.shape} and {dst.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateCorrespondence(f"need at least 3 correspondences, got {n}")

    # Rows: [x y 1 0 0 0] -> x', [0 0 0 x y 1] -> y'
    a = np.zeros((2 * n, 6))
    a[0::2, 0:2] = src
    a[0::2, 2] = 1.0
    a[1::2, 3:5] = src
    a[1::2, 5] = 1.0
    rhs = dst.reshape(-1)

    ata = a.T @ a
    atb = a.T @ rhs
    if np.linalg.matrix_rank(ata) < 6:
        raise DegenerateCorrespondence("source points are collinear")
    params = np.linalg.solve(ata, atb)
    return AffineTransform(*params)


def apply_affine(t: AffineTransform, b: BoundingBox) -> BoundingBox:
    """Transform the 4 corners and return their axis-aligned hull."""
    pts = t.apply_points(b.corners())
    x1, y1 = pts.min(axis=0)
    x2, y2 = pts.max(axis=0)
    return BoundingBox.from_xyxy(x1, y1, x2, y2)
