"""Bounding-box arithmetic, IoU, and 2D affine transform fitting.

Boxes use the center+size convention (cx, cy, w, h) everywhere inside the
package; the corner convention only appears at file-format boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox, DegenerateCorrespondence


@dataclass(frozen=True)
class BoundingBox:
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h)):
            raise DegenerateBox(f"non-finite box {self!r}")
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBox(f"non-positive size w={self.w} h={self.h}")

    def corners(self) -> np.ndarray:
        """4x2 array of corner coordinates (tl, tr, br, bl)."""
        hw, hh = self.w / 2.0, self.h / 2.0
        return np.array([
            [self.cx - hw, self.cy - hh],
            [self.cx + hw, self.cy - hh],
            [self.cx + hw, self.cy + hh],
            [self.cx - hw, self.cy + hh],
        ])

    def to_xyxy(self) -> tuple[float, float, float, float]:
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

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

    @staticmethod
    def identity() -> "AffineTransform":
        return AffineTransform(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12, self.m13],
                         [self.m21, self.m22, self.m23]])

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        lin = np.array([[self.m11, self.m12], [self.m21, self.m22]])
        return pts @ lin.T + np.array([self.m13, self.m23])


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two axis-aligned boxes, in [0, 1]."""
    ax1, ay1, ax2, ay2 = a.to_xyxy()
    bx1, by1, bx2, by2 = b.to_xyxy()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


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
