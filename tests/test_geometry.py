"""Tests for bounding boxes, IoU, and affine fitting."""


import numpy as np
import pytest

from uatrack.errors import DegenerateBox, DegenerateCorrespondence
from uatrack.geometry import (AffineTransform, BoundingBox, apply_affine, iou,
                              solve_affine)


class TestBoundingBox:
    def test_corner_roundtrip(self):
        b = BoundingBox(10.0, 20.0, 4.0, 6.0)
        assert b.to_xyxy() == (8.0, 17.0, 12.0, 23.0)
        assert BoundingBox.from_xyxy(*b.to_xyxy()) == b

    def test_corners_order(self):
        b = BoundingBox(0.0, 0.0, 2.0, 2.0)
        pts = b.corners()
        assert pts.shape == (4, 2)
        # all four distinct corners of the unit-ish square
        assert {tuple(p) for p in pts.tolist()} == {
            (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)}

    @pytest.mark.parametrize("w,h", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_degenerate_box_rejected(self, w, h):
        with pytest.raises(DegenerateBox):
            BoundingBox(0.0, 0.0, w, h)

    def test_nan_rejected(self):
        with pytest.raises(DegenerateBox):
            BoundingBox(float("nan"), 0.0, 1.0, 1.0)


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(5.0, 5.0, 2.0, 2.0)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        a = BoundingBox(0.0, 0.0, 2.0, 2.0)
        b = BoundingBox(10.0, 0.0, 2.0, 2.0)
        assert iou(a, b) == 0.0

    def test_quarter_overlap(self):
        # unit squares offset by half in both axes: inter 1/4, union 7/4
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(0.5, 0.5, 1.0, 1.0)
        assert iou(a, b) == pytest.approx(1.0 / 7.0)

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = BoundingBox(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
            b = BoundingBox(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
            v, w = iou(a, b), iou(b, a)
            assert v == pytest.approx(w)
            assert 0.0 <= v <= 1.0

    def test_touching_edges_is_zero(self):
        a = BoundingBox(0.0, 0.0, 2.0, 2.0)
        b = BoundingBox(2.0, 0.0, 2.0, 2.0)
        assert iou(a, b) == 0.0


class TestAffineTransform:
    def test_identity(self):
        t = AffineTransform.identity()
        pts = np.array([[3.0, 4.0], [-1.5, 0.25]])
        assert np.array_equal(t.apply_points(pts), pts)
        assert t.det() == pytest.approx(1.0)

    def test_apply_points_batch(self):
        t = AffineTransform(2.0, 0.0, 1.0, 0.0, 3.0, -1.0)
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = t.apply_points(pts)
        assert np.allclose(out, [[1.0, -1.0], [3.0, 2.0]])


class TestSolveAffine:
    def test_exact_recovery_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            true = AffineTransform(*rng.normal(size=6))
            if abs(true.det()) < 1e-3:
                continue
            src = rng.uniform(-10, 10, size=(4, 2))
            # degenerate (collinear) source sets are rare but possible; skip
            if abs(np.linalg.det(np.cov(src.T))) < 1e-6:
                continue
            dst = true.apply_points(src)
            got = solve_affine(src, dst)
            assert np.allclose(got.as_matrix(), true.as_matrix(), atol=1e-8)

    def test_collinear_points_rejected(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        dst = src + 1.0
        with pytest.raises(DegenerateCorrespondence):
            solve_affine(src, dst)

    def test_least_squares_on_overdetermined(self):
        # 6 noiseless points still recover the transform exactly
        rng = np.random.default_rng(19)
        true = AffineTransform(1.5, 0.2, -3.0, -0.4, 0.9, 2.0)
        src = rng.uniform(-5, 5, size=(6, 2))
        dst = true.apply_points(src)
        got = solve_affine(src, dst)
        assert np.allclose(got.as_matrix(), true.as_matrix(), atol=1e-9)


class TestBoxToAffine:
    """Box-to-box transforms: corner fits and axis-aligned hulls."""

    def test_maps_src_onto_dst(self):
        src = BoundingBox(0.0, 0.0, 2.0, 2.0)
        dst = BoundingBox(10.0, -5.0, 6.0, 1.0)
        t = solve_affine(src.corners(), dst.corners())
        out = apply_affine(t, src)
        assert out.cx == pytest.approx(dst.cx)
        assert out.cy == pytest.approx(dst.cy)
        assert out.w == pytest.approx(dst.w)
        assert out.h == pytest.approx(dst.h)

    def test_apply_affine_hull_of_rotation(self):
        # 90-degree rotation of a wide box yields a tall axis-aligned hull
        t = AffineTransform(0.0, -1.0, 0.0, 1.0, 0.0, 0.0)
        b = BoundingBox(0.0, 0.0, 4.0, 2.0)
        out = apply_affine(t, b)
        assert out.w == pytest.approx(2.0)
        assert out.h == pytest.approx(4.0)

    def test_translation_only(self):
        t = AffineTransform(1.0, 0.0, 5.0, 0.0, 1.0, -2.0)
        b = BoundingBox(1.0, 1.0, 3.0, 3.0)
        out = apply_affine(t, b)
        assert (out.cx, out.cy, out.w, out.h) == pytest.approx((6.0, -1.0, 3.0, 3.0))
