"""Tests for bounding boxes, IoU, and affine fitting."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
    def test_non_finite_field_named_in_message(self, field, value):
        values = {"cx": 0.0, "cy": 0.0, "w": 1.0, "h": 1.0, field: float(value)}
        shown = ", ".join(f"{k}={v!r}" for k, v in values.items())
        with pytest.raises(DegenerateBox) as info:
            BoundingBox(**values)
        assert str(info.value) == f"non-finite box BoundingBox({shown})"

    def test_non_finite_reported_before_non_positive_size(self):
        with pytest.raises(DegenerateBox) as info:
            BoundingBox(0.0, 0.0, float("-inf"), 0.0)
        assert str(info.value) == "non-finite box BoundingBox(cx=0.0, cy=0.0, w=-inf, h=0.0)"


def scalar_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Per-pair reference: the arithmetic `iou` does for one pair."""
    ax1, ay1, ax2, ay2 = a.to_xyxy()
    bx1, by1, bx2, by2 = b.to_xyxy()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


# Small-integer boxes meet edge to edge, nest and coincide often; free
# floats cover the general case.
grid_boxes = st.builds(BoundingBox, *[st.integers(-6, 6).map(float)] * 2,
                       *[st.integers(1, 6).map(float)] * 2)
float_boxes = st.builds(BoundingBox, *[st.floats(-1e3, 1e3)] * 2,
                        *[st.floats(1e-3, 1e3)] * 2)
box_lists = st.lists(st.one_of(grid_boxes, float_boxes), max_size=6)


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(5.0, 5.0, 2.0, 2.0)
        assert iou([b], [b]).tolist() == [[1.0]]

    def test_disjoint(self):
        a = BoundingBox(0.0, 0.0, 2.0, 2.0)
        b = BoundingBox(10.0, 0.0, 2.0, 2.0)
        assert iou([a], [b]).tolist() == [[0.0]]

    def test_quarter_overlap(self):
        # unit squares offset by half in both axes: inter 1/4, union 7/4
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(0.5, 0.5, 1.0, 1.0)
        assert iou([a], [b])[0, 0] == pytest.approx(1.0 / 7.0)

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        boxes = [BoundingBox(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
                 for _ in range(200)]
        m = iou(boxes, boxes)
        assert m.shape == (200, 200)
        assert np.array_equal(m, m.T)
        # a box against itself is 1 only up to rounding of its edges
        assert np.allclose(np.diag(m), 1.0)
        np.fill_diagonal(m, 0.5)
        assert ((m >= 0.0) & (m <= 1.0)).all()

    def test_touching_edges_is_zero(self):
        a = BoundingBox(0.0, 0.0, 2.0, 2.0)
        b = BoundingBox(2.0, 0.0, 2.0, 2.0)
        assert iou([a], [b]).tolist() == [[0.0]]

    def test_nested_is_area_ratio(self):
        outer = BoundingBox(0.0, 0.0, 4.0, 4.0)
        inner = BoundingBox(0.5, -0.5, 2.0, 2.0)
        assert iou([outer, inner], [inner, outer]).tolist() == [[0.25, 1.0], [1.0, 0.25]]

    def test_empty_sequences(self):
        b = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert iou([], [b]).shape == (0, 1)
        assert iou([b, b], []).shape == (2, 0)

    @settings(max_examples=300, deadline=None)
    @given(box_lists, box_lists)
    def test_matches_scalar_reference_exactly(self, a, b):
        m = iou(a, b)
        assert m.shape == (len(a), len(b))
        assert m.tolist() == [[scalar_iou(x, y) for y in b] for x in a]

    @settings(max_examples=300, deadline=None)
    @given(box_lists, box_lists)
    def test_one_edge_pass_keeps_bits(self, a, b):
        """The edges of both lists come from one pass, or from one list when
        both arguments are the same object; either way each entry has the
        bits of the scalar reference, a zero's sign included."""
        def reference(xs, ys):
            return np.array([[scalar_iou(x, y) for y in ys] for x in xs],
                            dtype=float).reshape(len(xs), len(ys))

        assert iou(a, b).tobytes() == reference(a, b).tobytes()
        assert iou(a, a).tobytes() == iou(a, list(a)).tobytes() == reference(a, a).tobytes()
        assert iou(tuple(a), tuple(b)).tobytes() == reference(a, b).tobytes()


class TestAffineTransform:
    def test_identity(self):
        t = AffineTransform(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
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
