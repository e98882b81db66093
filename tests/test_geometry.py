"""Tests for bounding boxes, IoU, and affine fitting."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatrack.errors import DegenerateBox, DegenerateCorrespondence
from uatrack.geometry import (AffineTransform, BoundingBox, apply_affine, box_array,
                              iou, solve_affine)


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


class TestBoxRecord:
    """A box is an immutable (cx, cy, w, h) tuple whose rules run however
    it is made."""

    BOX = BoundingBox(10.0, 20.0, 4.0, 6.0)

    @pytest.mark.parametrize("name", ["cx", "cy", "w", "h", "other"])
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(self.BOX, name, 1.0)

    def test_equal_and_hashed_by_fields(self):
        same = BoundingBox(10.0, 20.0, 4.0, 6.0)
        assert same == self.BOX and hash(same) == hash(self.BOX)
        assert BoundingBox(10.0, 20.0, 4.0, 7.0) != self.BOX
        assert len({self.BOX, same}) == 1

    def test_repr_is_the_field_listing(self):
        assert repr(self.BOX) == "BoundingBox(cx=10.0, cy=20.0, w=4.0, h=6.0)"

    def test_unpacks_as_centre_and_size(self):
        cx, cy, w, h = self.BOX
        assert (cx, cy, w, h) == (10.0, 20.0, 4.0, 6.0)

    @pytest.mark.parametrize("roundtrip", [lambda b: pickle.loads(pickle.dumps(b)),
                                           copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_copies_are_boxes(self, roundtrip):
        again = roundtrip(self.BOX)
        assert type(again) is BoundingBox and again == self.BOX

    def test_make_and_replace_make_boxes(self):
        assert BoundingBox._make([10.0, 20.0, 4.0, 6.0]) == self.BOX
        assert type(self.BOX._replace(w=5.0)) is BoundingBox
        assert self.BOX._replace(w=5.0).w == 5.0

    @pytest.mark.parametrize("make", [
        lambda b: b._replace(w=0.0),
        lambda b: b._replace(cx=float("nan")),
        lambda b: BoundingBox._make([0.0, 0.0, -1.0, 1.0]),
        lambda b: BoundingBox(cx=0.0, cy=float("inf"), w=1.0, h=1.0),
    ], ids=["replace-size", "replace-nan", "make", "keywords"])
    def test_every_way_to_make_a_box_runs_the_rules(self, make):
        with pytest.raises(DegenerateBox):
            make(self.BOX)


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


def reference(xs, ys) -> np.ndarray:
    """The (len(xs), len(ys)) matrix of `scalar_iou`, pair by pair."""
    return np.array([[scalar_iou(x, y) for y in ys] for x in xs],
                    dtype=float).reshape(len(xs), len(ys))


class TestIou:
    def test_identical_boxes(self):
        b = box_array([BoundingBox(5.0, 5.0, 2.0, 2.0)])
        assert iou(b, b).tolist() == [[1.0]]

    def test_disjoint(self):
        a = box_array([BoundingBox(0.0, 0.0, 2.0, 2.0)])
        b = box_array([BoundingBox(10.0, 0.0, 2.0, 2.0)])
        assert iou(a, b).tolist() == [[0.0]]

    def test_quarter_overlap(self):
        # unit squares offset by half in both axes: inter 1/4, union 7/4
        a = box_array([BoundingBox(0.0, 0.0, 1.0, 1.0)])
        b = box_array([BoundingBox(0.5, 0.5, 1.0, 1.0)])
        assert iou(a, b)[0, 0] == pytest.approx(1.0 / 7.0)

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        boxes = box_array([BoundingBox(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
                           for _ in range(200)])
        m = iou(boxes, boxes)
        assert m.shape == (200, 200)
        assert np.array_equal(m, m.T)
        # a box against itself is 1 only up to rounding of its edges
        assert np.allclose(np.diag(m), 1.0)
        np.fill_diagonal(m, 0.5)
        assert ((m >= 0.0) & (m <= 1.0)).all()

    def test_touching_edges_is_zero(self):
        a = box_array([BoundingBox(0.0, 0.0, 2.0, 2.0)])
        b = box_array([BoundingBox(2.0, 0.0, 2.0, 2.0)])
        assert iou(a, b).tolist() == [[0.0]]

    def test_nested_is_area_ratio(self):
        outer = BoundingBox(0.0, 0.0, 4.0, 4.0)
        inner = BoundingBox(0.5, -0.5, 2.0, 2.0)
        assert iou(box_array([outer, inner]), box_array([inner, outer])).tolist() \
            == [[0.25, 1.0], [1.0, 0.25]]

    def test_empty_sequences(self):
        b = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert box_array([]).shape == (4, 0)
        assert iou(box_array([]), box_array([b])).shape == (0, 1)
        assert iou(box_array([b, b]), box_array([])).shape == (2, 0)

    def test_empty_sides_of_a_batch(self):
        """Leading axes are kept when either side holds no box."""
        none, three = np.zeros((4, 5, 0)), np.ones((4, 5, 3))
        assert iou(none, three).shape == (5, 0, 3)
        assert iou(three, none).shape == (5, 3, 0)
        assert iou(none, none).shape == (5, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(box_lists, box_lists)
    def test_matches_scalar_reference_exactly(self, a, b):
        m = iou(box_array(a), box_array(b))
        assert m.shape == (len(a), len(b))
        assert m.tolist() == [[scalar_iou(x, y) for y in b] for x in a]

    @settings(max_examples=300, deadline=None)
    @given(box_lists, box_lists)
    def test_one_edge_pass_keeps_bits(self, a, b):
        """The edges come from one pass when both arguments are the same
        array, and from one pass each otherwise; either way each entry has
        the bits of the scalar reference, a zero's sign included."""
        a_arr, b_arr = box_array(a), box_array(b)
        assert iou(a_arr, b_arr).tobytes() == reference(a, b).tobytes()
        assert iou(a_arr, a_arr).tobytes() == iou(a_arr, a_arr.copy()).tobytes() \
            == reference(a, a).tobytes()
        assert iou(box_array(tuple(a)), box_array(tuple(b))).tobytes() \
            == reference(a, b).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4), st.data())
    def test_batch_equals_per_frame_calls(self, n, m, k, data):
        """A (4, k, n) array against a (4, k, m) one gives each frame's
        (n, m) matrix with the bits of a call on that frame alone, and of
        the scalar reference; against itself (one edge pass) it gives the
        bits of the call on a copy."""
        a_frames = [data.draw(st.lists(st.one_of(grid_boxes, float_boxes),
                                       min_size=n, max_size=n)) for _ in range(k)]
        b_frames = [data.draw(st.lists(st.one_of(grid_boxes, float_boxes),
                                       min_size=m, max_size=m)) for _ in range(k)]
        a = np.stack([box_array(boxes) for boxes in a_frames], axis=1)
        b = np.stack([box_array(boxes) for boxes in b_frames], axis=1)
        batch, own = iou(a, b), iou(a, a)
        assert batch.shape == (k, n, m) and own.shape == (k, n, n)
        assert own.tobytes() == iou(a, a.copy()).tobytes()
        for i, (xs, ys) in enumerate(zip(a_frames, b_frames)):
            assert batch[i].tobytes() == iou(box_array(xs), box_array(ys)).tobytes() \
                == reference(xs, ys).tobytes()
            assert own[i].tobytes() == reference(xs, xs).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_split_array_equals_two_arrays(self, n, m, data):
        """An int second argument splits one array, as the tracker's gate
        passes its detection and track boxes: its first n boxes against the
        rest, from one edge pass and both axes in one call, with the bits of
        the two-array call and of the scalar reference."""
        xs = data.draw(st.lists(st.one_of(grid_boxes, float_boxes), min_size=n, max_size=n))
        ys = data.draw(st.lists(st.one_of(grid_boxes, float_boxes), min_size=m, max_size=m))
        boxes = box_array(xs + ys)
        assert iou(boxes, n).tobytes() == iou(boxes[:, :n], boxes[:, n:]).tobytes() \
            == reference(xs, ys).tobytes()

    def test_split_crowd_pool_and_block_path(self):
        """A 150-box pool split at 70 keeps the two-array bits, and a
        (4, frames, n) block against itself (one axis at a time) keeps the
        bits of each frame's own one-frame call."""
        rng = np.random.default_rng(5)
        boxes = np.stack([*rng.uniform(0.0, 560.0, (2, 150)), *rng.uniform(24.0, 48.0, (2, 150))])
        assert iou(boxes, 70).tobytes() == iou(boxes[:, :70], boxes[:, 70:]).tobytes()
        block = boxes.reshape(4, 10, 15)
        own = iou(block, block)
        assert own.shape == (10, 15, 15)
        for i in range(10):
            assert own[i].tobytes() == iou(block[:, i], block[:, i].copy()).tobytes()


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
        """So are point arrays of different shapes and fewer than 3 points."""
        src = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        dst = src + 1.0
        with pytest.raises(DegenerateCorrespondence):
            solve_affine(src, dst)
        with pytest.raises(DegenerateCorrespondence, match=r"^need matching Nx2 point arrays, "
                                                           r"got \(4, 2\) and \(3, 2\)$"):
            solve_affine(src, dst[:3])
        with pytest.raises(DegenerateCorrespondence,
                           match="^need at least 3 correspondences, got 2$"):
            solve_affine(src[:2], dst[:2])

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

    def test_fields_are_python_floats(self):
        """The hull's fields are `float`s, as every other box holds, so a
        box prints its values and not `np.float64(...)`."""
        t = AffineTransform(0.5, -1.0, 3.0, 1.0, 2.0, -4.0)
        out = apply_affine(t, BoundingBox(1.0, 2.0, 3.0, 4.0))
        assert [type(v) for v in (out.cx, out.cy, out.w, out.h)] == [float] * 4
        assert "np." not in repr(out)
