"""Tests for anchor sampling weights and augmentation plans."""

import math

import numpy as np
import pytest

from uatrack.augment import (SamplingWeights, build_plan, default_jitter, sample,
                             source_anchor_weights, target_anchor_weights)
from uatrack.errors import DegenerateBox, NoHistory
from uatrack.geometry import BoundingBox, apply_affine
from uatrack.tracker import Tracklet, TrackRecord


def make_track(tid, frame_deltas, box_fn=None):
    """Tracklet with one record per (frame, delta) pair."""
    if box_fn is None:
        box_fn = lambda f: BoundingBox(float(f), 0.0, 2.0, 2.0)
    frames = sorted(frame_deltas)
    f0, d0 = frames[0]
    t = Tracklet(tid, TrackRecord(frame=f0, det_index=0, box=box_fn(f0),
                                  embedding=np.array([1.0, 0.0]), delta=d0))
    for f, d in frames[1:]:
        t.append(TrackRecord(frame=f, det_index=0, box=box_fn(f),
                             embedding=np.array([1.0, 0.0]), delta=d))
    return t


def keys(weights):
    """The identities or frames a draw chooses among, in candidate order."""
    return [k for k, _ in weights.candidates]


class TestSourceAnchorWeights:
    def test_single_tracklet(self):
        t = make_track(1, [(1, 0.0), (2, 0.0)])
        w = source_anchor_weights([t], 2)
        assert keys(w) == [1]
        assert w.probabilities() == pytest.approx([1.0])

    def test_equal_uncertainty_symmetric(self):
        a = make_track(1, [(1, 0.0), (2, 0.0)])
        b = make_track(2, [(1, 0.0), (2, 0.0)])
        w = source_anchor_weights([a, b], 2)
        assert w.probabilities() == pytest.approx([0.5, 0.5])

    def test_frozen_value(self):
        # Omega_1 = 1, Omega_2 = 1 + ln 3 -> weights 0.75 / 0.25
        d1 = 0.0                         # exp(0) = 1 -> Omega = 1
        d2 = math.log(1.0 + math.log(3.0))  # exp(d2) = 1 + ln 3
        a = make_track(1, [(1, d1), (2, d1)])
        b = make_track(2, [(1, d2), (2, d2)])
        w = source_anchor_weights([a, b], 2)
        assert w.probabilities() == pytest.approx([0.75, 0.25], abs=1e-6)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            tracks = [make_track(i + 1, [(1, float(rng.normal())),
                                         (2, float(rng.normal()))])
                      for i in range(4)]
            w = source_anchor_weights(tracks, 2)
            assert sum(w.probabilities()) == pytest.approx(1.0)


class TestTargetAnchorWeights:
    def test_softmax_of_deltas(self):
        t = make_track(1, [(1, 0.0), (2, math.log(3.0)), (3, 0.0)])
        w = target_anchor_weights(t, 3)
        assert keys(w) == [1, 2]
        assert w.probabilities() == pytest.approx([0.25, 0.75])

    def test_only_past_frames(self):
        t = make_track(1, [(1, 0.0), (2, 0.0), (3, 0.0)])
        assert keys(target_anchor_weights(t, 3)) == [1, 2]
        assert keys(target_anchor_weights(t, 2)) == [1]

    def test_no_history(self):
        t = make_track(1, [(5, 0.0)])
        with pytest.raises(NoHistory):
            target_anchor_weights(t, 5)


class TestSample:
    def test_degenerate_weight(self):
        w = SamplingWeights([(42, 1.0)])
        rng = np.random.default_rng(0)
        assert all(sample(w, rng) == 42 for _ in range(10))
        # a draw at or above the summed probabilities takes the last key
        w = SamplingWeights([(7, 0.0), (42, 0.0)])
        assert all(sample(w, rng) == 42 for _ in range(10))

    def test_empirical_frequency(self):
        w = SamplingWeights([("a", 0.75), ("b", 0.25)])
        rng = np.random.default_rng(123)
        draws = [sample(w, rng) for _ in range(100000)]
        assert draws.count("a") / len(draws) == pytest.approx(0.75, abs=0.01)

    def test_same_seed_same_sequence(self):
        w = SamplingWeights([("a", 0.3), ("b", 0.7)])
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        assert [sample(w, r1) for _ in range(50)] == \
               [sample(w, r2) for _ in range(50)]


class TestBuildPlan:
    def test_zero_jitter_maps_box_exactly(self):
        t = make_track(1, [(1, 0.0), (2, 0.0)],
                       box_fn=lambda f: BoundingBox(10.0 * f, 5.0, 4.0 + f, 3.0))
        plan = build_plan(t, 2, 1, 0.0, np.random.default_rng(0))
        src, dst = t.box_at(2), t.box_at(1)
        out = apply_affine(plan.transform, src)
        assert (out.cx, out.cy, out.w, out.h) == pytest.approx(
            (dst.cx, dst.cy, dst.w, dst.h), abs=1e-9)

    def test_jitter_bounded(self):
        t = make_track(1, [(1, 0.0), (2, 0.0)])
        rng = np.random.default_rng(4)
        for _ in range(100):
            plan = build_plan(t, 2, 1, 0.5, rng)
            src, dst = t.box_at(2), t.box_at(1)
            got = plan.transform.apply_points(src.corners())
            # the affine fit is a projection of the jittered corners, so the
            # aggregate displacement stays bounded by the jitter envelope
            assert np.linalg.norm(got - dst.corners()) <= \
                2.0 * np.linalg.norm(np.full((4, 2), 0.5)) + 1e-9
            assert np.abs(got - dst.corners()).max() <= 4 * 0.5

    def test_missing_frame_raises(self):
        t = make_track(1, [(1, 0.0), (2, 0.0)])
        with pytest.raises(DegenerateBox):
            build_plan(t, 9, 1, 0.0, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        t = make_track(1, [(1, 0.0), (2, 0.0)])
        p1 = build_plan(t, 2, 1, 0.3, np.random.default_rng(77))
        p2 = build_plan(t, 2, 1, 0.3, np.random.default_rng(77))
        assert p1.transform == p2.transform


class TestAugmentDetections:
    def test_boxes_transformed(self):
        """The plan's transform moves a box at the anchor's current place
        onto the anchor's historical one, as `uatrack augment` prints it."""
        t = make_track(1, [(1, 0.0), (2, 0.0)],
                       box_fn=lambda f: BoundingBox(f * 10.0, 0.0, 2.0, 2.0))
        plan = build_plan(t, 2, 1, 0.0, np.random.default_rng(0))
        box = apply_affine(plan.transform, BoundingBox(20.0, 0.0, 2.0, 2.0))
        assert box.cx == pytest.approx(10.0)

    def test_default_jitter_is_fraction_of_diagonal(self):
        b = BoundingBox(0.0, 0.0, 3.0, 4.0)
        assert default_jitter(b) == pytest.approx(0.02 * 5.0)
