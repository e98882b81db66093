"""Tests for anchor sampling weights and augmentation plans."""

import math
from itertools import accumulate

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


class TestSourceAnchorWeights:
    def test_single_tracklet(self):
        t = make_track(1, [(1, 0.0), (2, 0.0)])
        w = source_anchor_weights([t], 2)
        assert w.keys == [1]
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
        assert w.keys == [1, 2]
        assert w.probabilities() == pytest.approx([0.25, 0.75])

    def test_only_past_frames(self):
        t = make_track(1, [(1, 0.0), (2, 0.0), (3, 0.0)])
        assert target_anchor_weights(t, 3).keys == [1, 2]
        assert target_anchor_weights(t, 2).keys == [1]

    def test_no_history(self):
        t = make_track(1, [(5, 0.0)])
        with pytest.raises(NoHistory):
            target_anchor_weights(t, 5)


def loop_sample(keys, probs, rng):
    """The per-pair loop `sample` replaced: the first key whose running sum
    `acc += p` exceeds the draw, else the last key."""
    u = rng.random()
    acc = 0.0
    for key, p in zip(keys, probs):
        acc += p
        if u < acc:
            return key
    return keys[-1]


class FixedDraw:
    """A generator stand-in whose `random()` returns the given draws in turn."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


class TestSample:
    def test_equals_running_sum_loop(self):
        """Draw for draw the key of the per-pair loop, with the generator
        left in the same state, over 1-40 keys, some of probability 0, with
        the probabilities summing to 1 or to less, which leaves draws past
        every running sum to the last key."""
        gen = np.random.default_rng(46)
        for trial in range(400):
            n = int(gen.integers(1, 41))
            probs = gen.random(n)
            probs[gen.random(n) < 0.3] = 0.0
            probs = (probs / (probs.sum() or 1.0) * gen.choice([1.0, 0.5])).tolist()
            keys = list(range(100, 100 + n))
            r1, r2 = np.random.default_rng(trial), np.random.default_rng(trial)
            w = SamplingWeights(keys, probs)
            assert [sample(w, r1) for _ in range(40)] == \
                   [loop_sample(keys, probs, r2) for _ in range(40)]
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("probs", [
        [0.25, 0.25, 0.5],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 1.0, 0.0],
        # summed left to right, ten 0.1s give 1 - 2**-53, the largest draw
        [0.1] * 10,
        [0.1] * 10 + [0.0],
    ])
    def test_draws_at_running_sums(self, probs):
        """A draw equal to a running sum, just below it, 0 and the largest
        draw each take the loop's key: equal sums and zero probabilities
        are passed over, and a draw at or above the total takes the last key."""
        sums = list(accumulate(probs))
        draws = [0.0, 1 - 2**-53] + sums + [math.nextafter(x, 0.0) for x in sums]
        keys = [f"k{i}" for i in range(len(probs))]
        w = SamplingWeights(keys, probs)
        assert [sample(w, FixedDraw([u])) for u in draws] == \
               [loop_sample(keys, probs, FixedDraw([u])) for u in draws]

    def test_degenerate_weight(self):
        w = SamplingWeights([42], [1.0])
        rng = np.random.default_rng(0)
        assert all(sample(w, rng) == 42 for _ in range(10))
        # a draw at or above the summed probabilities takes the last key
        w = SamplingWeights([7, 42], [0.0, 0.0])
        assert all(sample(w, rng) == 42 for _ in range(10))

    def test_empirical_frequency(self):
        w = SamplingWeights(["a", "b"], [0.75, 0.25])
        rng = np.random.default_rng(123)
        draws = [sample(w, rng) for _ in range(100000)]
        assert draws.count("a") / len(draws) == pytest.approx(0.75, abs=0.01)

    def test_same_seed_same_sequence(self):
        w = SamplingWeights(["a", "b"], [0.3, 0.7])
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
