"""Tracklet-guided augmentation geometry.

Training and `uatrack augment` draw an anchor track and a target frame with
`contrastive.EpochColumns.draw`, which uses this module's `softmax` and
`sample`; each draw's weights are a `SamplingWeights`, its keys and their
probabilities in one order. From the anchor's boxes at the two frames
`plan_between` makes the affine transform aligning its current box onto its
historical one, with bounded corner jitter standing in for perspective
distortion; `build_plan` takes those boxes from a `Tracklet`, for criterion 4. `source_anchor_weights` and
`target_anchor_weights` are the draw's weights over `Tracklet`s, the reference
that criterion 1 and `tests/test_augment.py` read. `uatrack augment` prints
the frame's boxes moved by the plan through `geometry.apply_affine`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DegenerateBox, NoHistory
from .geometry import AffineTransform, BoundingBox, solve_affine
from .tracker import Tracklet
from .uncertainty import tracklet_uncertainty

# default corner perturbation, as a fraction of the anchor box diagonal
DEFAULT_JITTER_FRACTION = 0.02


@dataclass(frozen=True)
class AugmentationPlan:
    source_track_id: int
    target_frame: int
    transform: AffineTransform


@dataclass(frozen=True)
class SamplingWeights:
    """A draw's keys (identities or frame indices) and probabilities, in one order."""
    keys: list
    probs: list

    def probabilities(self):
        return self.probs


def softmax(scores) -> np.ndarray:
    """exp(s_i) / sum exp(s) along the last axis (each row of a matrix),
    with the max subtracted first for numeric safety (the result is shift
    invariant)."""
    scores = np.asarray(scores, dtype=float)
    # the ufunc reductions themselves: ndarray.max and .sum are Python wrappers of them
    w = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    return w / np.add.reduce(w, axis=-1, keepdims=True)


def source_anchor_weights(present: list[Tracklet], frame: int) -> SamplingWeights:
    """Selection weights over `present`, tracklets that the caller found
    present at `frame`, favoring low tracklet uncertainty: w_i =
    exp(-Omega_i) / sum exp(-Omega), Omega_i over the tracklet's deltas.
    `frame` is not read; it stays for criterion 1's call."""
    return SamplingWeights([t.id for t in present],
                           softmax([-tracklet_uncertainty([r.delta for r in t.records])
                                    for t in present]).tolist())


def target_anchor_weights(trk: Tracklet, frame: int) -> SamplingWeights:
    """Selection weights over the tracklet's historical frames before
    `frame`, favoring high association uncertainty (softmax of delta)."""
    hist = [r for r in trk.records if r.frame < frame]
    if not hist:
        raise NoHistory(f"track {trk.id} has no record before frame {frame}")
    return SamplingWeights([r.frame for r in hist], softmax([r.delta for r in hist]).tolist())


def sample(weights: SamplingWeights, rng: np.random.Generator):
    """Categorical draw; deterministic given the generator state. The key
    taken is the first whose running sum of probabilities, added left to
    right, exceeds one uniform draw, or the last key when rounding leaves
    every sum at or below it."""
    keys = weights.keys
    return keys[min(bisect_right(list(accumulate(weights.probs)), rng.random()), len(keys) - 1)]


def build_plan(trk: Tracklet, frame: int, target: int, jitter: float,
               rng: np.random.Generator) -> AugmentationPlan:
    """`plan_between` the tracklet's boxes at `frame` and at `target`."""
    src_box, dst_box = trk.box_at(frame), trk.box_at(target)
    if src_box is None or dst_box is None:
        raise DegenerateBox(f"track {trk.id} lacks a box at frame {frame} or {target}")
    return plan_between(trk.id, target, src_box, dst_box, jitter, rng)


def plan_between(track_id: int, target: int, src_box: BoundingBox, dst_box: BoundingBox,
                 jitter: float, rng: np.random.Generator) -> AugmentationPlan:
    """Affine mapping the anchor's current box onto its box at frame `target`.

    Each target corner is perturbed by independent uniform noise in
    [-jitter, +jitter] per axis before the least-squares solve; jitter=0
    reduces to the exact box-to-box transform."""
    dst = dst_box.corners()
    if jitter > 0:
        dst = dst + rng.uniform(-jitter, jitter, size=dst.shape)
    return AugmentationPlan(source_track_id=track_id, target_frame=target,
                            transform=solve_affine(src_box.corners(), dst))


def default_jitter(box: BoundingBox) -> float:
    return DEFAULT_JITTER_FRACTION * math.hypot(box.w, box.h)
