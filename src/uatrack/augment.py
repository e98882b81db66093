"""Tracklet-guided augmentation geometry.

Training and `uatrack augment` draw an anchor track and a target frame with
`contrastive.EpochColumns.draw`, which uses this module's `softmax` and
`sample`. From the anchor's boxes at the two frames `plan_between` makes the
affine transform aligning its current box onto its historical one, with bounded
corner jitter standing in for perspective distortion; `build_plan` takes those
boxes from a `Tracklet`, for criterion 4. `source_anchor_weights` and
`target_anchor_weights` are the draw's weights over `Tracklet`s, the reference
that criterion 1 and `tests/test_augment.py` read. `uatrack augment` prints
the frame's boxes moved by the plan through `geometry.apply_affine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    candidates: list  # (identity or frame index, probability) pairs

    def probabilities(self):
        return [p for _, p in self.candidates]


def softmax(scores) -> np.ndarray:
    """exp(s_i) / sum exp(s) along the last axis (each row of a matrix),
    with the max subtracted first for numeric safety (the result is shift
    invariant)."""
    scores = np.asarray(scores, dtype=float)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _softmax_weights(keys, scores) -> SamplingWeights:
    return SamplingWeights(candidates=list(zip(keys, softmax(scores).tolist())))


def source_anchor_weights(present: list[Tracklet], frame: int) -> SamplingWeights:
    """Selection weights over `present`, tracklets that the caller found
    present at `frame`, favoring low tracklet uncertainty: w_i =
    exp(-Omega_i) / sum exp(-Omega), Omega_i over the tracklet's deltas.
    `frame` is not read; it stays for criterion 1's call."""
    return _softmax_weights([t.id for t in present],
                            [-tracklet_uncertainty([r.delta for r in t.records])
                             for t in present])


def target_anchor_weights(trk: Tracklet, frame: int) -> SamplingWeights:
    """Selection weights over the tracklet's historical frames before
    `frame`, favoring high association uncertainty (softmax of delta)."""
    hist = [r for r in trk.records if r.frame < frame]
    if not hist:
        raise NoHistory(f"track {trk.id} has no record before frame {frame}")
    return _softmax_weights([r.frame for r in hist], [r.delta for r in hist])


def sample(weights: SamplingWeights, rng: np.random.Generator):
    """Categorical draw; deterministic given the generator state."""
    u = rng.random()
    acc = 0.0
    for key, p in weights.candidates:
        acc += p
        if u < acc:
            return key
    return weights.candidates[-1][0]


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
