"""Tracklet-guided augmentation geometry.

Training and `uatrack augment` draw an anchor track and a target frame
with `contrastive.EpochColumns.draw`, which uses this module's `softmax`
and `sample`. From that draw `build_plan` makes the affine transform
aligning the anchor's current box onto its historical one, with bounded
corner jitter standing in for perspective distortion. `source_anchor_weights`
and `target_anchor_weights` are the draw's weights over `Tracklet`s, the
reference that criterion 1 and `tests/test_augment.py` read. Boxes are
transformed; embeddings and identities carry over unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBox, NoHistory
from .geometry import AffineTransform, BoundingBox, apply_affine, solve_affine
from .tracker import Detection, Tracklet
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
    """Affine mapping the anchor's current box onto its historical box.

    Each target corner is perturbed by independent uniform noise in
    [-jitter, +jitter] per axis before the least-squares solve; jitter=0
    reduces to the exact box-to-box transform."""
    src_box = trk.box_at(frame)
    dst_box = trk.box_at(target)
    if src_box is None or dst_box is None:
        raise DegenerateBox(
            f"track {trk.id} lacks a box at frame {frame} or {target}")
    src = src_box.corners()
    dst = dst_box.corners()
    if jitter > 0:
        dst = dst + rng.uniform(-jitter, jitter, size=dst.shape)
    transform = solve_affine(src, dst)
    return AugmentationPlan(source_track_id=trk.id, target_frame=target,
                            transform=transform)


def default_jitter(box: BoundingBox) -> float:
    return DEFAULT_JITTER_FRACTION * math.hypot(box.w, box.h)


def augment_detections(dets: list[Detection], plan: AugmentationPlan) -> list[Detection]:
    """Apply the plan's transform to every detection box; embeddings and
    identities carry over (the copy of object i is a positive key for i)."""
    return [replace(d, box=apply_affine(plan.transform, d.box)) for d in dets]
