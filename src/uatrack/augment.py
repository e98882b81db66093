"""Tracklet-guided augmentation geometry.

Selects an anchor tracklet (low tracklet uncertainty preferred) and a
historical target frame along it (high association uncertainty preferred),
then builds the affine transform aligning the current anchor box onto the
historical one, with bounded corner jitter standing in for perspective
distortion. Augmentation is geometry-only: boxes are transformed,
embeddings and identities are carried over unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBox, NoCandidates, NoHistory
from .geometry import AffineTransform, BoundingBox, solve_affine
from .tracker import Detection, Tracklet
from .uncertainty import tracklet_uncertainty

# default corner perturbation, as a fraction of the anchor box diagonal
DEFAULT_JITTER_FRACTION = 0.02


@dataclass(frozen=True)
class AugmentationPlan:
    source_track_id: int
    target_frame: int
    transform: AffineTransform
    jitter_magnitude: float


@dataclass(frozen=True)
class SamplingWeights:
    candidates: list  # (identity or frame index, probability) pairs

    def keys(self):
        return [k for k, _ in self.candidates]

    def probabilities(self):
        return [p for _, p in self.candidates]


def _softmax_weights(keys, scores) -> SamplingWeights:
    scores = np.asarray(scores, dtype=float)
    scores = scores - scores.max()  # shift invariance, numeric safety
    w = np.exp(scores)
    w /= w.sum()
    return SamplingWeights(candidates=list(zip(keys, w.tolist())))


def source_anchor_weights(tracklets: list[Tracklet], frame: int) -> SamplingWeights:
    """Selection weights over tracklets present at `frame`, favoring low
    tracklet uncertainty: w_i = exp(-Omega_i) / sum exp(-Omega)."""
    present = [t for t in tracklets
               if t.records and any(r.frame == frame for r in t.records)]
    if not present:
        raise NoCandidates(f"no tracklet present at frame {frame}")
    omegas = [tracklet_uncertainty(t.deltas()) for t in present]
    return _softmax_weights([t.id for t in present], [-o for o in omegas])


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
                            transform=transform, jitter_magnitude=jitter)


def default_jitter(box: BoundingBox) -> float:
    return DEFAULT_JITTER_FRACTION * math.hypot(box.w, box.h)


def augment_detections(dets: list[Detection], plan: AugmentationPlan) -> list[Detection]:
    """Apply the plan's transform to every detection box; embeddings and
    identities carry over (the copy of object i is a positive key for i)."""
    from .geometry import apply_affine
    return [replace(d, box=apply_affine(plan.transform, d.box)) for d in dets]
