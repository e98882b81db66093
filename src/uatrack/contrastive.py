"""InfoNCE loss, its analytic gradient, and a desk-scale linear embedder.

The embedder is a linear projection of raw appearance features followed by
l2 normalization, standing in for a deep encoder. Gradients flow only
through the query; keys are treated as constants per step. Pseudo-labels
are regenerated each epoch with the current embedder, coupling labeling
quality and representation quality.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate

import numpy as np

from .augment import (AugmentationPlan, SamplingWeights, build_plan,
                      default_jitter, sample, softmax, source_anchor_weights,
                      target_anchor_weights)
from .errors import InsufficientData, InvalidConfig, NoCandidates
from .tracker import Tracklet, track_sequence

DEFAULT_TEMPERATURE = 0.07
MAX_LAG = 10  # frame-pair lag bound for positives


@dataclass(frozen=True)
class ContrastiveBatch:
    query: np.ndarray
    positive: np.ndarray
    negatives: list
    temperature: float = DEFAULT_TEMPERATURE

    def keys(self) -> np.ndarray:
        return np.stack([self.positive] + list(self.negatives))


def _probs(batch: ContrastiveBatch) -> np.ndarray:
    return softmax(batch.keys() @ batch.query / batch.temperature)


def info_nce(batch: ContrastiveBatch) -> float:
    """-log(exp(q.k+ / eps) / sum_i exp(q.k_i / eps)), positive included in
    the denominator; computed with max-logit subtraction."""
    return float(-math.log(_probs(batch)[0]))


def info_nce_grad(batch: ContrastiveBatch) -> np.ndarray:
    """Gradient of the loss with respect to the query:
    (1/eps) * (sum_i p_i k_i - k+)."""
    probs = _probs(batch)
    keys = batch.keys()
    return (probs @ keys - keys[0]) / batch.temperature


class LinearEmbedder:
    """Linear projection raw(F) -> embedding(D), l2-normalized output."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    @staticmethod
    def init_random(raw_dim: int, embed_dim: int, rng: np.random.Generator) -> "LinearEmbedder":
        bound = 1.0 / math.sqrt(raw_dim)
        return LinearEmbedder(rng.uniform(-bound, bound, size=(raw_dim, embed_dim)))

    def embed(self, raw: np.ndarray) -> np.ndarray:
        z = np.asarray(raw, dtype=float) @ self.weights
        return z / np.linalg.norm(z, axis=-1, keepdims=True)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr: float = 1e-3
    steps_per_epoch: int = 100
    embed_dim: int = 16
    seed: int = 0
    anchor_sampling: str = "uncertainty"  # "uncertainty" (TGA) or "random"

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidConfig(f"lr must be finite and > 0, got {self.lr}")
        if self.steps_per_epoch < 1:
            raise InvalidConfig(f"steps_per_epoch must be >= 1, got {self.steps_per_epoch}")
        if self.embed_dim < 1:
            raise InvalidConfig(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.anchor_sampling not in ("uncertainty", "random"):
            raise InvalidConfig("anchor_sampling must be 'uncertainty' or 'random', "
                                f"got {self.anchor_sampling!r}")


def draw_target(present: list[Tracklet], frame: int, rng: np.random.Generator,
                cfg: TrainConfig) -> tuple[Tracklet, int]:
    """The hierarchical draw of tracklet-guided augmentation among `present`,
    tracklets with a record at `frame` and one before it: an anchor favoring
    low tracklet uncertainty, then one of its historical frames favoring high
    association uncertainty, within MAX_LAG frames when the anchor has a
    record there. With anchor_sampling="random" both draws are uniform."""
    uniform = cfg.anchor_sampling != "uncertainty"
    if uniform:
        anchor = present[int(rng.integers(len(present)))]
    else:
        anchor_id = sample(source_anchor_weights(present, frame), rng)
        anchor = next(trk for trk in present if trk.id == anchor_id)
    past = target_anchor_weights(anchor, frame).candidates
    window = [(f, p) for f, p in past if f >= frame - MAX_LAG] or past
    if uniform:
        return anchor, window[int(rng.integers(len(window)))][0]
    # summed left to right: from Python 3.12 the builtin sum compensates rounding
    total_p = reduce(operator.add, (p for _, p in window))
    return anchor, sample(SamplingWeights([(f, p / total_p) for f, p in window]), rng)


def draw_plan(tracklets, frame: int, rng: np.random.Generator,
              cfg: TrainConfig, jitter: float | None = None) -> AugmentationPlan:
    """`draw_target` among the tracklets eligible at `frame`, then the plan
    mapping the anchor's box at `frame` onto its box at the target, with
    `jitter` (None: 2% of the anchor box diagonal). Raises InvalidConfig
    for a bad jitter and NoCandidates when no tracklet is eligible."""
    if jitter is not None and not (math.isfinite(2 * jitter) and jitter >= 0):
        raise InvalidConfig(f"jitter must be >= 0 with 2*jitter finite, got {jitter}")
    present = [trk for trk in tracklets
               if trk.records[0].frame < frame and trk.box_at(frame) is not None]
    if not present:
        raise NoCandidates(f"no tracklet has records at and before frame {frame}")
    anchor, target = draw_target(present, frame, rng, cfg)
    if jitter is None:
        jitter = default_jitter(anchor.box_at(frame))
    return build_plan(anchor, frame, target, jitter, rng)


def info_nce_batch(queries: np.ndarray, raws: np.ndarray, keys: np.ndarray,
                   positives: np.ndarray, weights: np.ndarray):
    """InfoNCE of every query against one shared key set, and the gradient
    of the summed loss with respect to the embedder weights, at
    DEFAULT_TEMPERATURE.

    Row i of `queries` is the unit embedding of raw feature `raws[i]`,
    `positives[i]` the row of `keys` holding its positive. Per query this
    is `info_nce` and `info_nce_grad` (the key order does not matter), then
    the chain rule through the l2 normalization with |z| = |raws[i] @
    weights|. Returns (per-query losses, gradient shaped like `weights`)."""
    probs = softmax(queries @ keys.T / DEFAULT_TEMPERATURE)
    picked = (np.arange(len(queries)), positives)
    losses = -np.log(probs[picked])
    probs[picked] -= 1.0
    grad_q = probs @ keys / DEFAULT_TEMPERATURE
    # q = z / |z|; dL/dz = (I - q q^T) dL/dq / |z|
    z_norm = np.linalg.norm(raws @ weights, axis=1, keepdims=True)
    grad_z = (grad_q - queries * np.sum(queries * grad_q, axis=1, keepdims=True)) / z_norm
    return losses, raws.T @ grad_z


def train_embedder(frames, cfg: TrainConfig):
    """Train the linear embedder on pseudo-tracklets.

    Each epoch re-embeds every detection, regenerates pseudo-tracklets, and
    runs SGD on InfoNCE batches built from sampled frame pairs: the query is
    an object at frame t, the positive its pseudo-tracklet's embedding at a
    historical frame, the negatives the other tracklets in that frame.
    Anchor selection follows the hierarchical uncertainty weights (or is
    uniform when anchor_sampling="random"). Learning rate is cosine-annealed
    to zero. Pseudo-tracklets come from the default TrackerConfig. Returns
    (embedder, per-epoch mean losses).
    """
    frames = list(frames)
    raw_dim = None
    for dets in frames:
        for pos, d in enumerate(dets):
            if d.raw is None:
                raise InsufficientData(
                    f"detection ({d.frame},{d.det_index}) has no raw feature")
            if d.det_index != pos:
                raise InsufficientData(
                    f"detection ({d.frame},{d.det_index}) is at position {pos} "
                    "of its frame")
            raw_dim = d.raw.shape[0]
    if raw_dim is None:
        raise InsufficientData("no detections to train on")
    if len(frames) < 2:
        raise InsufficientData("only 1 frame to train on, need >= 2")

    rng = np.random.default_rng(cfg.seed)
    embedder = LinearEmbedder.init_random(raw_dim, cfg.embed_dim, rng)
    total_steps = cfg.epochs * cfg.steps_per_epoch
    step_count = 0
    epoch_losses: list[float] = []
    # one row per detection, frame by frame; the detections are copied once
    # and each epoch rebinds the copies' embeddings
    raw = np.stack([d.raw for dets in frames for d in dets])
    first_row = list(accumulate((len(dets) for dets in frames), initial=0))
    embedded = [[replace(d) for d in dets] for dets in frames]

    for _epoch in range(cfg.epochs):
        # re-embed and regenerate pseudo-labels with the current weights
        emb = embedder.embed(raw)
        for d, e in zip((d for dets in embedded for d in dets), emb):
            d.embedding = e
        tracklets, _log = track_sequence(embedded)
        if len(tracklets) < 2:
            raise InsufficientData(
                f"sequence yielded {len(tracklets)} tracklet(s), need >= 2")
        # per frame, (tracklet, row of its detection) in track-id order
        by_frame: dict[int, list[tuple[Tracklet, int]]] = {}
        for trk in tracklets:
            for r in trk.records:
                by_frame.setdefault(r.frame, []).append(
                    (trk, first_row[r.frame - 1] + r.det_index))

        losses: list[float] = []
        for _ in range(cfg.steps_per_epoch):
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step_count / total_steps))
            step_count += 1
            t = int(rng.integers(2, len(frames) + 1))
            # every tracklet listed at t has a record there; keep those with an earlier one
            present = [trk for trk, _ in by_frame.get(t, []) if trk.records[0].frame < t]
            if len(present) < 2:
                continue
            _, target = draw_target(present, t, rng, cfg)
            # no plan is built, but build_plan's 8 corner-jitter doubles are
            # drawn, so the stream, and with it every weight, is draw_plan's
            rng.random(8)

            # the keys are every tracklet at the target frame; one query per
            # tracklet present at both frames
            keys = by_frame.get(target, [])
            key_of = {trk.id: j for j, (trk, _) in enumerate(keys)}
            queries = [(row, key_of[trk.id]) for trk, row in by_frame[t]
                       if trk.id in key_of]
            if len(keys) < 2 or not queries:
                continue
            rows, positives = (np.array(col) for col in zip(*queries))
            step_losses, grad = info_nce_batch(
                emb[rows], raw[rows], emb[[row for _, row in keys]], positives,
                embedder.weights)
            losses.extend(step_losses.tolist())
            embedder.weights -= lr * grad / len(rows)
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    return embedder, epoch_losses
