"""InfoNCE loss, its analytic gradient, and a desk-scale linear embedder.

The embedder is a linear projection of raw appearance features followed by
l2 normalization, standing in for a deep encoder. Gradients flow only
through the query; keys are treated as constants per step. Pseudo-labels
are regenerated each epoch with the current embedder, coupling labeling
quality and representation quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .augment import (AugmentationPlan, SamplingWeights, build_plan,
                      default_jitter, sample, source_anchor_weights,
                      target_anchor_weights)
from .errors import InsufficientData, NoCandidates
from .tracker import TrackerConfig, Tracklet, track_sequence

DEFAULT_TEMPERATURE = 0.07


@dataclass(frozen=True)
class ContrastiveBatch:
    query: np.ndarray
    positive: np.ndarray
    negatives: list
    temperature: float = DEFAULT_TEMPERATURE

    def keys(self) -> np.ndarray:
        return np.stack([self.positive] + list(self.negatives))


def _softmax_over_keys(batch: ContrastiveBatch):
    logits = batch.keys() @ batch.query / batch.temperature
    shifted = logits - logits.max()
    w = np.exp(shifted)
    return logits, w / w.sum()


def info_nce(batch: ContrastiveBatch) -> float:
    """-log(exp(q.k+ / eps) / sum_i exp(q.k_i / eps)), positive included in
    the denominator; computed with max-logit subtraction."""
    logits, probs = _softmax_over_keys(batch)
    return float(-math.log(probs[0]))


def info_nce_grad(batch: ContrastiveBatch) -> np.ndarray:
    """Gradient of the loss with respect to the query:
    (1/eps) * (sum_i p_i k_i - k+)."""
    _, probs = _softmax_over_keys(batch)
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
        if z.ndim == 1:
            return z / np.linalg.norm(z)
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    def save(self, path) -> None:
        from . import formats
        formats.write_weights(self, path)

    @staticmethod
    def load(path) -> "LinearEmbedder":
        from . import formats
        return formats.read_weights(path)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr: float = 1e-3
    steps_per_epoch: int = 100
    max_lag: int = 10            # frame-pair lag bound for positives
    embed_dim: int = 16
    temperature: float = DEFAULT_TEMPERATURE
    seed: int = 0
    anchor_sampling: str = "uncertainty"  # "uncertainty" (TGA) or "random"
    jitter: float | None = None  # None -> 2% of anchor box diagonal


def _anchor_candidates(tracklets, frame: int) -> list[Tracklet]:
    """Tracklets with a record at `frame` and one before it."""
    return [trk for trk in tracklets
            if trk.records[0].frame < frame and trk.box_at(frame) is not None]


def draw_plan(tracklets, frame: int, rng: np.random.Generator,
              cfg: TrainConfig) -> AugmentationPlan:
    """The hierarchical draw of tracklet-guided augmentation.

    The anchor is drawn among the tracklets with a record at `frame` and one
    before it, favoring low tracklet uncertainty; the target is one of its
    historical frames, favoring high association uncertainty, within
    `cfg.max_lag` frames when the anchor has a record there. With
    anchor_sampling="random" both draws are uniform. The plan maps the
    anchor's box at `frame` onto its box at the target, with `cfg.jitter`
    (or the default jitter). Raises NoCandidates when no tracklet qualifies.
    """
    present = _anchor_candidates(tracklets, frame)
    if not present:
        raise NoCandidates(f"no tracklet has records at and before frame {frame}")
    if cfg.anchor_sampling == "uncertainty":
        anchor_id = sample(source_anchor_weights(present, frame), rng)
        anchor = next(trk for trk in present if trk.id == anchor_id)
        tw = target_anchor_weights(anchor, frame)
        window = [(f, p) for f, p in tw.candidates if f >= frame - cfg.max_lag]
        if not window:
            window = tw.candidates
        total_p = sum(p for _, p in window)
        target = sample(SamplingWeights([(f, p / total_p) for f, p in window]), rng)
    else:
        anchor = present[int(rng.integers(len(present)))]
        past = [r.frame for r in anchor.records if frame - cfg.max_lag <= r.frame < frame]
        if not past:
            past = [r.frame for r in anchor.records if r.frame < frame]
        target = int(past[int(rng.integers(len(past)))])
    jitter = cfg.jitter if cfg.jitter is not None else default_jitter(
        anchor.box_at(frame))
    return build_plan(anchor, frame, target, jitter, rng)


def _grad_through_normalization(q: np.ndarray, z_norm: float, grad_q: np.ndarray) -> np.ndarray:
    # q = z / |z|; dL/dz = (I - q q^T) dL/dq / |z|
    return (grad_q - q * (q @ grad_q)) / z_norm


def train_embedder(frames, cfg: TrainConfig,
                   tracker_cfg: TrackerConfig | None = None):
    """Train the linear embedder on pseudo-tracklets.

    Each epoch re-embeds every detection, regenerates pseudo-tracklets, and
    runs SGD on InfoNCE batches built from sampled frame pairs: the query is
    an object at frame t, the positive its pseudo-tracklet's embedding at a
    historical frame, the negatives the other tracklets in that frame.
    Anchor selection follows the hierarchical uncertainty weights (or is
    uniform when anchor_sampling="random"). Learning rate is cosine-annealed
    to zero. Returns (embedder, per-epoch mean losses).
    """
    if tracker_cfg is None:
        tracker_cfg = TrackerConfig()
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

    rng = np.random.default_rng(cfg.seed)
    embedder = LinearEmbedder.init_random(raw_dim, cfg.embed_dim, rng)
    total_steps = max(1, cfg.epochs * cfg.steps_per_epoch)
    step_count = 0
    epoch_losses: list[float] = []

    for _epoch in range(cfg.epochs):
        # re-embed and regenerate pseudo-labels with the current weights
        embedded = [[replace(d, embedding=embedder.embed(d.raw)) for d in dets]
                    for dets in frames]
        tracklets, _log = track_sequence(
            [(i + 1, dets) for i, dets in enumerate(embedded)], tracker_cfg)
        if len(tracklets) < 2:
            raise InsufficientData(
                f"sequence yielded {len(tracklets)} tracklet(s), need >= 2")
        by_frame: dict[int, list[tuple[Tracklet, int]]] = {}
        for t in tracklets:
            for idx, r in enumerate(t.records):
                by_frame.setdefault(r.frame, []).append((t, idx))

        losses: list[float] = []
        for _ in range(cfg.steps_per_epoch):
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step_count / total_steps))
            step_count += 1
            t = int(rng.integers(2, len(frames) + 1))
            present = _anchor_candidates([trk for trk, _ in by_frame.get(t, [])], t)
            if len(present) < 2:
                continue
            # only the target is used: the plan is built for its corner-jitter
            # draws, which the pinned training stream includes
            target = draw_plan(present, t, rng, cfg).target_frame

            # one query per tracklet present at both frames
            key_recs = {trk.id: rec for trk, ridx in by_frame.get(target, [])
                        for rec in [trk.records[ridx]]}
            grads = np.zeros_like(embedder.weights)
            n_q = 0
            for trk, ridx in by_frame[t]:
                if trk.id not in key_recs or len(key_recs) < 2:
                    continue
                rec = trk.records[ridx]
                det = embedded[t - 1][rec.det_index]
                positive = key_recs[trk.id].embedding
                negatives = [r.embedding for tid, r in sorted(key_recs.items())
                             if tid != trk.id]
                batch = ContrastiveBatch(det.embedding, positive, negatives,
                                         cfg.temperature)
                losses.append(info_nce(batch))
                gq = info_nce_grad(batch)
                z_norm = float(np.linalg.norm(det.raw @ embedder.weights))
                gz = _grad_through_normalization(det.embedding, z_norm, gq)
                grads += np.outer(det.raw, gz)
                n_q += 1
            if n_q:
                embedder.weights -= lr * grads / n_q
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    return embedder, epoch_losses
