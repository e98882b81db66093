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
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .augment import (AugmentationPlan, SamplingWeights, default_jitter, plan_between,
                      sample, softmax)
# unused here; perfbench's traced run wraps them at these names
from .augment import build_plan, source_anchor_weights, target_anchor_weights  # noqa: F401
from .errors import InsufficientData, InvalidConfig, NoCandidates
from .tracker import Detection, TrackerState, applied, track_sequence
from .uncertainty import tracklet_uncertainty

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


def _draw_in_window(past: list[int], probs: list[float] | None, frame: int,
                    rng: np.random.Generator) -> int:
    """The target frame of an anchor whose historical frames before `frame`
    are `past`, ascending, with softmax weights `probs`. It is drawn from
    the frames within MAX_LAG of `frame`, or from the whole history when
    none is: uniformly when `probs` is None, else by each weight over the
    window's sum."""
    start = bisect_left(past, frame - MAX_LAG)
    if start == len(past):
        start = 0
    if probs is None:
        return past[start + int(rng.integers(len(past) - start))]
    window = probs[start:]
    # summed left to right: from Python 3.12 the builtin sum compensates rounding
    total_p = reduce(operator.add, window)
    return sample(SamplingWeights(past[start:], [p / total_p for p in window]), rng)


@dataclass(frozen=True)
class EpochColumns:
    """One epoch's pseudo-tracklets, read from the tracker's applied
    decisions as columns, for the training steps' draws and batches.

    Track k (id k + 1) holds entries `bounds[k]:bounds[k + 1]` of `frames`,
    ascending, and of `deltas`; `omega[k]` is its tracklet uncertainty and
    `first[k]` its first frame. Frame t's tracks, in id order, are
    `tracks[at[t - 1]:at[t]]`, and the same places of `rows` hold the
    index of each one's detection among every detection stepped."""
    frames: list
    deltas: np.ndarray
    bounds: list
    omega: np.ndarray
    first: np.ndarray
    at: list
    tracks: np.ndarray
    rows: np.ndarray

    @classmethod
    def from_state(cls, state: TrackerState) -> "EpochColumns":
        """The columns of the applied rows of `state`, up to the last frame it stepped."""
        rows = applied(state.table[:state.n_rows])
        tid, frames, deltas = rows["track_id"], rows["frame"], rows["delta"]
        bounds = np.bincount(tid).cumsum().tolist()   # ids start at 1: bounds[0] is 0
        history = deltas.tolist()
        omega = np.array([tracklet_uncertainty(history[start:stop])
                          for start, stop in zip(bounds, bounds[1:])])
        by_frame = frames.argsort(kind="stable")   # frame, then track id
        at = frames[by_frame].searchsorted(np.arange(state.frame + 1), side="right")
        return cls(frames.tolist(), deltas, bounds, omega, frames[bounds[:-1]],
                   at.tolist(), tid[by_frame] - 1, rows["det"][by_frame])

    def present(self, frame: int) -> np.ndarray:
        """The tracks with an entry at `frame` and one before it, in id order."""
        tracks = self.tracks[self.at[frame - 1]:self.at[frame]]
        return tracks[self.first[tracks] < frame]

    def draw(self, present: np.ndarray, frame: int, rng: np.random.Generator,
             cfg: TrainConfig) -> tuple[int, int]:
        """The hierarchical draw of tracklet-guided augmentation among the
        tracks `present`: an anchor favoring low tracklet uncertainty, then
        one of its historical frames before `frame` favoring high
        association uncertainty, within MAX_LAG frames when the anchor has
        an entry there. With anchor_sampling="random" both draws are
        uniform. Returns the anchor track and its target frame."""
        uniform = cfg.anchor_sampling != "uncertainty"
        if uniform:
            anchor = int(present[rng.integers(len(present))])
        else:
            anchor = sample(SamplingWeights(present.tolist(),
                                            softmax(-self.omega[present]).tolist()), rng)
        start = self.bounds[anchor]
        stop = bisect_left(self.frames, frame, start, self.bounds[anchor + 1])
        probs = None if uniform else softmax(self.deltas[start:stop]).tolist()
        return anchor, _draw_in_window(self.frames[start:stop], probs, frame, rng)

    def row(self, track: int, frame: int) -> int:
        """The index among every detection stepped of the detection of
        `track` at `frame`, where it has an entry."""
        start = self.at[frame - 1]
        return int(self.rows[start + self.tracks[start:self.at[frame]].searchsorted(track)])

    def batch(self, frame: int, target: int):
        """The InfoNCE batch of a draw: the keys are the detections of every
        track at `target`, the queries those at `frame` of the tracks at
        both, the drawn anchor among them. Returns (query rows, the key index
        of each query's positive, key rows), or None for fewer than 2 keys."""
        there = slice(self.at[target - 1], self.at[target])
        here = slice(self.at[frame - 1], self.at[frame])
        keys, tracks = self.tracks[there], self.tracks[here]
        if len(keys) < 2:
            return None
        positives = keys.searchsorted(tracks)
        hit = keys[np.minimum(positives, len(keys) - 1)] == tracks
        return self.rows[here][hit], positives[hit], self.rows[there]


def draw_plan(state: TrackerState, frame: int, rng: np.random.Generator,
              cfg: TrainConfig, jitter: float | None = None) -> AugmentationPlan:
    """The columns' draw among the tracks of `state` present at `frame`,
    then the plan mapping the anchor's box at `frame` onto its box at the
    target, with `jitter` (None: 2% of the anchor box diagonal). Raises
    NoCandidates when no track is present, a frame `state` did not step
    included, and InvalidConfig for a bad jitter: a given one before any
    draw, the default one (from a huge box) after the draw."""
    if jitter is not None:
        _check_jitter(jitter, "jitter")
    columns = EpochColumns.from_state(state)
    present = columns.present(frame) if 1 <= frame <= state.frame else []
    if not len(present):
        raise NoCandidates(f"no tracklet has records at and before frame {frame}")
    anchor, target = columns.draw(present, frame, rng, cfg)
    src_box, dst_box = (state.dets[columns.row(anchor, f)].box for f in (frame, target))
    if jitter is None:
        jitter = _check_jitter(default_jitter(src_box),
                               f"the default jitter of track {anchor + 1} at frame {frame}")
    return plan_between(anchor + 1, target, src_box, dst_box, jitter, rng)


def _check_jitter(jitter: float, name: str) -> float:
    """`jitter` if it is >= 0 with 2*jitter finite, the span of
    `build_plan`'s uniform draw; InvalidConfig naming it otherwise."""
    if not (math.isfinite(2 * jitter) and jitter >= 0):
        raise InvalidConfig(f"{name} must be >= 0 with 2*jitter finite, got {jitter}")
    return jitter


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
    The queries, positives and negatives are the embeddings computed at the
    epoch's start, not re-embedded as the weights move step by step, so a
    step is not the exact gradient at the current weights; re-embedding
    every step was measured and gave no gain (ROADMAP *Ruled out*).
    Anchor selection follows the hierarchical uncertainty weights (or is
    uniform when anchor_sampling="random"). Learning rate is cosine-annealed
    to zero. Pseudo-tracklets come from the default TrackerConfig; each
    epoch reads them from the tracker state's decision table as
    `EpochColumns`. Returns (embedder, per-epoch mean losses); an epoch
    that trained no step reports nan. A step is skipped when its frame has
    fewer than 2 tracks with a past or its target fewer than 2 keys, and a
    run that trained no step at all raises InsufficientData.
    """
    frames = list(frames)
    for frame, dets in enumerate(frames, start=1):
        for i, d in enumerate(dets):
            if d.raw is None:
                raise InsufficientData(f"detection ({frame},{i}) has no raw feature")
    # one row per detection, frame by frame, which is also each detection's
    # index among those the tracker steps
    raw = np.array([d.raw for dets in frames for d in dets])   # np.stack is slower
    if not len(raw):
        raise InsufficientData("no detections to train on")
    if len(frames) < 2:
        raise InsufficientData("only 1 frame to train on, need >= 2")

    rng = np.random.default_rng(cfg.seed)
    embedder = LinearEmbedder.init_random(raw.shape[1], cfg.embed_dim, rng)
    total_steps = cfg.epochs * cfg.steps_per_epoch
    step_count = trained = 0
    epoch_losses: list[float] = []
    # the detections are copied once, each embedding a row view of `emb`,
    # which every epoch overwrites; the tracker copies what it keeps
    emb = np.empty((len(raw), cfg.embed_dim))
    views = iter(emb)
    embedded = [[Detection(d.box, d.confidence, next(views)) for d in dets] for dets in frames]

    for _epoch in range(cfg.epochs):
        # re-embed and regenerate pseudo-labels with the current weights
        emb[...] = embedder.embed(raw)
        state = track_sequence(embedded)
        if state.made < 2:
            raise InsufficientData(
                f"sequence yielded {state.made} tracklet(s), need >= 2")
        columns = EpochColumns.from_state(state)

        losses: list[float] = []
        for _ in range(cfg.steps_per_epoch):
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step_count / total_steps))
            step_count += 1
            t = int(rng.integers(2, len(frames) + 1))
            present = columns.present(t)
            if len(present) < 2:
                continue
            _, target = columns.draw(present, t, rng, cfg)
            # no plan is built, but build_plan's 8 corner-jitter doubles are
            # drawn, so the stream, and with it every weight, is draw_plan's
            rng.random(8)

            batch = columns.batch(t, target)
            if batch is None:
                continue
            rows, positives, keys = batch
            step_losses, grad = info_nce_batch(
                emb[rows], raw[rows], emb[keys], positives, embedder.weights)
            losses.extend(step_losses.tolist())
            embedder.weights -= lr * grad / len(rows)
            trained += 1
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    if not trained:
        raise InsufficientData(f"no step of {total_steps} trained: each drawn frame had "
                               "< 2 tracks with a past, or its target frame < 2 tracks")
    return embedder, epoch_losses
