"""Deterministic synthetic multi-object scenes with ground truth.

Objects move with constant velocity, reflecting off the arena walls, under
a shared slowly-turning camera drift. Each object owns a unit latent
appearance vector; observed embeddings are noisy copies, with the noise
amplified while the object overlaps another (the occlusion proxy).
Confusable pairs share near-identical latents. Raw features are a fixed
seeded rotation of the latent into a higher dimension plus noise, so a
linear embedder can recover separability.

All randomness flows through one numpy PCG64 generator seeded from the
config; the generator choice is part of the output contract (same seed,
same bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .geometry import BoundingBox, iou
from .tracker import Detection

OCCLUSION_IOU = 0.3     # overlap above this counts as occluded
POSITION_JITTER = 0.5   # px of per-frame motion noise
RAW_NOISE = 0.1         # noise added to raw features
CONFUSABLE_PERTURB = 0.4   # latent perturbation within a confusable pair
NOISE_SCALE = 2.0       # global multiplier on appearance noise
BOX_MIN = 24.0          # smallest box side
BOX_MAX = 48.0          # largest box side


@dataclass(frozen=True)
class ScenarioConfig:
    num_objects: int = 12
    num_frames: int = 200
    arena: tuple[float, float] = (560.0, 420.0)
    embed_dim: int = 16
    raw_dim: int = 32
    appearance_noise: float = 0.25
    confusable_fraction: float = 0.3
    occlusion_rate: float = 0.0
    occlusion_noise_boost: float = 3.0
    dropout: float = 0.05
    camera_drift: float = 2.0
    speed: float = 8.0
    seed: int = 7

    def __post_init__(self):
        if self.num_objects < 1:
            raise InvalidConfig(f"num_objects must be >= 1, got {self.num_objects}")
        if self.num_frames < 2:
            raise InvalidConfig(f"num_frames must be >= 2, got {self.num_frames}")
        if self.embed_dim < 2:
            raise InvalidConfig(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.raw_dim < self.embed_dim:
            raise InvalidConfig(
                f"raw_dim must be >= embed_dim ({self.embed_dim}), got {self.raw_dim}")
        for name in ("confusable_fraction", "occlusion_rate", "dropout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0,1], got {v}")
        v = self.occlusion_noise_boost
        if not (math.isfinite(v) and v >= 1.0):
            raise InvalidConfig(f"occlusion_noise_boost must be finite and >= 1, got {v}")
        if not all(math.isfinite(side) and side > 0 for side in self.arena):
            raise InvalidConfig(f"arena must be finite and positive, got {self.arena}")
        for name in ("appearance_noise", "camera_drift", "speed"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidConfig(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class GroundTruthRecord:
    frame: int
    det_index: int
    true_id: int


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate(cfg: ScenarioConfig):
    """Returns (frames, gt): frames is a list of per-frame Detection lists
    (frame indices 1..num_frames), gt one record per emitted detection."""
    rng = np.random.default_rng(cfg.seed)
    n, d, f = cfg.num_objects, cfg.embed_dim, cfg.raw_dim
    aw, ah = cfg.arena

    # latent appearances: mutually orthogonal so that only the engineered
    # confusable pairs are similar (random unit vectors in low dimension
    # can collide by chance, which would confound the difficulty knobs)
    if n <= d:
        latents, _ = np.linalg.qr(rng.normal(size=(d, n)))
        latents = latents.T
    else:
        latents = np.stack([_unit(rng.normal(size=d)) for _ in range(n)])
    n_pairs = int(round(cfg.confusable_fraction * n / 2.0))
    for p in range(min(n_pairs, n // 2)):
        a, b = 2 * p, 2 * p + 1
        latents[b] = _unit(latents[a] + CONFUSABLE_PERTURB * rng.normal(size=d))

    # fixed rotation of latents into raw-feature space
    basis, _ = np.linalg.qr(rng.normal(size=(f, d)))

    sizes = rng.uniform(BOX_MIN, BOX_MAX, size=(n, 2))
    half = sizes / 2.0
    lo = half + 1.0
    hi = np.stack([aw - half[:, 0] - 1.0, ah - half[:, 1] - 1.0], axis=1)
    pos = lo + rng.random((n, 2)) * (hi - lo)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vel = cfg.speed * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    cam = np.zeros(2)
    cam_angle = rng.uniform(0.0, 2.0 * np.pi)

    frames: list[list[Detection]] = []
    gt: list[GroundTruthRecord] = []
    for frame in range(1, cfg.num_frames + 1):
        pos = pos + vel + rng.normal(0.0, POSITION_JITTER, size=(n, 2))
        # reflect box centers off the arena walls
        for i in range(n):
            for ax, limit in ((0, aw), (1, ah)):
                low, high = half[i, ax], limit - half[i, ax]
                if pos[i, ax] < low:
                    pos[i, ax] = 2 * low - pos[i, ax]
                    vel[i, ax] = abs(vel[i, ax])
                elif pos[i, ax] > high:
                    pos[i, ax] = 2 * high - pos[i, ax]
                    vel[i, ax] = -abs(vel[i, ax])
        cam_angle += rng.normal(0.0, 0.3)
        cam = cam + cfg.camera_drift * np.array([np.cos(cam_angle), np.sin(cam_angle)])

        boxes = [BoundingBox(pos[i, 0] + cam[0], pos[i, 1] + cam[1],
                             sizes[i, 0], sizes[i, 1]) for i in range(n)]
        max_iou = np.zeros(n)
        for i in range(n):
            for j in range(i + 1, n):
                v = iou(boxes[i], boxes[j])
                if v > max_iou[i]:
                    max_iou[i] = v
                if v > max_iou[j]:
                    max_iou[j] = v

        # draw all per-object randomness before the dropout filter so the
        # stream consumed per frame does not depend on which objects survive
        emb_noise = rng.normal(size=(n, d))
        raw_noise = rng.normal(size=(n, f))
        forced_occ = rng.random(n) < cfg.occlusion_rate
        dropped = rng.random(n) < cfg.dropout

        dets: list[Detection] = []
        for i in range(n):
            if dropped[i]:
                continue
            occluded = max_iou[i] > OCCLUSION_IOU or forced_occ[i]
            sigma = cfg.appearance_noise * (cfg.occlusion_noise_boost if occluded else 1.0)
            # appearance_noise is the RMS magnitude of the whole noise
            # vector relative to the unit latent, not a per-dimension std
            emb = _unit(latents[i] + sigma * NOISE_SCALE * emb_noise[i] / np.sqrt(d))
            raw = basis @ latents[i] + RAW_NOISE * raw_noise[i]
            conf = 1.0 - min(0.9, float(max_iou[i]))
            det_index = len(dets)
            dets.append(Detection(frame=frame, det_index=det_index, box=boxes[i],
                                  confidence=conf, embedding=emb, raw=raw))
            gt.append(GroundTruthRecord(frame=frame, det_index=det_index, true_id=i + 1))
        frames.append(dets)
    return frames, gt
