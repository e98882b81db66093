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
same bytes). Frames are drawn and built on the calling thread a block at a
time, in frame order, so the caller's `np.errstate` governs the build (README
"Scene generation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .geometry import BoundingBox, iou
from .tracker import MAX_FRAME, Detection

OCCLUSION_IOU = 0.3     # overlap above this counts as occluded
POSITION_JITTER = 0.5   # px of per-frame motion noise
RAW_NOISE = 0.1         # noise added to raw features
CONFUSABLE_PERTURB = 0.4   # latent perturbation within a confusable pair
NOISE_SCALE = 2.0       # global multiplier on appearance noise
BOX_MIN = 24.0          # smallest box side
BOX_MAX = 48.0          # largest box side
MAX_OBJECTS = 1000      # bounds the per-frame (n, n) overlap matrix
MAX_DIM = 4096          # bounds embed_dim and raw_dim, hence the basis and noise draws
MAX_SCENE_VALUES = 2**27   # 1 GiB of float64: bounds the vectors `generate` keeps
# bounds the detections `generate` keeps: each costs about 0.7 KB of Python
# objects besides its vectors (200,000 at dims 2/2 raise peak RSS by 142 MB)
MAX_SCENE_DETECTIONS = 2**21
# float64 values (1 MiB) that bound a block of frames' scratch: a frame's
# normals and its 2 · n² overlap values, so a default frame shares a block
# with 146 others and a crowd frame is a block of its own
BLOCK_VALUES = 2**17


@dataclass(frozen=True)
class ScenarioConfig:
    """A scene's settings. `arena` is (width, height) in px, each side at
    least BOX_MAX, so that a box of the largest size fits."""
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
        if not 1 <= self.num_objects <= MAX_OBJECTS:
            raise InvalidConfig(
                f"num_objects must be in [1, {MAX_OBJECTS}], got {self.num_objects}")
        if not 2 <= self.num_frames <= MAX_FRAME:
            raise InvalidConfig(
                f"num_frames must be in [2, {MAX_FRAME}], got {self.num_frames}")
        if not 2 <= self.embed_dim <= MAX_DIM:
            raise InvalidConfig(f"embed_dim must be in [2, {MAX_DIM}], got {self.embed_dim}")
        if not self.embed_dim <= self.raw_dim <= MAX_DIM:
            raise InvalidConfig(f"raw_dim must be in [embed_dim ({self.embed_dim}), "
                                f"{MAX_DIM}], got {self.raw_dim}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        for name in ("confusable_fraction", "occlusion_rate", "dropout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0,1], got {v}")
        v = self.occlusion_noise_boost
        if not (math.isfinite(v) and v >= 1.0):
            raise InvalidConfig(f"occlusion_noise_boost must be finite and >= 1, got {v}")
        if not all(math.isfinite(side) and side >= BOX_MAX for side in self.arena):
            raise InvalidConfig(f"arena sides must be finite and >= {BOX_MAX:g}, "
                                f"got {self.arena}")
        for name in ("appearance_noise", "camera_drift", "speed"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidConfig(f"{name} must be finite and >= 0, got {v}")
        values = self.num_objects * (self.embed_dim + self.raw_dim) * self.num_frames
        if values > MAX_SCENE_VALUES:
            raise InvalidConfig(
                f"num_objects * (embed_dim + raw_dim) * num_frames must be <= "
                f"{MAX_SCENE_VALUES}, got {self.num_objects} * ({self.embed_dim} + "
                f"{self.raw_dim}) * {self.num_frames} = {values}")
        detections = self.num_objects * self.num_frames
        if detections > MAX_SCENE_DETECTIONS:
            raise InvalidConfig(
                f"num_objects * num_frames must be <= {MAX_SCENE_DETECTIONS}, got "
                f"{self.num_objects} * {self.num_frames} = {detections}")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate(cfg: ScenarioConfig):
    """Returns (frames, gt): frames is a list of per-frame Detection lists
    (frame indices 1..num_frames), gt maps each emitted detection's
    (frame, det_index) to its object's true id (1..num_objects), in frame order.
    Frames are built a block at a time (`BLOCK_VALUES`): a block's embeddings
    and raw features are row views of one matrix each, a frame's rows
    consecutive and in frame order. A box center reflects off the arena
    walls and is then clamped between them, so before camera drift every
    center stays inside the arena."""
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

    # fixed rotation of latents into raw-feature space, applied once per
    # object: one `latents @ basis.T` product rounds differently on every row
    basis, _ = np.linalg.qr(rng.normal(size=(f, d)))
    clean_raw = np.stack([basis @ latent for latent in latents])

    sizes = rng.uniform(BOX_MIN, BOX_MAX, size=(n, 2))
    half = sizes / 2.0
    high = np.array([aw, ah]) - half   # the walls' limits on each box center
    lo = half + 1.0
    hi = high - 1.0
    pos = lo + rng.random((n, 2)) * (hi - lo)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vel = cfg.speed * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    twice_half, twice_high = 2 * half, 2 * high

    cam = np.zeros(2)
    cam_angle = rng.uniform(0.0, 2.0 * np.pi)

    # each frame draws its normals (position jitter, camera turn, embedding
    # noise, raw noise), then its uniforms (forced occlusion, dropout), into
    # its rows of the block's two matrices and before the dropout filter, so
    # the stream consumed per frame does not depend on which objects survive;
    # a slice scaled as `0.0 + scale * z` has the bits of `rng.normal(0.0, scale)`
    turn = 2 * n
    emb_end = turn + 1 + n * d
    normals = emb_end + n * f
    per_block = max(1, BLOCK_VALUES // (normals + 2 * n * n))
    frames: list[list[Detection]] = []
    gt: dict[tuple[int, int], int] = {}

    for first in range(1, cfg.num_frames + 1, per_block):
        count = min(per_block, cfg.num_frames + 1 - first)
        z = np.empty((count, normals))
        uniform = np.empty((count, 2 * n))
        for i in range(count):
            rng.standard_normal(out=z[i])
            rng.random(out=uniform[i])

        # the block's camera path at once: `cumsum` adds the turns in frame
        # order, one at a time, as a running `+=` does
        angles = np.cumsum(np.append(cam_angle, 0.0 + 0.3 * z[:, turn]))[1:]
        cam_angle = angles[-1]
        steps = cfg.camera_drift * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # motion and camera positions frame by frame, so an overflow there
        # raises in frame order
        jitter = 0.0 + POSITION_JITTER * z[:, :turn].reshape(count, n, 2)
        centers, cams = np.empty((count, n, 2)), np.empty((count, 2))
        for i in range(count):
            pos = np.add(pos + vel, jitter[i], out=centers[i])
            below, above = pos < half, pos > high
            if below.any() or above.any():
                # reflect box centers off the arena walls; one reflection
                # cannot bring back a step longer than the corridor between
                # a center's two limits, so the reflected center is clamped
                # into them. Neither step changes a center inside its limits
                pos = np.where(below, twice_half - pos, np.where(above, twice_high - pos, pos))
                pos = np.minimum(np.maximum(pos, half), high, out=centers[i])
                vel = np.where(below, np.abs(vel), np.where(above, -np.abs(vel), vel))
            cam = np.add(cam, steps[i], out=cams[i])
        # the block's (4, frames, n) box array: the centers under the camera,
        # then the sizes
        boxes = np.empty((4, count, n))
        np.add(centers.transpose(2, 0, 1), cams.T[:, :, None], out=boxes[:2])
        boxes[2:] = sizes.T[:, None]

        kept = uniform[:, n:] >= cfg.dropout   # (frames, n), in stream order
        frame_of, obj = kept.nonzero()
        # a detection's index is its object's rank among its frame's kept ones
        index = kept.cumsum(axis=1)[kept] - 1
        # the kept noise rows, gathered before the overlaps so that the
        # block's normals are freed first
        emb = z[:, turn + 1:emb_end].reshape(count, n, d)[kept]
        raw = z[:, emb_end:].reshape(count, n, f)[kept]
        del z, jitter

        overlap = iou(boxes, boxes)   # (frames, n, n)
        overlap.reshape(count, n * n)[:, ::n + 1] = 0.0
        max_iou = overlap.max(axis=2)[kept]
        del overlap
        occluded = (max_iou > OCCLUSION_IOU) | (uniform[:, :n] < cfg.occlusion_rate)[kept]
        sigma = cfg.appearance_noise * np.where(occluded, cfg.occlusion_noise_boost, 1.0)
        # appearance_noise is the RMS magnitude of the whole noise vector
        # relative to the unit latent, not a per-dimension std. The gathered
        # noise is scaled and summed in place: `*` and `+` commute bit for
        # bit, so this is `latents + sigma * NOISE_SCALE * noise / sqrt(d)`
        emb *= sigma[:, None] * NOISE_SCALE
        emb /= np.sqrt(d)
        emb += latents[obj]
        # each row's norm is the ddot `np.linalg.norm` takes of a vector:
        # matmul sends every stacked (1 x d) @ (d x 1) product to that ddot;
        # `norm(axis=1)` and `einsum` round differently on some rows
        squares = np.matmul(emb[:, None, :], emb[:, :, None])
        if d % 2:
            # some ddot kernels (OpenBLAS's Prescott) round a row by its
            # address mod 16; for the bits of a frame's own matrix, whose even
            # rows are 16-byte aligned, the rows of a frame that starts at an
            # odd row of the block take their squares from a copy shifted by
            # one value
            shifted = np.empty(emb.size + 1)[1:].reshape(emb.shape)
            shifted[...] = emb
            odd = (np.arange(len(emb)) - index) % 2 == 1
            squares[odd] = np.matmul(shifted[:, None, :], shifted[:, :, None])[odd]
        emb /= np.sqrt(squares)[:, 0]
        raw *= RAW_NOISE
        raw += clean_raw[obj]
        conf = (1.0 - np.minimum(0.9, max_iou)).tolist()

        # one box and one detection per kept object, built positionally from
        # the columns; iterating a matrix gives its rows as views
        cx, cy, w, h = boxes[:, kept].tolist()
        dets = list(map(Detection, map(BoundingBox, cx, cy, w, h), conf, emb, raw))
        ends = np.cumsum(np.count_nonzero(kept, axis=1)).tolist()
        frames += [dets[start:end] for start, end in zip([0, *ends], ends)]
        gt.update(zip(zip((frame_of + first).tolist(), index.tolist()), (obj + 1).tolist()))
    return frames, gt
