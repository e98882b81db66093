"""Per-frame association pipeline with uncertainty verification and
rectification, plus tracklet lifecycle management.

Per frame: cosine similarity matrix -> Hungarian assignment -> (when
enabled) verification of every matched pair via the uncertainty metric ->
rectification of the dissolved/unmatched pool with K-frame averaged
similarity gated by IoU -> propagation (births, lost handling).
"""

from __future__ import annotations


from dataclasses import dataclass, field

import numpy as np

from .assignment import Matching, hungarian_max
from .errors import DimensionMismatch, InvalidConfig, OutOfOrderFrame
from .geometry import BoundingBox, iou
from .uncertainty import (AssociationVerdict, UncertaintyMargins,
                          association_uncertainty, second_best)

STAGE_BIRTH = 0
STAGE_ASSOC = 1
STAGE_RECTIFIED = 2
STAGE_DISSOLVED = 3   # an uncertain pair: logged, never applied


@dataclass
class Detection:
    frame: int
    det_index: int
    box: BoundingBox
    confidence: float
    embedding: np.ndarray
    raw: np.ndarray | None = None  # appearance feature for embedder training


@dataclass
class TrackRecord:
    frame: int
    det_index: int
    box: BoundingBox
    embedding: np.ndarray
    delta: float
    confidence: float = 1.0


class Tracklet:
    """Identity-labeled sequence of per-frame records with a delta history."""

    def __init__(self, tid: int, record: TrackRecord):
        self.id = tid
        self.records: list[TrackRecord] = [record]
        self.lost_age = 0

    def append(self, record: TrackRecord) -> None:
        if record.frame <= self.records[-1].frame:
            raise OutOfOrderFrame(
                f"track {self.id}: frame {record.frame} after {self.records[-1].frame}")
        self.records.append(record)

    @property
    def last_box(self) -> BoundingBox:
        return self.records[-1].box

    @property
    def last_frame(self) -> int:
        return self.records[-1].frame

    def representative(self) -> np.ndarray:
        return self.records[-1].embedding

    def recent_embeddings(self, k: int) -> list[np.ndarray]:
        return [r.embedding for r in self.records[-k:]]

    def deltas(self) -> list[float]:
        return [r.delta for r in self.records]

    def box_at(self, frame: int) -> BoundingBox | None:
        for r in self.records:
            if r.frame == frame:
                return r.box
        return None

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class TrackerConfig:
    margins: UncertaintyMargins = field(default_factory=UncertaintyMargins)
    beta: float = 0.1           # IoU gate for rectification
    K: int = 5                  # rectification history window
    det_conf_min: float = 0.6   # new-track confidence gate
    max_lost: int = 30          # frames a lost track stays matchable
    utl_enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise InvalidConfig(f"beta must be in [0,1), got {self.beta}")
        if self.K < 1:
            raise InvalidConfig(f"K must be >= 1, got {self.K}")
        if self.max_lost < 0:
            raise InvalidConfig(f"max_lost must be >= 0, got {self.max_lost}")


@dataclass
class LogRow:
    """One association decision; stage 0 = birth, 1 = direct match,
    2 = rectified, 3 = dissolved (logged, not applied)."""
    frame: int
    det_index: int
    track_id: int
    c1: float
    c2: float
    sigma: float
    gamma: float
    delta: float
    stage: int


def tracklets_from_log(log: list[LogRow]) -> list[Tracklet]:
    """Rebuild tracklet composition (frame, det_index, delta) from a log.

    Dissolved rows were never applied, so they are skipped. Boxes and
    embeddings are not in the log; the metrics only need identity and
    delta, so placeholder geometry is used."""
    by_id: dict[int, Tracklet] = {}
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)
    for row in sorted(log, key=lambda r: (r.frame, r.track_id)):
        if row.stage == STAGE_DISSOLVED:
            continue
        rec = TrackRecord(frame=row.frame, det_index=row.det_index, box=box,
                          embedding=np.zeros(1), delta=row.delta)
        if row.track_id in by_id:
            by_id[row.track_id].append(rec)
        else:
            by_id[row.track_id] = Tracklet(row.track_id, rec)
    return [by_id[k] for k in sorted(by_id)]


class TrackerState:
    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Tracklet] = []     # active + lost, creation order
        self.finished: list[Tracklet] = []   # removed tracks
        self.next_id = 1
        self.last_frame: int | None = None

    def all_tracklets(self) -> list[Tracklet]:
        return sorted(self.tracks + self.finished, key=lambda t: t.id)


def build_similarity(tracks: list[Tracklet], dets: list[Detection],
                     cfg: TrackerConfig) -> np.ndarray:
    """Rows index detections, cols index tracks; entries are cosine
    similarities (dot products of unit-norm embeddings)."""
    if not tracks or not dets:
        return np.zeros((len(dets), len(tracks)))
    dim = dets[0].embedding.shape[0]
    for d in dets:
        if d.embedding.shape[0] != dim:
            raise DimensionMismatch(
                f"detection embedding dim {d.embedding.shape[0]} != {dim}")
    reps = []
    for t in tracks:
        rep = t.representative()
        if rep.shape[0] != dim:
            raise DimensionMismatch(f"track {t.id} embedding dim {rep.shape[0]} != {dim}")
        reps.append(rep)
    det_mat = np.stack([d.embedding for d in dets])
    return det_mat @ np.stack(reps).T


def _verdict(sim: np.ndarray, r: int, c: int, cfg: TrackerConfig) -> AssociationVerdict:
    return association_uncertainty(float(sim[r, c]), second_best(sim[r], c), cfg.margins)


def verify(matching: Matching, sim: np.ndarray, cfg: TrackerConfig):
    """Split matched pairs into certain pairs (with verdicts) and an
    uncertain pool; the pool also absorbs all unmatched rows/cols.

    Dissolved pairs are returned with their verdicts as well so that every
    association decision can be logged, even the ones that do not survive."""
    certain: list[tuple[int, int, AssociationVerdict]] = []
    dissolved: list[tuple[int, int, AssociationVerdict]] = []
    pool_rows = list(matching.unmatched_rows)
    pool_cols = list(matching.unmatched_cols)
    for r, c in matching.pairs:
        verdict = _verdict(sim, r, c, cfg)
        if verdict.uncertain:
            dissolved.append((r, c, verdict))
            pool_rows.append(r)
            pool_cols.append(c)
        else:
            certain.append((r, c, verdict))
    return certain, dissolved, sorted(pool_rows), sorted(pool_cols)


def rectify(pool_rows: list[int], pool_cols: list[int], dets: list[Detection],
            tracks: list[Tracklet], cfg: TrackerConfig) -> list[tuple[int, int]]:
    """Re-match the uncertain pool with K-frame averaged similarity, IoU-gated.

    A zero entry (failed gate) is a forbidden match; the Hungarian floor of 0
    enforces that. Tracks shorter than K average over what they have."""
    if not pool_rows or not pool_cols:
        return []
    cprime = np.zeros((len(pool_rows), len(pool_cols)))
    for i, r in enumerate(pool_rows):
        det = dets[r]
        for j, c in enumerate(pool_cols):
            trk = tracks[c]
            if iou(det.box, trk.last_box) <= cfg.beta:
                continue
            hist = trk.recent_embeddings(cfg.K)
            cprime[i, j] = float(np.mean([det.embedding @ e for e in hist]))
    matched = hungarian_max(cprime, floor=0.0)
    return [(pool_rows[i], pool_cols[j]) for i, j in matched.pairs]


def step(state: TrackerState, frame: int, dets: list[Detection]) -> list[LogRow]:
    """Advance the tracker by one frame and return its decisions: the
    dissolved pairs, then the applied matches in detection order, then the
    births."""
    cfg = state.cfg
    if state.last_frame is not None and frame <= state.last_frame:
        raise OutOfOrderFrame(f"frame {frame} after {state.last_frame}")
    state.last_frame = frame

    tracks = state.tracks
    sim = build_similarity(tracks, dets, cfg)
    matching = hungarian_max(sim)
    if cfg.utl_enabled:
        certain, dissolved, pool_rows, pool_cols = verify(matching, sim, cfg)
        # delta is recomputed from the original similarity row so the
        # tracklet's delta history stays on one scale
        rectified = [(r, c, _verdict(sim, r, c, cfg))
                     for r, c in rectify(pool_rows, pool_cols, dets, tracks, cfg)]
    else:
        certain = [(r, c, _verdict(sim, r, c, cfg)) for r, c in matching.pairs]
        dissolved = rectified = []

    def row(r: int, c: int, v: AssociationVerdict, stage: int) -> LogRow:
        return LogRow(frame, dets[r].det_index, tracks[c].id, v.c1, v.c2,
                      v.sigma, v.gamma, v.delta, stage)

    log = [row(r, c, v, STAGE_DISSOLVED) for r, c, v in dissolved]
    applied = sorted([(r, c, row(r, c, v, STAGE_ASSOC)) for r, c, v in certain]
                     + [(r, c, row(r, c, v, STAGE_RECTIFIED)) for r, c, v in rectified],
                     key=lambda x: x[0])
    for r, c, decision in applied:
        det = dets[r]
        trk = tracks[c]
        trk.append(TrackRecord(frame=frame, det_index=det.det_index, box=det.box,
                               embedding=det.embedding, delta=decision.delta,
                               confidence=det.confidence))
        trk.lost_age = 0
        log.append(decision)
    matched_rows = {r for r, _, _ in applied}
    matched_cols = {c for _, c, _ in applied}

    # births
    born: list[Tracklet] = []
    for r, det in enumerate(dets):
        if r in matched_rows or det.confidence < cfg.det_conf_min:
            continue
        trk = Tracklet(state.next_id,
                       TrackRecord(frame=frame, det_index=det.det_index, box=det.box,
                                   embedding=det.embedding, delta=0.0,
                                   confidence=det.confidence))
        state.next_id += 1
        born.append(trk)
        log.append(LogRow(frame, det.det_index, trk.id,
                          0.0, 0.0, 0.0, 0.0, 0.0, STAGE_BIRTH))

    # lost handling
    survivors = []
    for c, trk in enumerate(tracks):
        if c in matched_cols:
            survivors.append(trk)
            continue
        trk.lost_age += 1
        if trk.lost_age > cfg.max_lost:
            state.finished.append(trk)
        else:
            survivors.append(trk)
    state.tracks = survivors + born
    return log


def track_sequence(frames, cfg: TrackerConfig | None = None):
    """Fold `step` over an ordered sequence of per-frame detection lists.

    `frames` is a sequence of (frame_index, detections) pairs or plain
    detection lists (then frames are numbered 1..N). Returns all tracklets,
    including removed ones, and one log row per association decision."""
    if cfg is None:
        cfg = TrackerConfig()
    state = TrackerState(cfg)
    log: list[LogRow] = []
    for pos, entry in enumerate(frames):
        if isinstance(entry, tuple):
            frame, dets = entry
        else:
            frame, dets = pos + 1, entry
        log.extend(step(state, frame, dets))
    return state.all_tracklets(), log
