"""Diagnostic statistics over a completed tracking run.

Correctness of an association is anchored to the tracklet's birth identity:
a record is correct iff its detection's true id equals the true id of the
detection that founded the tracklet.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidConfig, MissingGroundTruth
from .tracker import STAGE_BIRTH, Tracklet
from .uncertainty import second_best


def gt_index(gt) -> dict[tuple[int, int], int]:
    return {(g.frame, g.det_index): g.true_id for g in gt}


def _resolve(lookup, frame: int, det_index: int) -> int:
    try:
        return lookup[(frame, det_index)]
    except KeyError:
        raise MissingGroundTruth(f"no ground truth for (frame={frame}, det={det_index})")


@dataclass
class AccuracyCurve:
    points: list  # (tracklet age s, accuracy) with ages strictly increasing

    def at(self, age: int) -> float:
        for s, acc in self.points:
            if s == age:
                return acc
        raise KeyError(age)


@dataclass
class SeparationReport:
    wrong_total: int
    wrong_flagged_uncertain: int
    correct_total: int
    correct_flagged_certain: int

    @property
    def wrong_uncertain_rate(self) -> float:
        return self.wrong_flagged_uncertain / self.wrong_total if self.wrong_total else 0.0

    @property
    def correct_certain_rate(self) -> float:
        return self.correct_flagged_certain / self.correct_total if self.correct_total else 0.0

    def lines(self) -> list[str]:
        return [
            f"wrong_total: {self.wrong_total}",
            f"wrong_flagged_uncertain: {self.wrong_flagged_uncertain}",
            f"wrong_uncertain_rate: {self.wrong_uncertain_rate:.6f}",
            f"correct_total: {self.correct_total}",
            f"correct_flagged_certain: {self.correct_flagged_certain}",
            f"correct_certain_rate: {self.correct_certain_rate:.6f}",
        ]


def pseudo_accuracy(tracklets: list[Tracklet], gt, max_age: int) -> AccuracyCurve:
    """Birth-anchored identity accuracy as a function of tracklet age.

    accuracy(s) aggregates, over every tracklet of age >= s, whether its
    record at age s still carries the birth identity (age 0 = birth)."""
    if max_age < 0:
        raise InvalidConfig(f"max_age must be >= 0, got {max_age}")
    lookup = gt_index(gt)
    correct, total = Counter(), Counter()
    for trk in tracklets:
        birth = trk.records[0]
        birth_id = _resolve(lookup, birth.frame, birth.det_index)
        for age, rec in enumerate(trk.records[:max_age + 1]):
            total[age] += 1
            if _resolve(lookup, rec.frame, rec.det_index) == birth_id:
                correct[age] += 1
    points = [(s, correct[s] / total[s]) for s in sorted(total) if s > 0]
    return AccuracyCurve(points=points)


def uncertainty_separation(log: np.ndarray, gt) -> SeparationReport:
    """Fig-3a-style split of a `LOG` array: how many wrong associations
    carry delta > 0 and how many correct ones carry delta <= 0. Birth rows
    define each track's reference identity; every other row counts,
    dissolved ones included."""
    lookup = gt_index(gt)
    rows = list(zip(*(log[f].tolist() for f in ("frame", "det_index", "track_id", "delta",
                                                "stage"))))
    birth_id: dict[int, int] = {}
    for frame, det_index, tid, _, stage in rows:
        if stage == STAGE_BIRTH and tid not in birth_id:
            birth_id[tid] = _resolve(lookup, frame, det_index)
    wrong_total = wrong_flagged = correct_total = correct_flagged = 0
    for frame, det_index, tid, delta, stage in rows:
        if stage == STAGE_BIRTH:
            continue
        true_id = _resolve(lookup, frame, det_index)
        if tid not in birth_id:
            raise MissingGroundTruth(f"no birth row for track {tid}")
        if true_id == birth_id[tid]:
            correct_total += 1
            if delta <= 0:
                correct_flagged += 1
        else:
            wrong_total += 1
            if delta > 0:
                wrong_flagged += 1
    return SeparationReport(wrong_total=wrong_total,
                            wrong_flagged_uncertain=wrong_flagged,
                            correct_total=correct_total,
                            correct_flagged_certain=correct_flagged)


def id_switches(tracklets: list[Tracklet], gt) -> int:
    """Transitions of the assigned tracklet id along each GT trajectory."""
    lookup = gt_index(gt)
    per_traj: dict[int, list[tuple[int, int]]] = {}
    for trk in tracklets:
        for rec in trk.records:
            true_id = _resolve(lookup, rec.frame, rec.det_index)
            per_traj.setdefault(true_id, []).append((rec.frame, trk.id))
    switches = 0
    for obs in per_traj.values():
        obs.sort()
        for (_, a), (_, b) in zip(obs, obs[1:]):
            if a != b:
                switches += 1
    return switches


@dataclass
class SimilarityDeltaSummary:
    count: int
    mean: float
    fraction_positive: float


def similarity_delta(frames, gt, embedder=None) -> SimilarityDeltaSummary:
    """Margin between the true next-frame match (c+) and the strongest
    distractor (c-, `second_best` of the pair): positive means the embedding
    separates identities.

    With an embedder given, embeddings are recomputed from raw features;
    otherwise the detections' stored embeddings are used."""
    lookup = gt_index(gt)

    @cache
    def embs(t):
        """Embeddings of frames[t], computed once for both pairs it is in."""
        if embedder is not None:
            return embedder.embed(np.stack([d.raw for d in frames[t]]))
        return np.stack([d.embedding for d in frames[t]])

    deltas = []
    for t, (cur, nxt) in enumerate(zip(frames, frames[1:])):
        if not cur or len(nxt) < 2:
            continue
        col_of = {_resolve(lookup, d.frame, d.det_index): j for j, d in enumerate(nxt)}
        pairs = [(i, col_of[tid]) for i, d in enumerate(cur)
                 if (tid := _resolve(lookup, d.frame, d.det_index)) in col_of]
        if not pairs:
            continue
        rows, cols = np.array(pairs).T
        sim = embs(t) @ embs(t + 1).T
        deltas.append(sim[rows, cols] - second_best(sim, rows, cols))
    if not deltas:
        return SimilarityDeltaSummary(0, 0.0, 0.0)
    arr = np.concatenate(deltas)
    return SimilarityDeltaSummary(count=len(arr), mean=float(arr.mean()),
                                  fraction_positive=float((arr > 0).mean()))
