"""Diagnostic statistics over a completed tracking run.

Correctness of an association is anchored to the tracklet's birth identity:
a record is correct iff its detection's true id equals the true id of the
detection that founded the tracklet. The identity metrics run on int
columns, one row per record (track id, frame, det_index), and look up the
ground truth of a whole column in one pass; the `Tracklet` forms are adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidConfig, MissingGroundTruth
from .tracker import STAGE_BIRTH, Tracklet
from .uncertainty import second_best


def gt_index(gt) -> dict[tuple[int, int], int]:
    """(frame, det_index) -> a code of the true id: codes count up from 0,
    one per true id, so a column of them is an int array whatever the ids."""
    codes: dict[int, int] = {}
    return {key: codes.setdefault(true_id, len(codes)) for key, true_id in gt.items()}


def _true_ids(lookup, frames, det_index) -> np.ndarray:
    """The `gt_index` codes of rows (frames[i], det_index[i]); the first missing one raises."""
    try:
        return np.array([lookup[k] for k in zip(frames.tolist(), det_index.tolist())], np.intp)
    except KeyError as exc:
        raise MissingGroundTruth("no ground truth for (frame={}, det={})".format(*exc.args[0]))


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


def accuracy_curve(tid, frames, det_index, gt, max_age: int) -> AccuracyCurve:
    """Birth-anchored identity accuracy by tracklet age (0 = birth), with a
    tracklet's rows together in age order: accuracy(s) aggregates, over every
    tracklet of age >= s, whether its record at age s still carries the birth
    identity. Only records of age <= max_age are looked up."""
    if max_age < 0:
        raise InvalidConfig(f"max_age must be >= 0, got {max_age}")
    first = np.diff(tid, prepend=tid[:1] - 1) != 0   # where a tracklet starts
    tracklet = first.cumsum() - 1
    age = np.arange(len(tid)) - first.nonzero()[0][tracklet]
    keep = age <= min(max_age, len(tid))   # a Python int past intp stays out of numpy
    ids = _true_ids(gt_index(gt), frames[keep], det_index[keep])
    age, correct = age[keep], ids == ids[age[keep] == 0][tracklet[keep]]
    total = np.bincount(age)
    hits = np.bincount(age[correct], minlength=len(total))
    return AccuracyCurve(points=[(s, h / t) for s, (h, t) in
                                 enumerate(zip(hits.tolist(), total.tolist())) if s])


def pseudo_accuracy(tracklets: list[Tracklet], gt, max_age: int) -> AccuracyCurve:
    """`accuracy_curve` over the tracklets' records."""
    return accuracy_curve(*_columns(tracklets, range(len(tracklets))), gt, max_age)


def uncertainty_separation(log: np.ndarray, gt) -> SeparationReport:
    """Fig-3a-style split of a `LOG` array: how many wrong associations
    carry delta > 0 and how many correct ones carry delta <= 0. Each track's
    first birth row sets its identity and is looked up first, in log order;
    every other row counts, dissolved too, looked up before its track's birth."""
    lookup = gt_index(gt)
    is_born = log["stage"] == STAGE_BIRTH   # `take`, as in `tracker.applied`, gathers faster
    born, rows = log.take(is_born.nonzero()[0]), log.take((~is_born).nonzero()[0])
    born = born.take(np.sort(np.unique(born["track_id"], return_index=True)[1]))
    born_tid, born_id = born["track_id"], _true_ids(lookup, born["frame"], born["det_index"])
    tid = rows["track_id"]
    known = np.isin(tid, born_tid)
    stop = len(rows) if known.all() else int(known.argmin()) + 1
    true_id = _true_ids(lookup, rows["frame"][:stop], rows["det_index"][:stop])
    if stop and not known[stop - 1]:
        raise MissingGroundTruth(f"no birth row for track {tid[stop - 1]}")
    by_tid = born_tid.argsort()
    correct = true_id == born_id[by_tid[born_tid.searchsorted(tid, sorter=by_tid)]]
    delta = rows["delta"]   # a nan delta is flagged neither way
    return SeparationReport(*(int(np.count_nonzero(c)) for c in
                              (~correct, ~correct & (delta > 0), correct, correct & (delta <= 0))))


def switch_count(tid, frames, det_index, gt) -> int:
    """Transitions of the assigned track id along each GT trajectory."""
    ids = _true_ids(gt_index(gt), frames, det_index)
    order = np.lexsort((tid, frames, ids))
    tid, ids = tid[order], ids[order]
    return int(np.count_nonzero((ids[1:] == ids[:-1]) & (tid[1:] != tid[:-1])))


def id_switches(tracklets: list[Tracklet], gt) -> int:
    """`switch_count` over the tracklets' records."""
    return switch_count(*_columns(tracklets, [t.id for t in tracklets]), gt)


def _columns(tracklets: list[Tracklet], ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records as int columns: `ids[i]` on tracklets[i]'s, their frames, their det_index."""
    records = [r for t in tracklets for r in t.records]
    return (np.repeat(np.asarray(ids, np.intp), [len(t.records) for t in tracklets]),
            np.array([r.frame for r in records], np.intp),
            np.array([r.det_index for r in records], np.intp))


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
    def ids(t) -> list:
        """The codes of frames[t], detection i at (t + 1, i), looked up once."""
        n = len(frames[t])
        return _true_ids(lookup, np.full(n, t + 1), np.arange(n)).tolist()

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
        col_of = {tid: j for j, tid in enumerate(ids(t + 1))}
        pairs = [(i, col_of[tid]) for i, tid in enumerate(ids(t)) if tid in col_of]
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
