"""Per-frame association pipeline with uncertainty verification and
rectification, plus tracklet lifecycle management.

Per frame: cosine similarity -> Hungarian assignment -> uncertainty score
of every matched pair, written into the decision table -> (when enabled)
verification, which marks the pairs of positive score dissolved, and
rectification of the dissolved/unmatched pool with K-frame averaged
similarity gated by IoU -> lifecycle (births, lost ages, retirement).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .assignment import hungarian_max
from .errors import DimensionMismatch, InvalidConfig, OutOfOrderFrame
from .geometry import BoundingBox, box_array, iou
from .uncertainty import (AssociationVerdict, UncertaintyMargins,
                          association_uncertainty, second_best)

STAGE_BIRTH = 0
STAGE_ASSOC = 1
STAGE_RECTIFIED = 2
STAGE_DISSOLVED = 3   # an uncertain pair: logged, never applied
# A frame's log order, indexed by stage: the dissolved pairs, then the
# matches (direct and rectified), then the births, each group by detection
LOG_GROUP = np.array([2, 1, 1, 0])

DET_CONF_MIN = 0.6    # new-track confidence gate
MAX_LOST = 30         # frames a lost track stays matchable
MAX_FRAME = 100_000   # about an hour at 30 fps; bounds every frame sequence


@dataclass(slots=True)
class Detection:
    """One detection; its frame and index are its place in the sequence.
    Its embedding stays None until `read_embeddings` or training attaches one.
    Slotted: a scene holds one per kept object and frame, so it has no
    per-instance `__dict__` and takes no attribute outside its fields."""
    box: BoundingBox
    confidence: float
    embedding: np.ndarray | None = None
    raw: np.ndarray | None = None  # appearance feature for embedder training


@dataclass
class TrackRecord:
    frame: int
    det_index: int
    box: BoundingBox
    embedding: np.ndarray
    delta: float


class Tracklet:
    """Identity-labeled sequence of per-frame records with a delta history;
    the state that changes every frame lives in `TrackerState`, and the
    metrics read columns (`metrics.pseudo_accuracy` builds them from these).

    `Tracklet(tid, *records)` takes one or more records, already in frame
    order."""

    def __init__(self, tid: int, *records: TrackRecord):
        self.id = tid
        self.records: list[TrackRecord] = list(records)

    def append(self, record: TrackRecord) -> None:
        if record.frame <= self.records[-1].frame:
            raise OutOfOrderFrame(
                f"track {self.id}: frame {record.frame} after {self.records[-1].frame}")
        self.records.append(record)

    def box_at(self, frame: int) -> BoundingBox | None:
        i = bisect_left(self.records, frame, key=lambda r: r.frame)
        if i < len(self.records) and self.records[i].frame == frame:
            return self.records[i].box
        return None


@dataclass(frozen=True)
class TrackerConfig:
    margins: UncertaintyMargins = field(default_factory=UncertaintyMargins)
    beta: float = 0.1           # IoU gate for rectification
    K: int = 5                  # rectification history window
    utl_enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise InvalidConfig(f"beta must be in [0,1), got {self.beta}")
        if not 1 <= self.K <= np.iinfo(np.intp).max:   # slots are intp
            raise InvalidConfig(f"K must be in [1, {np.iinfo(np.intp).max}], got {self.K}")


def applied(rows: np.ndarray) -> np.ndarray:
    """The applied rows (not the dissolved ones) of an array with
    `track_id`, `frame` and `stage` fields, the state's table or a `LOG`
    array, sorted by track id, then frame. Two rows of one track in one
    frame raise OutOfOrderFrame, the earliest frame's first."""
    keep = (rows["stage"] != STAGE_DISSOLVED).nonzero()[0]
    # `take`: on a structured array it gathers several times faster than indexing
    rows = rows.take(keep[np.lexsort((rows["frame"].take(keep), rows["track_id"].take(keep)))])
    tid, frame = rows["track_id"], rows["frame"]
    twice = ((tid[1:] == tid[:-1]) & (frame[1:] == frame[:-1])).nonzero()[0]
    if len(twice):
        i = twice[np.lexsort((tid[twice], frame[twice]))[0]]
        raise OutOfOrderFrame(f"track {tid[i]}: frame {frame[i]} after {frame[i]}")
    return rows


class TrackerState:
    """Every decision of the frames stepped, and the live tracks as columns.

    `dets` is every detection stepped, in order. The decisions are one
    table, a `ROW` array whose first `n_rows` elements are in use, one
    decision each, appended a stage at a time: the frame, the detection's
    index in its frame, the track id, the five verdict fields (0 for a
    birth), the stage and the detection's index into `dets`. It doubles
    when full; `append` scores a stage's pairs into their rows, `verify`
    marks the dissolved ones in place and `step` writes the frame. Within a
    frame the rows are the direct pairs (dissolved ones among them), the
    rectified pairs, then the births. `frame` is the last frame stepped, 0
    before any. `log()` gives the table's `LOG` fields in log order, one
    packed copy that reads no `Detection`, `applied` its applied rows, and
    `all_tracklets()` the tracklets, built in bulk when they are read.

    The live tracks are the rows of the columns, ascending by id. `ids`
    names each row's track, `ring` (n × depth × D) holds its last
    embeddings, `lengths` counts its records and `last` is the `dets` index
    of its last record; the next embedding goes to slot `lengths % K`. The
    depth grows with the longest track, doubling up to K, so a large K
    costs no more than the frames seen. `newest` (n × D) repeats the ring's
    newest slot, each track's last embedding; the frame's similarity reads
    it as it is, without a gather from the ring. `lost` counts the frames since
    each track's last match. The columns take one scatter per frame for the
    applied matches and are compacted together only on frames with a birth
    or a retirement. A window is summed from the ring, oldest to newest,
    each time it is read and never kept as a running sum: its mean has the
    bits of `sum(embeddings) / count` over the records themselves."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.dets: list[Detection] = []
        self.frame = 0                    # the last frame stepped
        self.made = 0                     # tracks made; the next id is made + 1
        self.ids = np.zeros(0, dtype=np.intp)
        self.ring = np.zeros((0, 1, 0))
        self.newest = np.zeros((0, 0))
        self.lengths = np.zeros(0, dtype=np.intp)
        self.last = np.zeros(0, dtype=np.intp)
        self.lost = np.zeros(0, dtype=np.intp)
        self.n_rows = 0                   # rows of the table in use
        self.table = np.empty(0, ROW)

    def append(self, det_rows: np.ndarray, cols: np.ndarray, stage: int, base: int,
               sim: np.ndarray | None = None) -> np.ndarray:
        """Append one stage's pairs (det_rows[i], cols[i]) as rows, in their
        order, and return the rows as a view of the table: a pair's
        detection is `dets[base + det_rows[i]]` and its track is on row
        cols[i] of the columns. Each pair is scored from the similarity
        `sim`, all of them in one array pass; without `sim` (a birth) the
        verdict is 0."""
        start, stop = self.n_rows, self.n_rows + len(det_rows)
        if start == stop:   # no scoring call for a stage without pairs
            return self.table[start:stop]
        if stop > len(self.table):
            table = np.empty(max(2 * len(self.table), stop, 64), ROW)
            table[:start] = self.table[:start]
            self.table = table
        self.n_rows = stop
        rows = self.table[start:stop]
        rows["det_index"] = det_rows
        np.add(det_rows, base, out=rows["det"])
        rows["track_id"] = self.ids.take(cols)
        verdict = (0.0,) * 5 if sim is None else association_uncertainty(
            sim[det_rows, cols], second_best(sim, det_rows, cols), self.cfg.margins)
        for name, values in zip(AssociationVerdict._fields, verdict):
            rows[name] = values
        rows["stage"] = stage
        return rows

    def log(self) -> np.ndarray:
        """The decisions as a `LOG` array, one element each, by frame in `LOG_GROUP` order."""
        table = self.table[:self.n_rows]
        table = table.take(np.lexsort((table["det"], LOG_GROUP[table["stage"]], table["frame"])))
        return table[list(LOG.names)].astype(LOG)

    def all_tracklets(self) -> list[Tracklet]:
        """Every track made, retired ones too, in id order: track i is at
        index i - 1. Its records are its applied rows, in frame order, from its birth."""
        rows = applied(self.table[:self.n_rows])
        stops = np.bincount(rows["track_id"])[1:].cumsum().tolist()
        dets = list(map(self.dets.__getitem__, rows["det"].tolist()))
        records = list(map(TrackRecord, rows["frame"].tolist(), rows["det_index"].tolist(),
                           map(attrgetter("box"), dets), map(attrgetter("embedding"), dets),
                           rows["delta"].tolist()))
        return [Tracklet(i, *records[start:stop])
                for i, start, stop in zip(range(1, len(stops) + 1), [0, *stops], stops)]

    def record(self, cols, embs: np.ndarray, last) -> None:
        """Append row i of `embs` to the appearance of track cols[i], which
        is matched: its last record is `dets[last[i]]` and its lost age goes
        back to 0."""
        lengths = self.lengths[cols]
        n, depth, dim = self.ring.shape
        if depth < self.cfg.K and lengths.max() == depth:
            # below K no track has wrapped, so the written slots keep their place
            ring = np.zeros((n, min(2 * depth, self.cfg.K), dim), self.ring.dtype)
            ring[:, :depth] = self.ring
            self.ring = ring
        self.ring[cols, lengths % self.cfg.K] = self.newest[cols] = embs
        self.lengths[cols] = lengths + 1
        self.last[cols] = last
        self.lost[cols] = 0

    def compact(self, keep: np.ndarray, born_ids: np.ndarray, born_embs: np.ndarray,
                born_last) -> None:
        """Keep the live tracks where the mask `keep` is set, in order, then
        add the tracks `born_ids`; row i of `born_embs` is the first
        embedding of track born_ids[i], whose record is `dets[born_last[i]]`."""
        if not keep.all():
            self.ids, self.ring, self.newest, self.lengths, self.last, self.lost = (
                self.ids[keep], self.ring[keep], self.newest[keep], self.lengths[keep],
                self.last[keep], self.lost[keep])
        if not len(born_ids):
            return
        ring = np.zeros((len(born_ids), self.ring.shape[1], born_embs.shape[1]),
                        born_embs.dtype)
        ring[:, 0] = born_embs
        # with no track kept, the born tracks set the dim
        kept = len(self.lost)
        self.ring = np.concatenate([self.ring, ring]) if kept else ring
        self.newest = np.concatenate([self.newest, born_embs]) if kept else born_embs.copy()
        self.ids = np.concatenate([self.ids, born_ids])
        self.lengths = np.concatenate([self.lengths, np.ones(len(born_ids), dtype=np.intp)])
        self.last = np.concatenate([self.last, born_last])
        self.lost = np.concatenate([self.lost, np.zeros(len(born_ids), dtype=np.intp)])

    def window_means(self, cols) -> np.ndarray:
        """Mean of each track's last K embeddings (all of them for a track
        shorter than K), one row per entry of `cols`."""
        lengths = self.lengths[cols]
        depth = self.ring.shape[1]
        # (depth × tracks × D), oldest slot first; a short track's unwritten,
        # zero slots lead
        window = self.ring[cols, (lengths + np.arange(depth)[:, None]) % depth]
        total = window[0].copy()
        for slot in window[1:]:   # one slot at a time, in order, for any D
            total += slot
        return total / np.minimum(lengths, self.cfg.K)[:, None]


# The five `AssociationVerdict` fields, in that order, in each dtype below.
_VERDICT_FIELDS = [(name, float) for name in AssociationVerdict._fields]
# The decision log, one decision per element, in a log line's field order;
# stage 0 = birth, 1 = direct match, 2 = rectified, 3 = dissolved (logged,
# not applied). A birth's verdict fields are 0.
LOG = np.dtype([("frame", np.intp), ("det_index", np.intp), ("track_id", np.intp)]
               + _VERDICT_FIELDS + [("stage", np.intp)])
# A row of `TrackerState`'s table: a `LOG` row, then the detection's index into `dets`.
ROW = np.dtype(LOG.descr + [("det", np.intp)])


def _embeddings(dets: list[Detection]) -> np.ndarray:
    """The frame's (detections × D) embedding matrix; (0, 0), read by no stage, when empty."""
    if not dets:
        return np.zeros((0, 0))
    try:   # np.array stacks rows of equal length faster than np.stack
        return np.array([d.embedding for d in dets])
    except ValueError:
        dims = sorted({d.embedding.shape for d in dets})
        raise DimensionMismatch(f"detection embedding shapes differ in one frame: {dims}") from None


def build_similarity(det_mat: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Rows index detections, cols index tracks; entries are cosine
    similarities (dot products of unit-norm embeddings)."""
    if not len(det_mat) or not len(reps):
        return np.zeros((len(det_mat), len(reps)))
    if det_mat.shape[1] != reps.shape[1]:
        raise DimensionMismatch(
            f"detection embedding dim {det_mat.shape[1]} != track dim {reps.shape[1]}")
    return det_mat @ reps.T


def verify(rows: np.ndarray, pairs: np.ndarray, shape: tuple[int, int]):
    """Mark the uncertain ones among the matched (pairs × 2) `pairs`, whose
    scored table rows are `rows`, in order: a pair whose delta is > 0 is
    dissolved, and its row's stage is set to STAGE_DISSOLVED in place, so
    every association decision is logged, even the ones that do not
    survive. Returns the certain pairs and the dissolved ones, each
    (k × 2), and the pool: every row and every col of the (detections ×
    tracks) `shape`, ascending, that no certain pair holds (the unmatched
    ones and the dissolved ones)."""
    uncertain = rows["delta"] > 0.0
    certain, dissolved = pairs, pairs[:0]
    if np.count_nonzero(uncertain):   # most frames dissolve nothing and skip the split
        rows["stage"][uncertain] = STAGE_DISSOLVED
        certain, dissolved = pairs[~uncertain], pairs[uncertain]
    held_rows, held_cols = np.zeros(shape[0], bool), np.zeros(shape[1], bool)
    held_rows[certain[:, 0]] = held_cols[certain[:, 1]] = True
    # .nonzero() itself: the Python wrappers of flatnonzero and of numpy's set
    # routines cost more than the rest of the pool on a 12-track frame
    return certain, dissolved, (~held_rows).nonzero()[0], (~held_cols).nonzero()[0]


def rectify(pool_rows: np.ndarray, pool_cols: np.ndarray, dets: list[Detection],
            det_mat: np.ndarray, state: TrackerState) -> np.ndarray:
    """Re-match the uncertain pool with K-frame averaged similarity, IoU-gated.

    The mean of K dot products is the dot product with the mean of the last
    K embeddings (all of them for tracks shorter than K). A zero entry (failed
    gate) is a forbidden match; the Hungarian floor of 0 enforces that.
    Returns the matched (row, col) pairs as a (pairs × 2) array."""
    if not len(pool_rows) or not len(pool_cols):
        return np.zeros((0, 2), dtype=np.intp)
    # one box array, split by columns: the detections', then the tracks'
    boxes = box_array([dets[r].box for r in pool_rows.tolist()]
                      + [state.dets[i].box for i in state.last[pool_cols].tolist()])
    gate = iou(boxes, len(pool_rows))
    hist = state.window_means(pool_cols)
    cprime = np.where(gate > state.cfg.beta, det_mat.take(pool_rows, axis=0) @ hist.T, 0.0)
    i, j = hungarian_max(cprime, floor=0.0).T
    return np.array([pool_rows[i], pool_cols[j]]).T


def step(state: TrackerState, frame: int, dets: list[Detection]) -> None:
    """Advance the tracker by one frame, appending its decisions to the
    state's table a stage at a time: the solver's pairs, scored under
    either UTL setting (with UTL on, `verify` marks the dissolved ones in
    place), then the rectified pairs, then the births. Every check comes
    before the first write, so a step that raises leaves the state as it
    was."""
    cfg = state.cfg
    if frame <= state.frame:
        raise OutOfOrderFrame(f"frame {frame} after {state.frame}")

    det_mat = _embeddings(dets)
    sim = build_similarity(det_mat, state.newest)
    base, first_row = len(state.dets), state.n_rows
    matches = hungarian_max(sim)
    direct = state.append(*matches.T, STAGE_ASSOC, base, sim)
    if cfg.utl_enabled:
        matches, _, pool_rows, pool_cols = verify(direct, matches, sim.shape)
        rectified = rectify(pool_rows, pool_cols, dets, det_mat, state)
        if len(rectified):
            # delta is recomputed from the original similarity row so the
            # tracklet's delta history stays on one scale
            state.append(*rectified.T, STAGE_RECTIFIED, base, sim)
            matches = np.concatenate([matches, rectified])
    state.dets += dets

    det_rows, cols = matches.T
    state.lost += 1   # `record` zeroes the matched tracks' ages
    if len(det_rows):
        state.record(cols, det_mat.take(det_rows, axis=0), det_rows + base)

    matched_rows = set(det_rows.tolist())
    born_rows = [r for r, det in enumerate(dets)
                 if r not in matched_rows and det.confidence >= DET_CONF_MIN]
    first_id = state.made + 1
    state.made += len(born_rows)
    keep = state.lost <= MAX_LOST
    if born_rows or np.count_nonzero(keep) < len(keep):
        born = np.array(born_rows, dtype=np.intp)
        state.compact(keep, np.arange(first_id, state.made + 1), det_mat.take(born, axis=0),
                      born + base)
        # each birth is a pair of verdict 0 with its new track, on the last columns
        state.append(born, np.arange(len(state.ids) - len(born), len(state.ids)), STAGE_BIRTH,
                     base)
    state.table["frame"][first_row:state.n_rows] = frame
    state.frame = frame


def track_sequence(frames, cfg: TrackerConfig | None = None) -> TrackerState:
    """Fold `step` over per-frame detection lists, frame t at index t-1, and
    return the state: its `all_tracklets()` are every track made, removed
    ones too, and its `log()` has one row per association decision."""
    if cfg is None:
        cfg = TrackerConfig()
    state = TrackerState(cfg)
    for frame, dets in enumerate(frames, start=1):
        step(state, frame, dets)
    return state
