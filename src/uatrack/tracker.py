"""Per-frame association pipeline with uncertainty verification and
rectification, plus tracklet lifecycle management.

Per frame: cosine similarity matrix -> Hungarian assignment -> (when
enabled) verification of every matched pair via the uncertainty metric ->
rectification of the dissolved/unmatched pool with K-frame averaged
similarity gated by IoU -> lifecycle (births, lost ages, retirement).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

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

DET_CONF_MIN = 0.6    # new-track confidence gate
MAX_LOST = 30         # frames a lost track stays matchable


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
    box: BoundingBox | None
    embedding: np.ndarray | None
    delta: float


class Tracklet:
    """Identity-labeled sequence of per-frame records with a delta history;
    the state that changes every frame lives in `TrackerState`.

    The metrics read a record's `frame`, `det_index` and `delta` only: the
    tracker's records add the box and embedding, and `tracklets_from_log`'s,
    read from a log, have neither.

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

    def __len__(self) -> int:
        return len(self.records)


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


def tracklets_from_log(log: np.ndarray) -> list[Tracklet]:
    """Group a `LOG` array's applied rows by track id, in frame order, each
    row one record of its tracklet. Dissolved rows were never applied, so
    they are skipped. The log has no boxes or embeddings, so these records
    have none. Two rows of one track in one frame raise OutOfOrderFrame."""
    log = log[log["stage"] != STAGE_DISSOLVED]
    log = log[np.lexsort((log["track_id"], log["frame"]))]
    by_id: dict[int, Tracklet] = {}
    for frame, det_index, tid, delta in zip(
            *(log[f].tolist() for f in ("frame", "det_index", "track_id", "delta"))):
        record = TrackRecord(frame, det_index, None, None, delta)
        if tid in by_id:
            by_id[tid].append(record)
        else:
            by_id[tid] = Tracklet(tid, record)
    return [by_id[k] for k in sorted(by_id)]


class TrackerState:
    """Every decision of the frames stepped, and the live tracks as columns.

    `dets` is every detection stepped, in order. The decisions are one
    table, one row each, in log order: per row the detection's index into
    `dets`, the track id, the five verdict fields (0 for a birth) and the
    stage, in column buffers that double when full; `spans` holds
    (frame, row count) per frame stepped, in order, so its last frame is
    the one the next step must pass. `log()` gives the table as a `LOG`
    array and `all_tracklets()` builds the tracklets from it, in bulk, when
    they are read; `applied()` gives the applied rows as columns.

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
        self.spans: list[tuple[int, int]] = []
        self.made = 0                     # tracks made; the next id is made + 1
        self.ids = np.zeros(0, dtype=np.intp)
        self.ring = np.zeros((0, 1, 0))
        self.newest = np.zeros((0, 0))
        self.lengths = np.zeros(0, dtype=np.intp)
        self.last = np.zeros(0, dtype=np.intp)
        self.lost = np.zeros(0, dtype=np.intp)
        self.n_rows = 0                   # rows of the table in use
        self.row_det = np.zeros(0, dtype=np.intp)
        self.row_tid = np.zeros(0, dtype=np.intp)
        self.row_verdict = np.zeros((0, len(AssociationVerdict._fields)))
        self.row_stage = np.zeros(0, dtype=np.intp)

    def _take(self, count: int) -> tuple[int, int]:
        """Reserve the next `count` rows of the table, growing its buffers,
        and return their (start, stop). A row past `n_rows` was never
        written, so a reserved row's verdict is 0."""
        start, stop = self.n_rows, self.n_rows + count
        if stop > len(self.row_stage):
            size = max(2 * len(self.row_stage), stop, 64)
            for name in ("row_det", "row_tid", "row_verdict", "row_stage"):
                old = getattr(self, name)
                new = np.zeros((size, *old.shape[1:]), old.dtype)
                new[:start] = old[:start]
                setattr(self, name, new)
        self.n_rows = stop
        return start, stop

    def add_pairs(self, pairs: np.ndarray, stage: int, base: int) -> None:
        """Add one stage's `SCORED` pairs as rows: a pair's detection is
        `dets[base + row]` and its track is on row `col` of the columns."""
        if not len(pairs):
            return
        start, stop = self._take(len(pairs))
        np.add(pairs["row"], base, out=self.row_det[start:stop])
        self.row_tid[start:stop] = self.ids[pairs["col"]]
        self.row_verdict[start:stop] = pairs.view(_VERDICTS)["v"]
        self.row_stage[start:stop] = stage

    def add_births(self, first: np.ndarray, ids: np.ndarray) -> None:
        """Add a birth row, verdict 0, for each new track ids[i], whose
        first record is `dets[first[i]]`."""
        start, stop = self._take(len(ids))
        self.row_det[start:stop] = first
        self.row_tid[start:stop] = ids
        self.row_stage[start:stop] = STAGE_BIRTH

    def sort_rows(self, start: int) -> None:
        """Put the rows from `start` on in detection order, stably."""
        order = self.row_det[start:self.n_rows].argsort(kind="stable")
        for column in (self.row_det, self.row_tid, self.row_verdict, self.row_stage):
            column[start:self.n_rows] = column[start:self.n_rows][order]

    def _frames(self) -> np.ndarray:
        """The frame of each row of the table."""
        frames, counts = np.array(self.spans, dtype=np.intp).reshape(-1, 2).T
        return frames.repeat(counts)

    def log(self) -> np.ndarray:
        """The decisions as a `LOG` array, one element each, in log order."""
        rows = self.n_rows
        log = np.empty(rows, LOG)
        for name, column in zip(LOG.names, (
                self._frames(), [self.dets[i].det_index for i in self.row_det[:rows].tolist()],
                self.row_tid[:rows], *self.row_verdict[:rows].T, self.row_stage[:rows])):
            log[name] = column
        return log

    def applied(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The applied rows as columns (track id, frame, `dets` index,
        delta), grouped by track id, ascending, and in frame order within a
        track. The ids are 1..made and each track has its birth row."""
        tid = self.row_tid[:self.n_rows]
        rows = (self.row_stage[:self.n_rows] != STAGE_DISSOLVED).nonzero()[0]
        rows = rows[tid[rows].argsort(kind="stable")]
        return tid[rows], self._frames()[rows], self.row_det[rows], self.row_verdict[rows, -1]

    def all_tracklets(self) -> list[Tracklet]:
        """Every track made, retired ones too, in id order: track i is at
        index i - 1. Its records are its applied rows, in frame order."""
        tid, frames, det, delta = self.applied()
        stops = np.bincount(tid)[1:].cumsum().tolist()
        dets = list(map(self.dets.__getitem__, det.tolist()))
        records = list(map(TrackRecord, frames.tolist(),
                           map(attrgetter("det_index"), dets), map(attrgetter("box"), dets),
                           map(attrgetter("embedding"), dets), delta.tolist()))
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


# A stage's (detection row, track column) pairs, one element each, with the
# pair's verdict fields in log-row order.
SCORED = np.dtype([("row", np.intp), ("col", np.intp)]
                  + [(f, float) for f in AssociationVerdict._fields])
_NO_PAIRS = np.zeros(0, SCORED)
# the five verdict fields of a `SCORED` array, as one (pairs × 5) float view
_VERDICTS = np.dtype({"names": ["v"], "formats": [(float, 5)],
                      "offsets": [SCORED.fields["c1"][1]], "itemsize": SCORED.itemsize})
# The decision log, one decision per element, in a log line's field order;
# stage 0 = birth, 1 = direct match, 2 = rectified, 3 = dissolved (logged,
# not applied). A birth's verdict fields are 0.
LOG = np.dtype([("frame", np.intp), ("det_index", np.intp), ("track_id", np.intp)]
               + [(f, float) for f in AssociationVerdict._fields] + [("stage", np.intp)])


def _embeddings(dets: list[Detection], dim: int) -> np.ndarray:
    """The frame's (detections × D) embedding matrix; an empty frame's has
    the tracks' `dim`."""
    if not dets:
        return np.zeros((0, dim))
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


def _scored(sim: np.ndarray, pairs: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Every (row, col) pair of the (pairs × 2) array scored in one array
    pass, as a `SCORED` array."""
    if not len(pairs):
        return _NO_PAIRS
    rows, cols = pairs.T
    verdict = association_uncertainty(sim[rows, cols], second_best(sim, rows, cols),
                                      cfg.margins)
    scored = np.empty(len(pairs), SCORED)
    for name, values in zip(SCORED.names, (rows, cols, *verdict)):
        scored[name] = values
    return scored


def verify(matching: Matching, sim: np.ndarray, cfg: TrackerConfig):
    """Split matched pairs into certain and dissolved pairs, each stage as
    a `SCORED` array, and return the pool: every row and every col, ascending,
    that no certain pair holds (the unmatched ones and the dissolved ones).

    Dissolved pairs are returned with their verdicts as well so that every
    association decision can be logged, even the ones that do not survive."""
    scored = _scored(sim, matching.pairs, cfg)
    uncertain = scored["delta"] > 0.0
    certain, dissolved = scored, _NO_PAIRS
    if np.count_nonzero(uncertain):   # most frames dissolve nothing and skip the split
        certain, dissolved = scored.compress(~uncertain), scored.compress(uncertain)
    held_rows, held_cols = np.zeros(sim.shape[0], bool), np.zeros(sim.shape[1], bool)
    held_rows[certain["row"]] = held_cols[certain["col"]] = True
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
    gate = iou([dets[r].box for r in pool_rows.tolist()],
               [state.dets[i].box for i in state.last[pool_cols].tolist()])
    hist = state.window_means(pool_cols)
    cprime = np.where(gate > state.cfg.beta, det_mat.take(pool_rows, axis=0) @ hist.T, 0.0)
    i, j = hungarian_max(cprime, floor=0.0).pairs.T
    return np.array([pool_rows[i], pool_cols[j]]).T


def step(state: TrackerState, frame: int, dets: list[Detection]) -> None:
    """Advance the tracker by one frame and write its decisions to the
    state's table: the dissolved pairs, then the applied matches in
    detection order, then the births. Every check comes before the first
    write, so a step that raises leaves the state as it was."""
    cfg = state.cfg
    if state.spans and frame <= state.spans[-1][0]:
        raise OutOfOrderFrame(f"frame {frame} after {state.spans[-1][0]}")

    det_mat = _embeddings(dets, state.ring.shape[2])
    sim = build_similarity(det_mat, state.newest)
    matching = hungarian_max(sim)
    if cfg.utl_enabled:
        certain, dissolved, pool_rows, pool_cols = verify(matching, sim, cfg)
        # delta is recomputed from the original similarity row so the
        # tracklet's delta history stays on one scale
        rectified = _scored(sim, rectify(pool_rows, pool_cols, dets, det_mat, state), cfg)
    else:
        certain = _scored(sim, matching.pairs, cfg)
        dissolved = rectified = _NO_PAIRS
    base, first_row = len(state.dets), state.n_rows
    state.dets += dets
    state.add_pairs(dissolved, STAGE_DISSOLVED, base)
    applied = state.n_rows
    state.add_pairs(certain, STAGE_ASSOC, base)
    rows, cols = certain["row"], certain["col"]
    if len(rectified):
        state.add_pairs(rectified, STAGE_RECTIFIED, base)
        # no row is both certain and rectified: one sort puts them in
        # detection order
        state.sort_rows(applied)
        rows = np.concatenate([rows, rectified["row"]])
        cols = np.concatenate([cols, rectified["col"]])

    state.lost += 1   # `record` zeroes the matched tracks' ages
    if len(rows):
        state.record(cols, det_mat.take(rows, axis=0), rows + base)

    matched_rows = set(rows.tolist())
    born_rows = [r for r, det in enumerate(dets)
                 if r not in matched_rows and det.confidence >= DET_CONF_MIN]
    first_id = state.made + 1
    state.made += len(born_rows)
    keep = state.lost <= MAX_LOST
    if born_rows or np.count_nonzero(keep) < len(keep):
        born_last = np.array(born_rows, dtype=np.intp) + base
        born_ids = np.arange(first_id, state.made + 1)
        state.add_births(born_last, born_ids)
        state.compact(keep, born_ids, det_mat.take(born_rows, axis=0), born_last)
    state.spans.append((frame, state.n_rows - first_row))


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
