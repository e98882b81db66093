"""Tests for evaluation metrics over tracklets, logs, and ground truth."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from uatrack import metrics
from uatrack.contrastive import LinearEmbedder
from uatrack.errors import InvalidConfig, MissingGroundTruth, UatrackError
from uatrack.geometry import BoundingBox
from uatrack.metrics import (AccuracyCurve, SeparationReport, SimilarityDeltaSummary,
                             accuracy_curve, gt_index, id_switches, pseudo_accuracy,
                             similarity_delta, switch_count, uncertainty_separation)
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import (LOG, STAGE_ASSOC, STAGE_BIRTH, STAGE_DISSOLVED, Detection,
                             TrackerConfig, Tracklet, TrackRecord, applied, track_sequence)


BOX = BoundingBox(0.0, 0.0, 1.0, 1.0)
EMB = np.array([1.0, 0.0])


def make_track(tid, assignments):
    """assignments: list of (frame, det_index)."""
    (f0, d0), *rest = assignments
    t = Tracklet(tid, TrackRecord(frame=f0, det_index=d0, box=BOX,
                                  embedding=EMB, delta=0.0))
    for f, d in rest:
        t.append(TrackRecord(frame=f, det_index=d, box=BOX,
                             embedding=EMB, delta=0.0))
    return t


class TestPseudoAccuracy:
    def test_oracle_tracker_is_perfect(self):
        gt = {(f, 0): 1 for f in range(1, 6)} | {(f, 1): 2 for f in range(1, 6)}
        tracks = [make_track(1, [(f, 0) for f in range(1, 6)]),
                  make_track(2, [(f, 1) for f in range(1, 6)])]
        curve = pseudo_accuracy(tracks, gt, max_age=4)
        assert all(acc == 1.0 for _, acc in curve.points)
        assert curve.at(4) == 1.0

    def test_swap_halves_accuracy(self):
        # two tracks; one stays clean, the other swaps identity at age 2
        gt = {(1, 0): 1, (2, 0): 1, (3, 0): 2,
              (1, 1): 3, (2, 1): 3, (3, 1): 3}
        tracks = [make_track(1, [(1, 0), (2, 0), (3, 0)]),
                  make_track(2, [(1, 1), (2, 1), (3, 1)])]
        curve = pseudo_accuracy(tracks, gt, max_age=2)
        assert curve.at(1) == 1.0
        assert curve.at(2) == 0.5

    def test_short_tracks_leave_late_ages_empty(self):
        gt = {(1, 0): 1, (2, 0): 1}
        curve = pseudo_accuracy([make_track(1, [(1, 0), (2, 0)])], gt, max_age=10)
        assert [s for s, _ in curve.points] == [1]
        with pytest.raises(KeyError):
            curve.at(2)

    def test_missing_gt_raises(self):
        with pytest.raises(MissingGroundTruth):
            pseudo_accuracy([make_track(1, [(1, 0), (2, 0)])], {}, max_age=1)


class TestUncertaintySeparation:
    def _log(self, rows):
        return np.array([(frame, det_index, tid, 0.5, 0.4, 0.0, 0.0, delta, stage)
                         for frame, det_index, tid, delta, stage in rows], LOG)

    def test_all_correct_certain(self):
        gt = {(1, 0): 1, (2, 0): 1}
        log = self._log([(1, 0, 1, 0.0, STAGE_BIRTH),
                         (2, 0, 1, -2.0, STAGE_ASSOC)])
        rep = uncertainty_separation(log, gt)
        assert rep.correct_certain_rate == 1.0
        assert rep.wrong_total == 0

    def test_single_wrong_flagged(self):
        gt = {(1, 0): 1, (2, 0): 2}
        log = self._log([(1, 0, 1, 0.0, STAGE_BIRTH),
                         (2, 0, 1, 0.7, STAGE_ASSOC)])
        rep = uncertainty_separation(log, gt)
        assert rep.wrong_total == 1
        assert rep.wrong_uncertain_rate == 1.0

    def test_mixed_counts(self):
        gt = {(1, 0): 1, (2, 0): 1, (3, 0): 2, (4, 0): 2}
        log = self._log([(1, 0, 1, 0.0, STAGE_BIRTH),
                         (2, 0, 1, -1.0, STAGE_ASSOC),   # correct certain
                         (3, 0, 1, 0.5, STAGE_ASSOC),    # wrong flagged
                         (4, 0, 1, -0.5, STAGE_ASSOC)])  # wrong missed
        rep = uncertainty_separation(log, gt)
        assert (rep.wrong_total, rep.wrong_flagged_uncertain) == (2, 1)
        assert (rep.correct_total, rep.correct_flagged_certain) == (1, 1)

    def test_lines_roundtrip_exact_fractions(self):
        rep = SeparationReport(wrong_total=3, wrong_flagged_uncertain=2,
                               correct_total=10, correct_flagged_certain=9)
        text = rep.lines()
        assert "wrong_total: 3" in text
        assert rep.wrong_uncertain_rate == pytest.approx(2 / 3)

    def test_unknown_track_raises(self):
        gt = {(2, 0): 1}
        log = self._log([(2, 0, 5, 0.1, STAGE_ASSOC)])
        with pytest.raises(MissingGroundTruth):
            uncertainty_separation(log, gt)


class TestIdSwitches:
    def test_no_switches(self):
        gt = {(f, 0): 1 for f in range(1, 5)}
        assert id_switches([make_track(1, [(f, 0) for f in range(1, 5)])], gt) == 0

    def test_one_switch(self):
        gt = {(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1}
        tracks = [make_track(1, [(1, 0), (2, 0)]),
                  make_track(2, [(3, 0), (4, 0)])]
        assert id_switches(tracks, gt) == 1

    def test_invariant_to_renaming(self):
        gt = {(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1}
        a = [make_track(1, [(1, 0), (2, 0)]), make_track(2, [(3, 0), (4, 0)])]
        b = [make_track(9, [(1, 0), (2, 0)]), make_track(4, [(3, 0), (4, 0)])]
        assert id_switches(a, gt) == id_switches(b, gt)

    def test_oscillation_counts_each_transition(self):
        gt = {(f, 0): 1 for f in range(1, 5)}
        tracks = [make_track(1, [(1, 0), (3, 0)]),
                  make_track(2, [(2, 0), (4, 0)])]
        assert id_switches(tracks, gt) == 3


class TestSimilarityDelta:
    def _frames(self, e_same, e_other):
        """Two objects over 3 frames with constant embeddings."""
        frames = []
        for _ in range(3):
            frames.append([
                Detection(box=BOX, confidence=1.0,
                          embedding=e_same, raw=np.concatenate([e_same, [0.0]])),
                Detection(box=BOX, confidence=1.0,
                          embedding=e_other, raw=np.concatenate([e_other, [0.0]])),
            ])
        return frames

    def test_separable_embeddings_positive_delta(self):
        frames = self._frames(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        gt = {(f, 0): 1 for f in range(1, 4)} | {(f, 1): 2 for f in range(1, 4)}
        out = similarity_delta(frames, gt)
        assert out.count == 4  # 2 objects x 2 consecutive-frame pairs
        assert out.mean == pytest.approx(1.0)
        assert out.fraction_positive == 1.0

    def test_identical_embeddings_zero_delta(self):
        e = np.array([1.0, 0.0])
        frames = self._frames(e, e)
        gt = {(f, 0): 1 for f in range(1, 4)} | {(f, 1): 2 for f in range(1, 4)}
        out = similarity_delta(frames, gt)
        assert out.mean == pytest.approx(0.0)
        assert out.fraction_positive == 0.0

    def test_unresolved_detection_raises(self):
        frames = self._frames(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        gt = {(f, 0): 1 for f in range(1, 4)} | {(1, 1): 2, (2, 1): 2}
        with pytest.raises(MissingGroundTruth, match=r"frame=3, det=1"):
            similarity_delta(frames, gt)

    def test_each_frame_looked_up_once(self, monkeypatch):
        """A frame's true ids serve both pairs it is in: one `_true_ids`
        call per frame at most, against about two per frame uncached."""
        frames, gt = generate(ScenarioConfig(seed=7))
        expected = similarity_delta(frames, gt)
        calls = []
        true_ids = metrics._true_ids
        monkeypatch.setattr(metrics, "_true_ids",
                            lambda *args: calls.append(args) or true_ids(*args))
        assert similarity_delta(frames, gt) == expected
        assert len(frames) - 1 <= len(calls) <= len(frames)

    @staticmethod
    def _per_pair_reference(frames, gt, embedder=None):
        """(count, mean, fraction_positive) from one dot product per pair."""
        lookup = gt_index(gt)

        def emb(det):
            return embedder.embed(det.raw) if embedder is not None else det.embedding

        deltas = []
        for f, (cur, nxt) in enumerate(zip(frames, frames[1:]), start=1):
            if not cur or len(nxt) < 2:
                continue
            nxt_embs = {lookup[(f + 1, i)]: emb(d) for i, d in enumerate(nxt)}
            for i, d in enumerate(cur):
                tid = lookup[(f, i)]
                if tid not in nxt_embs:
                    continue
                q = emb(d)
                c_neg = max(float(q @ e) for t2, e in nxt_embs.items() if t2 != tid)
                deltas.append(float(q @ nxt_embs[tid]) - c_neg)
        if not deltas:
            return 0, 0.0, 0.0
        arr = np.asarray(deltas)
        return len(deltas), float(arr.mean()), float((arr > 0).mean())

    def test_skipped_frame_pairs_match_per_pair_reference(self):
        """An empty frame, a 1-detection next frame and a pair of frames with
        no true id in common add no delta; with every pair skipped the
        summary is all zero."""
        def sequence(*ids):
            """Frame t holds a detection of true id c at index i for each
            (i, c) of ids[t - 1]; the embedding follows c."""
            frames = [[Detection(box=BOX, confidence=1.0,
                                 embedding=(e := (np.arange(3) == c % 3) + 0.5) / np.linalg.norm(e))
                       for c in codes] for codes in ids]
            return frames, {(f, i): c for f, codes in enumerate(ids, start=1)
                            for i, c in enumerate(codes)}

        frames, gt = sequence((1, 2), (), (1,), (1, 2), (3, 4), (3,))
        count, mean, fraction_positive = self._per_pair_reference(frames, gt)
        out = similarity_delta(frames, gt)
        assert out.count == count == 1   # frames 3 -> 4 only
        assert out.fraction_positive == fraction_positive
        assert out.mean == pytest.approx(mean, rel=0, abs=1e-12)
        for ids in [((1, 2), (), (1,)), ((1, 2), (3, 4)), ((3, 4), (3,))]:
            frames, gt = sequence(*ids)
            assert similarity_delta(frames, gt) == \
                SimilarityDeltaSummary(*self._per_pair_reference(frames, gt)) == \
                SimilarityDeltaSummary(0, 0.0, 0.0)

    @pytest.mark.parametrize("embedded", [False, True], ids=["stored", "embedder"])
    def test_whole_scene_matches_per_pair_reference(self, embedded):
        frames, gt = generate(ScenarioConfig(seed=7))
        embedder = (LinearEmbedder.init_random(frames[0][0].raw.shape[0], 16,
                                               np.random.default_rng(0))
                    if embedded else None)
        count, mean, fraction_positive = self._per_pair_reference(frames, gt, embedder)
        out = similarity_delta(frames, gt, embedder)
        assert out.count == count > 0
        assert out.fraction_positive == fraction_positive
        assert out.mean == pytest.approx(mean, rel=0, abs=1e-12)

    def test_embedder_embeds_each_frame_once(self):
        frames, gt = generate(ScenarioConfig(num_frames=30, seed=7))
        embedder = LinearEmbedder.init_random(frames[0][0].raw.shape[0], 16,
                                              np.random.default_rng(0))
        embed, seen = embedder.embed, []

        def counting_embed(raw):
            seen.append(raw.tobytes())
            return embed(raw)

        embedder.embed = counting_embed
        similarity_delta(frames, gt, embedder)
        assert len(seen) == len(set(seen)) == sum(1 for dets in frames if dets)


# --- per-record references -----------------------------------------------
# The metrics as they were written before they moved onto columns: one
# Python step per record, ground truth looked up one key at a time by its
# true id itself. The column forms and their adapters must give the same
# values, or raise the same error with the same message.

def _resolve(lookup, frame, det_index):
    try:
        return lookup[(frame, det_index)]
    except KeyError:
        raise MissingGroundTruth(f"no ground truth for (frame={frame}, det={det_index})")


def reference_pseudo_accuracy(tracklets, gt, max_age):
    if max_age < 0:
        raise InvalidConfig(f"max_age must be >= 0, got {max_age}")
    correct, total = Counter(), Counter()
    for trk in tracklets:
        birth = trk.records[0]
        birth_id = _resolve(gt, birth.frame, birth.det_index)
        for age, rec in enumerate(trk.records[:max_age + 1]):
            total[age] += 1
            if _resolve(gt, rec.frame, rec.det_index) == birth_id:
                correct[age] += 1
    return AccuracyCurve(points=[(s, correct[s] / total[s]) for s in sorted(total) if s > 0])


def reference_uncertainty_separation(log, gt):
    rows = list(zip(*(log[f].tolist() for f in ("frame", "det_index", "track_id", "delta",
                                                "stage"))))
    birth_id = {}
    for frame, det_index, tid, _, stage in rows:
        if stage == STAGE_BIRTH and tid not in birth_id:
            birth_id[tid] = _resolve(gt, frame, det_index)
    wrong_total = wrong_flagged = correct_total = correct_flagged = 0
    for frame, det_index, tid, delta, stage in rows:
        if stage == STAGE_BIRTH:
            continue
        true_id = _resolve(gt, frame, det_index)
        if tid not in birth_id:
            raise MissingGroundTruth(f"no birth row for track {tid}")
        if true_id == birth_id[tid]:
            correct_total += 1
            correct_flagged += delta <= 0
        else:
            wrong_total += 1
            wrong_flagged += delta > 0
    return SeparationReport(wrong_total, wrong_flagged, correct_total, correct_flagged)


def reference_id_switches(tracklets, gt):
    per_traj = {}
    for trk in tracklets:
        for rec in trk.records:
            true_id = _resolve(gt, rec.frame, rec.det_index)
            per_traj.setdefault(true_id, []).append((rec.frame, trk.id))
    switches = 0
    for obs in per_traj.values():
        obs.sort()
        switches += sum(a != b for (_, a), (_, b) in zip(obs, obs[1:]))
    return switches


def reference_log_tracklets(log):
    """A log's applied rows grouped into tracklets record by record, in
    frame order, then id order; `Tracklet.append` rejects a second row of a
    track in one frame."""
    log = log[log["stage"] != STAGE_DISSOLVED]
    log = log[np.lexsort((log["track_id"], log["frame"]))]
    by_id = {}
    for frame, det_index, tid, delta in zip(
            *(log[f].tolist() for f in ("frame", "det_index", "track_id", "delta"))):
        record = TrackRecord(frame, det_index, BOX, EMB, delta)
        if tid in by_id:
            by_id[tid].append(record)
        else:
            by_id[tid] = Tracklet(tid, record)
    return [by_id[k] for k in sorted(by_id)]


def _plain(value):
    """A metric's value with the type of every number in it."""
    if isinstance(value, AccuracyCurve):
        return [(type(s), s, type(a), a.hex()) for s, a in value.points]
    if isinstance(value, SeparationReport):
        return [(type(v), v) for v in dataclasses.astuple(value)]
    return type(value), value


def _outcome(compute):
    """What `compute()` returns, each value as `_plain` gives it, or the
    type and message of the package error it raises."""
    try:
        return [_plain(v) for v in compute()]
    except UatrackError as exc:
        return type(exc), str(exc)


FRAMES, DETS, TRACKS = 5, 3, 4
KEYS = st.tuples(st.integers(1, FRAMES), st.integers(0, DETS - 1))
# true ids past int64 at both ends, and the edges of int64 and uint64
TRUE_IDS = st.sampled_from([1, 2, 3, 4, 2**63 - 1, 2**63, 2**64, 2**70, -2**63 - 1, -2**70])
DELTAS = st.sampled_from([0.0, -0.0, 0.3, -0.3, 5e-324, math.nan, math.inf])
MAX_AGES = st.one_of(st.integers(0, 6), st.sampled_from([10**30, 2**63, -1]))


@st.composite
def ground_truths(draw):
    """A true id for every key but up to two, inserted in a drawn order,
    then up to two entries that set a key again (the last one counts) or
    add a missing one."""
    keys = [(f, d) for f in range(1, FRAMES + 1) for d in range(DETS)]
    missing = draw(st.sets(st.sampled_from(keys), max_size=2))
    gt = [(key, draw(TRUE_IDS)) for key in keys if key not in missing]
    extra = draw(st.lists(st.tuples(KEYS, TRUE_IDS), max_size=2))
    return dict(draw(st.permutations(gt)) + extra)


@st.composite
def logs(draw):
    """A `LOG` array: tracks with frames in order, each opened by a birth
    row or not, then up to three rows of any stage anywhere (second births,
    dissolved rows, rows of a track without a birth, two rows in a frame)."""
    rows = []
    for tid in range(1, draw(st.integers(0, TRACKS)) + 1):
        frames = sorted(draw(st.sets(st.integers(1, FRAMES), min_size=1)))
        stages = [draw(st.sampled_from([STAGE_BIRTH] * 4 + [STAGE_ASSOC]))] + [
            draw(st.sampled_from([1, 1, 2, 3])) for _ in frames[1:]]
        rows += [(f, draw(st.integers(0, DETS - 1)), tid, draw(DELTAS), stage)
                 for f, stage in zip(frames, stages)]
    rows.sort(key=lambda row: row[0])
    for _ in range(draw(st.integers(0, 3))):
        row = (*draw(KEYS), draw(st.integers(1, TRACKS + 1)), draw(DELTAS),
               draw(st.integers(STAGE_BIRTH, STAGE_DISSOLVED)))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return np.array([(f, d, tid, 0.5, 0.25, 0.0, 0.0, delta, stage)
                     for f, d, tid, delta, stage in rows], LOG)


@st.composite
def tracklet_lists(draw):
    """Tracklets with ids that may repeat and records in any frame order."""
    return [Tracklet(tid, *(TrackRecord(f, d, BOX, EMB, 0.0) for f, d in keys))
            for tid, keys in draw(st.lists(st.tuples(st.integers(1, TRACKS),
                                                     st.lists(KEYS, min_size=1, max_size=6)),
                                           max_size=5))]


class TestColumnsEqualThePerRecordReference:
    @settings(max_examples=600)
    @given(log=logs(), gt=ground_truths(), max_age=MAX_AGES)
    def test_eval_and_stats(self, log, gt, max_age):
        """`eval`'s path, the log's applied columns into `accuracy_curve`,
        `uncertainty_separation` and `switch_count`, against the tracklets
        grouped record by record and the references; then `stats`."""
        def columns():
            rows = applied(log)
            cols = rows["track_id"], rows["frame"], rows["det_index"]
            return (accuracy_curve(*cols, gt, max_age), uncertainty_separation(log, gt),
                    switch_count(*cols, gt))

        def reference():
            tracklets = reference_log_tracklets(log)
            return (reference_pseudo_accuracy(tracklets, gt, max_age),
                    reference_uncertainty_separation(log, gt),
                    reference_id_switches(tracklets, gt))

        want = _outcome(reference)
        event(f"eval: {want[0].__name__ if isinstance(want, tuple) else 'report'}")
        assert _outcome(columns) == want
        assert (_outcome(lambda: [uncertainty_separation(log, gt)])
                == _outcome(lambda: [reference_uncertainty_separation(log, gt)]))

    @settings(max_examples=400)
    @given(tracklets=tracklet_lists(), gt=ground_truths(), max_age=MAX_AGES)
    def test_tracklet_adapters(self, tracklets, gt, max_age):
        event("max_age " + ("past intp" if max_age > 2**62 else "< 0" if max_age < 0 else "small"))
        assert (_outcome(lambda: [pseudo_accuracy(tracklets, gt, max_age)])
                == _outcome(lambda: [reference_pseudo_accuracy(tracklets, gt, max_age)]))
        assert (_outcome(lambda: [id_switches(tracklets, gt)])
                == _outcome(lambda: [reference_id_switches(tracklets, gt)]))

    @pytest.mark.parametrize("utl", [True, False])
    def test_default_scene(self, utl):
        """On a tracked default scene, where every lookup resolves."""
        frames, gt = generate(ScenarioConfig(seed=7))
        state = track_sequence(frames, TrackerConfig(utl_enabled=utl))
        tracklets, log = state.all_tracklets(), state.log()
        assert (_plain(pseudo_accuracy(tracklets, gt, 100))
                == _plain(reference_pseudo_accuracy(tracklets, gt, 100)))
        assert id_switches(tracklets, gt) == reference_id_switches(tracklets, gt) > 0
        assert (_plain(uncertainty_separation(log, gt))
                == _plain(reference_uncertainty_separation(log, gt)))

    def test_birth_resolved_before_rows_and_row_before_its_birth(self):
        """Each track's first birth row is looked up before any other row;
        a row is looked up before its track's birth row is sought."""
        gt = {(1, 0): 1, (2, 0): 1}
        log = np.array([(2, 1, 7, 0, 0, 0, 0, 0.1, STAGE_ASSOC),
                        (1, 0, 1, 0, 0, 0, 0, 0.0, STAGE_BIRTH),
                        (3, 0, 1, 0, 0, 0, 0, 0.0, STAGE_BIRTH)], LOG)
        with pytest.raises(MissingGroundTruth, match=r"^no ground truth for \(frame=2, det=1\)$"):
            uncertainty_separation(log, gt)
        log[0]["det_index"] = 0
        with pytest.raises(MissingGroundTruth, match="^no birth row for track 7$"):
            uncertainty_separation(log, gt)
        log[1]["det_index"] = 2
        with pytest.raises(MissingGroundTruth, match=r"^no ground truth for \(frame=1, det=2\)$"):
            uncertainty_separation(log, gt)
        # track 9's first birth comes before track 1's in the log, so it is looked up first
        log = np.concatenate([np.array([(1, 5, 9, 0, 0, 0, 0, 0.0, STAGE_BIRTH)], LOG), log])
        with pytest.raises(MissingGroundTruth, match=r"^no ground truth for \(frame=1, det=5\)$"):
            uncertainty_separation(log, gt)

    def test_only_ages_up_to_max_age_are_looked_up(self):
        gt = {(1, 0): 1, (2, 0): 1}
        track = make_track(1, [(1, 0), (2, 0), (3, 0)])
        assert pseudo_accuracy([track], gt, max_age=1).points == [(1, 1.0)]
        with pytest.raises(MissingGroundTruth, match=r"frame=3, det=0"):
            pseudo_accuracy([track], gt, max_age=2)
