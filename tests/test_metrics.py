"""Tests for evaluation metrics over tracklets, logs, and ground truth."""

import numpy as np
import pytest

from uatrack.contrastive import LinearEmbedder
from uatrack.errors import MissingGroundTruth
from uatrack.geometry import BoundingBox
from uatrack.metrics import (SeparationReport, gt_index, id_switches,
                             pseudo_accuracy, similarity_delta,
                             uncertainty_separation)
from uatrack.simulator import GroundTruthRecord, ScenarioConfig, generate
from uatrack.tracker import (LOG, STAGE_ASSOC, STAGE_BIRTH, Detection, Tracklet,
                             TrackRecord)


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


def gt_records(mapping):
    """mapping: {(frame, det_index): true_id}."""
    return [GroundTruthRecord(frame=f, det_index=d, true_id=i)
            for (f, d), i in mapping.items()]


class TestPseudoAccuracy:
    def test_oracle_tracker_is_perfect(self):
        gt = gt_records({(f, 0): 1 for f in range(1, 6)} |
                        {(f, 1): 2 for f in range(1, 6)})
        tracks = [make_track(1, [(f, 0) for f in range(1, 6)]),
                  make_track(2, [(f, 1) for f in range(1, 6)])]
        curve = pseudo_accuracy(tracks, gt, max_age=4)
        assert all(acc == 1.0 for _, acc in curve.points)
        assert curve.at(4) == 1.0

    def test_swap_halves_accuracy(self):
        # two tracks; one stays clean, the other swaps identity at age 2
        gt = gt_records({(1, 0): 1, (2, 0): 1, (3, 0): 2,
                         (1, 1): 3, (2, 1): 3, (3, 1): 3})
        tracks = [make_track(1, [(1, 0), (2, 0), (3, 0)]),
                  make_track(2, [(1, 1), (2, 1), (3, 1)])]
        curve = pseudo_accuracy(tracks, gt, max_age=2)
        assert curve.at(1) == 1.0
        assert curve.at(2) == 0.5

    def test_short_tracks_leave_late_ages_empty(self):
        gt = gt_records({(1, 0): 1, (2, 0): 1})
        curve = pseudo_accuracy([make_track(1, [(1, 0), (2, 0)])], gt, max_age=10)
        assert [s for s, _ in curve.points] == [1]

    def test_missing_gt_raises(self):
        with pytest.raises(MissingGroundTruth):
            pseudo_accuracy([make_track(1, [(1, 0), (2, 0)])], [], max_age=1)


class TestUncertaintySeparation:
    def _log(self, rows):
        return np.array([(frame, det_index, tid, 0.5, 0.4, 0.0, 0.0, delta, stage)
                         for frame, det_index, tid, delta, stage in rows], LOG)

    def test_all_correct_certain(self):
        gt = gt_records({(1, 0): 1, (2, 0): 1})
        log = self._log([(1, 0, 1, 0.0, STAGE_BIRTH),
                         (2, 0, 1, -2.0, STAGE_ASSOC)])
        rep = uncertainty_separation(log, gt)
        assert rep.correct_certain_rate == 1.0
        assert rep.wrong_total == 0

    def test_single_wrong_flagged(self):
        gt = gt_records({(1, 0): 1, (2, 0): 2})
        log = self._log([(1, 0, 1, 0.0, STAGE_BIRTH),
                         (2, 0, 1, 0.7, STAGE_ASSOC)])
        rep = uncertainty_separation(log, gt)
        assert rep.wrong_total == 1
        assert rep.wrong_uncertain_rate == 1.0

    def test_mixed_counts(self):
        gt = gt_records({(1, 0): 1, (2, 0): 1, (3, 0): 2, (4, 0): 2})
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
        gt = gt_records({(2, 0): 1})
        log = self._log([(2, 0, 5, 0.1, STAGE_ASSOC)])
        with pytest.raises(MissingGroundTruth):
            uncertainty_separation(log, gt)


class TestIdSwitches:
    def test_no_switches(self):
        gt = gt_records({(f, 0): 1 for f in range(1, 5)})
        assert id_switches([make_track(1, [(f, 0) for f in range(1, 5)])], gt) == 0

    def test_one_switch(self):
        gt = gt_records({(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1})
        tracks = [make_track(1, [(1, 0), (2, 0)]),
                  make_track(2, [(3, 0), (4, 0)])]
        assert id_switches(tracks, gt) == 1

    def test_invariant_to_renaming(self):
        gt = gt_records({(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1})
        a = [make_track(1, [(1, 0), (2, 0)]), make_track(2, [(3, 0), (4, 0)])]
        b = [make_track(9, [(1, 0), (2, 0)]), make_track(4, [(3, 0), (4, 0)])]
        assert id_switches(a, gt) == id_switches(b, gt)

    def test_oscillation_counts_each_transition(self):
        gt = gt_records({(f, 0): 1 for f in range(1, 5)})
        tracks = [make_track(1, [(1, 0), (3, 0)]),
                  make_track(2, [(2, 0), (4, 0)])]
        assert id_switches(tracks, gt) == 3


class TestSimilarityDelta:
    def _frames(self, e_same, e_other):
        """Two objects over 3 frames with constant embeddings."""
        frames = []
        for f in range(1, 4):
            frames.append([
                Detection(frame=f, det_index=0, box=BOX, confidence=1.0,
                          embedding=e_same, raw=np.concatenate([e_same, [0.0]])),
                Detection(frame=f, det_index=1, box=BOX, confidence=1.0,
                          embedding=e_other, raw=np.concatenate([e_other, [0.0]])),
            ])
        return frames

    def test_separable_embeddings_positive_delta(self):
        frames = self._frames(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        gt = gt_records({(f, 0): 1 for f in range(1, 4)} |
                        {(f, 1): 2 for f in range(1, 4)})
        out = similarity_delta(frames, gt)
        assert out.count == 4  # 2 objects x 2 consecutive-frame pairs
        assert out.mean == pytest.approx(1.0)
        assert out.fraction_positive == 1.0

    def test_identical_embeddings_zero_delta(self):
        e = np.array([1.0, 0.0])
        frames = self._frames(e, e)
        gt = gt_records({(f, 0): 1 for f in range(1, 4)} |
                        {(f, 1): 2 for f in range(1, 4)})
        out = similarity_delta(frames, gt)
        assert out.mean == pytest.approx(0.0)
        assert out.fraction_positive == 0.0

    def test_unresolved_detection_raises(self):
        frames = self._frames(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        gt = gt_records({(f, 0): 1 for f in range(1, 4)} | {(1, 1): 2, (2, 1): 2})
        with pytest.raises(MissingGroundTruth, match=r"frame=3, det=1"):
            similarity_delta(frames, gt)

    @staticmethod
    def _per_pair_reference(frames, gt, embedder=None):
        """(count, mean, fraction_positive) from one dot product per pair."""
        lookup = gt_index(gt)

        def emb(det):
            return embedder.embed(det.raw) if embedder is not None else det.embedding

        deltas = []
        for cur, nxt in zip(frames, frames[1:]):
            if not cur or len(nxt) < 2:
                continue
            nxt_embs = {lookup[(d.frame, d.det_index)]: emb(d) for d in nxt}
            for d in cur:
                tid = lookup[(d.frame, d.det_index)]
                if tid not in nxt_embs:
                    continue
                q = emb(d)
                c_neg = max(float(q @ e) for t2, e in nxt_embs.items() if t2 != tid)
                deltas.append(float(q @ nxt_embs[tid]) - c_neg)
        arr = np.asarray(deltas)
        return len(deltas), float(arr.mean()), float((arr > 0).mean())

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
