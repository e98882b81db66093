"""Tests for the association pipeline and tracklet lifecycle."""

import math

import numpy as np
import pytest

from uatrack.assignment import hungarian_max
from uatrack.errors import DimensionMismatch, InvalidConfig, OutOfOrderFrame
from uatrack.geometry import BoundingBox
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import (STAGE_ASSOC, STAGE_BIRTH, STAGE_DISSOLVED,
                             STAGE_RECTIFIED, Detection, Tracklet, TrackerConfig,
                             TrackerState, TrackRecord, build_similarity, rectify,
                             step, track_sequence, tracklets_from_log, verify)
from uatrack.uncertainty import association_uncertainty, second_best


def unit(*xs):
    v = np.asarray(xs, dtype=float)
    return v / np.linalg.norm(v)


def det(frame, idx, emb, cx=0.0, cy=0.0, w=2.0, h=2.0, conf=1.0):
    return Detection(frame=frame, det_index=idx, box=BoundingBox(cx, cy, w, h),
                     confidence=conf, embedding=np.asarray(emb, dtype=float))


def track(tid, frame, emb, cx=0.0, cy=0.0, w=2.0, h=2.0, delta=0.0):
    rec = TrackRecord(frame=frame, det_index=0, box=BoundingBox(cx, cy, w, h),
                      embedding=np.asarray(emb, dtype=float), delta=delta)
    return Tracklet(tid, rec)


class TestTracklet:
    def test_record_frames_strictly_increase(self):
        t = track(1, 1, unit(1, 0))
        with pytest.raises(OutOfOrderFrame):
            t.append(TrackRecord(frame=1, det_index=0, box=t.last_box,
                                 embedding=unit(1, 0), delta=0.0))

    def test_representative_is_last_by_default(self):
        t = track(1, 1, unit(1, 0))
        t.append(TrackRecord(frame=2, det_index=0, box=t.last_box,
                             embedding=unit(0, 1), delta=0.0))
        assert np.allclose(t.representative(), unit(0, 1))

    def test_recent_embeddings_window(self):
        t = track(1, 1, unit(1, 0))
        for f in range(2, 10):
            t.append(TrackRecord(frame=f, det_index=0, box=t.last_box,
                                 embedding=unit(1, f), delta=0.0))
        assert len(t.recent_embeddings(5)) == 5
        assert len(t.recent_embeddings(100)) == 9

    def test_deltas_history(self):
        t = track(1, 1, unit(1, 0))
        t.append(TrackRecord(frame=2, det_index=0, box=t.last_box,
                             embedding=unit(1, 0), delta=-0.5))
        assert t.deltas() == [0.0, -0.5]


class TestConfigValidation:
    def test_bad_beta(self):
        with pytest.raises(InvalidConfig):
            TrackerConfig(beta=1.0)

    def test_bad_K(self):
        with pytest.raises(InvalidConfig):
            TrackerConfig(K=0)


class TestBuildSimilarity:
    def test_identical_unit_vectors(self):
        tr = track(1, 1, unit(1, 0))
        d = det(2, 0, unit(1, 0))
        assert build_similarity([tr], [d], TrackerConfig())[0, 0] == pytest.approx(1.0)

    def test_orthonormal(self):
        trs = [track(1, 1, unit(1, 0)), track(2, 1, unit(0, 1))]
        ds = [det(2, 0, unit(1, 0)), det(2, 1, unit(0, 1))]
        m = build_similarity(trs, ds, TrackerConfig())
        assert np.allclose(m, np.eye(2))

    def test_known_cosine(self):
        tr = track(1, 1, unit(1, 0))
        d = det(2, 0, unit(1, 1))
        m = build_similarity([tr], [d], TrackerConfig())
        assert m[0, 0] == pytest.approx(0.7071068, abs=1e-6)

    def test_dimension_mismatch(self):
        tr = track(1, 1, unit(1, 0, 0))
        d = det(2, 0, unit(1, 0))
        with pytest.raises(DimensionMismatch):
            build_similarity([tr], [d], TrackerConfig())

    def test_empty(self):
        assert build_similarity([], [], TrackerConfig()).shape == (0, 0)


class TestVerify:
    def test_perfect_match_is_certain(self):
        sim = np.array([[1.0]])
        matching = hungarian_max(sim)
        certain, dissolved, rows, cols = verify(matching, sim, TrackerConfig())
        assert len(certain) == 1 and not dissolved
        (r, c, v) = certain[0]
        assert v.delta == pytest.approx(-3.6889, abs=1e-3)

    def test_confusable_pairs_both_dissolved(self):
        # cross-matching is optimal (0.50 + 0.49 > 0.52 + 0.46) and both
        # matched pairs land above the adaptive threshold
        sim = np.array([[0.52, 0.50], [0.49, 0.46]])
        matching = hungarian_max(sim)
        assert matching.pairs == [(0, 1), (1, 0)]
        certain, dissolved, rows, cols = verify(matching, sim, TrackerConfig())
        assert certain == []
        assert [(r, c) for r, c, _ in dissolved] == [(0, 1), (1, 0)]
        for _, _, v in dissolved:
            assert v.uncertain
        assert rows == [0, 1]
        assert cols == [0, 1]

    def test_empty_matching_pools_everything(self):
        sim = np.zeros((2, 2))
        matching = hungarian_max(sim, floor=0.0)
        certain, dissolved, rows, cols = verify(matching, sim, TrackerConfig())
        assert certain == [] and dissolved == []
        assert rows == [0, 1] and cols == [0, 1]


class TestRectify:
    def _history_track(self, sims, box):
        """Track whose last-K dot products with det (1,0) are `sims`."""
        embs = [unit(s, math.sqrt(1 - s * s)) for s in sims]
        rec = TrackRecord(frame=1, det_index=0, box=box, embedding=embs[0], delta=0.0)
        t = Tracklet(1, rec)
        for i, e in enumerate(embs[1:], start=2):
            t.append(TrackRecord(frame=i, det_index=0, box=box, embedding=e, delta=0.0))
        return t

    def test_identical_history_overlapping_boxes(self):
        box = BoundingBox(0.0, 0.0, 2.0, 2.0)
        t = self._history_track([1.0, 1.0], box)
        d = det(3, 0, unit(1, 0), cx=1.0, cy=1.0)  # IoU = 1/7 > beta
        pairs = rectify([0], [0], [d], [t], TrackerConfig(K=2))
        assert pairs == [(0, 0)]

    def test_disjoint_boxes_forbidden(self):
        box = BoundingBox(0.0, 0.0, 2.0, 2.0)
        t = self._history_track([1.0, 1.0], box)
        d = det(3, 0, unit(1, 0), cx=50.0, cy=50.0)
        assert rectify([0], [0], [d], [t], TrackerConfig(K=2)) == []

    def test_short_history_mean(self):
        box = BoundingBox(0.0, 0.0, 2.0, 2.0)
        t = self._history_track([1.0, 0.8, 0.6], box)
        d = det(4, 0, unit(1, 0), cx=0.5, cy=0.5)
        cfg = TrackerConfig(K=5)
        cprime = np.mean([d.embedding @ e for e in t.recent_embeddings(cfg.K)])
        assert cprime == pytest.approx(0.8, abs=1e-9)
        assert rectify([0], [0], [d], [t], cfg) == [(0, 0)]

    def test_empty_pool(self):
        assert rectify([], [], [], [], TrackerConfig()) == []


def matched(rows):
    """(det_index, track id) of the applied matches among a frame's rows."""
    return [(row.det_index, row.track_id) for row in rows
            if row.stage in (STAGE_ASSOC, STAGE_RECTIFIED)]


def born(rows):
    return [row.track_id for row in rows if row.stage == STAGE_BIRTH]


class TestStep:
    def test_births_in_det_order(self):
        state = TrackerState(TrackerConfig())
        rows = step(state, 1, [det(1, 0, unit(1, 0)), det(1, 1, unit(0, 1))])
        assert born(rows) == [1, 2]
        assert [row.stage for row in rows] == [STAGE_BIRTH, STAGE_BIRTH]

    def test_low_confidence_no_birth(self):
        state = TrackerState(TrackerConfig())
        rows = step(state, 1, [det(1, 0, unit(1, 0), conf=0.5)])
        assert born(rows) == []
        assert state.tracks == []

    def test_orthonormal_continuation(self):
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(1, 0, unit(1, 0)), det(1, 1, unit(0, 1))])
        rows = step(state, 2, [det(2, 0, unit(1, 0)), det(2, 1, unit(0, 1))])
        assert matched(rows) == [(0, 1), (1, 2)]
        assert born(rows) == []

    def test_out_of_order_frame(self):
        state = TrackerState(TrackerConfig())
        step(state, 2, [det(2, 0, unit(1, 0))])
        with pytest.raises(OutOfOrderFrame):
            step(state, 2, [det(2, 0, unit(1, 0))])

    @staticmethod
    def _confusable_setup():
        """Two tracks and two detections whose similarity matrix is
        approximately [[0.52, 0.50], [0.49, 0.46]]: the cross-matching wins
        the assignment (0.99 > 0.98) and both pairs trip the threshold."""
        th = math.pi / 3
        t1 = np.array([1.0, 0.0, 0.0])
        t2 = np.array([math.cos(th), math.sin(th), 0.0])

        def mix(a, b):
            x, y = a, (b - a * math.cos(th)) / math.sin(th)
            return np.array([x, y, math.sqrt(1.0 - x * x - y * y)])

        state = TrackerState(TrackerConfig())
        step(state, 1, [det(1, 0, t1, cx=0.0), det(1, 1, t2, cx=100.0)])
        d1 = det(2, 0, mix(0.52, 0.50), cx=0.5)
        d2 = det(2, 1, mix(0.49, 0.46), cx=100.5)
        return state, d1, d2

    def test_rectification_restores_identity_pairing(self):
        """Confusable embeddings cross-match, but the IoU gate only passes
        the true pairs, so rectification restores them."""
        state, d1, d2 = self._confusable_setup()
        rows = step(state, 2, [d1, d2])
        assert matched(rows) == [(0, 1), (1, 2)]
        assert {row.stage for row in rows} == {STAGE_DISSOLVED, STAGE_RECTIFIED}

    def test_rectified_delta_recomputed_from_original_row(self):
        state, d1, d2 = self._confusable_setup()
        sim = build_similarity(state.tracks, [d1, d2], state.cfg)
        rows = step(state, 2, [d1, d2])
        rect = [row for row in rows if row.stage == STAGE_RECTIFIED]
        assert len(rect) == 2
        for row in rect:
            r = row.det_index
            c = row.track_id - 1  # ids 1,2 created in column order
            expect = association_uncertainty(float(sim[r, c]),
                                             second_best(sim[r], c))
            assert row.delta == pytest.approx(expect.delta)

    def test_dissolved_pairs_are_logged(self):
        state, d1, d2 = self._confusable_setup()
        rows = step(state, 2, [d1, d2])
        dissolved = [row for row in rows if row.stage == STAGE_DISSOLVED]
        # the dissolved cross pairs are logged first, with positive delta
        assert rows[:2] == dissolved
        assert [(r.det_index, r.track_id) for r in dissolved] == [(0, 2), (1, 1)]
        assert all(row.delta > 0 for row in dissolved)
        # ... but never applied: each tracklet holds only its rectified record
        assert [(r.frame, r.det_index) for t in state.tracks for r in t.records] == \
            [(1, 0), (2, 0), (1, 1), (2, 1)]

    def test_lost_track_removed_after_max_lost(self):
        cfg = TrackerConfig(max_lost=2)
        state = TrackerState(cfg)
        step(state, 1, [det(1, 0, unit(1, 0))])
        for f in range(2, 6):
            step(state, f, [])
        assert state.tracks == []
        assert len(state.finished) == 1
        assert state.finished[0].lost_age == cfg.max_lost + 1

    def test_lost_track_rematches_before_removal(self):
        cfg = TrackerConfig(max_lost=5)
        state = TrackerState(cfg)
        step(state, 1, [det(1, 0, unit(1, 0))])
        step(state, 2, [])
        assert state.tracks[0].lost_age == 1
        rows = step(state, 3, [det(3, 0, unit(1, 0))])
        assert matched(rows) == [(0, 1)]
        assert state.tracks[0].lost_age == 0


class TestTrackSequence:
    def _frames(self, n=5):
        e1, e2 = unit(1, 0), unit(0, 1)
        return [(f, [det(f, 0, e1, cx=f * 1.0), det(f, 1, e2, cx=100.0 + f)])
                for f in range(1, n + 1)]

    def test_single_frame(self):
        tracklets, log = track_sequence(self._frames(1))
        assert [len(t) for t in tracklets] == [1, 1]

    def test_identity_conservation(self):
        tracklets, log = track_sequence(self._frames(8))
        for f in range(1, 9):
            seen_dets = [r.det_index for t in tracklets for r in t.records
                         if r.frame == f]
            assert sorted(seen_dets) == [0, 1]

    def test_baseline_reduces_to_plain_hungarian(self):
        frames = self._frames(6)
        base, log = track_sequence(frames, TrackerConfig(utl_enabled=False))
        assert all(row.stage in (STAGE_BIRTH, STAGE_ASSOC) for row in log)
        assert len(base) == 2

    def test_deterministic_rerun(self):
        a_t, a_log = track_sequence(self._frames(6))
        b_t, b_log = track_sequence(self._frames(6))
        assert a_log == b_log

    def test_delta_history_matches_record_count(self):
        tracklets, _ = track_sequence(self._frames(6))
        for t in tracklets:
            assert len(t.deltas()) == len(t)
            assert t.deltas()[0] == 0.0

    def test_log_rebuild_matches_tracklets(self):
        frames, _ = generate(ScenarioConfig(num_objects=12, num_frames=60, seed=7))
        tracklets, log = track_sequence(frames)
        assert any(row.stage == STAGE_DISSOLVED for row in log)

        def compose(ts):
            return [(t.id, [(r.frame, r.det_index, r.delta) for r in t.records])
                    for t in ts]

        assert compose(tracklets_from_log(log)) == compose(tracklets)

    def test_plain_lists_accepted(self):
        frames = [dets for _, dets in self._frames(3)]
        tracklets, log = track_sequence(frames)
        assert {r.frame for t in tracklets for r in t.records} == {1, 2, 3}
