"""Tests for the association pipeline and tracklet lifecycle."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatrack import formats, tracker
from uatrack.assignment import brute_force_max, hungarian_max
from uatrack.errors import DimensionMismatch, InvalidConfig, OutOfOrderFrame
from uatrack.geometry import BoundingBox, box_array, iou
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import (LOG, SCORED, STAGE_ASSOC, STAGE_BIRTH, STAGE_DISSOLVED,
                             STAGE_RECTIFIED, Detection, Tracklet, TrackerConfig,
                             TrackerState, TrackRecord, _scored, applied, build_similarity,
                             rectify, step, track_sequence, verify)
from uatrack.uncertainty import AssociationVerdict, association_uncertainty, second_best


# perfbench's pinned digests and its crowd-track scene (perfbench/run.py's CROWD)
PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"
# sha256 of the `formats.write_log` bytes per scene, UTL on and off
LOG_PINS = Path(__file__).resolve().parent / "log_pins.json"
CROWD = dict(num_objects=150, embed_dim=160, raw_dim=320, num_frames=100)


def unit(*xs):
    v = np.asarray(xs, dtype=float)
    return v / np.linalg.norm(v)


def det(emb, cx=0.0, cy=0.0, w=2.0, h=2.0, conf=1.0):
    return Detection(box=BoundingBox(cx, cy, w, h), confidence=conf,
                     embedding=np.asarray(emb, dtype=float))


def track(tid, frame, emb, cx=0.0, cy=0.0, w=2.0, h=2.0, delta=0.0):
    rec = TrackRecord(frame=frame, det_index=0, box=BoundingBox(cx, cy, w, h),
                      embedding=np.asarray(emb, dtype=float), delta=delta)
    return Tracklet(tid, rec)


def emb_matrix(dets):
    return np.array([d.embedding for d in dets])


def last_embeddings(tracks):
    """Each track's last embedding, read from its records."""
    return np.array([t.records[-1].embedding for t in tracks])


def live(state):
    """The state's live tracklets, in column order."""
    tracklets = state.all_tracklets()
    return [tracklets[tid - 1] for tid in state.ids.tolist()]


def rows_at(state, frame):
    """The log rows of one frame, as `step` wrote them."""
    return [row for row in state.log() if row["frame"] == frame]


def state_of(tracks, cfg=TrackerConfig()):
    """A TrackerState whose live tracks are `tracks` (ids 1..n in order),
    its columns filled record by record through the state's own updates;
    each record's detection is added to `dets`."""
    state = TrackerState(cfg)

    def added(records):
        first = len(state.dets)
        state.dets += [Detection(r.box, 1.0, r.embedding) for r in records]
        return np.arange(first, len(state.dets))

    firsts = [t.records[0] for t in tracks]
    state.compact(np.zeros(0, dtype=bool), np.array([t.id for t in tracks]),
                  np.array([r.embedding for r in firsts]), added(firsts))
    for i in range(1, max(len(t.records) for t in tracks)):
        cols = [c for c, t in enumerate(tracks) if len(t.records) > i]
        records = [tracks[c].records[i] for c in cols]
        state.record(cols, np.array([r.embedding for r in records]), added(records))
    return state


def test_detection_has_no_embedding_until_one_is_attached():
    d = Detection(BoundingBox(0.0, 0.0, 2.0, 2.0), 0.9)
    assert d.embedding is None and d.raw is None


class TestTracklet:
    def test_record_frames_strictly_increase(self):
        t = track(1, 1, unit(1, 0))
        with pytest.raises(OutOfOrderFrame):
            t.append(TrackRecord(frame=1, det_index=0, box=t.records[-1].box,
                                 embedding=unit(1, 0), delta=0.0))

    def test_box_at_finds_only_recorded_frames(self):
        t = track(1, 3, unit(1, 0), cx=3.0)
        for f in (4, 7, 8, 12):
            t.append(TrackRecord(frame=f, det_index=0, box=BoundingBox(f, 0.0, 2.0, 2.0),
                                 embedding=unit(1, 0), delta=0.0))
        found = {f: t.box_at(f) for f in range(0, 15)}
        assert {f for f, box in found.items() if box is not None} == {3, 4, 7, 8, 12}
        assert all(found[r.frame] is r.box for r in t.records)

    def test_deltas_history(self):
        t = track(1, 1, unit(1, 0))
        t.append(TrackRecord(frame=2, det_index=0, box=t.records[-1].box,
                             embedding=unit(1, 0), delta=-0.5))
        assert [r.delta for r in t.records] == [0.0, -0.5]


class TestTrackerState:
    def test_last_row_is_last_embedding(self):
        t = track(1, 1, unit(1, 0))
        t.append(TrackRecord(frame=2, det_index=0, box=t.records[-1].box,
                             embedding=unit(0, 1), delta=0.0))
        assert np.array_equal(state_of([t]).newest, [unit(0, 1)])

    def test_window_covers_last_K_records(self):
        t = track(1, 1, unit(1, 0))
        for f in range(2, 10):
            t.append(TrackRecord(frame=f, det_index=0, box=t.records[-1].box,
                                 embedding=unit(1, f), delta=0.0))
        for K, count in ((5, 5), (100, 9)):
            embs = [r.embedding for r in t.records[-count:]]
            mean = state_of([t], TrackerConfig(K=K)).window_means([0])
            assert np.array_equal(mean, [sum(embs) / count])

    @pytest.mark.parametrize("K", [8, 9, 12, 10**6])
    def test_one_dim_window_sums_in_record_order(self, K):
        """With D = 1 and 8 or more slots, a pairwise sum would move the last
        bit; the window is summed slot by slot, as the records are."""
        rng = np.random.default_rng(K)
        tracks = []
        for tid in range(1, 41):
            t = track(tid, 1, rng.normal(size=1))
            for f in range(2, 2 + int(rng.integers(0, 20))):
                t.append(TrackRecord(frame=f, det_index=0, box=t.records[-1].box,
                                     embedding=rng.normal(size=1), delta=0.0))
            tracks.append(t)
        means = state_of(tracks, TrackerConfig(K=K)).window_means(list(range(len(tracks))))
        for c, t in enumerate(tracks):
            recent = [r.embedding for r in t.records[-K:]]
            assert np.array_equal(means[c], sum(recent) / len(recent))

    def test_large_K_costs_only_the_frames_seen(self):
        """The ring is as deep as the longest track (up to doubling), not K."""
        frames, _ = generate(ScenarioConfig(seed=7, num_frames=12))
        state = TrackerState(TrackerConfig(K=10**6))
        for frame, dets in enumerate(frames, start=1):
            step(state, frame, dets)
            longest = max(len(t.records) for t in state.all_tracklets())
            assert state.ring.shape[1] < 2 * longest
        assert state.ring.nbytes < 2 * 12 * len(state.ids) * state.ring.shape[2] * 8

    @settings(max_examples=60)
    @given(K=st.sampled_from([1, 2, 5, 10**6]), max_lost=st.integers(1, 3),
           num_objects=st.integers(1, 5), num_frames=st.integers(2, 24),
           dropout=st.sampled_from([0.0, 0.2, 0.5]), seed=st.integers(0, 10_000))
    def test_window_bits_through_steps(self, K, max_lost, num_objects, num_frames,
                                       dropout, seed):
        """After every step, the tracklets are numbered 1..N in order and the
        live ids ascend, one per row of the columns; each live track's window
        mean has the bits of summing its last K records, its last-embedding
        row is its last record's and its lost age counts the frames since
        that record, through births, retirements and tracks shorter than K.
        A track retires on the step that makes it unmatched for max_lost + 1
        frames, and every track missing from `ids` went unmatched for more
        than max_lost."""
        frames, _ = generate(ScenarioConfig(num_objects=num_objects, num_frames=num_frames,
                                            embed_dim=3, raw_dim=3, dropout=dropout,
                                            seed=seed))
        state = TrackerState(TrackerConfig(K=K))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracker, "MAX_LOST", max_lost)
            for frame, dets in enumerate(frames, start=1):
                was_live = set(state.ids.tolist())
                step(state, frame, dets)
                tracklets = state.all_tracklets()
                assert [t.id for t in tracklets] == list(range(1, len(tracklets) + 1))
                ids = state.ids.tolist()
                assert state.ids.dtype == np.intp and ids == sorted(set(ids))
                assert (len(state.ids) == len(state.lengths) == len(state.lost)
                        == len(state.ring))
                for t in tracklets:
                    if t.id not in ids:
                        assert frame - t.records[-1].frame > max_lost
                        if t.id in was_live:
                            assert frame - t.records[-1].frame == max_lost + 1
                if not ids:
                    continue
                means = state.window_means(list(range(len(ids))))
                for c, t in enumerate(live(state)):
                    assert state.lost[c] == frame - t.records[-1].frame <= max_lost
                    recent = [r.embedding for r in t.records[-K:]]
                    assert np.array_equal(means[c], sum(recent) / len(recent))
                    assert np.array_equal(state.window_means([c])[0], means[c])
                    assert np.array_equal(state.newest[c], t.records[-1].embedding)

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_stored_last_row_equals_newest_ring_slot(self, K, monkeypatch):
        """The last-embedding rows are kept beside the ring, written by
        `record` and `compact`; after every step, through births and
        retirements, they equal the ring's newest slot of each track and
        the track's last record."""
        monkeypatch.setattr(tracker, "MAX_LOST", 2)
        frames, _ = generate(ScenarioConfig(num_objects=8, num_frames=60, dropout=0.3,
                                            embed_dim=4, raw_dim=4, seed=K))
        state = TrackerState(TrackerConfig(K=K))
        retired = 0
        for frame, dets in enumerate(frames, start=1):
            was_live = set(state.ids.tolist())
            step(state, frame, dets)
            retired += len(was_live - set(state.ids.tolist()))
            if not len(state.ids):
                continue
            newest = state.ring[np.arange(len(state.ids)), (state.lengths - 1) % K]
            assert np.array_equal(state.newest, newest)
            assert np.array_equal(state.newest, last_embeddings(live(state)))
        assert retired > 0


class TestConfigValidation:
    def test_bad_beta(self):
        with pytest.raises(InvalidConfig):
            TrackerConfig(beta=1.0)

    @pytest.mark.parametrize("K", [0, 2**63])
    def test_bad_K(self, K):
        """K indexes intp ring slots, so it must fit in one."""
        with pytest.raises(InvalidConfig):
            TrackerConfig(K=K)


class TestBuildSimilarity:
    def test_identical_unit_vectors(self):
        tr = track(1, 1, unit(1, 0))
        d = det(unit(1, 0))
        assert build_similarity(emb_matrix([d]), last_embeddings([tr]))[0, 0] == \
            pytest.approx(1.0)

    def test_orthonormal(self):
        trs = [track(1, 1, unit(1, 0)), track(2, 1, unit(0, 1))]
        ds = [det(unit(1, 0)), det(unit(0, 1))]
        m = build_similarity(emb_matrix(ds), last_embeddings(trs))
        assert np.allclose(m, np.eye(2))

    def test_known_cosine(self):
        tr = track(1, 1, unit(1, 0))
        d = det(unit(1, 1))
        m = build_similarity(emb_matrix([d]), last_embeddings([tr]))
        assert m[0, 0] == pytest.approx(0.7071068, abs=1e-6)

    def test_dimension_mismatch(self):
        tr = track(1, 1, unit(1, 0, 0))
        d = det(unit(1, 0))
        with pytest.raises(DimensionMismatch):
            build_similarity(emb_matrix([d]), last_embeddings([tr]))

    def test_empty(self):
        assert build_similarity(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)


class TestVerify:
    def test_perfect_match_is_certain(self):
        sim = np.array([[1.0]])
        matching = hungarian_max(sim)
        certain, dissolved, rows, cols = verify(_scored(sim, matching, TrackerConfig()), sim.shape)
        assert len(certain) == 1 and len(dissolved) == 0
        assert (certain["row"].tolist(), certain["col"].tolist()) == ([0], [0])
        assert certain["delta"][0] == pytest.approx(-3.6889, abs=1e-3)
        assert rows.shape == cols.shape == (0,)

    def test_confusable_pairs_both_dissolved(self):
        # cross-matching is optimal (0.50 + 0.49 > 0.52 + 0.46) and both
        # matched pairs land above the adaptive threshold
        sim = np.array([[0.52, 0.50], [0.49, 0.46]])
        matching = hungarian_max(sim)
        assert matching.tolist() == [[0, 1], [1, 0]]
        certain, dissolved, rows, cols = verify(_scored(sim, matching, TrackerConfig()), sim.shape)
        assert len(certain) == 0
        assert list(zip(dissolved["row"].tolist(), dissolved["col"].tolist())) == [(0, 1), (1, 0)]
        assert (dissolved["delta"] > 0).all()
        assert rows.tolist() == [0, 1]
        assert cols.tolist() == [0, 1]

    def test_empty_matching_pools_everything(self):
        sim = np.zeros((2, 2))
        matching = hungarian_max(sim, floor=0.0)
        certain, dissolved, rows, cols = verify(_scored(sim, matching, TrackerConfig()), sim.shape)
        assert len(certain) == 0 and len(dissolved) == 0
        assert rows.tolist() == [0, 1] and cols.tolist() == [0, 1]

    def test_pool_is_unmatched_and_dissolved(self):
        """The pool is every row and col no certain pair holds: the
        oracle's unmatched ones together with the dissolved ones. The two
        stages are `SCORED` arrays that split the matched pairs by the sign
        of delta."""
        rng = np.random.default_rng(606)
        dissolving = 0
        for _ in range(200):
            sim = rng.uniform(-1, 1, size=tuple(rng.integers(1, 7, size=2)))
            for floor in (-np.inf, 0.0):
                matching = brute_force_max(sim, floor=floor)
                certain, dissolved, rows, cols = verify(
                    _scored(sim, matching, TrackerConfig()), sim.shape)
                assert certain.dtype == dissolved.dtype == SCORED
                assert sorted(certain[["row", "col"]].tolist()
                              + dissolved[["row", "col"]].tolist()) == sorted(
                    map(tuple, matching.tolist()))
                assert (certain["delta"] <= 0).all() and (dissolved["delta"] > 0).all()
                for n, pool, field, matched in ((sim.shape[0], rows, "row", matching[:, 0]),
                                                (sim.shape[1], cols, "col", matching[:, 1])):
                    held, gone = certain[field], dissolved[field]
                    assert pool.dtype == np.intp
                    assert pool.tolist() == sorted(set(range(n)) - set(held.tolist()))
                    free = set(range(n)) - set(matched.tolist())
                    assert pool.tolist() == sorted(free | set(gone.tolist()))
                dissolving += len(dissolved) > 0
        assert dissolving > 100   # the dissolved side of the union is exercised

    def test_certain_frame_keeps_every_pair(self):
        """With no pair uncertain, nothing is split off: `certain` is every
        pair of the oracle's matching, in its order, with the one-pair
        formula's bits, `dissolved` is an empty `SCORED` array and the pool
        is the unmatched rows and cols."""
        rng = np.random.default_rng(707)
        cfg = TrackerConfig()
        for _ in range(100):
            n_rows, n_cols = (int(x) for x in rng.integers(1, 7, size=2))
            sim = rng.uniform(-0.1, 0.1, size=(n_rows, n_cols))
            k = min(n_rows, n_cols)
            sim[rng.permutation(n_rows)[:k], rng.permutation(n_cols)[:k]] = rng.uniform(0.9, 1.0, k)
            matching = brute_force_max(sim)
            certain, dissolved, rows, cols = verify(_scored(sim, matching, cfg), sim.shape)
            assert dissolved.dtype == SCORED and len(dissolved) == 0
            assert certain[["row", "col"]].tolist() == list(map(tuple, matching.tolist()))
            for pair in certain:
                r, c = int(pair["row"]), int(pair["col"])
                expect = association_uncertainty(
                    float(sim[r, c]), float(second_best(sim, [r], [c])[0]), cfg.margins)
                assert tuple(pair[list(AssociationVerdict._fields)].tolist()) == expect
                assert expect.delta <= 0.0
            assert rows.tolist() == sorted(set(range(n_rows)) - set(matching[:, 0].tolist()))
            assert cols.tolist() == sorted(set(range(n_cols)) - set(matching[:, 1].tolist()))


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
        d = det(unit(1, 0), cx=1.0, cy=1.0)  # IoU = 1/7 > beta
        pairs = rectify(np.array([0]), np.array([0]), [d], emb_matrix([d]),
                        state_of([t], TrackerConfig(K=2)))
        assert pairs.tolist() == [[0, 0]]

    def test_disjoint_boxes_forbidden(self):
        box = BoundingBox(0.0, 0.0, 2.0, 2.0)
        t = self._history_track([1.0, 1.0], box)
        d = det(unit(1, 0), cx=50.0, cy=50.0)
        pairs = rectify(np.array([0]), np.array([0]), [d], emb_matrix([d]),
                        state_of([t], TrackerConfig(K=2)))
        assert pairs.shape == (0, 2)

    def test_short_history_mean(self):
        box = BoundingBox(0.0, 0.0, 2.0, 2.0)
        t = self._history_track([1.0, 0.8, 0.6], box)
        d = det(unit(1, 0), cx=0.5, cy=0.5)
        cfg = TrackerConfig(K=5)
        cprime = np.mean([d.embedding @ r.embedding for r in t.records[-cfg.K:]])
        assert cprime == pytest.approx(0.8, abs=1e-9)
        pairs = rectify(np.array([0]), np.array([0]), [d], emb_matrix([d]), state_of([t], cfg))
        assert pairs.tolist() == [[0, 0]]

    def test_empty_pool(self):
        none = np.zeros(0, dtype=np.intp)
        pairs = rectify(none, none, [], np.zeros((0, 0)), TrackerConfig())
        assert pairs.shape == (0, 2) and pairs.dtype == np.intp

    @staticmethod
    def _oracle(pool_rows, pool_cols, dets, tracks, cfg):
        """Per-pair reference: the mean of the last K dot products wherever
        the pair's own IoU passes the gate, else 0."""
        cprime = np.zeros((len(pool_rows), len(pool_cols)))
        for i, r in enumerate(pool_rows):
            for j, c in enumerate(pool_cols):
                if iou(box_array([dets[r].box]),
                       box_array([tracks[c].records[-1].box]))[0, 0] > cfg.beta:
                    cprime[i, j] = np.mean([dets[r].embedding @ rec.embedding
                                            for rec in tracks[c].records[-cfg.K:]])
        return cprime

    def test_matches_per_pair_oracle_on_random_pools(self, monkeypatch):
        seen = []

        def capture(sim, floor=None):
            seen.append(sim)
            return hungarian_max(sim, floor=floor)

        monkeypatch.setattr(tracker, "hungarian_max", capture)
        rng = np.random.default_rng(5)
        cfg = TrackerConfig(K=3)

        def box():
            return BoundingBox(*rng.uniform(0, 12, 2), *rng.uniform(2, 6, 2))

        def record(frame, dim):
            return TrackRecord(frame, 0, box(), unit(*rng.normal(size=dim)), 0.0)

        def subset(n):
            return np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))

        gated = 0
        for _ in range(100):
            n_dets, n_tracks, dim = (int(x) for x in rng.integers(1, 9, size=3))
            tracks = []
            for tid in range(1, n_tracks + 1):
                trk = Tracklet(tid, record(1, dim + 1))
                for f in range(2, int(rng.integers(2, 8))):   # 1..6 records, K=3
                    trk.append(record(f, dim + 1))
                tracks.append(trk)
            dets = [Detection(box(), 1.0, unit(*rng.normal(size=dim + 1)))
                    for _ in range(n_dets)]
            pool_rows, pool_cols = subset(n_dets), subset(n_tracks)

            seen.clear()
            pairs = rectify(pool_rows, pool_cols, dets, emb_matrix(dets), state_of(tracks, cfg))
            expect = self._oracle(pool_rows, pool_cols, dets, tracks, cfg)
            (cprime,) = seen
            assert np.array_equal(cprime == 0.0, expect == 0.0)
            assert cprime == pytest.approx(expect, rel=0.0, abs=1e-12)
            matched = hungarian_max(expect, floor=0.0)
            assert pairs.tolist() == [[pool_rows[i], pool_cols[j]] for i, j in matched]
            gated += int((expect != 0.0).sum())
        assert gated > 100   # the gate passes often enough to test the mean


def matched(rows):
    """(det_index, track id) of the applied matches among a frame's rows."""
    return [(row["det_index"], row["track_id"]) for row in rows
            if row["stage"] in (STAGE_ASSOC, STAGE_RECTIFIED)]


def born(rows):
    return [row["track_id"] for row in rows if row["stage"] == STAGE_BIRTH]


class TestStep:
    def test_births_in_det_order(self):
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0)), det(unit(0, 1))])
        rows = rows_at(state, 1)
        assert born(rows) == [1, 2]
        assert [row["stage"] for row in rows] == [STAGE_BIRTH, STAGE_BIRTH]

    def test_low_confidence_no_birth(self):
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0), conf=0.5)])
        assert born(rows_at(state, 1)) == []
        assert state.ids.tolist() == [] and state.all_tracklets() == []

    def test_orthonormal_continuation(self):
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0)), det(unit(0, 1))])
        step(state, 2, [det(unit(1, 0)), det(unit(0, 1))])
        rows = rows_at(state, 2)
        assert matched(rows) == [(0, 1), (1, 2)]
        assert born(rows) == []

    def test_out_of_order_frame(self):
        state = TrackerState(TrackerConfig())
        step(state, 2, [det(unit(1, 0))])
        with pytest.raises(OutOfOrderFrame):
            step(state, 2, [det(unit(1, 0))])

    @pytest.mark.parametrize("frame", [0, -3])
    def test_first_frame_below_1_rejected(self, frame):
        """Frames are 1-based, as every reader of them holds: a first step
        at frame 0 or below raises and writes nothing."""
        state = TrackerState(TrackerConfig())
        with pytest.raises(OutOfOrderFrame, match=f"^frame {frame} after 0$"):
            step(state, frame, [det(unit(1, 0))])
        assert state.frame == state.n_rows == len(state.dets) == 0

    def test_table_rows_carry_their_frame(self):
        """Each row holds the frame it was stepped at, and `frame` is the
        last frame stepped, gaps included."""
        state = TrackerState(TrackerConfig())
        for frame in (1, 4, 9):
            step(state, frame, [det(unit(1, 0)), det(unit(0, 1))])
        assert state.frame == 9
        assert state.table["frame"][:state.n_rows].tolist() == [1, 1, 4, 4, 9, 9]
        assert state.log()["frame"].tolist() == [1, 1, 4, 4, 9, 9]

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
        step(state, 1, [det(t1, cx=0.0), det(t2, cx=100.0)])
        d1 = det(mix(0.52, 0.50), cx=0.5)
        d2 = det(mix(0.49, 0.46), cx=100.5)
        return state, d1, d2

    def test_rectification_restores_identity_pairing(self):
        """Confusable embeddings cross-match, but the IoU gate only passes
        the true pairs, so rectification restores them."""
        state, d1, d2 = self._confusable_setup()
        step(state, 2, [d1, d2])
        rows = rows_at(state, 2)
        assert matched(rows) == [(0, 1), (1, 2)]
        assert {row["stage"] for row in rows} == {STAGE_DISSOLVED, STAGE_RECTIFIED}

    def test_rectified_delta_recomputed_from_original_row(self):
        state, d1, d2 = self._confusable_setup()
        sim = emb_matrix([d1, d2]) @ last_embeddings(live(state)).T
        step(state, 2, [d1, d2])
        rows = rows_at(state, 2)
        rect = [row for row in rows if row["stage"] == STAGE_RECTIFIED]
        assert len(rect) == 2
        for row in rect:
            r = row["det_index"]
            c = row["track_id"] - 1  # ids 1,2 created in column order
            expect = association_uncertainty(float(sim[r, c]),
                                             float(second_best(sim, [r], [c])[0]))
            assert row["delta"] == pytest.approx(expect.delta)

    @pytest.mark.parametrize("utl", [True, False])
    def test_logged_scores_equal_one_pair_formula(self, monkeypatch, utl):
        """Each scored row equals the one-pair call on its similarity entry
        and runner-up, bit for bit. The Hungarian pairs are scored once,
        under either UTL setting, and the rectified pairs once more: a
        frame makes one array call if it has a direct or dissolved row,
        plus one if it has a rectified row."""
        calls = []

        def counted(*args):
            calls.append(1)
            return association_uncertainty(*args)

        monkeypatch.setattr(tracker, "association_uncertainty", counted)
        frames, _ = generate(ScenarioConfig(num_frames=60))
        state = TrackerState(TrackerConfig(utl_enabled=utl))
        stages = set()
        for frame, dets in enumerate(frames, start=1):
            col_of = {tid: c for c, tid in enumerate(state.ids.tolist())}
            if col_of and dets:
                sim = emb_matrix(dets) @ last_embeddings(live(state)).T
            calls.clear()
            step(state, frame, dets)
            rows = rows_at(state, frame)
            for row in rows:
                stages.add(row["stage"])
                if row["stage"] == STAGE_BIRTH:
                    continue
                r, c = row["det_index"], col_of[row["track_id"]]
                expect = association_uncertainty(
                    float(sim[r, c]), float(second_best(sim, [r], [c])[0]), state.cfg.margins)
                assert tuple(row[list(AssociationVerdict._fields)].item()) == expect
            frame_stages = {row["stage"] for row in rows}
            assert len(calls) == (bool(frame_stages & {STAGE_ASSOC, STAGE_DISSOLVED})
                                  + (STAGE_RECTIFIED in frame_stages))
        assert stages == ({STAGE_BIRTH, STAGE_ASSOC, STAGE_RECTIFIED, STAGE_DISSOLVED}
                          if utl else {STAGE_BIRTH, STAGE_ASSOC})

    def test_mixed_dims_in_one_frame_raise(self):
        state = TrackerState(TrackerConfig())
        with pytest.raises(DimensionMismatch):
            step(state, 1, [det(unit(1, 0)), det(unit(1, 0, 0))])
        step(state, 2, [det(unit(1, 0))])
        with pytest.raises(DimensionMismatch):
            step(state, 3, [det(unit(1, 0)), det(unit(1, 0, 0))])

    def test_dim_change_against_live_tracks_raises(self):
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0))])
        with pytest.raises(DimensionMismatch):
            step(state, 2, [det(unit(1, 0, 0))])

    def test_failed_step_leaves_the_state_unchanged(self):
        """A step that raises writes nothing, so the same frame then steps
        as if the failed call had never been made."""
        def reads(state):
            return (state.log(), applied(state.table[:state.n_rows]), state.ids.copy(),
                    state.newest.copy())

        frame_1 = [det(unit(1, 0)), det(unit(0, 1))]
        frame_2 = [det(unit(1, 0)), det(unit(0, 1))]
        state, clean = TrackerState(TrackerConfig()), TrackerState(TrackerConfig())
        step(state, 1, frame_1)
        before, n_dets = reads(state), len(state.dets)
        with pytest.raises(DimensionMismatch):
            step(state, 2, [det(unit(1, 0, 0))])
        assert all(map(np.array_equal, reads(state), before))
        assert state.frame == 1 and len(state.dets) == n_dets
        step(state, 2, frame_2)
        for frame, dets in ((1, frame_1), (2, frame_2)):
            step(clean, frame, dets)
        assert matched(rows_at(state, 2)) == [(0, 1), (1, 2)]
        assert all(map(np.array_equal, reads(state), reads(clean)))
        assert state.frame == clean.frame == 2

    def test_dissolved_pairs_are_logged(self):
        state, d1, d2 = self._confusable_setup()
        step(state, 2, [d1, d2])
        rows = rows_at(state, 2)
        dissolved = [row for row in rows if row["stage"] == STAGE_DISSOLVED]
        # the dissolved cross pairs are logged first, with positive delta
        assert rows[:2] == dissolved
        assert [(r["det_index"], r["track_id"]) for r in dissolved] == [(0, 2), (1, 1)]
        assert all(row["delta"] > 0 for row in dissolved)
        # ... but never applied: each tracklet holds only its rectified record
        assert [(r.frame, r.det_index) for t in state.all_tracklets() for r in t.records] == \
            [(1, 0), (2, 0), (1, 1), (2, 1)]

    def test_lost_track_removed_after_max_lost(self, monkeypatch):
        """A track is live through MAX_LOST empty frames and retires on the
        next one."""
        monkeypatch.setattr(tracker, "MAX_LOST", 2)
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0))])
        for f in range(2, 2 + tracker.MAX_LOST):
            step(state, f, [])
        assert state.ids.tolist() == [1]
        assert state.lost.tolist() == [tracker.MAX_LOST]
        (trk,) = state.all_tracklets()
        step(state, 2 + tracker.MAX_LOST, [])
        assert state.ids.tolist() == []
        assert [(t.id, t.records) for t in state.all_tracklets()] == [(trk.id, trk.records)]
        assert len(state.lost) == len(state.lengths) == len(state.ring) == 0

    def test_embedding_dim_may_change_once_every_track_retired(self, monkeypatch):
        """Empty frames' embedding matrices carry no dim: after the last
        dim-3 track retires, dim-5 detections start dim-5 tracks."""
        monkeypatch.setattr(tracker, "MAX_LOST", 1)
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0, 0))])
        step(state, 2, [])
        step(state, 3, [])
        assert state.ids.tolist() == []
        step(state, 4, [det(unit(1, 0, 0, 0, 0)), det(unit(0, 1, 0, 0, 0), cx=50.0)])
        assert state.ids.tolist() == [2, 3]
        assert state.newest.shape == (2, 5) and state.ring.shape[2] == 5

    def test_lost_track_rematches_before_removal(self, monkeypatch):
        monkeypatch.setattr(tracker, "MAX_LOST", 5)
        state = TrackerState(TrackerConfig())
        step(state, 1, [det(unit(1, 0))])
        step(state, 2, [])
        assert state.lost.tolist() == [1]
        step(state, 3, [det(unit(1, 0))])
        assert matched(rows_at(state, 3)) == [(0, 1)]
        assert state.lost.tolist() == [0]


class TestTrackSequence:
    def _frames(self, n=5):
        e1, e2 = unit(1, 0), unit(0, 1)
        return [[det(e1, cx=f * 1.0), det(e2, cx=100.0 + f)]
                for f in range(1, n + 1)]

    def test_single_frame(self):
        tracklets = track_sequence(self._frames(1)).all_tracklets()
        assert [len(t.records) for t in tracklets] == [1, 1]

    def test_identity_conservation(self):
        tracklets = track_sequence(self._frames(8)).all_tracklets()
        for f in range(1, 9):
            seen_dets = [r.det_index for t in tracklets for r in t.records
                         if r.frame == f]
            assert sorted(seen_dets) == [0, 1]

    def test_baseline_reduces_to_plain_hungarian(self):
        frames = self._frames(6)
        state = track_sequence(frames, TrackerConfig(utl_enabled=False))
        base, log = state.all_tracklets(), state.log()
        assert all(row["stage"] in (STAGE_BIRTH, STAGE_ASSOC) for row in log)
        assert len(base) == 2

    def test_deterministic_rerun(self):
        a_log = track_sequence(self._frames(6)).log()
        b_log = track_sequence(self._frames(6)).log()
        assert np.array_equal(a_log, b_log)

    def test_delta_history_matches_record_count(self):
        """Each record carries its applied log row's delta, 0 at birth."""
        state = track_sequence(self._frames(6))
        tracklets, log = state.all_tracklets(), state.log()
        for t in tracklets:
            assert [r.delta for r in t.records] == [
                row["delta"] for row in log
                if row["track_id"] == t.id and row["stage"] != STAGE_DISSOLVED]
            assert t.records[0].delta == 0.0

    def test_log_applied_columns_equal_the_table(self):
        """`eval` reads the log's applied rows as `applied` gives them on the
        table: the same track ids and frames, in the same order, and each
        row's detection index; the dissolved rows are left out. Within a
        frame the log gives the dissolved rows, then the direct and
        rectified ones, then the births, each group by detection index,
        though `step` appends the rectified rows after the direct ones.
        Default seeds 7-12 with UTL on and off, and crowd seed 7."""
        group = {STAGE_DISSOLVED: 0, STAGE_ASSOC: 1, STAGE_RECTIFIED: 1, STAGE_BIRTH: 2}
        cases = [(dict(seed=seed), utl) for seed in range(7, 13) for utl in (True, False)]
        for scene, utl in [*cases, (dict(CROWD, seed=7), True)]:
            frames, _ = generate(ScenarioConfig(**scene))
            state = track_sequence(frames, TrackerConfig(utl_enabled=utl))
            log = state.log()
            assert log.dtype == LOG
            assert (STAGE_DISSOLVED in log["stage"]) == utl
            keys = list(zip(log["frame"].tolist(), map(group.get, log["stage"].tolist()),
                            log["det_index"].tolist()))
            assert all(a < b for a, b in zip(keys, keys[1:]))
            # frames where a rectified row comes before a direct row of a later detection
            direct, rectified = {}, {}
            for frame, det, stage in log[["frame", "det_index", "stage"]].tolist():
                if stage == STAGE_ASSOC:
                    direct[frame] = max(direct.get(frame, det), det)
                elif stage == STAGE_RECTIFIED:
                    rectified[frame] = min(rectified.get(frame, det), det)
            assert any(det < direct.get(frame, -1) for frame, det in rectified.items()) == utl
            table, got = applied(state.table[:state.n_rows]), applied(log)
            assert [got[name].dtype for name in ("track_id", "frame", "det_index")] == \
                [np.dtype(np.intp)] * 3
            assert np.array_equal(got["track_id"], table["track_id"])
            assert np.array_equal(got["frame"], table["frame"])
            positions = np.concatenate([np.arange(len(dets)) for dets in frames])
            assert np.array_equal(got["det_index"], positions[table["det"]])

    def test_log_applied_columns_reject_two_rows_of_a_track_in_a_frame(self):
        """The earliest frame with two applied rows of one track is named,
        with its lowest such track id, as `Tracklet.append` names it."""
        # (frame, det_index, track id, stage); frame 1's second row of track 3 is dissolved
        rows = [(1, 0, 3, 0), (1, 1, 2, 0), (1, 2, 3, 3), (2, 0, 3, 1), (2, 1, 3, 2),
                (2, 2, 2, 1), (2, 3, 2, 2), (3, 0, 3, 1), (3, 1, 3, 1), (4, 0, 2, 1), (4, 1, 2, 1)]
        log = np.array([(f, d, t, 0, 0, 0, 0, 0, stage) for f, d, t, stage in rows], LOG)
        with pytest.raises(OutOfOrderFrame, match="^track 2: frame 2 after 2$"):
            applied(log)
        log = log[log["frame"] != 2]
        with pytest.raises(OutOfOrderFrame, match="^track 3: frame 3 after 3$"):
            applied(log)
        log = log[log["frame"] != 3]
        with pytest.raises(OutOfOrderFrame, match="^track 2: frame 4 after 4$"):
            applied(log)

    def test_crowded_scene_composition_digest(self):
        """A 60-object scene builds large rectification pools (hundreds of
        pairs a frame) that the 12-object scenes rarely reach; its
        tracklet composition is pinned."""
        cfg = ScenarioConfig(num_objects=60, embed_dim=32, raw_dim=64, num_frames=40, seed=7)
        frames, _ = generate(cfg)
        state = track_sequence(frames)
        tracklets, log = state.all_tracklets(), state.log()
        assert sum(row["stage"] == STAGE_RECTIFIED for row in log) > 100
        rows = sorted((t.id, [(r.frame, r.det_index) for r in t.records]) for t in tracklets)
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "ca5487b7a4cb47afb4022dbcab77228a4a22aea413fd48f244ac68936f43ac6f"

    @pytest.mark.parametrize("kind, seed", [("crowd", s) for s in (7, 8, 9)]
                             + [("default", s) for s in range(7, 13)])
    def test_benchmark_pins_reproduce(self, kind, seed):
        """The benchmark's pinned tracklet-composition digests (read, never
        written) hold here too, so a broken pin fails Tier-1 and not only
        the benchmark."""
        pinned = json.loads(PINS.read_text())[kind][str(seed)]
        frames, _ = generate(ScenarioConfig(seed=seed, **(CROWD if kind == "crowd" else {})))
        tracklets = track_sequence(frames).all_tracklets()
        rows = sorted((t.id, [(r.frame, r.det_index) for r in t.records]) for t in tracklets)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == pinned

    @pytest.mark.parametrize("utl", [True, False])
    def test_mid_run_reads_equal_a_run_stopped_there(self, utl):
        """`all_tracklets()` and `log()` read after any frame equal the
        results of a fresh run over the frames up to it, record objects
        included, and reading changes nothing that later frames decide."""
        frames, _ = generate(ScenarioConfig(num_frames=40, seed=7))
        cfg = TrackerConfig(utl_enabled=utl)

        def compose(tracklets):
            return [(t.id,
                     [(r.frame, r.det_index, r.delta.hex(), id(r.box), id(r.embedding))
                      for r in t.records]) for t in tracklets]

        state = TrackerState(cfg)
        for frame, dets in enumerate(frames, start=1):
            step(state, frame, dets)
            if frame in (1, 2, 17, 40):
                stopped = track_sequence(frames[:frame], cfg)
                assert np.array_equal(state.log(), stopped.log())
                assert compose(state.all_tracklets()) == compose(stopped.all_tracklets())

    def test_step_builds_no_decision_objects(self, monkeypatch):
        """`step` returns nothing and makes no record or tracklet; `log()`
        and `all_tracklets()` build them from the table when they are read."""
        frames, _ = generate(ScenarioConfig(num_frames=30, seed=7))
        expected = track_sequence(frames)

        def forbidden(*args, **kwargs):
            raise AssertionError("step built a decision object")

        state = TrackerState(TrackerConfig())
        with monkeypatch.context() as mp:
            for name in ("TrackRecord", "Tracklet"):
                mp.setattr(tracker, name, forbidden)
            for frame, dets in enumerate(frames, start=1):
                assert step(state, frame, dets) is None
        assert not hasattr(state, "tracklets")
        assert np.array_equal(state.log(), expected.log())
        assert ([(t.id, t.records) for t in state.all_tracklets()]
                == [(t.id, t.records) for t in expected.all_tracklets()])

    @pytest.mark.parametrize("kind, seed", [("crowd", s) for s in (7, 8, 9)]
                             + [("default", s) for s in range(7, 13)])
    def test_log_bytes_pinned(self, kind, seed, tmp_path):
        """The written decision log, every row and field, is pinned on the
        benchmark's scenes with UTL on and off."""
        pinned = json.loads(LOG_PINS.read_text())[kind][str(seed)]
        frames, _ = generate(ScenarioConfig(seed=seed, **(CROWD if kind == "crowd" else {})))
        for utl in ("on", "off"):
            log = track_sequence(frames, TrackerConfig(utl_enabled=utl == "on")).log()
            formats.write_log(log, tmp_path / "log.txt")
            digest = hashlib.sha256((tmp_path / "log.txt").read_bytes()).hexdigest()
            assert digest == pinned[utl], utl

    def test_plain_lists_accepted(self):
        tracklets = track_sequence(self._frames(3)).all_tracklets()
        assert {r.frame for t in tracklets for r in t.records} == {1, 2, 3}
