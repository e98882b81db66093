"""Tests for the InfoNCE loss/gradient and the linear embedder trainer."""

import math

import numpy as np
import pytest

from uatrack.contrastive import (ContrastiveBatch, LinearEmbedder,
                                 TrainConfig, draw_plan, info_nce,
                                 info_nce_grad, train_embedder)
from uatrack.errors import InsufficientData, NoCandidates
from uatrack.geometry import BoundingBox
from uatrack.tracker import Detection, Tracklet, TrackRecord


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def rand_batch(rng, dim=8, n_neg=5, temperature=0.07):
    q = unit(rng.normal(size=dim))
    pos = unit(rng.normal(size=dim))
    negs = [unit(rng.normal(size=dim)) for _ in range(n_neg)]
    return ContrastiveBatch(q, pos, negs, temperature)


class TestInfoNce:
    def test_equal_logits_ln2(self):
        # positive and one negative at identical similarity -> ln 2
        q = unit([1.0, 0.0])
        batch = ContrastiveBatch(q, unit([0.0, 1.0]), [unit([0.0, 1.0])], 0.07)
        assert info_nce(batch) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_equal_logits_ln_k(self):
        q = unit([1.0, 0.0, 0.0])
        k = unit([0.0, 1.0, 0.0])
        for n in range(1, 6):
            batch = ContrastiveBatch(q, k, [k] * n, 0.07)
            assert info_nce(batch) == pytest.approx(math.log(n + 1), abs=1e-9)

    def test_dominant_positive_small_loss(self):
        q = unit([1.0, 0.0])
        batch = ContrastiveBatch(q, q, [unit([-1.0, 0.0])], 0.07)
        assert info_nce(batch) < 1e-9

    def test_loss_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            assert info_nce(rand_batch(rng)) > 0.0

    def test_large_logits_stable(self):
        # tiny temperature produces huge logits; max-shift keeps it finite
        q = unit([1.0, 0.0])
        batch = ContrastiveBatch(q, q, [unit([0.9, 0.1])], 1e-4)
        assert math.isfinite(info_nce(batch))


class TestInfoNceGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(100):
            batch = rand_batch(rng)
            g = info_nce_grad(batch)
            num = np.zeros_like(g)
            for i in range(len(g)):
                qp = batch.query.copy(); qp[i] += eps
                qm = batch.query.copy(); qm[i] -= eps
                bp = ContrastiveBatch(qp, batch.positive, batch.negatives,
                                      batch.temperature)
                bm = ContrastiveBatch(qm, batch.positive, batch.negatives,
                                      batch.temperature)
                num[i] = (info_nce(bp) - info_nce(bm)) / (2 * eps)
            denom = max(np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(g - num) / denom < 1e-4

    def test_zero_at_perfect_separation(self):
        q = unit([1.0, 0.0])
        batch = ContrastiveBatch(q, q, [unit([-1.0, 0.0])], 0.07)
        assert np.linalg.norm(info_nce_grad(batch)) < 1e-9


class TestLinearEmbedder:
    def test_output_normalized(self):
        rng = np.random.default_rng(31)
        e = LinearEmbedder.init_random(12, 4, rng)
        for _ in range(20):
            v = e.embed(rng.normal(size=12))
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_batch_embed(self):
        rng = np.random.default_rng(37)
        e = LinearEmbedder.init_random(12, 4, rng)
        batch = rng.normal(size=(5, 12))
        out = e.embed(batch)
        assert out.shape == (5, 4)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_init_deterministic(self):
        a = LinearEmbedder.init_random(6, 3, np.random.default_rng(5))
        b = LinearEmbedder.init_random(6, 3, np.random.default_rng(5))
        assert np.array_equal(a.weights, b.weights)

    def test_save_load_roundtrip(self, tmp_path):
        e = LinearEmbedder.init_random(6, 3, np.random.default_rng(5))
        p = tmp_path / "w.txt"
        e.save(p)
        back = LinearEmbedder.load(p)
        assert np.array_equal(back.weights, e.weights)


def toy_sequence(n_frames=30, n_objects=3, raw_dim=8, seed=0):
    """Well-separated moving objects with raw features from fixed latents."""
    rng = np.random.default_rng(seed)
    latents = np.eye(raw_dim)[:n_objects]
    frames = []
    for f in range(1, n_frames + 1):
        dets = []
        for i in range(n_objects):
            raw = latents[i] + 0.05 * rng.normal(size=raw_dim)
            emb = unit(np.concatenate([latents[i][:4], [0.0]])[:4])
            dets.append(Detection(
                frame=f, det_index=i,
                box=BoundingBox(50.0 * i + f, 10.0 + i, 5.0, 5.0),
                confidence=1.0, embedding=unit(raw[:4]), raw=raw))
        frames.append(dets)
    return frames


class TestTrainEmbedder:
    def test_loss_decreases(self):
        frames = toy_sequence()
        cfg = TrainConfig(epochs=6, steps_per_epoch=40, lr=0.05,
                          embed_dim=4, seed=1)
        _, losses = train_embedder(frames, cfg)
        assert len(losses) == 6
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        frames = toy_sequence()
        cfg = TrainConfig(epochs=2, steps_per_epoch=20, embed_dim=4, seed=3)
        e1, l1 = train_embedder(frames, cfg)
        e2, l2 = train_embedder(toy_sequence(), cfg)
        assert np.array_equal(e1.weights, e2.weights)
        assert l1 == l2

    def test_random_sampling_mode_runs(self):
        frames = toy_sequence()
        cfg = TrainConfig(epochs=2, steps_per_epoch=20, embed_dim=4, seed=3,
                          anchor_sampling="random")
        e, losses = train_embedder(frames, cfg)
        assert e.weights.shape == (8, 4)

    def test_missing_raw_rejected(self):
        frames = toy_sequence(n_frames=5)
        frames[0][0].raw = None
        with pytest.raises(InsufficientData):
            train_embedder(frames, TrainConfig(epochs=1, embed_dim=4))

    def test_det_index_out_of_position_rejected(self):
        frames = toy_sequence(n_frames=5)
        frames[2].reverse()
        with pytest.raises(InsufficientData, match="position"):
            train_embedder(frames, TrainConfig(epochs=1, embed_dim=4))


def track_over(tid, frames):
    """Tracklet with one record per frame, deltas varying along it."""
    recs = [TrackRecord(frame=f, det_index=0,
                        box=BoundingBox(10.0 * tid + f, 5.0, 4.0, 3.0),
                        embedding=np.array([1.0, 0.0]), delta=math.sin(f))
            for f in frames]
    trk = Tracklet(tid, recs[0])
    for rec in recs[1:]:
        trk.append(rec)
    return trk


class TestDrawPlan:
    FRAME = 30

    def tracklets(self):
        return [track_over(1, range(1, 31)),                 # history in the lag window
                track_over(2, [1, 2, 3, 4, 5, 30]),          # history only before it
                track_over(3, [30]),                         # born at FRAME
                track_over(4, range(1, 11))]                 # absent at FRAME

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    def test_anchor_has_history_and_target_respects_lag(self, mode):
        cfg = TrainConfig(anchor_sampling=mode)
        tracks = {t.id: t for t in self.tracklets()}
        anchors = set()
        for seed in range(200):
            plan = draw_plan(list(tracks.values()), self.FRAME,
                             np.random.default_rng(seed), cfg)
            anchor = tracks[plan.source_track_id]
            anchors.add(anchor.id)
            past = [r.frame for r in anchor.records if r.frame < self.FRAME]
            assert plan.target_frame in past
            if any(f >= self.FRAME - cfg.max_lag for f in past):
                assert plan.target_frame >= self.FRAME - cfg.max_lag
        assert anchors == {1, 2}

    def test_no_anchor_with_history(self):
        born = track_over(3, [30])
        with pytest.raises(NoCandidates):
            draw_plan([born], self.FRAME, np.random.default_rng(0), TrainConfig())
