"""Tests for the synthetic scene generator."""

import numpy as np
import pytest

from uatrack.errors import InvalidConfig
from uatrack.geometry import iou
from uatrack.simulator import ScenarioConfig, generate


SMALL = ScenarioConfig(num_objects=4, num_frames=40, seed=3)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.num_objects == 12
        assert cfg.num_frames == 200
        assert cfg.embed_dim == 16
        assert cfg.raw_dim == 32
        assert cfg.appearance_noise == 0.25
        assert cfg.seed == 7

    @pytest.mark.parametrize("kw", [
        dict(num_objects=0),
        dict(num_frames=1),
        dict(embed_dim=1),
        dict(dropout=1.5),
        dict(confusable_fraction=-0.1),
        dict(speed=-1.0),
        dict(embed_dim=40, raw_dim=8),
        dict(appearance_noise=float("nan")),
        dict(speed=float("nan")),
        dict(camera_drift=float("nan")),
        dict(occlusion_noise_boost=float("nan")),
        dict(arena=(float("nan"), 420.0)),
        dict(appearance_noise=float("inf")),
        dict(occlusion_noise_boost=float("inf")),
        dict(speed=float("inf")),
        dict(camera_drift=float("inf")),
        dict(arena=(float("inf"), 420.0)),
        dict(arena=(560.0, float("inf"))),
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(**kw)


class TestGenerate:
    def test_shapes_and_indices(self):
        frames, gt = generate(SMALL)
        assert len(frames) == 40
        for f, dets in enumerate(frames, start=1):
            for j, d in enumerate(dets):
                assert d.frame == f
                assert d.det_index == j
                assert d.embedding.shape == (SMALL.embed_dim,)
                assert d.raw.shape == (SMALL.raw_dim,)
                assert 0.0 <= d.confidence <= 1.0

    def test_embeddings_unit_norm(self):
        frames, _ = generate(SMALL)
        for dets in frames:
            for d in dets:
                assert np.linalg.norm(d.embedding) == pytest.approx(1.0)

    def test_ground_truth_covers_detections(self):
        frames, gt = generate(SMALL)
        keys = {(g.frame, g.det_index) for g in gt}
        assert len(keys) == len(gt)
        for dets in frames:
            for d in dets:
                assert (d.frame, d.det_index) in keys
        assert {g.true_id for g in gt} <= set(range(1, SMALL.num_objects + 1))

    def test_deterministic(self):
        f1, g1 = generate(SMALL)
        f2, g2 = generate(SMALL)
        assert g1 == g2
        for da, db in zip(f1, f2):
            for a, b in zip(da, db):
                assert np.array_equal(a.embedding, b.embedding)
                assert np.array_equal(a.raw, b.raw)
                assert a.box == b.box and a.confidence == b.confidence

    def test_seed_changes_output(self):
        f1, _ = generate(SMALL)
        f2, _ = generate(ScenarioConfig(num_objects=4, num_frames=40, seed=4))
        diff = any(not np.array_equal(a.embedding, b.embedding)
                   for da, db in zip(f1, f2) for a, b in zip(da, db))
        assert diff

    def test_dropout_removes_detections(self):
        lossless = ScenarioConfig(num_objects=6, num_frames=100, dropout=0.0, seed=5)
        lossy = ScenarioConfig(num_objects=6, num_frames=100, dropout=0.3, seed=5)
        n_full = sum(len(d) for d in generate(lossless)[0])
        n_drop = sum(len(d) for d in generate(lossy)[0])
        assert n_full == 600
        assert n_drop < n_full

    def test_boxes_inside_arena_before_drift(self):
        # camera drift shifts boxes; with zero drift every center stays inside
        cfg = ScenarioConfig(num_objects=6, num_frames=120, camera_drift=0.0, seed=6)
        frames, _ = generate(cfg)
        aw, ah = cfg.arena
        for dets in frames:
            for d in dets:
                assert -1.0 <= d.box.cx <= aw + 1.0
                assert -1.0 <= d.box.cy <= ah + 1.0

    def test_confusable_pair_latent_similarity(self):
        """Engineered twins stay far more similar than independent objects."""
        cfg = ScenarioConfig(num_objects=8, num_frames=3, appearance_noise=0.0,
                             confusable_fraction=0.5, dropout=0.0, seed=9)
        frames, _ = generate(cfg)
        dets = frames[0]
        sims = np.array([[a.embedding @ b.embedding for b in dets] for a in dets])
        # twins are adjacent (2p, 2p+1) in detection order; the remaining
        # objects keep their original (orthogonalized) latents
        twin = [sims[2 * p, 2 * p + 1] for p in range(2)]
        originals = [0, 2, 4, 5, 6, 7]
        others = [sims[i, j] for i in originals for j in originals if i < j]
        assert min(twin) > max(abs(s) for s in others) + 0.2

    def test_occluded_confidence_drops(self):
        frames, _ = generate(ScenarioConfig())
        found = False
        for dets in frames:
            for i, a in enumerate(dets):
                for b in dets[i + 1:]:
                    if iou(a.box, b.box) > 0.4:
                        assert a.confidence < 0.6 and b.confidence < 0.6
                        found = True
        assert found, "default scenario should contain heavy occlusions"

    def test_raw_features_linearly_decodable(self):
        """A least-squares readout of the raw features recovers identity."""
        cfg = ScenarioConfig(num_objects=6, num_frames=50, seed=11)
        frames, gt = generate(cfg)
        lut = {(g.frame, g.det_index): g.true_id for g in gt}
        X = np.array([d.raw for dets in frames for d in dets])
        y = np.array([lut[(d.frame, d.det_index)] for dets in frames for d in dets])
        onehot = np.eye(cfg.num_objects)[y - 1]
        W, *_ = np.linalg.lstsq(X, onehot, rcond=None)
        pred = (X @ W).argmax(axis=1) + 1
        assert (pred == y).mean() > 0.95
