"""Tests for the InfoNCE loss/gradient and the linear embedder trainer."""

import copy
import math
import operator
from dataclasses import replace
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest

from uatrack import contrastive, formats, tracker
from uatrack.augment import source_anchor_weights, target_anchor_weights
from uatrack.contrastive import (DEFAULT_TEMPERATURE, MAX_LAG, ContrastiveBatch,
                                 EpochColumns, LinearEmbedder, TrainConfig,
                                 draw_plan, info_nce, info_nce_batch,
                                 info_nce_grad, train_embedder)
from uatrack.errors import InsufficientData, InvalidConfig, NoCandidates
from uatrack.geometry import BoundingBox
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import (Detection, TrackerConfig, TrackerState, Tracklet, TrackRecord,
                             step, track_sequence)


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


class TestInfoNceBatch:
    """The training step's batched loss and weight gradient against the
    per-query reference: `info_nce`, `info_nce_grad` and the chain rule
    through the l2 normalization, summed over queries with np.outer."""

    T = DEFAULT_TEMPERATURE

    @classmethod
    def reference(cls, queries, raws, keys, positives, weights):
        """(losses, weight gradient, size of the gradient's terms)."""
        losses, grad, scale = [], np.zeros_like(weights), 0.0
        for q, raw, pos in zip(queries, raws, positives):
            negatives = [k for j, k in enumerate(keys) if j != pos]
            batch = ContrastiveBatch(q, keys[pos], negatives, cls.T)
            losses.append(info_nce(batch))
            gq = info_nce_grad(batch)
            z_norm = np.linalg.norm(raw @ weights)
            grad += np.outer(raw, (gq - q * (q @ gq)) / z_norm)
            scale += np.linalg.norm(raw) / (cls.T * z_norm)   # unit-norm keys
        return np.array(losses), grad, scale

    @pytest.mark.parametrize("n_queries", range(1, 9))
    def test_matches_per_query_reference(self, n_queries):
        rng = np.random.default_rng(100 + n_queries)
        raw_dim, dim = 12, 6
        for _ in range(20):
            n_keys = int(rng.integers(2, 9))
            start = LinearEmbedder(rng.normal(size=(raw_dim, dim)))
            # the queries were embedded with earlier weights; |z| comes
            # from the current ones, as within a training epoch
            weights = start.weights + 0.1 * rng.normal(size=(raw_dim, dim))
            raws = rng.normal(size=(n_queries, raw_dim))
            queries = start.embed(raws)
            keys = start.embed(rng.normal(size=(n_keys, raw_dim)))
            # first, last, then anywhere among the keys
            positives = np.array([0, n_keys - 1][:n_queries]
                                 + rng.integers(n_keys, size=n_queries).tolist()[2:])
            want_losses, want_grad, grad_scale = self.reference(
                queries, raws, keys, positives, weights)
            losses, grad = info_nce_batch(queries, raws, keys, positives, weights)
            # 1e-12 relative to the size of the terms (logits up to 1/T), not
            # of the result: when the positive dominates, loss and gradient
            # cancel towards 0 and one ulp of either route is a large share
            assert np.abs(losses - want_losses).max() <= 1e-12 / self.T
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * grad_scale


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
        formats.write_weights(e.weights, p)
        back = formats.read_weights(p)
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, e.weights)


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
            dets.append(Detection(box=BoundingBox(50.0 * i + f, 10.0 + i, 5.0, 5.0),
                                  confidence=1.0, embedding=unit(raw[:4]), raw=raw))
        frames.append(dets)
    return frames


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("anchor_sampling", "uncertanity"), ("anchor_sampling", ""),
        ("steps_per_epoch", 0), ("steps_per_epoch", -1),
        ("embed_dim", 0), ("embed_dim", -3)])
    def test_bad_field_rejected(self, field, value):
        """Unchecked, each would train silently: a misspelt sampling as the
        random ablation, a zero step count or width to `[nan]` losses."""
        with pytest.raises(InvalidConfig, match=field):
            TrainConfig(**{field: value})


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

    def test_run_that_trains_no_step_rejected(self):
        """A run whose every step skips raises InsufficientData rather than
        return its untrained weights; inside a run that trained, an epoch
        with no trained step still reports nan."""
        frames, _ = generate(ScenarioConfig(num_objects=3, num_frames=20, dropout=0.5, seed=0))
        with pytest.raises(InsufficientData, match="no step of 4 trained"):
            train_embedder(frames, TrainConfig(epochs=4, steps_per_epoch=1, seed=1))
        _, losses = train_embedder(frames, TrainConfig(epochs=4, steps_per_epoch=1, seed=4))
        assert [math.isnan(x) for x in losses] == [True, True, True, False]

    def test_skipped_steps_keep_losses_finite_and_runs_equal(self, monkeypatch):
        """A step skips when its frame has fewer than 2 tracks with a past
        or its target frame fewer than 2 keys. A sparse scene (3 objects,
        half dropped) takes both skips; the losses stay finite, and since a
        skipped step draws nothing after `t`, two runs give the same bytes."""
        frames, _ = generate(ScenarioConfig(num_objects=3, num_frames=20, dropout=0.5, seed=0))
        few, keyless = [], []
        present, batch = EpochColumns.present, EpochColumns.batch

        def spied_present(self, frame):
            out = present(self, frame)
            few.append(len(out) < 2)
            return out

        def spied_batch(self, frame, target):
            out = batch(self, frame, target)
            keyless.append(out is None)
            return out

        monkeypatch.setattr(EpochColumns, "present", spied_present)
        monkeypatch.setattr(EpochColumns, "batch", spied_batch)
        e1, l1 = train_embedder(frames, TrainConfig(epochs=2))
        assert any(few) and any(keyless)
        assert all(map(math.isfinite, l1))
        e2, l2 = train_embedder(frames, TrainConfig(epochs=2))
        assert e1.weights.tobytes() == e2.weights.tobytes()
        assert l1 == l2

    def test_single_frame_rejected(self):
        # two tracklets but no frame t >= 2 to draw
        frames = toy_sequence(n_frames=1, n_objects=2)
        with pytest.raises(InsufficientData, match="only 1 frame"):
            train_embedder(frames, TrainConfig(epochs=1, embed_dim=4))


def draw_target(present: list[Tracklet], frame: int, rng: np.random.Generator,
                cfg: TrainConfig) -> tuple[Tracklet, int]:
    """The per-object reference for `EpochColumns.draw` among `present`,
    tracklets with a record at `frame` and one before it: the anchor
    through `source_anchor_weights`, then its target frame through
    `target_anchor_weights`, with the same draws from `rng`."""
    uniform = cfg.anchor_sampling != "uncertainty"
    if uniform:
        anchor = present[int(rng.integers(len(present)))]
    else:
        anchor_id = contrastive.sample(source_anchor_weights(present, frame), rng)
        anchor = next(trk for trk in present if trk.id == anchor_id)
    past = target_anchor_weights(anchor, frame)
    return anchor, contrastive._draw_in_window(
        past.keys, None if uniform else past.probabilities(), frame, rng)


def reference_train_embedder(frames, cfg: TrainConfig):
    """The per-object reference for `train_embedder`'s epoch loop: each
    epoch builds the tracklets and the log, lists (tracklet, detection row)
    per frame and draws with `draw_target` on the tracklets present."""
    frames = list(frames)
    raw_dim = frames[0][0].raw.shape[0]
    rng = np.random.default_rng(cfg.seed)
    embedder = LinearEmbedder.init_random(raw_dim, cfg.embed_dim, rng)
    total_steps = cfg.epochs * cfg.steps_per_epoch
    step_count = 0
    epoch_losses = []
    raw = np.stack([d.raw for dets in frames for d in dets])
    first_row = list(accumulate((len(dets) for dets in frames), initial=0))
    embedded = [[replace(d) for d in dets] for dets in frames]

    for _epoch in range(cfg.epochs):
        emb = embedder.embed(raw)
        for d, e in zip((d for dets in embedded for d in dets), emb):
            d.embedding = e
        state = track_sequence(embedded)
        tracklets, _log = state.all_tracklets(), state.log()
        by_frame = {}
        for trk in tracklets:
            for r in trk.records:
                by_frame.setdefault(r.frame, []).append(
                    (trk, first_row[r.frame - 1] + r.det_index))

        losses = []
        for _ in range(cfg.steps_per_epoch):
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step_count / total_steps))
            step_count += 1
            t = int(rng.integers(2, len(frames) + 1))
            present = [trk for trk, _ in by_frame.get(t, []) if trk.records[0].frame < t]
            if len(present) < 2:
                continue
            _, target = draw_target(present, t, rng, cfg)
            rng.random(8)
            keys = by_frame.get(target, [])
            key_of = {trk.id: j for j, (trk, _) in enumerate(keys)}
            queries = [(row, key_of[trk.id]) for trk, row in by_frame[t]
                       if trk.id in key_of]
            if len(keys) < 2 or not queries:
                continue
            rows, positives = (np.array(col) for col in zip(*queries))
            step_losses, grad = info_nce_batch(
                emb[rows], raw[rows], emb[[row for _, row in keys]], positives,
                embedder.weights)
            losses.extend(step_losses.tolist())
            embedder.weights -= lr * grad / len(rows)
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    return embedder, epoch_losses


class TestEpochColumns:
    """Training reads each epoch's pseudo-tracklets as `EpochColumns`; these
    check it against the per-object loop and draw it replaced."""

    SCENES = {"default7": (ScenarioConfig(seed=7), {}),
              "default11": (ScenarioConfig(seed=11), {}),
              "dense": (ScenarioConfig(num_objects=30, dropout=0.3, num_frames=80),
                        {"lr": 1e-2})}

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    @pytest.mark.parametrize("scene", SCENES)
    def test_training_equals_per_object_reference(self, scene, mode):
        """The same weight bytes and losses as the reference loop, run on
        this host."""
        scenario, train = self.SCENES[scene]
        frames, _ = generate(scenario)
        cfg = TrainConfig(epochs=3, anchor_sampling=mode, **train)
        embedder, losses = train_embedder(frames, cfg)
        want_embedder, want_losses = reference_train_embedder(frames, cfg)
        assert embedder.weights.tobytes() == want_embedder.weights.tobytes()
        assert [x.hex() for x in losses] == [x.hex() for x in want_losses]

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    def test_column_draw_equals_draw_target(self, monkeypatch, mode):
        """At every step of one seeded epoch, the column draw picks the
        anchor and target that `draw_target` picks on the tracklets present
        at the frame, from the epoch's `state.all_tracklets()`, with the
        same weights, and leaves the generator in the same state."""
        frames, _ = generate(ScenarioConfig(seed=7))
        cfg = TrainConfig(epochs=1, anchor_sampling=mode)
        states, drawn, weights = [], [], []
        track, sample = contrastive.track_sequence, contrastive.sample
        monkeypatch.setattr(contrastive, "track_sequence",
                            lambda fr: states.append(track(fr)) or states[-1])
        monkeypatch.setattr(contrastive, "sample",
                            lambda w, rng: weights.append((w.keys, w.probs)) or sample(w, rng))
        draw = contrastive.EpochColumns.draw

        def checked_draw(columns, present, frame, rng, cfg):
            tracklets = states[-1].all_tracklets()
            eligible = [trk for trk in tracklets
                        if trk.records[0].frame < frame and trk.box_at(frame) is not None]
            assert [trk.id for trk in eligible] == (present + 1).tolist()
            tracklet_rng = copy.deepcopy(rng)
            weights.clear()
            anchor, target = draw_target(eligible, frame, tracklet_rng, cfg)
            want = weights[:]
            weights.clear()
            got = draw(columns, present, frame, rng, cfg)
            assert got == (anchor.id - 1, target)
            assert rng.bit_generator.state == tracklet_rng.bit_generator.state
            if mode == "uncertainty":
                anchor_weights, target_weights = weights
                # keyed by track index here, by track id there
                assert ([k + 1 for k in anchor_weights[0]], anchor_weights[1]) == want[0]
                assert target_weights == want[1]
            else:
                assert weights == want == []
            drawn.append(got)
            return got

        monkeypatch.setattr(contrastive.EpochColumns, "draw", checked_draw)
        train_embedder(frames, cfg)
        assert len(states) == 1
        assert len(drawn) == cfg.steps_per_epoch
        assert len(set(drawn)) > 1

    def test_training_builds_no_decision_objects(self, monkeypatch):
        """Training reads the decision table only: no log, record or
        tracklet is made, and the result is the same."""
        frames, _ = generate(ScenarioConfig(num_frames=60, seed=7))
        cfg = TrainConfig(epochs=2)
        want_embedder, want_losses = train_embedder(frames, cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("training built a decision object")

        with monkeypatch.context() as mp:
            for module in (tracker, contrastive):
                for name in ("TrackRecord", "Tracklet"):
                    if hasattr(module, name):
                        mp.setattr(module, name, forbidden)
            mp.setattr(tracker.TrackerState, "log", forbidden)
            embedder, losses = train_embedder(frames, cfg)
        assert embedder.weights.tobytes() == want_embedder.weights.tobytes()
        assert losses == want_losses


def presence_state(patterns, n_frames=30):
    """Tracker state over a hand-built sequence: object k, in the order of
    `patterns`, has a detection at each of the frames `patterns[k]`, with
    embedding e_k and a box of its own far from the others', so that it
    forms one track. Frame 1's objects are born first, in this order."""
    frames = [[] for _ in range(n_frames)]
    for k, present in enumerate(patterns):
        for f in present:
            frames[f - 1].append((k, f))
    dets = [[Detection(BoundingBox(100.0 * k + f, 50.0, 4.0, 3.0), 0.9, np.eye(len(patterns))[k])
             for k, f in sorted(objects)]
            for objects in frames]
    return track_sequence(dets)


def frames_of(state):
    return {t.id: [r.frame for r in t.records] for t in state.all_tracklets()}


class TestDrawPlan:
    FRAME = 30
    LAGGED = list(range(1, 31))            # history in the lag window
    EARLY = [1, 2, 3, 4, 5, 30]            # history only before it
    BORN = [30]                            # born at FRAME
    ABSENT = list(range(1, 11))            # absent at FRAME

    def state(self):
        state = presence_state([self.LAGGED, self.EARLY, self.ABSENT, self.BORN])
        # ids follow birth order: the track born at FRAME is made last
        assert frames_of(state) == {1: self.LAGGED, 2: self.EARLY, 3: self.ABSENT,
                                    4: self.BORN}
        return state

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    def test_anchor_has_history_and_target_respects_lag(self, mode):
        cfg = TrainConfig(anchor_sampling=mode)
        state = self.state()
        tracks = frames_of(state)
        anchors = set()
        for seed in range(200):
            plan = draw_plan(state, self.FRAME, np.random.default_rng(seed), cfg)
            anchors.add(plan.source_track_id)
            past = [f for f in tracks[plan.source_track_id] if f < self.FRAME]
            assert plan.target_frame in past
            if any(f >= self.FRAME - MAX_LAG for f in past):
                assert plan.target_frame >= self.FRAME - MAX_LAG
        assert anchors == {1, 2}

    def test_no_anchor_with_history(self):
        state = presence_state([self.BORN])
        assert frames_of(state) == {1: self.BORN}
        with pytest.raises(NoCandidates):
            draw_plan(state, self.FRAME, np.random.default_rng(0), TrainConfig())

    def test_absent_tracklets_excluded(self):
        """A track with history but no record at the frame is never the
        anchor, under either sampling."""
        state = presence_state([[1, 30], list(range(1, 30))])
        assert frames_of(state) == {1: [1, 30], 2: list(range(1, 30))}
        for mode in ("uncertainty", "random"):
            for seed in range(50):
                plan = draw_plan(state, self.FRAME, np.random.default_rng(seed),
                                 TrainConfig(anchor_sampling=mode))
                assert plan.source_track_id == 1

    def test_no_candidates(self):
        state = presence_state([list(range(1, 30))])   # history, but no record at FRAME
        assert frames_of(state) == {1: list(range(1, 30))}
        with pytest.raises(NoCandidates):
            draw_plan(state, self.FRAME, np.random.default_rng(0), TrainConfig())

    @pytest.mark.parametrize("frame", [-1, 0, 1, 31])
    def test_frame_not_stepped_has_no_candidates(self, frame):
        """A frame the state did not step, or frame 1, which has no frame
        before it, has no candidates, with the same message."""
        with pytest.raises(NoCandidates, match=f"before frame {frame}$"):
            draw_plan(self.state(), frame, np.random.default_rng(0), TrainConfig())

    def test_frames_past_the_count_stepped(self):
        """A state stepped at every other frame has candidates up to its last
        frame, not only up to the number of frames it stepped."""
        state = TrackerState(TrackerConfig())
        for frame in (1, 3, 5, 7, 9):
            step(state, frame, [Detection(BoundingBox(100.0 * k, 50.0, 4.0, 3.0), 0.9,
                                          np.eye(2)[k]) for k in range(2)])
        columns = EpochColumns.from_state(state)
        for frame in (3, 5, 7, 9):
            assert columns.present(frame).tolist() == [0, 1]
        for frame in (2, 4, 6, 8):
            assert columns.present(frame).tolist() == []
        plan = draw_plan(state, 9, np.random.default_rng(0), TrainConfig())
        assert plan.source_track_id in (1, 2) and plan.target_frame in (1, 3, 5, 7)

    def test_empty_table_has_no_candidates(self):
        state = presence_state([])
        assert state.made == 0 and state.frame == self.FRAME
        with pytest.raises(NoCandidates, match=f"before frame {self.FRAME}$"):
            draw_plan(state, self.FRAME, np.random.default_rng(0), TrainConfig())

    @pytest.mark.parametrize("jitter", [None, 0.0, 2.5])
    def test_jitter_accepted(self, jitter):
        plan = draw_plan(self.state(), self.FRAME, np.random.default_rng(0),
                         TrainConfig(), jitter)
        assert plan.source_track_id in (1, 2)

    @pytest.mark.parametrize("jitter", [math.inf, math.nan, -1.0])
    def test_bad_jitter_rejected(self, jitter):
        with pytest.raises(InvalidConfig, match="jitter"):
            draw_plan(self.state(), self.FRAME, np.random.default_rng(0),
                      TrainConfig(), jitter)

    @pytest.mark.parametrize("jitter", [None, 0.0, 2.5])
    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    def test_draw_target_keeps_plan_stream(self, mode, jitter):
        """draw_plan leaves the generator where the column draw plus the
        jitter advance that training makes leaves it, with the same anchor
        and target, which `draw_target` picks too. A zero jitter draws
        nothing, so that plan's generator is where the column draw alone
        leaves it."""
        cfg = TrainConfig(anchor_sampling=mode)
        state = self.state()
        columns = EpochColumns.from_state(state)
        present = columns.present(self.FRAME)
        eligible = state.all_tracklets()[:2]   # the tracks with a record at and before FRAME
        for seed in range(50):
            plan_rng, train_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            plan = draw_plan(state, self.FRAME, plan_rng, cfg, jitter)
            anchor, target = columns.draw(present, self.FRAME, train_rng, cfg)
            assert (anchor + 1, target) == (plan.source_track_id, plan.target_frame)
            trk, want = draw_target(eligible, self.FRAME, np.random.default_rng(seed), cfg)
            assert (trk.id, want) == (anchor + 1, target)
            if jitter == 0:
                assert train_rng.bit_generator.state == plan_rng.bit_generator.state
            train_rng.random(8)  # as train_embedder does
            if jitter != 0:
                assert train_rng.bit_generator.state == plan_rng.bit_generator.state

    def test_target_weights_summed_left_to_right(self, monkeypatch):
        """The target weights are each p over the left-to-right sum of the
        window's p. The window is one where a compensated sum, the builtin
        `sum` from Python 3.12, rounds differently: the first of a seeded
        series of windows that does so on the running host, since the
        window's bits follow the host's `np.exp` kernel."""
        def compensated(xs):  # Neumaier's, as the 3.12 builtin sums floats
            s = c = 0.0
            for x in xs:
                t = s + x
                c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
                s = t
            return s + c

        frame = 11

        def window(seed):
            deltas = np.random.default_rng(seed).normal(size=frame - 1)
            recs = [TrackRecord(frame=f, det_index=0, box=BoundingBox(f, 5.0, 4.0, 3.0),
                                embedding=np.array([1.0, 0.0]), delta=float(d))
                    for f, d in zip(range(1, frame + 1), list(deltas) + [0.0])]
            trk = Tracklet(1, recs[0])
            for rec in recs[1:]:
                trk.append(rec)
            return trk, target_anchor_weights(trk, frame).probabilities()

        for seed in range(200):
            trk, ps = window(seed)
            if compensated(ps) != reduce(operator.add, ps):
                break
        assert len(ps) == MAX_LAG                      # the whole history is the window
        assert compensated(ps) != reduce(operator.add, ps)

        seen = []
        def recording_sample(weights, rng):
            seen.append(weights)
            return weights.keys[0]
        monkeypatch.setattr(contrastive, "sample", recording_sample)
        draw_target([trk], frame, np.random.default_rng(0), TrainConfig())
        total = reduce(operator.add, ps)
        assert seen[-1].probabilities() == [p / total for p in ps]
