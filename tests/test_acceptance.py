"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Each test prints `criterion N: PASS|FAIL -- <summary>` before asserting, so a
`pytest -s` run shows the full scoreboard even on partial failure.
"""

import filecmp
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from uatrack.assignment import brute_force_max, hungarian_max
from uatrack.augment import build_plan, source_anchor_weights
from uatrack.contrastive import (ContrastiveBatch, LinearEmbedder, TrainConfig,
                                 info_nce, info_nce_grad, train_embedder)
from uatrack.geometry import AffineTransform, BoundingBox, solve_affine
from uatrack.metrics import (id_switches, pseudo_accuracy, similarity_delta,
                             uncertainty_separation)
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import (TrackerConfig, Tracklet, TrackRecord,
                             track_sequence)
from uatrack.uncertainty import (UncertaintyMargins, adaptive_threshold,
                                 association_risk, association_uncertainty,
                                 tracklet_uncertainty)

MARGINS = UncertaintyMargins()
ABLATION_SEEDS = [7, 11, 23, 42, 101, 2024]


def verdict(num: int, ok: bool, summary: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {summary}")
    assert ok, f"criterion {num}: {summary}"


@pytest.fixture(scope="module")
def default_scenario():
    cfg = ScenarioConfig()
    frames, gt = generate(cfg)
    return cfg, frames, gt


@pytest.fixture(scope="module")
def default_runs(default_scenario):
    _, frames, gt = default_scenario
    on = track_sequence(frames, TrackerConfig(utl_enabled=True))
    off = track_sequence(frames, TrackerConfig(utl_enabled=False))
    return gt, (on.all_tracklets(), on.log()), (off.all_tracklets(), off.log())


def test_criterion_1_formula_exactness():
    checks = [
        ("sigma(0.5,0.05)", association_risk(0.5, 0.05), 0.7444405),
        ("gamma(0.5)", adaptive_threshold(0.5, MARGINS), 1.2909842),
        ("delta(0.4,0.38)", association_uncertainty(0.4, 0.38).delta, 0.2703964),
        ("delta(0.9,0.8)", association_uncertainty(0.9, 0.8).delta, -0.8754688),
        ("Omega([0,ln2,ln3])",
         tracklet_uncertainty([0.0, math.log(2), math.log(3)]), 2.0),
        ("info_nce equal logits",
         info_nce(ContrastiveBatch(query=np.array([1.0, 0.0]),
                                   positive=np.array([1.0, 0.0]),
                                   negatives=[np.array([1.0, 0.0])])),
         math.log(2)),
    ]
    # two-tracklet anchor weights with Omega = (1, 1 + ln 3)
    def one_track(tid, delta):
        box = BoundingBox(0.0, 0.0, 2.0, 2.0)
        emb = np.array([1.0, 0.0])
        t = Tracklet(tid, TrackRecord(1, 0, box, emb, delta))
        t.append(TrackRecord(2, 0, box, emb, delta))
        return t
    w = source_anchor_weights(
        [one_track(1, 0.0), one_track(2, math.log(1.0 + math.log(3.0)))], 2)
    checks.append(("anchor weight 1", w.probabilities()[0], 0.75))
    checks.append(("anchor weight 2", w.probabilities()[1], 0.25))
    worst = max(abs(got - want) for _, got, want in checks)
    verdict(1, worst < 1e-6,
            f"{len(checks)} worked values matched, max abs error {worst:.2e}")


def test_criterion_2_sign_theorem():
    grid = np.linspace(0.01, 0.99, 200)
    violations = 0
    deltas = np.empty((200, 200))
    for i, c1 in enumerate(grid):
        for j, c2 in enumerate(grid):
            v = association_uncertainty(float(c1), float(c2), MARGINS)
            deltas[i, j] = v.delta
            low_sim = c1 < MARGINS.m1
            close_runner = c2 > c1 - MARGINS.m2
            if low_sim and close_runner and not v.delta > 0:
                violations += 1
            if not low_sim and not close_runner and not v.delta <= 0:
                violations += 1
    mono_c1 = bool(np.all(np.diff(deltas, axis=0) < 1e-12))
    mono_c2 = bool(np.all(np.diff(deltas, axis=1) > -1e-12))
    verdict(2, violations == 0 and mono_c1 and mono_c2,
            f"{violations} sign violations on 200x200 grid; "
            f"monotone in c1 (dec): {mono_c1}, in c2 (inc): {mono_c2}")


def test_criterion_3_assignment_optimality():
    rng = np.random.default_rng(17)
    def total(matrix, matching):
        return sum(matrix[r, c] for r, c in matching)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        if total(m, hungarian_max(m)) != total(m, brute_force_max(m)):
            mismatches += 1
    for _ in range(200):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 8))
        m = rng.uniform(-1.0, 1.0, size=(r, c))
        if total(m, hungarian_max(m)) != total(m, brute_force_max(m)):
            mismatches += 1
    verdict(3, mismatches == 0,
            f"hungarian == brute force on 1000 square + 200 rectangular "
            f"matrices, {mismatches} mismatches")


def test_criterion_4_affine_round_trip():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(1000):
        while True:
            t = AffineTransform(*rng.normal(scale=2.0, size=6))
            if abs(t.det()) > 0.1:
                break
        src = rng.uniform(-50.0, 50.0, size=(6, 2))
        recovered = solve_affine(src, t.apply_points(src))
        err = np.max(np.abs(recovered.as_matrix() - t.as_matrix()))
        worst = max(worst, float(err))
    # zero-jitter plans must map the source anchor box exactly onto the target
    box_worst = 0.0
    for k in range(50):
        b1 = BoundingBox(*rng.uniform(5.0, 40.0, size=4))
        b2 = BoundingBox(*rng.uniform(5.0, 40.0, size=4))
        emb = np.array([1.0, 0.0])
        trk = Tracklet(1, TrackRecord(1, 0, b2, emb, 0.0))
        trk.append(TrackRecord(2, 0, b1, emb, 0.0))
        plan = build_plan(trk, 2, 1, 0.0, rng)
        err = np.max(np.abs(plan.transform.apply_points(b1.corners())
                            - b2.corners()))
        box_worst = max(box_worst, float(err))
    verdict(4, worst < 1e-6 and box_worst < 1e-9,
            f"1000 affine recoveries, max error {worst:.2e}; 50 zero-jitter "
            f"plans, max corner error {box_worst:.2e}")


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(41)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(3, 9))
        n_neg = int(rng.integers(1, 6))
        batch = ContrastiveBatch(query=rng.normal(size=dim),
                                 positive=rng.normal(size=dim),
                                 negatives=[rng.normal(size=dim)
                                            for _ in range(n_neg)],
                                 temperature=float(rng.uniform(0.05, 1.0)))
        analytic = info_nce_grad(batch)
        numeric = np.empty(dim)
        for i in range(dim):
            bump = np.zeros(dim)
            bump[i] = eps
            hi = info_nce(replace(batch, query=batch.query + bump))
            lo = info_nce(replace(batch, query=batch.query - bump))
            numeric[i] = (hi - lo) / (2 * eps)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(rel))
    verdict(5, worst < 1e-4,
            f"100 random batches, worst relative gradient error {worst:.2e}")


def test_criterion_6_uncertainty_separation(default_runs):
    gt, (_, on_log), _ = default_runs
    rep = uncertainty_separation(on_log, gt)
    ok = rep.wrong_uncertain_rate >= 0.5 and rep.correct_certain_rate >= 0.9
    verdict(6, ok,
            f"wrong flagged uncertain {rep.wrong_uncertain_rate:.3f} "
            f"({rep.wrong_flagged_uncertain}/{rep.wrong_total}) >= 0.5; "
            f"correct flagged certain {rep.correct_certain_rate:.3f} >= 0.9")


def test_criterion_7_pseudo_accuracy(default_runs):
    gt, (on_tracks, _), (off_tracks, _) = default_runs
    acc_on = pseudo_accuracy(on_tracks, gt, 100).at(100)
    acc_off = pseudo_accuracy(off_tracks, gt, 100).at(100)
    ok = acc_on >= 0.85 and acc_on >= acc_off + 0.03
    verdict(7, ok,
            f"accuracy at age 100: {acc_on:.3f} (enabled) vs {acc_off:.3f} "
            f"(disabled); need >= 0.85 and a >= 0.03 lead")


def test_criterion_8_id_switch_ablation():
    wins = 0
    per_seed = []
    for seed in ABLATION_SEEDS:
        frames, gt = generate(replace(ScenarioConfig(), seed=seed))
        on_tracks = track_sequence(frames, TrackerConfig(utl_enabled=True)).all_tracklets()
        off_tracks = track_sequence(frames, TrackerConfig(utl_enabled=False)).all_tracklets()
        ids_on, ids_off = id_switches(on_tracks, gt), id_switches(off_tracks, gt)
        per_seed.append(f"seed {seed}: {ids_on} vs {ids_off}")
        if ids_on <= ids_off:
            wins += 1
    verdict(8, wins >= 4,
            f"enabled <= disabled id switches on {wins}/6 seeds "
            f"({'; '.join(per_seed)})")


def test_criterion_9_training_improves_separation(default_scenario):
    cfg, frames, gt = default_scenario
    start = time.monotonic()
    train_cfg = TrainConfig(epochs=20)
    untrained = LinearEmbedder.init_random(cfg.raw_dim, train_cfg.embed_dim,
                                           np.random.default_rng(train_cfg.seed))
    trained, _ = train_embedder(frames, train_cfg)
    random_anchor, _ = train_embedder(
        frames, replace(train_cfg, anchor_sampling="random"))
    base = similarity_delta(frames, gt, untrained)
    unc = similarity_delta(frames, gt, trained)
    rnd = similarity_delta(frames, gt, random_anchor)
    elapsed = time.monotonic() - start
    ok = (unc.mean > base.mean and unc.fraction_positive > base.fraction_positive
          and unc.mean >= rnd.mean and elapsed < 300.0)
    verdict(9, ok,
            f"mean delta {base.mean:.4f} -> {unc.mean:.4f} "
            f"(random anchors {rnd.mean:.4f}); fraction positive "
            f"{base.fraction_positive:.3f} -> {unc.fraction_positive:.3f}; "
            f"{elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "uatrack.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    cfgp = tmp_path / "cfg.txt"
    cfgp.write_text("num_objects = 6\nnum_frames = 40\nseed = 5\n")
    for run in ("a", "b"):
        d = tmp_path / run
        cli("simulate", "--config", str(cfgp), "--out", str(d))
        cli("track", "--dets", str(d / "det.txt"), "--embs", str(d / "emb.csv"),
            "--out", str(d / "res.txt"), "--log", str(d / "log.txt"))
        cli("train", "--bundle", str(d), "--epochs", "2", "--lr", "1e-3",
            "--seed", "0", "--out", str(d / "weights.txt"))
    names = ["det.txt", "emb.csv", "raw.csv", "gt.txt", "res.txt",
             "log.txt", "weights.txt"]
    same, diff, missing = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                           names, shallow=False)
    verdict(10, not diff and not missing,
            f"{len(same)}/{len(names)} pipeline outputs byte-identical "
            f"across reruns" + (f"; differing: {diff + missing}" if diff or missing else ""))
