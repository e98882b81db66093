"""Tests for file formats and the command-line interface."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uatrack
from uatrack import formats
from uatrack.contrastive import LinearEmbedder
from uatrack.errors import (DuplicateEmbedding, InvalidConfig, IoFailure,
                            MissingEmbedding, NonPositiveSize, ParseError)
from uatrack.metrics import id_switches, pseudo_accuracy
from uatrack.simulator import GroundTruthRecord, ScenarioConfig, generate
from uatrack.tracker import TrackerConfig, track_sequence


def small_bundle(tmp_path, cfg=None):
    cfg = cfg or ScenarioConfig(num_objects=4, num_frames=20, seed=3)
    frames, gt = generate(cfg)
    indexed = [(i + 1, dets) for i, dets in enumerate(frames)]
    formats.write_detections(indexed, tmp_path / "det.txt")
    formats.write_vectors(indexed, tmp_path / "emb.csv", "embedding")
    formats.write_vectors(indexed, tmp_path / "raw.csv", "raw")
    formats.write_ground_truth(gt, tmp_path / "gt.txt")
    return indexed, gt


class TestDetectionsRoundtrip:
    def test_boxes_and_confidence_survive(self, tmp_path):
        indexed, _ = small_bundle(tmp_path)
        back = formats.read_detections(tmp_path / "det.txt")
        assert len(back) == len(indexed)
        for (fa, da), (fb, db) in zip(indexed, back):
            assert fa == fb and len(da) == len(db)
            for a, b in zip(da, db):
                assert b.box.cx == pytest.approx(a.box.cx, abs=1e-5)
                assert b.box.w == pytest.approx(a.box.w, abs=1e-5)
                assert b.confidence == pytest.approx(a.confidence, abs=1e-5)

    def test_empty_frames_preserved(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n3,-1,0,0,5,5,0.9,-1,-1,-1\n")
        back = formats.read_detections(p)
        assert [f for f, _ in back] == [1, 2, 3]
        assert [len(d) for _, d in back] == [1, 0, 1]

    def test_nonpositive_size_rejected(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,0,5,0.9,-1,-1,-1\n")
        with pytest.raises(NonPositiveSize):
            formats.read_detections(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\nnot,a,line\n")
        with pytest.raises(ParseError, match="line 2"):
            formats.read_detections(p)


class TestEmbeddings:
    def test_roundtrip(self, tmp_path):
        indexed, _ = small_bundle(tmp_path)
        frames = formats.read_detections(tmp_path / "det.txt")
        frames, warned = formats.read_embeddings(tmp_path / "emb.csv", frames)
        assert warned == 0
        for (_, da), (_, db) in zip(indexed, frames):
            for a, b in zip(da, db):
                assert np.allclose(a.embedding, b.embedding, atol=1e-8)

    def test_unnormalized_rows_are_fixed_and_counted(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n")
        e = tmp_path / "emb.csv"
        e.write_text("1,0,3.0,4.0\n")
        frames = formats.read_detections(p)
        frames, warned = formats.read_embeddings(e, frames)
        assert warned == 1
        assert np.allclose(frames[0][1][0].embedding, [0.6, 0.8])

    def test_missing_embedding_raises(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n")
        e = tmp_path / "emb.csv"
        e.write_text("")
        with pytest.raises(MissingEmbedding):
            formats.read_embeddings(e, formats.read_detections(p))

    def test_orphan_embedding_raises(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n")
        e = tmp_path / "emb.csv"
        e.write_text("1,0,1.0,0.0\n2,0,1.0,0.0\n")
        with pytest.raises(MissingEmbedding):
            formats.read_embeddings(e, formats.read_detections(p))

    def test_duplicate_embedding_raises(self, tmp_path):
        e = tmp_path / "emb.csv"
        e.write_text("1,0,1.0,0.0\n1,0,0.0,1.0\n")
        with pytest.raises(DuplicateEmbedding):
            formats._read_vectors(e, "embedding")


class TestGroundTruthAndLog:
    def test_gt_roundtrip(self, tmp_path):
        gt = [GroundTruthRecord(1, 0, 4), GroundTruthRecord(2, 1, 3)]
        formats.write_ground_truth(gt, tmp_path / "gt.txt")
        assert formats.read_ground_truth(tmp_path / "gt.txt") == gt

    def test_log_roundtrip(self, tmp_path):
        indexed, _ = small_bundle(tmp_path)
        _, log = track_sequence(indexed, TrackerConfig())
        formats.write_log(log, tmp_path / "log.txt")
        back = formats.read_log(tmp_path / "log.txt")
        assert len(back) == len(log)
        for a, b in zip(log, back):
            assert (a.frame, a.det_index, a.track_id, a.stage) == \
                   (b.frame, b.det_index, b.track_id, b.stage)
            assert b.delta == pytest.approx(a.delta, abs=1e-6)

    def test_log_unknown_stage_rejected(self, tmp_path):
        p = tmp_path / "log.txt"
        p.write_text("1,0,1,0,0,0,0,0,0\n2,0,1,0.9,0.1,0.2,1.3,-1.1,4\n")
        with pytest.raises(ParseError, match="line 2"):
            formats.read_log(p)

    def test_weights_roundtrip_exact(self, tmp_path):
        e = LinearEmbedder.init_random(8, 4, np.random.default_rng(13))
        formats.write_weights(e, tmp_path / "w.txt")
        back = formats.read_weights(tmp_path / "w.txt")
        assert np.array_equal(back.weights, e.weights)

    @pytest.mark.parametrize("text,line", [("a b\n", "line 1"),
                                           ("1 2\n1 x\n", "line 2")],
                             ids=["header", "value"])
    def test_weights_non_numeric_rejected(self, tmp_path, text, line):
        p = tmp_path / "w.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=line):
            formats.read_weights(p)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            formats.atomic_write(tmp_path / "out.txt", ["x"])
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode)
        assert mode == 0o666 & ~umask

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "target").mkdir()
        with pytest.raises(IoFailure):
            formats.atomic_write(tmp_path / "target", ["x"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


class TestScenarioConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(num_objects=5, num_frames=33, seed=12,
                             dropout=0.1, arena=(320.0, 240.0))
        formats.write_scenario_config(cfg, tmp_path / "c.txt")
        assert formats.parse_scenario_config(tmp_path / "c.txt") == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# a comment\n\nnum_objects = 3  # trailing\nseed = 1\n")
        cfg = formats.parse_scenario_config(p)
        assert cfg.num_objects == 3 and cfg.seed == 1

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("bogus = 1\n")
        with pytest.raises(InvalidConfig):
            formats.parse_scenario_config(p)


def run_cli(*args, cwd=None):
    # The directory holding the imported ``uatrack`` goes first on the
    # child's PYTHONPATH, made absolute: a relative entry inherited from
    # the parent would resolve against ``cwd`` and miss the package.
    env = dict(os.environ)
    pkg_root = str(Path(uatrack.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + rest if rest else "")
    return subprocess.run([sys.executable, "-m", "uatrack.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def assert_usage_error(proc):
    assert proc.returncode == 1, proc.stderr
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "No module named" not in proc.stderr


class TestCli:
    def test_usage_error_exits_1(self):
        proc = run_cli("track")  # missing required arguments
        assert_usage_error(proc)

    def test_unknown_command_exits_1(self):
        proc = run_cli("frobnicate")
        assert_usage_error(proc)
        assert "frobnicate" in proc.stderr

    def test_data_error_exits_2(self, tmp_path):
        proc = run_cli("track", "--dets", "missing.txt", "--embs", "m.csv",
                       "--out", "o.txt", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "missing.txt" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "det.txt"
        bad.write_text("garbage\n")
        proc = run_cli("track", "--dets", str(bad), "--embs", str(bad),
                       "--out", str(tmp_path / "o.txt"))
        assert proc.returncode == 2, proc.stderr

    def test_nonfinite_embedding_exits_2(self, tmp_path):
        (tmp_path / "det.txt").write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n")
        (tmp_path / "emb.csv").write_text("1,0,nan,1.0\n")
        proc = run_cli("track", "--dets", str(tmp_path / "det.txt"),
                       "--embs", str(tmp_path / "emb.csv"),
                       "--out", str(tmp_path / "o.txt"))
        assert proc.returncode == 2, proc.stderr
        assert "line 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_default_workflow_eval_matches_tracker(self, tmp_path):
        sim = tmp_path / "sim"
        proc = run_cli("simulate", "--out", str(sim))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("track", "--dets", str(sim / "det.txt"),
                       "--embs", str(sim / "emb.csv"), "--out", str(tmp_path / "res.txt"),
                       "--log", str(tmp_path / "log.txt"), "--utl", "on")
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("eval", "--results", str(tmp_path / "res.txt"),
                       "--gt", str(sim / "gt.txt"), "--log", str(tmp_path / "log.txt"),
                       "--report", str(tmp_path / "report.txt"))
        assert proc.returncode == 0, proc.stderr
        # the same scene, tracked in memory from the bundle the CLI read
        frames = formats.read_embeddings(sim / "emb.csv",
                                         formats.read_detections(sim / "det.txt"))[0]
        tracklets, _ = track_sequence(frames, TrackerConfig())
        gt = formats.read_ground_truth(sim / "gt.txt")
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert report[0] == f"id_switches: {id_switches(tracklets, gt)}"
        curve = pseudo_accuracy(tracklets, gt, max_age=100)
        assert [line for line in report if line.startswith("pseudo_accuracy")] == \
            [f"pseudo_accuracy {s}: {acc:.6f}" for s, acc in curve.points]

    def test_full_pipeline_exit_codes(self, tmp_path):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text("num_objects = 4\nnum_frames = 20\nseed = 3\n")
        proc = run_cli("simulate", "--config", str(cfgp),
                       "--out", str(tmp_path / "sim"))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("track", "--dets", str(tmp_path / "sim" / "det.txt"),
                       "--embs", str(tmp_path / "sim" / "emb.csv"),
                       "--out", str(tmp_path / "res.txt"),
                       "--log", str(tmp_path / "log.txt"))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("eval", "--results", str(tmp_path / "res.txt"),
                       "--gt", str(tmp_path / "sim" / "gt.txt"),
                       "--log", str(tmp_path / "log.txt"),
                       "--report", str(tmp_path / "report.txt"))
        assert proc.returncode == 0, proc.stderr
        assert "wrong_total" in (tmp_path / "report.txt").read_text()
        proc = run_cli("stats", "--log", str(tmp_path / "log.txt"),
                       "--gt", str(tmp_path / "sim" / "gt.txt"))
        assert proc.returncode == 0, proc.stderr
        assert "correct_certain_rate" in proc.stdout

    def test_augment_default_bundle_draws_anchor_with_history(self, tmp_path):
        sim = tmp_path / "sim"
        proc = run_cli("simulate", "--out", str(sim))
        assert proc.returncode == 0, proc.stderr
        # track 13 is born at frame 85; with this seed, a draw that admits
        # anchors without history picks it
        proc = run_cli("augment", "--bundle", str(sim), "--frame", "85", "--seed", "10")
        assert proc.returncode == 0, proc.stderr
        target = int(proc.stdout.split("target_frame: ")[1].split()[0])
        assert 75 <= target < 85

    def test_augment_without_candidates_exits_2(self, tmp_path):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text("num_objects = 4\nnum_frames = 20\nseed = 3\n")
        run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
        proc = run_cli("augment", "--bundle", str(tmp_path / "sim"),
                       "--frame", "1", "--seed", "0")
        assert proc.returncode == 2, proc.stderr
        assert "frame 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_augment_prints_plan(self, tmp_path):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text("num_objects = 4\nnum_frames = 20\nseed = 3\n")
        run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
        proc = run_cli("augment", "--bundle", str(tmp_path / "sim"),
                       "--frame", "10", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert "transform:" in proc.stdout
