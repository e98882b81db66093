"""Tests for file formats and the command-line interface."""

import contextlib
import hashlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import uatrack
from uatrack import cli, formats, tracker
from uatrack.contrastive import LinearEmbedder
from uatrack.errors import (DegenerateBox, DuplicateEmbedding, InvalidConfig,
                            IoFailure, MissingEmbedding, ParseError)
from uatrack.geometry import BoundingBox
from uatrack.metrics import id_switches, pseudo_accuracy
from uatrack.simulator import GroundTruthRecord, ScenarioConfig, generate
from uatrack.tracker import LOG, Detection, TrackerConfig, track_sequence


def small_bundle(tmp_path, cfg=None):
    cfg = cfg or ScenarioConfig(num_objects=4, num_frames=20, seed=3)
    frames, gt = generate(cfg)
    formats.write_detections(frames, tmp_path / "det.txt")
    formats.write_vectors(frames, tmp_path / "emb.csv", "embedding")
    formats.write_vectors(frames, tmp_path / "raw.csv", "raw")
    formats.write_ground_truth(gt, tmp_path / "gt.txt")
    return frames, gt


class TestDetectionsRoundtrip:
    def test_boxes_and_confidence_survive(self, tmp_path):
        frames, _ = small_bundle(tmp_path)
        back = formats.read_detections(tmp_path / "det.txt")
        assert len(back) == len(frames)
        for da, db in zip(frames, back):
            assert len(da) == len(db)
            for a, b in zip(da, db):
                assert (b.frame, b.det_index) == (a.frame, a.det_index)
                assert b.box.cx == pytest.approx(a.box.cx, abs=1e-5)
                assert b.box.w == pytest.approx(a.box.w, abs=1e-5)
                assert b.confidence == pytest.approx(a.confidence, abs=1e-5)

    def test_empty_frames_preserved(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n3,-1,0,0,5,5,0.9,-1,-1,-1\n")
        back = formats.read_detections(p)
        assert [len(d) for d in back] == [1, 0, 1]
        assert [d.frame for dets in back for d in dets] == [1, 3]

    def test_nonpositive_size_rejected(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n\n1,-1,0,0,0,5,0.9,-1,-1,-1\n")
        with pytest.raises(DegenerateBox, match="line 3: non-positive size w=0.0"):
            formats.read_detections(p)

    @pytest.mark.parametrize("fields, error, message", [
        ("0,0,5,-2,0.9", DegenerateBox, "non-positive size w=5.0 h=-2.0"),
        ("nan,0,5,5,0.9", DegenerateBox, "non-finite box"),
        ("0,0,inf,5,0.9", DegenerateBox, "non-finite box"),
        ("0,0,5,5,nan", ParseError, "non-finite value"),
        ("1e308,0,1.7e308,5,0.9", DegenerateBox,
         r"box centre overflows: bb_left=1e\+308 bb_top=0.0 w=1.7e\+308 h=5.0$"),
    ], ids=["negative-h", "nan-left", "inf-w", "nan-conf", "overflowing-centre"])
    def test_bad_box_values_rejected(self, tmp_path, fields, error, message):
        """BoundingBox checks the box, read_detections the confidence; each
        error carries the line number."""
        p = tmp_path / "det.txt"
        p.write_text(f"1,-1,0,0,5,5,0.9,-1,-1,-1\n\n1,-1,{fields},-1,-1,-1\n")
        with pytest.raises(error, match=f"line 3: {message}"):
            formats.read_detections(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\nnot,a,line\n")
        with pytest.raises(ParseError, match="line 2"):
            formats.read_detections(p)


class TestEmbeddings:
    def test_roundtrip(self, tmp_path):
        written, _ = small_bundle(tmp_path)
        frames = formats.read_detections(tmp_path / "det.txt")
        frames, warned = formats.read_embeddings(tmp_path / "emb.csv", frames)
        assert warned == 0
        for da, db in zip(written, frames):
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
        assert np.allclose(frames[0][0].embedding, [0.6, 0.8])

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
        with pytest.raises(DuplicateEmbedding, match="line 2: duplicate"):
            formats._read_vectors(e, "embedding")


class TestGroundTruthAndLog:
    def test_gt_roundtrip(self, tmp_path):
        gt = [GroundTruthRecord(1, 0, 4), GroundTruthRecord(2, 1, 3)]
        formats.write_ground_truth(gt, tmp_path / "gt.txt")
        assert formats.read_ground_truth(tmp_path / "gt.txt") == gt

    def test_log_roundtrip(self, tmp_path):
        frames, _ = small_bundle(tmp_path)
        log = track_sequence(frames, TrackerConfig()).log()
        formats.write_log(log, tmp_path / "log.txt")
        back = formats.read_log(tmp_path / "log.txt")
        assert len(back) == len(log)
        for a, b in zip(log, back):
            assert (a["frame"], a["det_index"], a["track_id"], a["stage"]) == \
                   (b["frame"], b["det_index"], b["track_id"], b["stage"])
            assert b["delta"] == pytest.approx(a["delta"], abs=1e-6)

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


# The per-field writers the `%` templates replaced, kept as their oracle:
# `format(x, ".6f")` per box value or score, `format(v, ".9g")` per vector
# value and `str` per integer, joined with commas.
def _fmt6(x):
    return f"{x:.6f}"


def _reference_detection_lines(frames):
    lines = []
    for dets in frames:
        for d in dets:
            x1, y1, _, _ = d.box.to_xyxy()
            lines.append(",".join([str(d.frame), "-1", _fmt6(x1), _fmt6(y1), _fmt6(d.box.w),
                                   _fmt6(d.box.h), _fmt6(d.confidence), "-1", "-1", "-1"]))
    return lines


def _reference_vector_lines(frames, attr):
    return [",".join([str(d.frame), str(d.det_index)] + [f"{v:.9g}" for v in getattr(d, attr)])
            for dets in frames for d in dets]


def _reference_ground_truth_lines(gt):
    return [f"{g.frame},{g.det_index},{g.true_id}" for g in gt]


def _reference_result_lines(tracklets, frames):
    """One line per tracklet record: its box and its detection's confidence."""
    confidence = {(d.frame, d.det_index): d.confidence for dets in frames for d in dets}
    rows = []
    for trk in tracklets:
        for rec in trk.records:
            x1, y1, _, _ = rec.box.to_xyxy()
            rows.append((rec.frame, trk.id, x1, y1, rec.box.w, rec.box.h,
                         confidence[rec.frame, rec.det_index]))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [",".join([str(f), str(tid), _fmt6(x), _fmt6(y), _fmt6(w), _fmt6(h), _fmt6(c),
                      "-1", "-1", "-1"]) for f, tid, x, y, w, h, c in rows]


def _reference_log_lines(log):
    return [",".join([str(r["frame"]), str(r["det_index"]), str(r["track_id"]),
                      _fmt6(r["c1"]), _fmt6(r["c2"]), _fmt6(r["sigma"]), _fmt6(r["gamma"]),
                      _fmt6(r["delta"]), str(r["stage"])]) for r in log]


def _written(write):
    """The bytes `write(path)` puts in a file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "out.txt")
        write(path)
        return Path(path).read_bytes()


def _text(lines):
    return "".join(line + "\n" for line in lines).encode()


# Floats whose printed form is hard to get right: signed zeros, the smallest
# subnormal, the largest magnitudes, halfway points of the 6th decimal and
# of the 9th significant digit, and any float (nan and inf included).
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 5e-7, 2.5e-6,
                     0.1234565, 1.0000000005, -9.9999999995, 123456789.5]),
    st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6),
    st.builds(lambda k, e: (k + 0.5) * 10.0 ** e,
              st.integers(10**8, 10**9 - 1), st.integers(-330, 298)),
    st.floats())
FINITE = EDGE_FLOATS.filter(math.isfinite)
SIZES = FINITE.map(abs).filter(lambda v: v > 0)
INTS = st.integers(-10, 10**7)
BOXES = st.builds(BoundingBox, FINITE, FINITE, SIZES, SIZES)
VECTORS = st.lists(EDGE_FLOATS, max_size=4).map(lambda v: np.array(v, dtype=float))
DETECTIONS = st.builds(Detection, INTS, INTS, BOXES, EDGE_FLOATS, VECTORS, VECTORS)
FRAMES = st.lists(st.lists(DETECTIONS, max_size=3), max_size=4)   # empty frames included
CONFIDENCES = st.floats(0.6, 1.0) | EDGE_FLOATS   # a birth needs 0.6
ANGLES = st.floats(0.0, 2 * math.pi)   # of a unit 2-D embedding


class TestWritersEqualReference:
    """Each writer formats a line with one `%` template; its bytes must be
    those of the per-field writer it replaced."""

    @given(frames=FRAMES)
    def test_detections_and_vectors(self, frames):
        assert _written(lambda p: formats.write_detections(frames, p)) == _text(
            _reference_detection_lines(frames))
        for attr in ("embedding", "raw"):
            assert _written(lambda p: formats.write_vectors(frames, p, attr)) == _text(
                _reference_vector_lines(frames, attr))

    @given(gt=st.lists(st.builds(GroundTruthRecord, INTS, INTS, INTS), max_size=6))
    def test_ground_truth(self, gt):
        assert _written(lambda p: formats.write_ground_truth(gt, p)) == _text(
            _reference_ground_truth_lines(gt))

    @given(scene=st.lists(st.lists(st.tuples(BOXES, CONFIDENCES, ANGLES), max_size=4),
                          max_size=6),
           utl=st.booleans())
    def test_results(self, scene, utl):
        """The results of a tracked state, every applied row with its
        detection's box and confidence, sorted by (frame, id)."""
        frames = [[Detection(f, i, box, conf, np.array([math.cos(a), math.sin(a)]))
                   for i, (box, conf, a) in enumerate(dets)]
                  for f, dets in enumerate(scene, start=1)]
        with np.errstate(all="ignore"):   # the gate's IoU of the largest boxes overflows
            state = track_sequence(frames, TrackerConfig(utl_enabled=utl))
        assert _written(lambda p: formats.write_results(state, p)) == _text(
            _reference_result_lines(state.all_tracklets(), frames))

    @given(log=st.lists(st.tuples(INTS, INTS, INTS, *[EDGE_FLOATS] * 5, INTS),
                        max_size=6).map(lambda rows: np.array(rows, LOG)))
    def test_log(self, log):
        assert _written(lambda p: formats.write_log(log, p)) == _text(_reference_log_lines(log))


class TestParseLines:
    READERS = {
        "detections": formats.read_detections,
        "vectors": lambda p: formats._read_vectors(p, "embedding"),
        "ground_truth": formats.read_ground_truth,
        "log": formats.read_log,
        "weights": formats.read_weights,
        "scenario_config": formats.parse_scenario_config,
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_undecodable_byte_names_line(self, tmp_path, reader):
        p = tmp_path / "in.txt"
        p.write_bytes(b"\n  \r\n\xff\n")
        with pytest.raises(ParseError, match="line 3: 'utf-8' codec can't decode"):
            self.READERS[reader](p)

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(b"1,0,4\r\n\r\n \t\n2,1,3\r\n")
        assert formats.read_ground_truth(p) == [GroundTruthRecord(1, 0, 4),
                                                GroundTruthRecord(2, 1, 3)]


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

    def test_process_umask_left_alone(self, tmp_path, monkeypatch):
        """The umask is process-wide: setting it, even for a moment, gives a
        file another thread creates in that window the wrong mode."""
        def forbidden(mask):
            raise AssertionError("atomic_write called os.umask")

        old = os.umask(0o027)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(os, "umask", forbidden)
                formats.atomic_write(tmp_path / "out.txt", ["x", "y"])
        finally:
            os.umask(old)
        assert (tmp_path / "out.txt").read_text() == "x\ny\n"
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


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

    def test_written_config_simulates_the_same_bundle(self, tmp_path, capsys):
        """`config.txt` holds the arena at full precision, so simulating
        from it again writes every file of the bundle byte for byte."""
        (tmp_path / "cfg.txt").write_text(
            "arena = 560.1234567 420.5\nnum_objects = 5\nnum_frames = 20\nseed = 3\n")
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main(["simulate", "--config", str(tmp_path / "cfg.txt"),
                         "--out", str(first)]) == 0
        assert cli.main(["simulate", "--config", str(first / "config.txt"),
                         "--out", str(again)]) == 0
        capsys.readouterr()
        assert formats.parse_scenario_config(first / "config.txt").arena == (560.1234567, 420.5)
        names = sorted(p.name for p in first.iterdir())
        assert names == ["config.txt", "det.txt", "emb.csv", "gt.txt", "raw.csv"]
        assert sorted(p.name for p in again.iterdir()) == names
        for name in names:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


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

    def test_K_beyond_intp_exits_2(self, tmp_path):
        """--K indexes intp ring slots: the largest intp runs, one more is a
        data error and not a traceback."""
        small_bundle(tmp_path)
        argv = ["track", "--dets", str(tmp_path / "det.txt"), "--embs",
                str(tmp_path / "emb.csv"), "--out", str(tmp_path / "o.txt"), "--K"]
        proc = run_cli(*argv, str(2**63 - 1))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(*argv, str(2**63))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("uatrack track: K must be in [1, ")
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
        tracklets = track_sequence(frames, TrackerConfig()).all_tracklets()
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

    @pytest.mark.parametrize("case", ["past-last", "zero", "no-birth"])
    def test_augment_without_table_rows_exits_2(self, tmp_path, case):
        """A frame past the bundle's last, frame 0, and a bundle where no
        detection is confident enough to start a track (an empty decision
        table) have no candidates either."""
        frames, _ = small_bundle(tmp_path)   # 20 frames
        if case == "no-birth":
            for dets in frames:
                for d in dets:
                    d.confidence = tracker.DET_CONF_MIN / 2
            formats.write_detections(frames, tmp_path / "det.txt")
            assert track_sequence(formats.read_embeddings(
                tmp_path / "emb.csv", formats.read_detections(tmp_path / "det.txt"))[0]).made == 0
        frame = {"past-last": 21, "zero": 0, "no-birth": 10}[case]
        proc = run_cli("augment", "--bundle", str(tmp_path), "--frame", str(frame),
                       "--seed", "0")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("uatrack augment: no tracklet has records at and before "
                               f"frame {frame}\n")

    def test_augment_prints_plan(self, tmp_path):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text("num_objects = 4\nnum_frames = 20\nseed = 3\n")
        run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
        proc = run_cli("augment", "--bundle", str(tmp_path / "sim"),
                       "--frame", "10", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert "transform:" in proc.stdout

    @pytest.mark.parametrize("jitter", ["inf", "nan", "-1"])
    def test_augment_bad_jitter_exits_2(self, tmp_path, jitter):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text("num_objects = 4\nnum_frames = 20\nseed = 3\n")
        run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
        proc = run_cli("augment", "--bundle", str(tmp_path / "sim"),
                       "--frame", "10", "--seed", "1", f"--jitter={jitter}")
        assert proc.returncode == 2, proc.stderr
        assert "jitter" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_box_exits_2(self, tmp_path):
        (tmp_path / "det.txt").write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n"
                                          "1,-1,0,0,0,5,0.9,-1,-1,-1\n")
        (tmp_path / "emb.csv").write_text("1,0,1,0\n1,1,1,0\n")
        proc = run_cli("track", "--dets", str(tmp_path / "det.txt"),
                       "--embs", str(tmp_path / "emb.csv"), "--out", str(tmp_path / "o.txt"))
        assert proc.returncode == 2
        assert proc.stderr == "uatrack track: line 2: non-positive size w=0.0 h=5.0\n"

    def test_non_utf8_detections_exit_2(self, tmp_path, capsys):
        small_bundle(tmp_path)
        det = tmp_path / "det.txt"
        det.write_bytes(det.read_bytes().replace(b"\n", b"\n\xff", 1))
        code, err = run_main(capsys, "track", "--dets", det, "--embs", tmp_path / "emb.csv",
                             "--out", tmp_path / "o.txt")
        assert code == 2
        assert "line 2: 'utf-8' codec can't decode" in err

    def test_non_utf8_log_exit_2(self, tmp_path, capsys):
        small_bundle(tmp_path)
        log = tmp_path / "log.txt"
        log.write_bytes(b"1,0,1,0,0,0,0,0,0\n2,0,1,0\xe9,0,0,0,0,1\n")
        code, err = run_main(capsys, "stats", "--log", log, "--gt", tmp_path / "gt.txt")
        assert code == 2
        assert "line 2: 'utf-8' codec can't decode" in err

    def test_orphan_raw_feature_row_exit_2(self, tmp_path, capsys):
        small_bundle(tmp_path)
        raw = tmp_path / "raw.csv"
        first = raw.read_text().splitlines()[0].split(",")
        with raw.open("a") as fh:
            fh.write(",".join(["9999", "0"] + first[2:]) + "\n")
        code, err = run_main(capsys, "train", "--bundle", tmp_path, "--epochs", "1",
                             "--lr", "1e-3", "--seed", "0", "--out", tmp_path / "w.txt")
        assert code == 2
        assert "raw feature row (9999, 0) matches no detection" in err
        assert not (tmp_path / "w.txt").exists()

    def test_train_single_frame_exits_2(self, tmp_path):
        (tmp_path / "det.txt").write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n"
                                          "1,-1,100,100,20,20,0.9,-1,-1,-1\n")
        (tmp_path / "raw.csv").write_text("1,0,1,0,0\n1,1,0,1,0\n")
        proc = run_cli("train", "--bundle", str(tmp_path), "--epochs", "1", "--lr", "1e-3",
                       "--seed", "0", "--out", str(tmp_path / "w.txt"))
        assert proc.returncode == 2, proc.stderr
        assert "only 1 frame to train on" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "w.txt").exists()

    def test_train_needs_no_embeddings_file(self, tmp_path, capsys):
        """`train` embeds from raw.csv, so a bundle without emb.csv trains to
        the same weights as the full bundle."""
        small_bundle(tmp_path)
        argv = ["train", "--bundle", tmp_path, "--epochs", "2", "--lr", "1e-3", "--seed", "0"]
        assert run_main(capsys, *argv, "--out", tmp_path / "full.txt") == (0, "")
        (tmp_path / "emb.csv").unlink()
        assert run_main(capsys, *argv, "--out", tmp_path / "no_emb.txt") == (0, "")
        assert (tmp_path / "no_emb.txt").read_bytes() == (tmp_path / "full.txt").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["train", "--epochs", "1", "--lr", "1e-3", "--seed", "-1"],
        ["augment", "--frame", "10", "--seed", "-3"],
        ["simulate"],
    ], ids=["train", "augment", "config"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        small_bundle(tmp_path)
        (tmp_path / "cfg.txt").write_text("num_objects = 4\nseed = -1\n")
        where = (["--config", tmp_path / "cfg.txt", "--out", tmp_path / "sim"]
                 if argv[0] == "simulate" else ["--bundle", tmp_path])
        if argv[0] == "train":
            where += ["--out", tmp_path / "w.txt"]
        code, err = run_main(capsys, *argv, *where)
        assert code == 2
        assert "seed must be >= 0, got -" in err

    @pytest.mark.parametrize("flags,message", [
        (["--lr", "nan", "--epochs", "1"], "lr must be finite and > 0, got nan"),
        (["--lr", "1e-3", "--epochs", "0"], "epochs must be >= 1, got 0"),
        (["--lr", "1e-3", "--epochs", "-1"], "epochs must be >= 1, got -1"),
    ], ids=["lr-nan", "epochs-0", "epochs-neg"])
    def test_bad_train_flag_exit_2(self, tmp_path, capsys, flags, message):
        small_bundle(tmp_path)
        code, err = run_main(capsys, "train", "--bundle", tmp_path, *flags,
                             "--seed", "0", "--out", tmp_path / "w.txt")
        assert code == 2
        assert message in err
        assert not (tmp_path / "w.txt").exists()

    def test_negative_max_age_exit_2(self, tmp_path, capsys):
        frames, _ = small_bundle(tmp_path)
        state = track_sequence(frames, TrackerConfig())
        formats.write_results(state, tmp_path / "results.txt")
        formats.write_log(state.log(), tmp_path / "log.txt")
        code, err = run_main(capsys, "eval", "--results", tmp_path / "results.txt",
                             "--gt", tmp_path / "gt.txt", "--log", tmp_path / "log.txt",
                             "--report", tmp_path / "r.txt", "--max-age", "-5")
        assert code == 2
        assert "max_age must be >= 0, got -5" in err

    def test_eval_prints_whole_report(self, tmp_path, capsys):
        frames, _ = small_bundle(tmp_path)
        state = track_sequence(frames, TrackerConfig())
        formats.write_results(state, tmp_path / "results.txt")
        formats.write_log(state.log(), tmp_path / "log.txt")
        code = cli.main([str(a) for a in (
            "eval", "--results", tmp_path / "results.txt", "--gt", tmp_path / "gt.txt",
            "--log", tmp_path / "log.txt", "--report", tmp_path / "report.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (tmp_path / "report.txt").read_text()
        assert any(line.startswith("pseudo_accuracy") for line in out.splitlines())

    @pytest.mark.parametrize("results", ["utl-off", "detections"])
    def test_eval_results_not_from_log_exit_2(self, tmp_path, capsys, results):
        # at 100 frames the default scene's UTL-on and UTL-off tracks differ
        frames, gt = generate(ScenarioConfig(num_frames=100))
        on_log = track_sequence(frames, TrackerConfig()).log()
        off_state = track_sequence(frames, TrackerConfig(utl_enabled=False))
        formats.write_detections(frames, tmp_path / "det.txt")
        formats.write_results(off_state, tmp_path / "utl-off")
        formats.write_log(on_log, tmp_path / "log.txt")
        formats.write_ground_truth(gt, tmp_path / "gt.txt")
        path = tmp_path / ("utl-off" if results == "utl-off" else "det.txt")
        code, err = run_main(capsys, "eval", "--results", path, "--gt", tmp_path / "gt.txt",
                             "--log", tmp_path / "log.txt", "--report", tmp_path / "r.txt")
        assert code == 2
        assert "rows differ from the log's applied decisions" in err
        assert not (tmp_path / "r.txt").exists()

    def test_track_builds_the_log_only_to_write_it(self, tmp_path, capsys, monkeypatch):
        """`track` without --log writes the same results.txt bytes as with
        it and writes no log; only `track --log` builds the log, `augment`
        never does."""
        small_bundle(tmp_path)
        built = []
        log = tracker.TrackerState.log
        monkeypatch.setattr(tracker.TrackerState, "log",
                            lambda state: built.append(state) or log(state))
        for run, flags in (("with", ["--log", tmp_path / "with" / "log.txt"]),
                           ("without", [])):
            (tmp_path / run).mkdir()
            code, err = run_main(capsys, "track", "--dets", tmp_path / "det.txt",
                                 "--embs", tmp_path / "emb.csv",
                                 "--out", tmp_path / run / "results.txt", *flags)
            assert code == 0, err
        assert len(built) == 1
        assert ((tmp_path / "without" / "results.txt").read_bytes()
                == (tmp_path / "with" / "results.txt").read_bytes())
        assert [p.name for p in (tmp_path / "without").iterdir()] == ["results.txt"]
        code, err = run_main(capsys, "augment", "--bundle", tmp_path, "--frame", "10",
                             "--seed", "1")
        assert code == 0, err
        assert len(built) == 1

    def test_track_builds_no_tracklets(self, tmp_path, capsys, monkeypatch):
        """`track` writes results.txt from the decision table: with and
        without --log it builds no tracklet, and the bytes are those of the
        per-tracklet writer it replaced."""
        small_bundle(tmp_path)
        frames = cli._load_bundle(tmp_path / "det.txt", tmp_path / "emb.csv")
        want = _text(_reference_result_lines(track_sequence(frames).all_tracklets(), frames))

        def forbidden(state):
            raise AssertionError("track built the tracklets")

        monkeypatch.setattr(tracker.TrackerState, "all_tracklets", forbidden)
        for run, flags in (("with", ["--log", tmp_path / "log.txt"]), ("without", [])):
            code, err = run_main(capsys, "track", "--dets", tmp_path / "det.txt",
                                 "--embs", tmp_path / "emb.csv",
                                 "--out", tmp_path / f"{run}.txt", *flags)
            assert code == 0, err
            assert (tmp_path / f"{run}.txt").read_bytes() == want, run

    # A two-frame run: tracks 1 and 2 born on detections of objects 1 and 2,
    # then frame 2's detections, both of object 1.
    TWO_FRAME_GT = "1,0,1\n1,1,2\n2,0,1\n2,1,1\n"
    BIRTHS = "1,0,1,0,0,0,0,0,0\n1,1,2,0,0,0,0,0,0\n"

    def _two_frame_files(self, tmp_path, log, tracks):
        """gt.txt, the given log.txt, and a results.txt with one row per
        (frame, track id) of `tracks`."""
        paths = [tmp_path / name for name in ("gt.txt", "log.txt", "results.txt")]
        for path, text in zip(paths, (self.TWO_FRAME_GT, log, "".join(
                f"{frame},{tid},0,0,1,1,0.9,-1,-1,-1\n" for frame, tid in tracks))):
            path.write_text(text)
        return paths

    @staticmethod
    def _run(capsys, *argv):
        """`cli.main` in-process; returns (exit code, stdout, stderr)."""
        code = cli.main([str(a) for a in argv])
        return (code, *capsys.readouterr())

    def test_log_with_two_applied_rows_of_a_track_in_a_frame(self, tmp_path, capsys):
        """`eval` groups the applied rows into tracklets and rejects the
        second row of track 1 in frame 2; `stats` reads rows, not tracklets,
        and counts both."""
        gt, log, results = self._two_frame_files(
            tmp_path, self.BIRTHS + "2,0,1,0.9,0.1,0.2,1.3,-1.1,1\n" * 2,
            [(1, 1), (1, 2), (2, 1), (2, 1)])
        assert self._run(capsys, "eval", "--results", results, "--gt", gt, "--log", log,
                         "--report", tmp_path / "r.txt") == (
            2, "", "uatrack eval: track 1: frame 2 after 2\n")
        assert not (tmp_path / "r.txt").exists()
        assert self._run(capsys, "stats", "--log", log, "--gt", gt) == (0, (
            "wrong_total: 0\nwrong_flagged_uncertain: 0\nwrong_uncertain_rate: 0.000000\n"
            "correct_total: 2\ncorrect_flagged_certain: 2\ncorrect_certain_rate: 1.000000\n"),
            "")

    @pytest.mark.parametrize("command", ["eval", "stats"])
    @pytest.mark.parametrize("tid", ["99999999999999999999999", "-99999999999999999999999"])
    def test_log_track_id_past_intp_exit_2(self, tmp_path, capsys, command, tid):
        """A log's integer fields are `np.intp`s: a track id that does not
        fit is a data error naming its line, not a traceback."""
        gt, log, results = self._two_frame_files(
            tmp_path, f"1,0,1,0,0,0,0,0,0\n1,1,{tid},0,0,0,0,0,0\n",
            [(1, 1), (1, int(tid))])
        argv = (["--results", results, "--report", tmp_path / "r.txt"]
                if command == "eval" else [])
        assert self._run(capsys, command, "--log", log, "--gt", gt, *argv) == (
            2, "", f"uatrack {command}: line 2: track_id {tid} does not fit np.intp\n")

    def test_stats_counts_a_nan_delta_in_its_total_only(self, tmp_path, capsys):
        """A nan delta is neither > 0 nor <= 0: its row counts as correct or
        wrong and is flagged neither certain nor uncertain."""
        gt, log, _ = self._two_frame_files(
            tmp_path, self.BIRTHS + "2,0,1,0.9,0.1,0.2,1.3,nan,1\n"
                                    "2,1,2,0.8,0.7,0.2,1.3,nan,1\n", [])
        assert self._run(capsys, "stats", "--log", log, "--gt", gt) == (0, (
            "wrong_total: 1\nwrong_flagged_uncertain: 0\nwrong_uncertain_rate: 0.000000\n"
            "correct_total: 1\ncorrect_flagged_certain: 0\ncorrect_certain_rate: 0.000000\n"),
            "")

    def test_frame_past_bound_exit_2(self, tmp_path, capsys):
        (tmp_path / "det.txt").write_text(
            f"1,-1,0,0,5,5,0.9,-1,-1,-1\n{formats.MAX_FRAME + 1},-1,0,0,5,5,0.9,-1,-1,-1\n")
        (tmp_path / "emb.csv").write_text(f"1,0,1,0\n{formats.MAX_FRAME + 1},0,1,0\n")
        code, err = run_main(capsys, "track", "--dets", tmp_path / "det.txt",
                             "--embs", tmp_path / "emb.csv", "--out", tmp_path / "o.txt")
        assert code == 2
        assert f"line 2: frame must be <= {formats.MAX_FRAME}" in err

    @pytest.mark.parametrize("argv,message", [
        (["train", "--epochs", "1", "--lr", "1e308", "--seed", "0"], "overflow encountered"),
        (["augment", "--frame", "10", "--seed", "1", "--jitter", "1e308"],
         "jitter must be >= 0 with 2*jitter finite"),
        (["augment", "--frame", "10", "--seed", "1", "--jitter", "8e307"],
         "overflow encountered"),
    ], ids=["train-lr", "augment-jitter-range", "augment-jitter-overflow"])
    def test_float_overflow_exit_2(self, tmp_path, capsys, argv, message):
        small_bundle(tmp_path)
        extra = ["--out", tmp_path / "w.txt"] if argv[0] == "train" else []
        code, err = run_main(capsys, *argv, "--bundle", tmp_path, *extra)
        assert code == 2
        assert message in err

    def test_huge_embedding_value_exit_2(self, tmp_path, capsys):
        small_bundle(tmp_path)
        emb = tmp_path / "emb.csv"
        lines = emb.read_text().splitlines()
        lines[0] = ",".join(lines[0].split(",")[:2] + ["1e300"] * 16)
        emb.write_text("\n".join(lines) + "\n")
        code, err = run_main(capsys, "track", "--dets", tmp_path / "det.txt",
                             "--embs", emb, "--out", tmp_path / "o.txt")
        assert code == 2
        assert "overflow encountered" in err


def run_main(capsys, *argv):
    """`cli.main` in-process; returns (exit code, stderr)."""
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


FUZZ_READS = {
    "simulate": ("config.txt",),
    "track": ("det.txt", "emb.csv"),
    "eval": ("results.txt", "gt.txt", "log.txt"),
    "stats": ("gt.txt", "log.txt"),
    "augment": ("det.txt", "emb.csv"),
    "train": ("det.txt", "raw.csv"),
}


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    """A small valid bundle, as file name -> bytes."""
    root = tmp_path_factory.mktemp("bundle")
    cfg = ScenarioConfig(num_objects=4, num_frames=20, seed=3)
    frames, _ = small_bundle(root, cfg)
    formats.write_scenario_config(cfg, root / "config.txt")
    state = track_sequence(frames, TrackerConfig())
    formats.write_results(state, root / "results.txt")
    formats.write_log(state.log(), root / "log.txt")
    return {p.name: p.read_bytes() for p in root.iterdir()}


# signed integers of 20 to 41 digits, past every fixed-width integer type
HUGE_INTS = st.integers(-10**40, -10**19) | st.integers(10**19, 10**40)


@st.composite
def damaged(draw, valid: bytes):
    """Arbitrary bytes; the valid file with one integer field replaced by a
    signed integer of 20 or more digits; or the valid file with a span
    replaced by arbitrary bytes or by characters its formats are made of."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.binary(max_size=64))
    if kind == 1:
        fields = [m.span() for m in re.finditer(rb"[^,=\s]+", valid)
                  if m[0].removeprefix(b"-").isdigit()]
        start, stop = draw(st.sampled_from(fields))
        return valid[:start] + b"%d" % draw(HUGE_INTS) + valid[stop:]
    at = draw(st.integers(0, len(valid)))
    cut = draw(st.integers(0, 8))
    span = draw(st.binary(min_size=1, max_size=8)
                | st.text("0123456789.,-+e infa#=\n", min_size=1, max_size=8).map(str.encode))
    return valid[:at] + span + valid[at + cut:]


def fuzz_argv(draw, command, d):
    """argv for `command` on bundle directory `d`. Each numeric flag is any
    number, or one from the range where the command gets past its checks."""
    def num(usual, anything):
        return draw(anything if draw(st.integers(0, 3)) == 0 else usual)

    ints, floats = st.integers(), st.floats()
    if command == "simulate":
        return ["simulate", "--config", d / "config.txt", "--out", d / "sim"]
    if command == "track":
        return ["track", "--dets", d / "det.txt", "--embs", d / "emb.csv",
                "--out", d / "res.txt", "--log", d / "out.log",
                f"--utl={draw(st.sampled_from(['on', 'off']))}",
                f"--K={num(st.integers(1, 12), ints)}",
                f"--m1={num(st.floats(0, 1, exclude_min=True, exclude_max=True), floats)!r}",
                f"--m2={num(st.floats(0, 1, exclude_min=True, exclude_max=True), floats)!r}",
                f"--beta={num(st.floats(0, 1, exclude_max=True), floats)!r}"]
    if command == "eval":
        return ["eval", "--results", d / "results.txt", "--gt", d / "gt.txt",
                "--log", d / "log.txt", "--report", d / "report.txt",
                f"--max-age={num(st.integers(-1, 25), ints)}"]
    if command == "stats":
        return ["stats", "--log", d / "log.txt", "--gt", d / "gt.txt"]
    if command == "augment":
        jitter = draw(st.none() | st.floats(0, 10) | floats)
        return (["augment", "--bundle", d, f"--frame={num(st.integers(0, 21), ints)}",
                 f"--seed={num(st.integers(0, 3), ints)}"]
                + ([] if jitter is None else [f"--jitter={jitter!r}"]))
    # train: large epoch counts are valid and only make the run long
    return ["train", "--bundle", d,
            f"--epochs={num(st.integers(1, 2), st.integers(max_value=2))}",
            f"--lr={num(st.floats(1e-4, 1.0), floats)!r}",
            f"--seed={num(st.integers(0, 3), ints)}", "--out", d / "w.txt"]


class TestCliFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_READS))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_exit_code_contract(self, fuzz_bundle, command, data):
        """Any bytes in one input file and any numeric flag values give exit
        0 or 2, or argparse's usage exit 1; no other exception escapes."""
        target = data.draw(st.sampled_from((None,) + FUZZ_READS[command]))
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name, content in fuzz_bundle.items():
                (d / name).write_bytes(content)
            if target is not None:
                (d / target).write_bytes(data.draw(damaged(fuzz_bundle[target])))
            argv = [str(a) for a in fuzz_argv(data.draw, command, d)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    assert exc.code == 1 and "usage:" in err.getvalue(), err.getvalue()
                    code = "usage"
            event(f"exit {code}")
            assert code in (0, 2, "usage")
            if code == 2:
                assert err.getvalue().startswith(f"uatrack {command}: ")


class TestWorkflowBytes:
    """sha256 of the documented workflow's outputs on criterion 10's scene.

    Criterion 10 only compares two reruns with each other; these hashes pin
    the bytes themselves, `train` stdout included. The decision log and the
    trained weights are left out on purpose: the log is to gain lost/retired
    stages (ROADMAP Direction 7), and the weights moved in their last bits
    with the array-native training step. `train` and `augment` make one
    draw, `EpochColumns.draw` on the epoch's decision table. Training reads
    only the target and builds no plan, but still consumes the plan's
    jitter draw, so its weights and the `train` hashes are those of the
    plan-building step."""

    PINNED = {
        "det.txt": "7bad4b1ed60dfddb60041aeebc60f352575bb680ba20ffcda1dda9f3dc33138f",
        "emb.csv": "d6a7cb41b6e89e6d75541ade59b52c306568ea0ba3efb4a37484aff0439caafc",
        "raw.csv": "c16d4d159f7b9e165ad7ce2f6ac083f0bdbbc204c1862dfc908058dcd19195ef",
        "gt.txt": "4c545dcb450eed133e30b494979ec1676a5cebf816e5c928a3877500d8de1857",
        "config.txt": "79a03ebdd5c528ba124f6d69ae25a7729b9ce2459b853e3d1610e9494eb91829",
        "results_on.txt": "227b90668b6a71408f5212365d5204d0146ff23b42403e1309d927da9c727eee",
        "results_off.txt": "1afff5a444047c36e2126bdd2c48ca8f038ce4656640dd0b89c5a1d7a691aeca",
        "report.txt": "018c1579db5cbd2283d9080d40310173260d91e910317bd16a8d72a4ffcb5e78",
        "stats": "b478260c3d630702e6737b95ac7865e507f250471b1954b7cea8bdd11b6b2e38",
        "augment": "af0f7cf609e897385f946727492c5aecec0dc91084d278f14fd5c862c7f5e0bf",
        "train_uncertainty": "270d4e9492981bca3725490ffbf73e38d93e57b178976c4cad78c84e9b225a65",
        "train_random": "2108bcde88b13859c2a2c1c06de7daecdb9deb0322f70dcb67456dbbdcfcf486",
    }

    def test_outputs_match_pinned_sha256(self, tmp_path, capsys):
        def run(*argv):
            code = cli.main([str(a) for a in argv])
            out, err = capsys.readouterr()
            assert code == 0, err
            return out.encode()

        b = tmp_path / "bundle"
        (tmp_path / "cfg.txt").write_text("num_objects = 6\nnum_frames = 40\nseed = 5\n")
        run("simulate", "--config", tmp_path / "cfg.txt", "--out", b)
        for utl in ("on", "off"):
            run("track", "--dets", b / "det.txt", "--embs", b / "emb.csv", "--utl", utl,
                "--out", tmp_path / f"results_{utl}.txt", "--log", tmp_path / f"log_{utl}.txt")
        run("eval", "--results", tmp_path / "results_on.txt", "--gt", b / "gt.txt",
            "--log", tmp_path / "log_on.txt", "--report", tmp_path / "report.txt")
        outputs = {name: (b / name).read_bytes()
                   for name in ("det.txt", "emb.csv", "raw.csv", "gt.txt", "config.txt")}
        for name in ("results_on.txt", "results_off.txt", "report.txt"):
            outputs[name] = (tmp_path / name).read_bytes()
        outputs["stats"] = run("stats", "--log", tmp_path / "log_on.txt", "--gt", b / "gt.txt")
        outputs["augment"] = run("augment", "--bundle", b, "--frame", "20", "--seed", "0")
        for mode in ("uncertainty", "random"):
            outputs[f"train_{mode}"] = run(
                "train", "--bundle", b, "--epochs", "2", "--lr", "1e-3", "--seed", "0",
                "--sampling", mode, "--out", tmp_path / f"w_{mode}.txt")
        assert {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()} == self.PINNED
