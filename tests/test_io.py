"""Tests for file formats and the command-line interface."""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import uatrack
from uatrack import cli, contrastive, formats, tracker
from uatrack.contrastive import LinearEmbedder, TrainConfig
from uatrack.errors import DegenerateBox, InvalidConfig, IoFailure, MissingEmbedding, ParseError
from uatrack.geometry import BoundingBox
from uatrack.metrics import id_switches, pseudo_accuracy, uncertainty_separation
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import LOG, Detection, TrackerConfig, track_sequence


def small_bundle(tmp_path, cfg=None):
    cfg = cfg or ScenarioConfig(num_objects=4, num_frames=20, seed=3)
    frames, gt = generate(cfg)
    formats.write_detections(frames, tmp_path / "det.txt")
    formats.write_vectors(frames, tmp_path / "emb.csv", "embedding")
    formats.write_vectors(frames, tmp_path / "raw.csv", "raw")
    formats.write_ground_truth(gt, tmp_path / "gt.txt")
    return frames, gt


# det.txt fields 2-6 that fail a check: (fields, error, message)
BAD_BOXES = {
    "negative-h": ("0,0,5,-2,0.9", DegenerateBox, "non-positive size w=5.0 h=-2.0"),
    "nan-left": ("nan,0,5,5,0.9", DegenerateBox, "non-finite box"),
    "inf-w": ("0,0,inf,5,0.9", DegenerateBox, "non-finite box"),
    "nan-conf": ("0,0,5,5,nan", ParseError, "non-finite value"),
    "overflowing-centre": ("1e308,0,1.7e308,5,0.9", DegenerateBox,
                           r"box centre overflows: bb_left=1e\+308 bb_top=0.0 w=1.7e\+308 "
                           r"h=5.0$"),
}
# the `np.errstate` under which `cli.main` runs a command
CLI_ERRSTATE = dict(over="raise", invalid="raise", divide="raise")


class TestDetectionsRoundtrip:
    def test_boxes_and_confidence_survive(self, tmp_path):
        frames, _ = small_bundle(tmp_path)
        back = formats.read_detections(tmp_path / "det.txt")
        assert len(back) == len(frames)
        for da, db in zip(frames, back):
            assert len(da) == len(db)
            for a, b in zip(da, db):
                assert b.box.cx == pytest.approx(a.box.cx, abs=1e-5)
                assert b.box.w == pytest.approx(a.box.w, abs=1e-5)
                assert b.confidence == pytest.approx(a.confidence, abs=1e-5)

    def test_empty_frames_preserved(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n3,-1,0,0,5,5,0.9,-1,-1,-1\n")
        back = formats.read_detections(p)
        assert [len(d) for d in back] == [1, 0, 1]
        assert [f for f, dets in enumerate(back, start=1) for _ in dets] == [1, 3]

    def test_nonpositive_size_rejected(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n\n1,-1,0,0,0,5,0.9,-1,-1,-1\n")
        with pytest.raises(DegenerateBox, match="line 3: non-positive size w=0.0"):
            formats.read_detections(p)

    # each case as it is, then again under the CLI's `np.errstate`
    @pytest.mark.parametrize("fields, error, message, errstate", [
        pytest.param(*case, errstate, id=name + suffix)
        for suffix, errstate in (("", {}), ("-cli-errstate", CLI_ERRSTATE))
        for name, case in BAD_BOXES.items()])
    def test_bad_box_values_rejected(self, tmp_path, fields, error, message, errstate):
        """BoundingBox checks the box, read_detections the confidence; each
        error carries the line number. Under the CLI's `np.errstate` too, an
        overflowing centre is this error and not a FloatingPointError."""
        p = tmp_path / "det.txt"
        p.write_text(f"1,-1,0,0,5,5,0.9,-1,-1,-1\n\n1,-1,{fields},-1,-1,-1\n")
        with np.errstate(**errstate), pytest.raises(error, match=f"line 3: {message}"):
            formats.read_detections(p)

    def test_a_rule_added_to_bounding_box_names_the_line(self, tmp_path, monkeypatch):
        """`BoundingBox` alone holds a box's rules: a rule added there
        declines a row of the bulk read too, and the error names its line."""
        checks = BoundingBox.__post_init__

        def narrower(box):
            checks(box)
            if box.w > 100:
                raise DegenerateBox(f"box wider than 100: w={box.w}")

        monkeypatch.setattr(BoundingBox, "__post_init__", narrower)
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n1,-1,0,0,150,5,0.9,-1,-1,-1\n")
        with pytest.raises(DegenerateBox, match=r"^line 2: box wider than 100: w=150\.0$"):
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
        assert formats.read_embeddings(tmp_path / "emb.csv", frames) == 0
        for da, db in zip(written, frames):
            for a, b in zip(da, db):
                assert np.allclose(a.embedding, b.embedding, atol=1e-8)

    def test_unnormalized_rows_are_fixed_and_counted(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n")
        e = tmp_path / "emb.csv"
        e.write_text("1,0,3.0,4.0\n")
        frames = formats.read_detections(p)
        assert formats.read_embeddings(e, frames) == 1
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
        with pytest.raises(ParseError, match="line 2: duplicate"):
            formats._read_vectors(e, "embedding")


class TestGroundTruthAndLog:
    def test_gt_roundtrip(self, tmp_path):
        gt = {(1, 0): 4, (2, 1): 3}
        formats.write_ground_truth(gt, tmp_path / "gt.txt")
        assert list(formats.read_ground_truth(tmp_path / "gt.txt").items()) == list(gt.items())

    def test_simulated_gt_rewrites_byte_for_byte(self, tmp_path, capsys):
        """The mapping keeps the file's order, so writing what `simulate`'s
        gt.txt reads as gives the file's bytes."""
        assert run_main(capsys, "simulate", "--out", tmp_path) == (0, "")
        path = tmp_path / "gt.txt"
        gt = formats.read_ground_truth(path)
        assert _written(lambda p: formats.write_ground_truth(gt, p)) == path.read_bytes()

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
        formats.write_weights(e.weights, tmp_path / "w.txt")
        assert np.array_equal(formats.read_weights(tmp_path / "w.txt"), e.weights)

    @pytest.mark.parametrize("text,line", [("a b\n", "line 1"),
                                           ("1 2\n1 x\n", "line 2")],
                             ids=["header", "value"])
    def test_weights_non_numeric_rejected(self, tmp_path, text, line):
        p = tmp_path / "w.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=line):
            formats.read_weights(p)

    @pytest.mark.parametrize("text, message", [
        ("1 2 3\n", "line 1: weights header must be `F D`"),
        ("1 2\n1.0\n", "line 2: expected 2 values"),
        ("", "line 1: weights header must be `F D`"),
        ("2 2\n1 2\n", "expected 2 weight rows, got 1"),
        ("0 3\n", "line 1: weights header needs F, D >= 1, got 0 3"),
        ("-1 3\n", "line 1: weights header needs F, D >= 1, got -1 3"),
        ("3 0\n", "line 1: weights header needs F, D >= 1, got 3 0"),
        *((f"2 2\n0.5 1.0\n1.0 {value}\n", "line 3: non-finite value")
          for value in ("nan", "inf", "-inf")),
    ], ids=["header-3-fields", "short-row", "empty", "row-count", "zero-rows",
            "negative-rows", "zero-cols", "nan", "inf", "-inf"])
    def test_weights_bad_structure_rejected(self, tmp_path, text, message):
        """Every accepted file gives an F x D matrix of finite weights: a
        header with F or D below 1 is rejected on its own line, and so is a
        non-finite weight, as the vector readers reject one."""
        p = tmp_path / "w.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            formats.read_weights(p)


# The per-field writers the `%` templates replaced, kept as their oracle:
# `format(x, ".6f")` per box value or score, `format(v, ".9g")` per vector
# value and `str` per integer, joined with commas.
def _fmt6(x):
    return f"{x:.6f}"


def _reference_detection_lines(frames):
    lines = []
    for f, dets in enumerate(frames, start=1):
        for d in dets:
            x1, y1, _, _ = d.box.to_xyxy()
            lines.append(",".join([str(f), "-1", _fmt6(x1), _fmt6(y1), _fmt6(d.box.w),
                                   _fmt6(d.box.h), _fmt6(d.confidence), "-1", "-1", "-1"]))
    return lines


def _reference_vector_lines(frames, attr):
    return [",".join([str(f), str(i)] + [f"{v:.9g}" for v in getattr(d, attr)])
            for f, dets in enumerate(frames, start=1) for i, d in enumerate(dets)]


def _reference_ground_truth_lines(gt):
    return [f"{frame},{det_index},{true_id}" for (frame, det_index), true_id in gt.items()]


def _reference_result_lines(tracklets, frames):
    """One line per tracklet record: its box and its detection's confidence."""
    confidence = {(f, i): d.confidence
                  for f, dets in enumerate(frames, start=1) for i, d in enumerate(dets)}
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
DETECTIONS = st.builds(Detection, BOXES, EDGE_FLOATS, VECTORS, VECTORS)
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

    @given(gt=st.dictionaries(st.tuples(INTS, INTS), INTS, max_size=6))
    def test_ground_truth(self, gt):
        """The writer's bytes, and what reading them back and writing again gives."""
        written = _written(lambda p: formats.write_ground_truth(gt, p))
        assert written == _text(_reference_ground_truth_lines(gt))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "gt.txt"
            path.write_bytes(written)
            read = formats.read_ground_truth(path)
        assert _written(lambda p: formats.write_ground_truth(read, p)) == written

    @given(scene=st.lists(st.lists(st.tuples(BOXES, CONFIDENCES, ANGLES), max_size=4),
                          max_size=6),
           utl=st.booleans())
    def test_results(self, scene, utl):
        """The results of a tracked state, every applied row with its
        detection's box and confidence, sorted by (frame, id)."""
        frames = [[Detection(box, conf, np.array([math.cos(a), math.sin(a)]))
                   for box, conf, a in dets] for dets in scene]
        with np.errstate(all="ignore"):   # the gate's IoU of the largest boxes overflows
            state = track_sequence(frames, TrackerConfig(utl_enabled=utl))
        assert _written(lambda p: formats.write_results(state, p)) == _text(
            _reference_result_lines(state.all_tracklets(), frames))

    @given(log=st.lists(st.tuples(INTS, INTS, INTS, *[EDGE_FLOATS] * 5, INTS),
                        max_size=6).map(lambda rows: np.array(rows, LOG)))
    def test_log(self, log):
        assert _written(lambda p: formats.write_log(log, p)) == _text(_reference_log_lines(log))


class TestRepeatedKey:
    """A (frame, det_index) that repeats in emb.csv, raw.csv or gt.txt is a
    ParseError that names the second line, from the bulk reader and the
    per-line reader alike, and a data error of the command that reads it."""

    # file -> (the key's name in the message, the reader, the per-line reader)
    READERS = {
        "emb.csv": ("embedding", lambda p: formats.read_embeddings(p, []),
                    lambda p: formats._read_vectors_lines(p, "embedding")),
        "raw.csv": ("raw feature", lambda p: formats.read_raw_features(p, []),
                    lambda p: formats._read_vectors_lines(p, "raw feature")),
        "gt.txt": ("ground truth", formats.read_ground_truth,
                   formats._read_ground_truth_lines),
    }
    ROWS = {"emb.csv": "1,0,0.6,0.8\n1,1,1,0\n1,0,0,1\n",
            "raw.csv": "1,0,0.6,0.8\n1,1,1,0\n1,0,0,1\n",
            "gt.txt": "1,0,4\n1,1,3\n1,0,5\n"}

    @pytest.mark.parametrize("per_line", [False, True], ids=["bulk", "per-line"])
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_reader_raises_parse_error(self, tmp_path, name, per_line):
        what, *readers = self.READERS[name]
        path = tmp_path / name
        path.write_text(self.ROWS[name])
        with pytest.raises(ParseError) as exc:
            readers[per_line](path)
        assert str(exc.value) == f"line 3: duplicate {what} for (1, 0)"

    @pytest.mark.parametrize("command, name", [("track", "emb.csv"), ("train", "raw.csv"),
                                               ("stats", "gt.txt")])
    def test_command_exits_2(self, tmp_path, capsys, command, name):
        frames, _ = small_bundle(tmp_path)
        formats.write_log(track_sequence(frames).log(), tmp_path / "log.txt")
        path = tmp_path / name
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in lines + lines[:1]))
        argv = {"track": ["--dets", tmp_path / "det.txt", "--embs", path,
                          "--out", tmp_path / "res.txt"],
                "train": ["--bundle", tmp_path, "--epochs", 1, "--lr", 0.01, "--seed", 0,
                          "--out", tmp_path / "w.txt"],
                "stats": ["--log", tmp_path / "log.txt", "--gt", path]}[command]
        code, err = run_main(capsys, command, *argv)
        assert code == 2
        assert err == (f"uatrack {command}: line {len(lines) + 1}: duplicate "
                       f"{self.READERS[name][0]} for (1, 0)\n")


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
        assert list(formats.read_ground_truth(p).items()) == [((1, 0), 4), ((2, 1), 3)]


# Field texts for the bulk readers' oracle. Each column of a file is a pair:
# the text a writer writes, and an edge text. An edge text is a value at or
# past the column's bounds, or a form that `int`/`float` also take or refuse:
# a sign, padding (\x0b and \x0c they strip, \x1c-\x1f they do not), `_`
# between digits, non-ASCII digits, a `.0` on an integer, 20 digits, nan/inf,
# 1e400.
ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
INT_FORMS = st.sampled_from([str, "+{}".format, " {}\t".format, "\x0b{}\x0c".format,
                             "{}\x1c".format, "{}.0".format, "{}_0".format,
                             lambda v: str(v).translate(ARABIC_DIGITS)])
FLOAT_FORMS = st.sampled_from([repr, "{:.9g}".format, " {!r}\t".format, "\x0c{!r}\x0b".format,
                               "\x1f{!r}".format, "+{!r}".format,
                               lambda v: repr(v).replace("0", "0_0", 1),
                               lambda v: repr(v).translate(ARABIC_DIGITS)])
FLOAT_WORDS = st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e400", "Infinity", "1.5e",
                               "", "x", "1 2"])


def half_and_half(first, second):
    """`first` or `second`, each drawn half the time (`|` would weigh each
    branch of `second` as much as `first`)."""
    return st.booleans().flatmap(lambda pick: first if pick else second)


def ints(written, bounds):
    """An integer column: `written` as `%d` writes it; its edge texts are
    the values of `bounds`, a written value in another form, or 20 digits."""
    return (written.map("%d".__mod__),
            half_and_half(st.sampled_from(bounds).map(str),
                          st.builds(lambda form, v: form(v), INT_FORMS, written)
                          | st.integers(10**19, 10**20).map(str)
                          | st.integers(-10**20, -10**19).map(str)))


def floats(written, bounds, template="%.6f"):
    """A float column: `written` as `template` writes it; its edge texts are
    the values of `bounds`, a written value in another form, or a word."""
    return (written.map(template.__mod__),
            half_and_half(st.sampled_from(bounds).map(repr),
                          st.builds(lambda form, v: form(v), FLOAT_FORMS, written) | FLOAT_WORDS))


KEYS = ints(st.integers(1, 4), [-1, 0])   # few values, so keys repeat
ANY = (st.just("-1"), st.sampled_from(["7", "x", ""]))   # a column no reader parses
COORD = floats(st.floats(-50, 50), [1e308, -1e308, -0.0])
SIZE = floats(st.floats(0.5, 20), [0.0, -1.0, 5e-324, 1.7e308])
SCORE = floats(st.floats(0, 1), [-0.0, 1e-300, 1e300])
# one entry per reader: the reader, its per-line reference, and a strategy
# for a file's columns
BULK_READERS = {
    "detections": (formats.read_detections, formats._read_detections_lines, st.just(
        [ints(st.integers(1, 4), [0, formats.MAX_FRAME + 1]),
         ANY, COORD, COORD, SIZE, SIZE, SCORE, ANY, ANY, ANY])),
    "vectors": (lambda p: formats._read_vectors(p, "embedding"),
                lambda p: formats._read_vectors_lines(p, "embedding"),
                st.integers(1, 3).map(lambda dim: [KEYS, KEYS] + [floats(
                    st.floats(-1, 1), [0.0, 1e300, 5e-324], "%.9g")] * dim)),
    "ground_truth": (formats.read_ground_truth, formats._read_ground_truth_lines,
                     st.just([KEYS] * 3)),
    "log": (formats.read_log, formats._read_log_lines,
            st.just([KEYS] * 3 + [SCORE] * 5 + [ints(st.integers(0, 3), [-1, 4])])),
}
LINE_ENDS = st.sampled_from(["\n"] * 12 + ["\r\n"] * 3 + ["\r"])
BLANK_LINES = st.sampled_from(["", " ", "\t", "\r"])


@st.composite
def table_file(draw, columns):
    """The text of a file of rows of `columns`: rows as a writer writes
    them, and among them at most two with one or every field an edge text,
    a field too many or up to three too few (det.txt's 7 fields among them),
    or a blank line; with mixed line ends."""
    columns = draw(columns)
    lines = [[draw(written) for written, _ in columns] for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        row = [draw(written) for written, _ in columns]
        kind = draw(st.sampled_from(["edge"] * 5 + ["edges", "ragged", "ragged", "blank"]))
        if kind == "edge":
            at = draw(st.sampled_from(range(len(row))))
            row[at] = draw(columns[at][1])
        elif kind == "edges":
            row = [draw(edge) for _, edge in columns]
        elif kind == "ragged":
            row = (row + ["0"])[:draw(st.sampled_from(range(max(1, len(row) - 3), len(row) + 2)))]
        lines.insert(draw(st.integers(0, len(lines))),
                     [draw(BLANK_LINES)] if kind == "blank" else row)
    return "".join(",".join(row) + draw(LINE_ENDS) for row in lines)


def _plain(x):
    """`x` as nested tuples that are equal only where the values have the
    same types and bits: arrays by dtype, shape and bytes, floats by their
    bytes, dataclasses field by field."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.descr, x.shape, x.tobytes())
    if isinstance(x, float):
        return (type(x), x.hex() if math.isfinite(x) else repr(x), math.copysign(1.0, x))
    if dataclasses.is_dataclass(x):
        return (type(x), *(_plain(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return (dict, *((_plain(k), _plain(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return (type(x), *map(_plain, x))
    return (type(x), x)


def _outcome(read, path):
    """What `read(path)` returns, as `_plain` gives it, or the type and the
    message of what it raises."""
    try:
        return _plain(read(path))
    except Exception as exc:
        return type(exc), str(exc)


class TestBulkReaders:
    """The readers of det.txt, emb.csv/raw.csv, gt.txt and the log parse a
    file in one pass and fall back to the per-line reader on any file the
    bulk parse or a check declines."""

    @pytest.mark.parametrize("reader", sorted(BULK_READERS))
    @settings(max_examples=400)
    @given(data=st.data())
    def test_equals_per_line_reader(self, reader, data):
        """The reader returns what its per-line reference returns, types
        and bits included, or raises the same error with the same message."""
        read, by_line, columns = BULK_READERS[reader]
        text = data.draw(table_file(columns))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.txt"
            path.write_bytes(text.encode())
            want = _outcome(by_line, path)
            event(f"per-line reader {'raises' if len(want) == 2 else 'returns'}")
            assert _outcome(read, path) == want

    GOOD_ROWS = {"detections": "1,-1,0,0,5,5,0.9,-1,-1,-1\n2,-1,0,0,5,5,0.9\n",
                 "vectors": "1,0,0.6,0.8\n1,1,1,0\n", "ground_truth": "1,0,4\n1,1,3\n",
                 "log": "1,0,1,0,0,0,0,0,0\n1,1,2,0,0,0,0,0,0\n"}
    # rows that one check of a bulk read or its parse declines
    BAD_ROWS = {
        "detections": ["0,-1,0,0,5,5,0.9", f"{formats.MAX_FRAME + 1},-1,0,0,5,5,0.9",
                       "1,-1,0,0,0,5,0.9", "1,-1,0,0,5,-1,0.9", "1,-1,0,0,5,5,nan",
                       "1,-1,inf,0,5,5,0.9", "1,-1,1e308,0,1.7e308,5,0.9",
                       "1,-1,0,1e308,5,1.7e308,0.9", "1.0,-1,0,0,5,5,0.9", "1,-1,0,0,5,5",
                       "1\x1c,-1,0,0,5,5,0.9"],
        "vectors": ["1,0,1,0", "2,0,nan,1", "2,0,1e400,1", "2,0,1", "2,0,1,0,0", "2,0.0,1,0",
                    "2,0,\x1f1,0"],
        "ground_truth": ["2,0,99999999999999999999", "2,0,1,1", "1,0,5"],
        "log": ["2,0,1,0,0,0,0,0,-1", "2,0,1,0,0,0,0,0,4", "2,0,99999999999999999999,0,0,0,0,0,1",
                "2,0,1,0,0,0,0,1"],
    }

    @pytest.mark.parametrize("reader, row",
                             [(reader, row) for reader, rows in BAD_ROWS.items() for row in rows])
    def test_declined_row_equals_per_line_reader(self, tmp_path, reader, row):
        """Each check holds the bulk read to the per-line reader: after two
        good rows, a row that fails it gives the per-line reader's outcome."""
        read, by_line, _ = BULK_READERS[reader]
        path = tmp_path / "in.txt"
        path.write_text(self.GOOD_ROWS[reader] + row + "\n")
        assert _outcome(read, path) == _outcome(by_line, path)

    @pytest.mark.parametrize("warning", [UserWarning, DeprecationWarning])
    def test_a_parse_that_warns_is_declined(self, tmp_path, monkeypatch, warning):
        """loadtxt warns on a file without rows, and numpy < 2 parses `1.0`
        as the integer 1 with a DeprecationWarning: a parse that warns sends
        the file to the per-line reader."""
        path = tmp_path / "gt.txt"
        path.write_text("1.0,0,4\n")

        def warns(*args, **kwargs):
            warnings.warn("parsed with a warning", warning)
            return np.ones(1, formats._GT_TABLE)

        monkeypatch.setattr(np, "loadtxt", warns)
        with pytest.raises(ParseError, match="line 1: invalid literal for int"):
            formats.read_ground_truth(path)

    def test_written_files_take_the_bulk_path(self, tmp_path, monkeypatch):
        """Files as the writers write them, CRLF line ends and blank lines
        included, parse without the per-line reader."""
        frames, _ = small_bundle(tmp_path)
        formats.read_embeddings(tmp_path / "emb.csv", frames)
        state = track_sequence(frames)
        formats.write_log(state.log(), tmp_path / "log.txt")
        files = {"detections": "det.txt", "vectors": "emb.csv", "ground_truth": "gt.txt",
                 "log": "log.txt"}
        want = {}
        for reader, name in files.items():
            path = tmp_path / name
            path.write_bytes(b"\r\n" + path.read_bytes().replace(b"\n", b"\r\n"))
            want[reader] = _plain(BULK_READERS[reader][1](path))

        def per_line(*args, **kwargs):
            raise AssertionError("read line by line")

        monkeypatch.setattr(formats, "_parse_lines", per_line)
        for reader, name in files.items():
            assert _plain(BULK_READERS[reader][0](tmp_path / name)) == want[reader], reader

    # results.txt is read line by line only; its rows that the bulk read
    # once declined, after the two good rows, and what its one reader gives
    @pytest.mark.parametrize("row, outcome", [
        pytest.param("2,1,0,0,5,5,0.9,-1,-1",
                     (ParseError, "line 3: expected 10 fields, got 9"), id="9-fields"),
        pytest.param("2,1,0,0,5,5,0.9,-1,-1,x", _plain([(1, 1), (1, 2), (2, 1)]),
                     id="unread-field"),
    ])
    def test_results_rows(self, tmp_path, row, outcome):
        path = tmp_path / "results.txt"
        path.write_text("1,1,0,0,5,5,0.9,-1,-1,-1\n1,2,0,0,5,5,0.9,-1,-1,-1\n" + row + "\n")
        assert _outcome(formats.read_results, path) == outcome

    @given(vec=st.lists(EDGE_FLOATS.filter(math.isfinite), min_size=1, max_size=40))
    def test_norm_has_the_bits_of_linalg_norm(self, vec):
        v = np.array(vec)
        with np.errstate(all="ignore"):
            assert _plain(math.sqrt(v.dot(v))) == _plain(float(np.linalg.norm(v)))


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

    def test_taken_temp_name_is_drawn_again(self, tmp_path, monkeypatch):
        """A temp name that is already taken is drawn again, and the file
        holding it is neither written nor removed."""
        draws = iter([b"\x01" * 8, b"\x01" * 8, b"\x02" * 8])

        def urandom(n):
            assert n == 8
            return next(draws)

        taken = tmp_path / f".tmp-{'01' * 8}"
        taken.write_text("keep\n")
        monkeypatch.setattr(os, "urandom", urandom)
        formats.atomic_write(tmp_path / "out.txt", ["x"])
        assert next(draws, None) is None
        assert (tmp_path / "out.txt").read_text() == "x\n"
        assert taken.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.txt"]


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
    @pytest.mark.parametrize("text", ["", "\n\r\n\n", " \t\n\n"],
                             ids=["empty", "blank-lines", "whitespace-lines"])
    def test_empty_inputs_exit_0_silently(self, tmp_path, text):
        """Files without rows read as empty, as line by line: `track`,
        `stats` and `eval` exit 0, and nothing (no warning of the bulk
        parse either) reaches stderr."""
        f = tmp_path / "in.txt"
        f.write_text(text)
        for argv in (["track", "--dets", f, "--embs", f, "--out", tmp_path / "results.txt",
                      "--log", tmp_path / "log.txt"],
                     ["stats", "--log", f, "--gt", f],
                     ["eval", "--results", f, "--gt", f, "--log", f,
                      "--report", tmp_path / "report.txt"]):
            proc = run_cli(*map(str, argv))
            assert (proc.returncode, proc.stderr) == (0, ""), argv[0]
        assert (tmp_path / "results.txt").read_bytes() == (tmp_path / "log.txt").read_bytes() == b""

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

    @pytest.mark.parametrize("target", ["missing/o.txt", "taken"], ids=["missing-dir", "dir"])
    def test_write_error_names_the_target(self, tmp_path, target):
        """A write that fails, into a missing directory or onto an existing
        one, exits 2 with the same stderr on every run, naming the target
        and not the random temp file."""
        small_bundle(tmp_path)
        (tmp_path / "taken").mkdir()
        argv = ["track", "--dets", str(tmp_path / "det.txt"), "--embs",
                str(tmp_path / "emb.csv"), "--out", str(tmp_path / target)]
        first, second = run_cli(*argv), run_cli(*argv)
        assert first.returncode == second.returncode == 2, first.stderr
        assert first.stderr == second.stderr
        assert f"cannot write {tmp_path / target}: " in first.stderr
        assert ".tmp-" not in first.stderr

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
        frames = formats.read_detections(sim / "det.txt")
        formats.read_embeddings(sim / "emb.csv", frames)
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
            frames = formats.read_detections(tmp_path / "det.txt")
            formats.read_embeddings(tmp_path / "emb.csv", frames)
            assert track_sequence(frames).made == 0
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
        frames = cli._load_bundle("track", tmp_path / "det.txt", tmp_path / "emb.csv")
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

    def test_eval_builds_no_tracklets(self, tmp_path, capsys, monkeypatch):
        """`eval` reads the log's applied rows as columns: it constructs no
        `Tracklet` or `TrackRecord`, and its report is the one the metrics
        give on the tracker's own tracklets."""
        frames, gt = small_bundle(tmp_path)
        state = track_sequence(frames)
        formats.write_results(state, tmp_path / "results.txt")
        formats.write_log(state.log(), tmp_path / "log.txt")
        tracklets = state.all_tracklets()
        want = _text([f"id_switches: {id_switches(tracklets, gt)}",
                      *uncertainty_separation(state.log(), gt).lines(),
                      *(f"pseudo_accuracy {s}: {acc:.6f}"
                        for s, acc in pseudo_accuracy(tracklets, gt, max_age=100).points)])

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"eval built a {type(self).__name__}")

        for cls in (tracker.Tracklet, tracker.TrackRecord):
            monkeypatch.setattr(cls, "__init__", forbidden)
        code, err = run_main(capsys, "eval", "--results", tmp_path / "results.txt",
                             "--gt", tmp_path / "gt.txt", "--log", tmp_path / "log.txt",
                             "--report", tmp_path / "report.txt")
        assert code == 0, err
        assert (tmp_path / "report.txt").read_bytes() == want

    def test_augment_builds_no_tracklets(self, tmp_path, capsys, monkeypatch):
        """`augment` reads the anchor's boxes from the epoch's columns: it
        constructs no `Tracklet` or `TrackRecord`, takes the applied rows
        once, and prints the same plans."""
        small_bundle(tmp_path)
        calls = []

        def applied(rows, columns=contrastive.applied):
            calls.append(rows)
            return columns(rows)

        monkeypatch.setattr(contrastive, "applied", applied)

        def plans():
            for seed in range(3):
                assert cli.main(["augment", "--bundle", str(tmp_path), "--frame", "15",
                                 "--seed", str(seed)]) == 0
            return capsys.readouterr()

        want = plans()

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"augment built a {type(self).__name__}")

        for cls in (tracker.Tracklet, tracker.TrackRecord):
            monkeypatch.setattr(cls, "__init__", forbidden)
        assert plans() == want
        assert want.out.count("source_track_id") == 3 and want.err == ""
        assert len(calls) == 6

    def test_flags_left_out_take_the_config_defaults(self, tmp_path, capsys, monkeypatch):
        """The config dataclasses hold the defaults of `--m1/--m2/--beta/--K`
        and `--sampling`: a command passes only the flags given, and giving
        each at its default value writes the same bytes."""
        small_bundle(tmp_path)
        configs = []

        def recorded(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda frames, cfg: configs.append(cfg)
                                or original(frames, cfg))

        recorded(tracker, "track_sequence")
        recorded(contrastive, "train_embedder")
        track = ["track", "--dets", tmp_path / "det.txt", "--embs", tmp_path / "emb.csv"]
        cfg = TrackerConfig()
        defaults = ["--utl", "on", "--m1", cfg.margins.m1, "--m2", cfg.margins.m2,
                    "--beta", cfg.beta, "--K", cfg.K]
        for run, flags in (("left-out", []), ("defaults", defaults)):
            code, err = run_main(capsys, *track, "--out", tmp_path / f"{run}.txt", *flags)
            assert code == 0, err
        assert configs == [cfg, cfg]
        assert (tmp_path / "left-out.txt").read_bytes() == (tmp_path / "defaults.txt").read_bytes()

        train = ["train", "--bundle", tmp_path, "--epochs", "1", "--lr", "1e-3", "--seed", "0",
                 "--out", tmp_path / "weights.txt"]
        for flags in ([], ["--sampling", "random"]):
            code, err = run_main(capsys, *train, *flags)
            assert code == 0, err
        assert [c.anchor_sampling for c in configs[2:]] == [TrainConfig.anchor_sampling, "random"]

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
    def test_repeated_ground_truth_key_exit_2(self, tmp_path, capsys, command):
        """A gt.txt that gives one (frame, det_index) two rows is a data
        error that names the second row's line; it is not read as the last
        row's id."""
        gt, log, results = self._two_frame_files(
            tmp_path, self.BIRTHS + "2,0,1,0.9,0.1,0.2,1.3,-1.1,1\n"
                                    "2,1,2,0.9,0.1,0.2,1.3,-1.1,1\n",
            [(1, 1), (1, 2), (2, 1), (2, 2)])
        gt.write_text("1,0,1\n1,1,2\n2,0,1\n2,1,2\n2,0,2\n")
        argv = (["--results", results, "--report", tmp_path / "r.txt"]
                if command == "eval" else [])
        assert self._run(capsys, command, "--log", log, "--gt", gt, *argv) == (
            2, "", f"uatrack {command}: line 5: duplicate ground truth for (2, 0)\n")
        assert not (tmp_path / "r.txt").exists()

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

    def test_augment_default_jitter_of_huge_box_exit_2(self, tmp_path, capsys):
        """2% of a huge, finite box's diagonal is inf. The default jitter is
        checked like a given one, so `augment` exits 2 with one message, not
        a traceback from the plan's uniform draw."""
        frames = (1, 2, 3)
        (tmp_path / "det.txt").write_text("".join(
            f"{f},-1,-8e307,-8e307,1.6e308,1.6e308,1.0,-1,-1,-1\n" for f in frames))
        (tmp_path / "emb.csv").write_text("".join(f"{f},0,1,0\n" for f in frames))
        code, err = run_main(capsys, "augment", "--bundle", tmp_path, "--frame", "2",
                             "--seed", "0")
        assert code == 2
        assert err == ("uatrack augment: the default jitter of track 1 at frame 2 must be "
                       ">= 0 with 2*jitter finite, got inf\n")

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nseed = 2\n", "line 2: duplicate key `seed`"),
        ("arena = 560\n", "line 1: arena needs two values"),
        ("seed = 1\nseed 2\n", "line 2: expected `key = value`"),
    ], ids=["duplicate-key", "arena-one-value", "no-equals-sign"])
    def test_bad_scenario_config_exit_2(self, tmp_path, capsys, text, message):
        """A repeated key is a data error naming its second line, as in
        every other keyed input; it does not take its last value."""
        (tmp_path / "cfg.txt").write_text(text)
        assert run_main(capsys, "simulate", "--config", tmp_path / "cfg.txt",
                        "--out", tmp_path / "sim") == (2, f"uatrack simulate: {message}\n")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("row", ["0,0", "5e-324,0"], ids=["zero", "subnormal"])
    def test_zero_embedding_exit_2(self, tmp_path, capsys, row):
        (tmp_path / "det.txt").write_text("1,-1,0,0,5,5,0.9,-1,-1,-1\n")
        (tmp_path / "emb.csv").write_text(f"1,0,{row}\n")
        assert run_main(capsys, "track", "--dets", tmp_path / "det.txt",
                        "--embs", tmp_path / "emb.csv", "--out", tmp_path / "o.txt") == (
            2, "uatrack track: zero embedding for (frame=1, det=0)\n")
        assert not (tmp_path / "o.txt").exists()

    def test_renormalized_embeddings_reported(self, tmp_path, capsys):
        """Raw features are no unit vectors: `track` renormalizes every row,
        says so on one stderr line and exits 0."""
        frames, _ = small_bundle(tmp_path)
        m = sum(map(len, frames))
        assert run_main(capsys, "track", "--dets", tmp_path / "det.txt",
                        "--embs", tmp_path / "raw.csv", "--out", tmp_path / "o.txt") == (
            0, f"uatrack track: renormalized {m} of {m} embeddings\n")
        assert (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("scene, message", [
        (None, "no detections to train on"),
        (ScenarioConfig(num_objects=1, num_frames=20, seed=3),
         "sequence yielded 1 tracklet(s), need >= 2"),
    ], ids=["no-detections", "one-object"])
    def test_train_without_two_tracklets_exit_2(self, tmp_path, capsys, scene, message):
        if scene is None:
            (tmp_path / "det.txt").write_text("")
            (tmp_path / "raw.csv").write_text("")
        else:
            small_bundle(tmp_path, scene)
        assert run_main(capsys, "train", "--bundle", tmp_path, "--epochs", "1", "--lr", "1e-3",
                        "--seed", "0", "--out", tmp_path / "w.txt") == (
            2, f"uatrack train: {message}\n")
        assert not (tmp_path / "w.txt").exists()

    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_train_with_no_step_trained_exit_2(self, tmp_path, capsys, seed):
        """A sparse 3-frame scene has two tracklets, but every step skips
        (fewer than 2 tracks with a past, or fewer than 2 keys): `train`
        exits 2 and writes no untrained weights."""
        small_bundle(tmp_path, ScenarioConfig(num_objects=3, num_frames=3, dropout=0.5,
                                              seed=seed))
        assert run_main(capsys, "train", "--bundle", tmp_path, "--epochs", "2", "--lr", "1e-3",
                        "--seed", "0", "--out", tmp_path / "w.txt") == (
            2, "uatrack train: no step of 200 trained: each drawn frame had < 2 tracks "
               "with a past, or its target frame < 2 tracks\n")
        assert not (tmp_path / "w.txt").exists()

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
