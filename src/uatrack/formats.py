"""Text file formats and the flat key=value config parser.

Detections use MOTChallenge-style lines
    frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z
with 1-based frames; the corner convention is converted to center+size at
this boundary. Embeddings/raw features are CSV rows `frame,det_index,v1..`.
All writes go through a write-temp-then-rename helper so outputs are atomic
and byte-reproducible; the temp file is created beside the target with mode
0o666, so the kernel applies the umask and the process umask is never
changed.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields as dc_fields

import numpy as np

from .contrastive import LinearEmbedder
from .errors import (DimensionMismatch, DuplicateEmbedding, InvalidConfig,
                     IoFailure, MissingEmbedding, ParseError, UatrackError)
from .geometry import BoundingBox
from .simulator import MAX_FRAME, GroundTruthRecord, ScenarioConfig
from .tracker import LOG, STAGE_BIRTH, STAGE_DISSOLVED, Detection, TrackerState

NORM_WARN_TOL = 1e-6


def _open_temp(directory: str) -> tuple[int, str]:
    """Create a new file in `directory` under a random name and return its
    descriptor and path. It is created with mode 0o666, which the kernel
    narrows by the umask as for a plain `open`; a name already taken is
    drawn again."""
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write(path, lines) -> None:
    """Write text lines to `path` via a temp file in the same directory +
    rename. The file gets the mode a plain `open` would give it (0o666 less
    the umask) without reading or setting the process umask; the temp file
    is removed if the write or the rename fails."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = _open_temp(directory)
        try:
            with os.fdopen(fd, "w") as fh:
                for line in lines:
                    fh.write(line + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _parse_lines(path, row, sep=",") -> list:
    """`row(fields)` for each non-blank line of `path`, decoded as UTF-8,
    stripped and split on `sep` (whitespace when None); returns the list of
    results. The line number goes in front of any error `row` raises: a
    ValueError (an undecodable byte included) becomes a ParseError, and a
    package error keeps its type."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    out.append(row(line.split(sep)))
            except UatrackError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    return out


def read_detections(path):
    """Parse a MOT detections file into per-frame Detection lists (without
    embeddings): frame t at index t-1, for frames 1..max_frame, empty frames
    included; frames above MAX_FRAME are rejected."""
    per_frame: dict[int, list[Detection]] = {}

    def row(parts):
        if len(parts) < 7:
            raise ParseError(f"expected >= 7 fields, got {len(parts)}")
        frame = int(parts[0])
        left, top, w, h = (float(p) for p in parts[2:6])
        conf = float(parts[6])
        if frame < 1:
            raise ParseError(f"frame must be >= 1, got {frame}")
        if frame > MAX_FRAME:
            raise ParseError(f"frame must be <= {MAX_FRAME}, got {frame}")
        box = BoundingBox.from_ltwh(left, top, w, h)
        if not math.isfinite(conf):
            raise ParseError("non-finite value")
        dets = per_frame.setdefault(frame, [])
        dets.append(Detection(frame=frame, det_index=len(dets), box=box,
                              confidence=conf, embedding=None))

    _parse_lines(path, row)
    return [per_frame.get(f, []) for f in range(1, max(per_frame, default=0) + 1)]


def _read_vectors(path, what: str):
    rows: dict[tuple[int, int], np.ndarray] = {}

    def row(parts):
        if len(parts) < 3:
            raise ParseError("expected frame,det_index,values")
        key = int(parts[0]), int(parts[1])
        vec = np.array([float(p) for p in parts[2:]])
        if not np.isfinite(vec).all():
            raise ParseError("non-finite value")
        dim = len(next(iter(rows.values()), vec))  # the first row's
        if len(vec) != dim:
            raise DimensionMismatch(f"{what} dim {len(vec)} != {dim}")
        if key in rows:
            raise DuplicateEmbedding(f"duplicate {what} for {key}")
        rows[key] = vec

    _parse_lines(path, row)
    return rows


def _matched_rows(path, frames, what: str):
    """Yield (detection, vector) for every detection in `frames`, the vector
    read from `path`; raises MissingEmbedding when a detection has no row
    or a row matches no detection."""
    rows = _read_vectors(path, what)
    for dets in frames:
        for d in dets:
            vec = rows.pop((d.frame, d.det_index), None)
            if vec is None:
                raise MissingEmbedding(f"no {what} for (frame={d.frame}, det={d.det_index})")
            yield d, vec
    if rows:
        raise MissingEmbedding(f"{what} row {min(rows)} matches no detection")


def read_embeddings(path, frames):
    """Attach l2-normalized embeddings to parsed detections. Returns
    (frames, renormalized_count); rows whose norm deviates by more than
    1e-6 are normalized and counted."""
    warned = 0
    for d, vec in _matched_rows(path, frames, "embedding"):
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ParseError(f"zero embedding for (frame={d.frame}, det={d.det_index})")
        if abs(norm - 1.0) > NORM_WARN_TOL:
            vec = vec / norm
            warned += 1
        d.embedding = vec
    return frames, warned


def read_raw_features(path, frames):
    """Attach raw (unnormalized) feature vectors to parsed detections."""
    for d, vec in _matched_rows(path, frames, "raw feature"):
        d.raw = vec
    return frames


def read_ground_truth(path):
    def row(parts):
        if len(parts) != 3:
            raise ParseError("expected frame,det_index,true_id")
        return GroundTruthRecord(int(parts[0]), int(parts[1]), int(parts[2]))

    return _parse_lines(path, row)


# One `%` template per written line: `%.6f` and `%.9g` give the bytes of
# `format(x, ".6f")` and `format(v, ".9g")`, and `%d` those of `str(i)`.
_MOT_LINE = "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1"   # frame, id, left, top, w, h, conf


def write_detections(frames, path) -> None:
    lines = []
    for dets in frames:
        for d in dets:
            box = d.box
            x1, y1, _, _ = box.to_xyxy()
            lines.append(_MOT_LINE % (d.frame, -1, x1, y1, box.w, box.h, d.confidence))
    atomic_write(path, lines)


def write_vectors(frames, path, attr: str) -> None:
    lines = []
    dim, template = None, ""
    for dets in frames:
        for d in dets:
            vec = getattr(d, attr).tolist()
            if len(vec) != dim:
                dim, template = len(vec), "%d,%d" + ",%.9g" * len(vec)
            lines.append(template % (d.frame, d.det_index, *vec))
    atomic_write(path, lines)


def write_ground_truth(gt, path) -> None:
    atomic_write(path, ["%d,%d,%d" % (g.frame, g.det_index, g.true_id) for g in gt])


def write_results(state: TrackerState, path) -> None:
    """MOT-style output, one line per applied row of `state`, sorted by (frame, id): its
    detection's box, center converted back to corners, and confidence."""
    tid, frames, det, _ = state.applied()
    order = np.lexsort((tid, frames))
    lines = []
    for frame, track_id, i in zip(*(column[order].tolist() for column in (frames, tid, det))):
        d = state.dets[i]
        x1, y1, _, _ = d.box.to_xyxy()
        lines.append(_MOT_LINE % (frame, track_id, x1, y1, d.box.w, d.box.h, d.confidence))
    atomic_write(path, lines)


def read_results(path) -> list[tuple[int, int]]:
    """The (frame, track_id) pair of each row of a results file."""
    def row(parts):
        if len(parts) != 10:
            raise ParseError(f"expected 10 fields, got {len(parts)}")
        return int(parts[0]), int(parts[1])

    return _parse_lines(path, row)


def write_log(log: np.ndarray, path) -> None:
    """One line per element of the `LOG` array `log`."""
    atomic_write(path, ["%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d" % row for row in log.tolist()])


_INTP_LO, _INTP_HI = np.iinfo(np.intp).min, np.iinfo(np.intp).max


def read_log(path) -> np.ndarray:
    """A log file as a `LOG` array; an integer outside `np.intp` is a ParseError."""
    def row(parts):
        if len(parts) != 9:
            raise ParseError(f"expected 9 fields, got {len(parts)}")
        values = (int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]),
                  float(parts[4]), float(parts[5]), float(parts[6]), float(parts[7]),
                  int(parts[8]))
        if not STAGE_BIRTH <= values[8] <= STAGE_DISSOLVED:
            raise ParseError(f"unknown stage {values[8]}")
        for name, value in zip(LOG.names, values[:3]):
            if not _INTP_LO <= value <= _INTP_HI:
                raise ParseError(f"{name} {value} does not fit np.intp")
        return values

    return np.array(_parse_lines(path, row), LOG)


def write_weights(embedder, path) -> None:
    """Text weights: header `F D`, then F rows of D full-precision values."""
    w = embedder.weights
    lines = [f"{w.shape[0]} {w.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in w]
    atomic_write(path, lines)


def read_weights(path) -> LinearEmbedder:
    """Text weights written by `write_weights`; the first non-blank line is
    the `F D` header."""
    shape, rows = [], []

    def row(parts):
        if not shape:
            if len(parts) != 2:
                raise ParseError("weights header must be `F D`")
            shape.extend(int(p) for p in parts)
            return
        vals = [float(v) for v in parts]
        if len(vals) != shape[1]:
            raise ParseError(f"expected {shape[1]} values")
        rows.append(vals)

    _parse_lines(path, row, sep=None)
    if not shape:
        raise ParseError("line 1: weights header must be `F D`")
    if len(rows) != shape[0]:
        raise ParseError(f"expected {shape[0]} weight rows, got {len(rows)}")
    return LinearEmbedder(np.array(rows))


# --- flat key = value config files ---------------------------------------

_SCENARIO_FIELDS = {f.name: f.type for f in dc_fields(ScenarioConfig)}  # name -> "int", ...


def parse_scenario_config(path) -> ScenarioConfig:
    """Flat `key = value` lines, `#` comments; unknown keys are errors."""
    def row(parts):
        line = parts[0].strip()  # parts[1:] is the comment
        if not line:
            return None
        if "=" not in line:
            raise ParseError("expected `key = value`")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCENARIO_FIELDS:
            raise InvalidConfig(f"unknown key `{key}`")
        if _SCENARIO_FIELDS[key] == "int":
            return key, int(raw)
        if key == "arena":
            parts = raw.split()
            if len(parts) != 2:
                raise ValueError("arena needs two values")
            return key, (float(parts[0]), float(parts[1]))
        return key, float(raw)

    return ScenarioConfig(**dict(kv for kv in _parse_lines(path, row, sep="#") if kv))


def write_scenario_config(cfg: ScenarioConfig, path) -> None:
    lines = []
    for f in dc_fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if f.name == "arena":   # 17 digits read back as the same doubles
            lines.append(f"arena = {v[0]:.17g} {v[1]:.17g}")
        else:
            lines.append(f"{f.name} = {v}")
    atomic_write(path, lines)
