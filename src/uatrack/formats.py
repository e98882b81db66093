"""Text file formats and the flat key=value config parser.

Detections use MOTChallenge-style lines
    frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z
with 1-based frames; the corner convention is converted to center+size at
this boundary. Embeddings/raw features are CSV rows `frame,det_index,v1..`.

Every file is UTF-8, split into lines on `\n`. The numeric tables
(detections, vectors, ground truth, the decision log) are read in bulk:
`np.loadtxt` parses an ASCII file into one structured array, and the
checks run on whole columns. Any file that parse or a check declines is
read again by the table's per-line reader (`_parse_lines` and a `row`
function). That reader is the reference: it names the line of any error,
and the bulk read returns exactly what it returns. Results, weights and
scenario configs are read only line by line.

All writes go through a write-temp-then-rename helper so outputs are atomic
and byte-reproducible; the temp file is created beside the target with mode
0o666, so the kernel applies the umask and the process umask is never
changed.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import fields as dc_fields

import numpy as np

from .errors import (DegenerateBox, DimensionMismatch, InvalidConfig, IoFailure,
                     MissingEmbedding, ParseError, UatrackError)
from .geometry import BoundingBox
from .tracker import (LOG, MAX_FRAME, STAGE_BIRTH, STAGE_DISSOLVED, Detection, TrackerState,
                      applied)

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
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


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


# numpy's parser strips these around a field as white space, `int` and `float` do not
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _ascii_lines(path) -> list[str] | None:
    """The lines of `path`, split on `\n` only as `_parse_lines` splits
    them; None for a file that is not ASCII or holds a byte of
    `_SEPARATORS`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or any(sep in data for sep in _SEPARATORS):
        return None
    return data.decode("ascii").split("\n")


def _table(lines, dtype, usecols=None) -> np.ndarray | None:
    """`lines` as one structured array of `dtype`, a row per non-empty line,
    parsed in one pass by numpy's C reader (`np.loadtxt`). Where that parse
    and `_parse_lines` could differ it fails, and this returns None: on a
    whitespace-only line, a `\r` inside a line, a column too many or too
    few, an integer field that is not a plain int64, or a file without rows.
    Any warning counts as a failure: loadtxt warns on a file without rows,
    and numpy < 2 parses `1.0` as the integer 1 with a DeprecationWarning.
    Its ints and floats are those `int` and `float` give for ASCII fields."""
    if lines is None:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype, delimiter=",", comments=None, usecols=usecols,
                              ndmin=1)
        except (ValueError, Warning):
            return None


# det.txt's frame and its box and confidence, fields 0 and 2-6; the rest go unread
_DET_TABLE = np.dtype([("frame", np.int64), ("ltwhc", np.float64, (5,))])


def read_detections(path):
    """Parse a MOT detections file into per-frame Detection lists (without
    embeddings): frame t at index t-1, for frames 1..max_frame, empty frames
    included; frames above MAX_FRAME are rejected."""
    table = _table(_ascii_lines(path), _DET_TABLE, usecols=(0, 2, 3, 4, 5, 6))
    frames = None if table is None else _detections(table)
    return _read_detections_lines(path) if frames is None else frames


def _detections(table):
    """`read_detections`' frames from a parsed table, or None when a row
    fails a check; `_read_detections_lines` then names it."""
    frame, values = table["frame"], table["ltwhc"]
    if not (np.isfinite(values).all() and ((1 <= frame) & (frame <= MAX_FRAME)).all()):
        return None
    left, top, w, h, conf = values.T
    with np.errstate(over="ignore"):   # a centre past the float range: BoundingBox declines it
        cx, cy = left + w / 2.0, top + h / 2.0
    order = np.argsort(frame, kind="stable")
    counts = np.bincount(frame, minlength=frame.max() + 1)[1:]
    ends = np.cumsum(counts)
    cx, cy, w, h, conf = (column[order].tolist() for column in (cx, cy, w, h, conf))
    try:   # `BoundingBox` owns a box's rules, and the per-line reader names the line
        dets = list(map(Detection, map(BoundingBox, cx, cy, w, h), conf))
    except DegenerateBox:
        return None
    return [dets[end - n:end] for end, n in zip(ends.tolist(), counts.tolist())]


def _read_detections_lines(path):
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
        per_frame.setdefault(frame, []).append(Detection(box, conf))

    _parse_lines(path, row)
    return [per_frame.get(f, []) for f in range(1, max(per_frame, default=0) + 1)]


def _read_vectors(path, what: str):
    """(frame, det_index) -> vector for each row of `path`, in file order."""
    lines = _ascii_lines(path)
    first = next((line for line in lines if line.strip()), "") if lines else ""
    dim = first.count(",") - 1   # the first row's; loadtxt holds every row to it
    if dim > 0:
        table = _table(lines, [("frame", np.int64), ("det_index", np.int64),
                               ("vec", np.float64, (dim,))])
        if table is not None and np.isfinite(table["vec"]).all():
            rows = dict(zip(zip(table["frame"].tolist(), table["det_index"].tolist()),
                            table["vec"]))
            if len(rows) == len(table):   # else a key repeats
                return rows
    return _read_vectors_lines(path, what)


def _read_vectors_lines(path, what: str):
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
            raise ParseError(f"duplicate {what} for {key}")
        rows[key] = vec

    _parse_lines(path, row)
    return rows


def _matched_rows(path, frames, what: str):
    """Yield (frame, det_index, detection, vector) for every detection in
    `frames`, the vector read from `path`; raises MissingEmbedding when a
    detection has no row or a row matches no detection."""
    rows = _read_vectors(path, what)
    for frame, dets in enumerate(frames, start=1):
        for i, d in enumerate(dets):
            vec = rows.pop((frame, i), None)
            if vec is None:
                raise MissingEmbedding(f"no {what} for (frame={frame}, det={i})")
            yield frame, i, d, vec
    if rows:
        raise MissingEmbedding(f"{what} row {min(rows)} matches no detection")


def read_embeddings(path, frames) -> int:
    """Attach l2-normalized embeddings to the parsed detections of `frames`
    in place. Returns the count of rows whose norm deviated by more than
    1e-6; those are normalized."""
    warned = 0
    for frame, i, d, vec in _matched_rows(path, frames, "embedding"):
        norm = math.sqrt(vec.dot(vec))   # the bits of np.linalg.norm(vec)
        if norm == 0.0:
            raise ParseError(f"zero embedding for (frame={frame}, det={i})")
        if abs(norm - 1.0) > NORM_WARN_TOL:
            vec = vec / norm
            warned += 1
        d.embedding = vec
    return warned


def read_raw_features(path, frames) -> None:
    """Attach raw (unnormalized) feature vectors to the parsed detections of `frames` in place."""
    for _, _, d, vec in _matched_rows(path, frames, "raw feature"):
        d.raw = vec


_GT_TABLE = np.dtype([("frame", np.int64), ("det_index", np.int64), ("true_id", np.int64)])


def read_ground_truth(path) -> dict[tuple[int, int], int]:
    """(frame, det_index) -> true id for each row of `path`, in file order."""
    table = _table(_ascii_lines(path), _GT_TABLE)
    if table is not None:
        gt = dict(zip(zip(table["frame"].tolist(), table["det_index"].tolist()),
                      table["true_id"].tolist()))
        if len(gt) == len(table):   # else a key repeats
            return gt
    return _read_ground_truth_lines(path)


def _read_ground_truth_lines(path):
    gt: dict[tuple[int, int], int] = {}

    def row(parts):
        if len(parts) != 3:
            raise ParseError("expected frame,det_index,true_id")
        key, true_id = (int(parts[0]), int(parts[1])), int(parts[2])
        if key in gt:
            raise ParseError(f"duplicate ground truth for {key}")
        gt[key] = true_id

    _parse_lines(path, row)
    return gt


# One `%` template per written line: `%.6f` and `%.9g` give the bytes of
# `format(x, ".6f")` and `format(v, ".9g")`, and `%d` those of `str(i)`.
def _mot_line(frame: int, track_id: int, det: Detection) -> str:
    """frame, id, left, top, w, h, conf: the detection's box, center
    converted back to corners, and its confidence."""
    box = det.box
    x1, y1, _, _ = box.to_xyxy()
    return "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1" % (
        frame, track_id, x1, y1, box.w, box.h, det.confidence)


def write_detections(frames, path) -> None:
    atomic_write(path, [_mot_line(frame, -1, d)
                        for frame, dets in enumerate(frames, start=1) for d in dets])


def write_vectors(frames, path, attr: str) -> None:
    lines = []
    dim, template = None, ""
    for frame, dets in enumerate(frames, start=1):
        for i, d in enumerate(dets):
            vec = getattr(d, attr).tolist()
            if len(vec) != dim:
                dim, template = len(vec), "%d,%d" + ",%.9g" * len(vec)
            lines.append(template % (frame, i, *vec))
    atomic_write(path, lines)


def write_ground_truth(gt, path) -> None:
    atomic_write(path, ["%d,%d,%d" % (*key, true_id) for key, true_id in gt.items()])


def write_results(state: TrackerState, path) -> None:
    """MOT-style output, one line per applied row of `state`, sorted by
    (frame, id)."""
    rows = applied(state.table[:state.n_rows])
    rows = rows.take(np.lexsort((rows["track_id"], rows["frame"])))
    atomic_write(path, [_mot_line(frame, track_id, state.dets[i]) for frame, track_id, i
                        in zip(*(rows[name].tolist() for name in ("frame", "track_id", "det")))])


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
    table = _table(_ascii_lines(path), LOG)   # an int past np.intp fails the parse
    if table is not None and ((STAGE_BIRTH <= table["stage"])
                              & (table["stage"] <= STAGE_DISSOLVED)).all():
        return table
    return _read_log_lines(path)


def _read_log_lines(path):
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


def write_weights(weights: np.ndarray, path) -> None:
    """The (F × D) `weights` as text: header `F D`, then F rows of D full-precision values."""
    lines = [f"{weights.shape[0]} {weights.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in weights]
    atomic_write(path, lines)


def read_weights(path) -> np.ndarray:
    """The (F × D) matrix of text weights written by `write_weights`; the
    first non-blank line is the `F D` header."""
    shape, rows = [], []

    def row(parts):
        if not shape:
            if len(parts) != 2:
                raise ParseError("weights header must be `F D`")
            shape.extend(int(p) for p in parts)
            if min(shape) < 1:
                raise ParseError(f"weights header needs F, D >= 1, got {shape[0]} {shape[1]}")
            return
        vals = [float(v) for v in parts]
        if not all(map(math.isfinite, vals)):
            raise ParseError("non-finite value")
        if len(vals) != shape[1]:
            raise ParseError(f"expected {shape[1]} values")
        rows.append(vals)

    _parse_lines(path, row, sep=None)
    if not shape:
        raise ParseError("line 1: weights header must be `F D`")
    if len(rows) != shape[0]:
        raise ParseError(f"expected {shape[0]} weight rows, got {len(rows)}")
    return np.array(rows)


# --- flat key = value config files ---------------------------------------

def parse_scenario_config(path):
    """A `ScenarioConfig` from flat `key = value` lines, `#` comments;
    unknown and repeated keys are errors."""
    from .simulator import ScenarioConfig
    types = {f.name: f.type for f in dc_fields(ScenarioConfig)}   # name -> "int", ...
    seen = set()

    def row(parts):
        line = parts[0].strip()  # parts[1:] is the comment
        if not line:
            return None
        if "=" not in line:
            raise ParseError("expected `key = value`")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in types:
            raise InvalidConfig(f"unknown key `{key}`")
        if key in seen:
            raise InvalidConfig(f"duplicate key `{key}`")
        seen.add(key)
        if types[key] == "int":
            return key, int(raw)
        if key == "arena":
            parts = raw.split()
            if len(parts) != 2:
                raise ValueError("arena needs two values")
            return key, (float(parts[0]), float(parts[1]))
        return key, float(raw)

    return ScenarioConfig(**dict(kv for kv in _parse_lines(path, row, sep="#") if kv))


def write_scenario_config(cfg, path) -> None:
    lines = []
    for f in dc_fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "arena":   # 17 digits read back as the same doubles
            lines.append(f"arena = {v[0]:.17g} {v[1]:.17g}")
        else:
            lines.append(f"{f.name} = {v}")
    atomic_write(path, lines)
