"""Text file formats and the flat key=value config parser.

Detections use MOTChallenge-style lines
    frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z
with 1-based frames; the corner convention is converted to center+size at
this boundary. Embeddings/raw features are CSV rows `frame,det_index,v1..`.
All writes go through a write-temp-then-rename helper so outputs are atomic
and byte-reproducible.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import fields as dc_fields

import numpy as np

from .errors import (DimensionMismatch, DuplicateEmbedding, InvalidConfig,
                     IoFailure, MissingEmbedding, NonPositiveSize, ParseError)
from .geometry import BoundingBox
from .simulator import GroundTruthRecord, ScenarioConfig
from .tracker import STAGE_BIRTH, STAGE_DISSOLVED, Detection, LogRow, Tracklet

NORM_WARN_TOL = 1e-6


def _umask() -> int:
    """The process umask; `os.umask` can only read it by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write(path, lines) -> None:
    """Write text lines to `path` via a temp file + rename. The file gets
    the mode a plain `open` would give it (0o666 less the umask); the temp
    file is removed if the write or the rename fails."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as fh:
                for line in lines:
                    fh.write(line + "\n")
            os.chmod(tmp, 0o666 & ~_umask())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_detections(path):
    """Parse a MOT detections file into per-frame Detection lists (without
    embeddings). Returns a list of (frame, detections) for frames
    1..max_frame, including empty frames."""
    per_frame: dict[int, list[Detection]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise ParseError(f"line {lineno}: expected >= 7 fields, got {len(parts)}")
            try:
                frame = int(parts[0])
                left, top, w, h = (float(p) for p in parts[2:6])
                conf = float(parts[6])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if frame < 1:
                raise ParseError(f"line {lineno}: frame must be >= 1, got {frame}")
            if w <= 0 or h <= 0:
                raise NonPositiveSize(f"line {lineno}: w={w} h={h}")
            if not all(math.isfinite(v) for v in (left, top, w, h, conf)):
                raise ParseError(f"line {lineno}: non-finite value")
            dets = per_frame.setdefault(frame, [])
            dets.append(Detection(frame=frame, det_index=len(dets),
                                  box=BoundingBox(left + w / 2.0, top + h / 2.0, w, h),
                                  confidence=conf, embedding=None))
    if not per_frame:
        return []
    max_frame = max(per_frame)
    return [(f, per_frame.get(f, [])) for f in range(1, max_frame + 1)]


def _read_vectors(path, what: str):
    rows: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise ParseError(f"line {lineno}: expected frame,det_index,values")
            try:
                frame, det_index = int(parts[0]), int(parts[1])
                vec = np.array([float(p) for p in parts[2:]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not np.isfinite(vec).all():
                raise ParseError(f"line {lineno}: non-finite value")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise DimensionMismatch(
                    f"line {lineno}: {what} dim {vec.shape[0]} != {dim}")
            key = (frame, det_index)
            if key in rows:
                raise DuplicateEmbedding(f"duplicate {what} for {key}")
            rows[key] = vec
    return rows


def read_embeddings(path, frames):
    """Attach l2-normalized embeddings to parsed detections. Returns
    (frames, renormalized_count); rows whose norm deviates by more than
    1e-6 are normalized and counted."""
    rows = _read_vectors(path, "embedding")
    warned = 0
    for frame, dets in frames:
        for d in dets:
            key = (frame, d.det_index)
            if key not in rows:
                raise MissingEmbedding(f"no embedding for (frame={frame}, det={d.det_index})")
            vec = rows.pop(key)
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ParseError(f"zero embedding for (frame={frame}, det={d.det_index})")
            if abs(norm - 1.0) > NORM_WARN_TOL:
                vec = vec / norm
                warned += 1
            d.embedding = vec
    if rows:
        key = sorted(rows)[0]
        raise MissingEmbedding(f"embedding row {key} matches no detection")
    return frames, warned


def read_raw_features(path, frames):
    """Attach raw (unnormalized) feature vectors to parsed detections."""
    rows = _read_vectors(path, "raw feature")
    for frame, dets in frames:
        for d in dets:
            key = (frame, d.det_index)
            if key not in rows:
                raise MissingEmbedding(f"no raw feature for (frame={frame}, det={d.det_index})")
            d.raw = rows.pop(key)
    return frames


def read_ground_truth(path):
    gt = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected frame,det_index,true_id")
            try:
                gt.append(GroundTruthRecord(int(parts[0]), int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    return gt


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_detections(frames, path) -> None:
    lines = []
    for frame, dets in frames:
        for d in dets:
            x1, y1, _, _ = d.box.to_xyxy()
            lines.append(",".join([str(frame), "-1", _fmt(x1), _fmt(y1),
                                   _fmt(d.box.w), _fmt(d.box.h), _fmt(d.confidence),
                                   "-1", "-1", "-1"]))
    atomic_write(path, lines)


def write_vectors(frames, path, attr: str) -> None:
    lines = []
    for frame, dets in frames:
        for d in dets:
            vec = getattr(d, attr)
            lines.append(",".join([str(frame), str(d.det_index)]
                                  + [f"{v:.9g}" for v in vec]))
    atomic_write(path, lines)


def write_ground_truth(gt, path) -> None:
    atomic_write(path, [f"{g.frame},{g.det_index},{g.true_id}" for g in gt])


def write_results(tracklets: list[Tracklet], path) -> None:
    """MOT-style output, center converted back to corners, sorted by
    (frame, id)."""
    rows = []
    for trk in tracklets:
        for rec in trk.records:
            x1, y1, _, _ = rec.box.to_xyxy()
            rows.append((rec.frame, trk.id, x1, y1, rec.box.w, rec.box.h,
                         rec.confidence))
    rows.sort(key=lambda r: (r[0], r[1]))
    atomic_write(path, [
        ",".join([str(f), str(tid), _fmt(x), _fmt(y), _fmt(w), _fmt(h),
                  _fmt(c), "-1", "-1", "-1"]) for f, tid, x, y, w, h, c in rows])


def write_log(log: list[LogRow], path) -> None:
    atomic_write(path, [
        ",".join([str(r.frame), str(r.det_index), str(r.track_id),
                  _fmt(r.c1), _fmt(r.c2), _fmt(r.sigma), _fmt(r.gamma),
                  _fmt(r.delta), str(r.stage)]) for r in log])


def read_log(path) -> list[LogRow]:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 9:
                raise ParseError(f"line {lineno}: expected 9 fields, got {len(parts)}")
            try:
                row = LogRow(frame=int(parts[0]), det_index=int(parts[1]),
                             track_id=int(parts[2]), c1=float(parts[3]),
                             c2=float(parts[4]), sigma=float(parts[5]),
                             gamma=float(parts[6]), delta=float(parts[7]),
                             stage=int(parts[8]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not STAGE_BIRTH <= row.stage <= STAGE_DISSOLVED:
                raise ParseError(f"line {lineno}: unknown stage {row.stage}")
            rows.append(row)
    return rows


def write_weights(embedder, path) -> None:
    """Text weights: header `F D`, then F rows of D full-precision values."""
    w = embedder.weights
    lines = [f"{w.shape[0]} {w.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in w]
    atomic_write(path, lines)


def read_weights(path):
    from .contrastive import LinearEmbedder
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError("line 1: weights header must be `F D`")
        try:
            f_dim, d_dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ParseError(f"line 1: {exc}") from exc
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                vals = [float(v) for v in line.split()]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if len(vals) != d_dim:
                raise ParseError(f"line {lineno}: expected {d_dim} values")
            rows.append(vals)
    if len(rows) != f_dim:
        raise ParseError(f"expected {f_dim} weight rows, got {len(rows)}")
    return LinearEmbedder(np.array(rows))


# --- flat key = value config files ---------------------------------------

_SCENARIO_FIELDS = {f.name: f.type for f in dc_fields(ScenarioConfig)}


def parse_scenario_config(path) -> ScenarioConfig:
    """Flat `key = value` lines, `#` comments; unknown keys are errors."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected `key = value`")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _SCENARIO_FIELDS:
                raise InvalidConfig(f"line {lineno}: unknown key `{key}`")
            try:
                if key in ("num_objects", "num_frames", "embed_dim", "raw_dim", "seed"):
                    values[key] = int(raw)
                elif key == "arena":
                    parts = raw.split()
                    if len(parts) != 2:
                        raise ValueError("arena needs two values")
                    values[key] = (float(parts[0]), float(parts[1]))
                else:
                    values[key] = float(raw)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    return ScenarioConfig(**values)


def write_scenario_config(cfg: ScenarioConfig, path) -> None:
    lines = []
    for f in dc_fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if f.name == "arena":
            lines.append(f"arena = {v[0]:g} {v[1]:g}")
        else:
            lines.append(f"{f.name} = {v}")
    atomic_write(path, lines)
