"""Tests for the synthetic scene generator."""

import ctypes
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uatrack import cli, formats, simulator
from uatrack.errors import DegenerateBox, InvalidConfig
from uatrack.geometry import BoundingBox, box_array, iou
from uatrack.simulator import ScenarioConfig, generate
from uatrack.tracker import Detection


SMALL = ScenarioConfig(num_objects=4, num_frames=40, seed=3)

# sha256 of `test_output_bits_pinned`'s scene per OpenBLAS kernel, keyed by
# the name the kernel reports: the scene's vectors come from LAPACK's QR and
# BLAS products, whose last bits differ between kernels. Each value held
# under OPENBLAS_CORETYPE, with numpy's AVX-512 kernels and without them
# (NPY_DISABLE_CPU_FEATURES=X86_V4). Zen reads Haswell, Prescott reads
# Katmai, and Atom and Barcelona read Nehalem.
SCENE_DIGESTS = {
    "SkylakeX": "bf1f0c4e3ffcbcfcdd112854387a2135244accaad3bc2908241145dcbbc9b6d1",
    "Haswell": "1f439606a0c757559dc6c2cb299f07a6d62ae815c8f4b12aad9830ed31ebad92",
    "Sandybridge": "4974f4d1a9d8ce69392444edae30b34dc07065f8372a89eb473885f607134560",
    "Katmai": "4cbd53563929b05e91d951c3355cded21525cb2e7d7f5110754a171da658ab53",
    "Nehalem": "4cbd53563929b05e91d951c3355cded21525cb2e7d7f5110754a171da658ab53",
}


def openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS runs, by the name that
    `scipy_openblas_get_corename64_` reports."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown: no libscipy_openblas64_*.so in numpy.libs"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


class TestConfigValidation:
    def test_num_frames_bounded_by_max_frame(self):
        # the largest frame `read_detections` accepts, so `track` can read
        # every bundle `simulate` writes
        bound = simulator.MAX_FRAME
        assert formats.MAX_FRAME == bound
        assert ScenarioConfig(num_frames=bound).num_frames == bound
        with pytest.raises(InvalidConfig, match=f"num_frames must be in \\[2, {bound}\\]"):
            ScenarioConfig(num_frames=bound + 1)

    @pytest.mark.parametrize("name, at", [
        ("num_objects", dict(num_objects=simulator.MAX_OBJECTS)),
        # embed_dim may not exceed raw_dim, so both sit at the bound
        ("embed_dim", dict(embed_dim=simulator.MAX_DIM, raw_dim=simulator.MAX_DIM)),
        ("raw_dim", dict(raw_dim=simulator.MAX_DIM)),
    ])
    def test_scene_size_bounded(self, name, at):
        ScenarioConfig(**at)
        with pytest.raises(InvalidConfig, match=f"^{name} must be in "):
            ScenarioConfig(**dict(at, **{name: at[name] + 1}))

    @pytest.mark.parametrize("line, name", [
        ("num_objects = 50000", "num_objects"),
        ("raw_dim = 1000000000", "raw_dim"),
    ])
    def test_cli_rejects_oversized_scene_before_generating(
            self, tmp_path, capsys, monkeypatch, line, name):
        def unreachable(cfg):
            raise AssertionError("generate reached")
        monkeypatch.setattr(simulator, "generate", unreachable)
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(f"{line}\nnum_frames = 2\n")
        code = cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == cli.DATA_ERROR
        assert f"uatrack simulate: {name} must be in " in err
        assert "Traceback" not in err

    # 512 * (1024 + 1024) * 128 is exactly 2**27. A scene with every field
    # legal, 1000 objects, raw_dim 4096 and 100,000 frames, would keep ~3.3 TB
    BIG = dict(num_objects=512, embed_dim=1024, raw_dim=1024, num_frames=128)

    def test_scene_values_bounded(self):
        assert simulator.MAX_SCENE_VALUES == 2**27
        ScenarioConfig(**self.BIG)
        with pytest.raises(InvalidConfig, match=r"^num_objects \* \(embed_dim \+ raw_dim\)"):
            ScenarioConfig(**dict(self.BIG, num_frames=129))
        with pytest.raises(InvalidConfig, match=r" = 411200000000$"):
            ScenarioConfig(num_objects=1000, raw_dim=4096, num_frames=100_000)

    def test_scene_detections_bounded(self):
        """Each detection keeps Python objects besides its vectors, so the
        detection count is bounded too: 1,000 objects over 8,000 frames at
        dims 2/2 keep 3.2e7 values, within MAX_SCENE_VALUES, but about 5.6 GB
        of objects. Only configs are built here, never a scene."""
        assert simulator.MAX_SCENE_DETECTIONS == 2**21
        ScenarioConfig(num_frames=simulator.MAX_FRAME)   # 1.2M, the largest scene built
        ScenarioConfig(num_objects=512, num_frames=4096, embed_dim=2, raw_dim=2)   # 2**21
        with pytest.raises(InvalidConfig, match=r"^num_objects \* num_frames must be <= "
                                                r"2097152, got 512 \* 4097 = 2097664$"):
            ScenarioConfig(num_objects=512, num_frames=4097, embed_dim=2, raw_dim=2)
        with pytest.raises(InvalidConfig, match=r" = 8000000$"):
            ScenarioConfig(num_objects=1000, num_frames=8000, embed_dim=2, raw_dim=2)

    @pytest.mark.parametrize("lines, message", [
        ("num_objects = 512\nembed_dim = 1024\nraw_dim = 1024\nnum_frames = 129\n",
         "num_objects * (embed_dim + raw_dim) * num_frames must be <= "),
        ("num_objects = 1000\nraw_dim = 4096\nnum_frames = 100000\n",
         "num_objects * (embed_dim + raw_dim) * num_frames must be <= "),
        ("num_objects = 1000\nembed_dim = 2\nraw_dim = 2\nnum_frames = 8000\n",
         "num_objects * num_frames must be <= 2097152, got 1000 * 8000 = 8000000"),
    ], ids=["one-frame-past-bound", "fields-at-bounds", "too-many-detections"])
    def test_cli_rejects_scene_too_large_before_generating(
            self, tmp_path, capsys, monkeypatch, lines, message):
        def unreachable(cfg):
            raise AssertionError("generate reached")
        monkeypatch.setattr(simulator, "generate", unreachable)
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(lines)
        code = cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == cli.DATA_ERROR
        assert f"uatrack simulate: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim").exists()

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
        # no box of the largest size (BOX_MAX) fits
        dict(arena=(47.9, 420.0)),
        dict(arena=(560.0, 1.0)),
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(**kw)


class TestGenerate:
    def test_shapes_and_indices(self):
        frames, gt = generate(SMALL)
        assert len(frames) == 40
        for dets in frames:
            for d in dets:
                assert d.embedding.shape == (SMALL.embed_dim,)
                assert d.raw.shape == (SMALL.raw_dim,)
                assert 0.0 <= d.confidence <= 1.0
        # ground truth names each detection by its place: frame f, index j
        assert list(gt) == \
            [(f, j) for f, dets in enumerate(frames, start=1) for j in range(len(dets))]

    def test_embeddings_unit_norm(self):
        frames, _ = generate(SMALL)
        for dets in frames:
            for d in dets:
                assert np.linalg.norm(d.embedding) == pytest.approx(1.0)

    def test_ground_truth_covers_detections(self):
        frames, gt = generate(SMALL)
        for f, dets in enumerate(frames, start=1):
            for j in range(len(dets)):
                assert (f, j) in gt
        assert set(gt.values()) <= set(range(1, SMALL.num_objects + 1))

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
        # camera drift shifts boxes; with zero drift every center stays
        # inside, also in narrow arenas, where a step can be longer than the
        # corridor between a center's two wall limits, which one reflection
        # cannot bring back
        for aw, ah in [(560.0, 420.0), (48.0, 48.0), (52.0, 52.0)]:
            cfg = ScenarioConfig(num_objects=6, num_frames=120, camera_drift=0.0, seed=6,
                                 arena=(aw, ah))
            for dets in generate(cfg)[0]:
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
            boxes = box_array([d.box for d in dets])
            overlap = iou(boxes, boxes)
            for i, j in zip(*np.nonzero(overlap > 0.4)):
                if i < j:
                    assert dets[i].confidence < 0.6 and dets[j].confidence < 0.6
                    found = True
        assert found, "default scenario should contain heavy occlusions"

    def test_raw_features_linearly_decodable(self):
        """A least-squares readout of the raw features recovers identity."""
        cfg = ScenarioConfig(num_objects=6, num_frames=50, seed=11)
        frames, gt = generate(cfg)
        X = np.array([d.raw for dets in frames for d in dets])
        y = np.array([gt[(f, j)] for f, dets in enumerate(frames, start=1)
                      for j in range(len(dets))])
        onehot = np.eye(cfg.num_objects)[y - 1]
        W, *_ = np.linalg.lstsq(X, onehot, rcond=None)
        pred = (X @ W).argmax(axis=1) + 1
        assert (pred == y).mean() > 0.95


def _reference_generate(cfg: ScenarioConfig, contacts=None):
    """The per-object frame loop `generate` replaced, kept as its oracle:
    one `BoundingBox`, embedding and raw projection per object and frame,
    from the same RNG stream, every frame reflected and clamped. A frame's
    kept embeddings are stacked and
    each is normalised as a row of that matrix, by the ddot of the row
    view, as `generate` takes it: under OpenBLAS's Katmai (Prescott)
    kernel, ddot on a row view of a matrix can round differently from ddot
    on a fresh vector, which `np.linalg.norm` of a lone vector takes.
    A `contacts` list gets one bool a frame: whether some center was
    outside its limits before the reflection."""
    def unit(v):
        return v / np.linalg.norm(v)

    rng = np.random.default_rng(cfg.seed)
    n, d, f = cfg.num_objects, cfg.embed_dim, cfg.raw_dim
    aw, ah = cfg.arena
    if n <= d:
        latents, _ = np.linalg.qr(rng.normal(size=(d, n)))
        latents = latents.T
    else:
        latents = np.stack([unit(rng.normal(size=d)) for _ in range(n)])
    n_pairs = int(round(cfg.confusable_fraction * n / 2.0))
    for p in range(min(n_pairs, n // 2)):
        a, b = 2 * p, 2 * p + 1
        latents[b] = unit(latents[a] + simulator.CONFUSABLE_PERTURB * rng.normal(size=d))
    basis, _ = np.linalg.qr(rng.normal(size=(f, d)))

    sizes = rng.uniform(simulator.BOX_MIN, simulator.BOX_MAX, size=(n, 2))
    half = sizes / 2.0
    high = np.array([aw, ah]) - half
    lo = half + 1.0
    hi = high - 1.0
    pos = lo + rng.random((n, 2)) * (hi - lo)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vel = cfg.speed * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cam = np.zeros(2)
    cam_angle = rng.uniform(0.0, 2.0 * np.pi)

    frames, gt = [], {}
    for frame in range(1, cfg.num_frames + 1):
        pos = pos + vel + rng.normal(0.0, simulator.POSITION_JITTER, size=(n, 2))
        below, above = pos < half, pos > high
        if contacts is not None:
            contacts.append(bool(below.any() or above.any()))
        pos = np.where(below, 2 * half - pos, np.where(above, 2 * high - pos, pos))
        pos = np.minimum(np.maximum(pos, half), high)
        vel = np.where(below, np.abs(vel), np.where(above, -np.abs(vel), vel))
        cam_angle += rng.normal(0.0, 0.3)
        cam = cam + cfg.camera_drift * np.array([np.cos(cam_angle), np.sin(cam_angle)])

        boxes = [BoundingBox(pos[i, 0] + cam[0], pos[i, 1] + cam[1],
                             sizes[i, 0], sizes[i, 1]) for i in range(n)]
        overlap = iou(box_array(boxes), box_array(boxes))
        np.fill_diagonal(overlap, 0.0)
        max_iou = overlap.max(axis=1)
        emb_noise = rng.normal(size=(n, d))
        raw_noise = rng.normal(size=(n, f))
        forced_occ = rng.random(n) < cfg.occlusion_rate
        dropped = rng.random(n) < cfg.dropout

        kept = [i for i in range(n) if not dropped[i]]
        embs = np.zeros((len(kept), d))
        for row, i in zip(embs, kept):
            occluded = max_iou[i] > simulator.OCCLUSION_IOU or forced_occ[i]
            sigma = cfg.appearance_noise * (cfg.occlusion_noise_boost if occluded else 1.0)
            row[:] = latents[i] + sigma * simulator.NOISE_SCALE * emb_noise[i] / np.sqrt(d)
        dets = []
        for i, emb in zip(kept, embs):
            emb = emb / np.sqrt(emb.dot(emb))
            raw = basis @ latents[i] + simulator.RAW_NOISE * raw_noise[i]
            conf = 1.0 - min(0.9, float(max_iou[i]))
            gt[frame, len(dets)] = i + 1
            dets.append(Detection(box=boxes[i], confidence=conf, embedding=emb, raw=raw))
        frames.append(dets)
    return frames, gt


def _box_fields(det):
    return (det.box.cx, det.box.cy, det.box.w, det.box.h, det.confidence)


def _assert_same_bits(scene, ref_scene):
    (frames, gt), (ref_frames, ref_gt) = scene, ref_scene
    assert list(gt.items()) == list(ref_gt.items())
    assert [len(dets) for dets in frames] == [len(dets) for dets in ref_frames]
    for dets, ref_dets in zip(frames, ref_frames):
        for det, ref in zip(dets, ref_dets):
            assert _box_fields(det) == _box_fields(ref)
            assert det.embedding.tobytes() == ref.embedding.tobytes()
            assert det.raw.tobytes() == ref.raw.tobytes()


def _frame_values(cfg: ScenarioConfig) -> int:
    """A frame's share of `simulator.BLOCK_VALUES`: its normals and its
    2 · n² overlap values."""
    n = cfg.num_objects
    return n * (2 + cfg.embed_dim + cfg.raw_dim) + 1 + 2 * n * n


def _generate(cfg: ScenarioConfig, frames_per_block=None):
    """`generate(cfg)` in blocks of `frames_per_block` frames, by setting
    `BLOCK_VALUES` to that many frames' values, or of the derived size
    when None."""
    with pytest.MonkeyPatch.context() as mp:
        if frames_per_block is not None:
            mp.setattr(simulator, "BLOCK_VALUES", frames_per_block * _frame_values(cfg))
        return generate(cfg)


class TestRowNorms:
    """`generate` takes each embedding row's squared norm from one stacked
    `np.matmul` of (1 x d) by (d x 1); every product must be the ddot that
    `v.dot(v)` takes of the row, bit for bit. CI runs this under three
    other OpenBLAS kernels too. A crowd frame stacks 150 rows and a
    default block about 1,600."""

    @pytest.mark.parametrize("rows", [0, 1, 150, 2048])
    @pytest.mark.parametrize("d", [2, 16, 160, 4096])
    @settings(max_examples=10)
    @given(scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32))
    def test_stacked_matmul_is_the_rows_ddot(self, rows, d, scale, seed):
        e = scale * np.random.default_rng(seed).standard_normal((rows, d))
        stacked = np.matmul(e[:, None, :], e[:, :, None]).reshape(rows)
        assert stacked.tobytes() == np.array([v.dot(v) for v in e], float).tobytes()


class TestWholeFrameGeneration:
    """`generate` builds each block of frames from whole matrices; every
    output bit must equal the per-object loop's, whatever the block size.
    Every scene drawn here fits in one block of the derived size, so each
    also runs in blocks of 1 and 2 frames: a last block of 1 frame, and
    frames whose objects are all dropped inside a block."""

    @given(num_objects=st.integers(1, 14),
           embed_dim=st.integers(2, 8),
           extra_raw=st.integers(0, 8),
           num_frames=st.integers(2, 6),
           dropout=st.floats(0.0, 1.0),
           occlusion_rate=st.floats(0.0, 1.0),
           confusable_fraction=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    @example(num_objects=12, embed_dim=4, extra_raw=0, num_frames=5, dropout=1.0,
             occlusion_rate=0.3, confusable_fraction=0.3, seed=3)   # n > d, every object dropped
    @example(num_objects=3, embed_dim=8, extra_raw=4, num_frames=5, dropout=0.0,
             occlusion_rate=0.3, confusable_fraction=1.0, seed=5)   # n <= d, none dropped
    @example(num_objects=1, embed_dim=2, extra_raw=0, num_frames=5, dropout=0.5,
             occlusion_rate=0.0, confusable_fraction=0.0, seed=0)   # empty frames
    @example(num_objects=3, embed_dim=3, extra_raw=0, num_frames=2, dropout=0.0,
             occlusion_rate=0.0, confusable_fraction=0.0, seed=0)   # odd rows, see `generate`
    def test_equals_per_object_reference(self, num_objects, embed_dim, extra_raw,
                                         num_frames, dropout, occlusion_rate,
                                         confusable_fraction, seed):
        cfg = ScenarioConfig(num_objects=num_objects, embed_dim=embed_dim,
                             raw_dim=embed_dim + extra_raw, num_frames=num_frames,
                             dropout=dropout, occlusion_rate=occlusion_rate,
                             confusable_fraction=confusable_fraction, seed=seed)
        reference = _reference_generate(cfg)
        for frames_per_block in (None, 1, 2):
            _assert_same_bits(_generate(cfg, frames_per_block), reference)

    def test_blocks_end_inside_the_scene(self):
        """The sparse example above has what block boundaries need: with
        2-frame blocks a block holding an empty frame and a kept one, and a
        last block of one frame."""
        cfg = ScenarioConfig(num_objects=1, embed_dim=2, raw_dim=2, num_frames=5,
                             dropout=0.5, occlusion_rate=0.0, confusable_fraction=0.0,
                             seed=0)
        sizes = [len(dets) for dets in _generate(cfg, 2)[0]]
        blocks = [sizes[i:i + 2] for i in range(0, len(sizes), 2)]
        assert len(blocks[-1]) == 1
        assert any(0 in block and any(block) for block in blocks)

    def test_output_bits_pinned(self):
        """One sha256 over the exact bits of a 60-object scene: every
        embedding and raw row, the box fields and confidences as
        `float.hex`, and the ground-truth triples, pinned per OpenBLAS
        kernel. Text outputs print vectors to 9 digits, so only this
        catches a one-ulp drift. A kernel with no pin fails, naming
        itself and its digest."""
        cfg = ScenarioConfig(num_objects=60, embed_dim=32, raw_dim=64,
                             num_frames=40, seed=7)
        frames, gt = generate(cfg)
        h = hashlib.sha256()
        for dets in frames:
            for det in dets:
                h.update(det.embedding.tobytes())
                h.update(det.raw.tobytes())
                h.update(" ".join(float.hex(v) for v in _box_fields(det)).encode())
        for (frame, det_index), true_id in gt.items():
            h.update(f"{frame} {det_index} {true_id}\n".encode())
        core, digest = openblas_core(), h.hexdigest()
        assert SCENE_DIGESTS.get(core) == digest, (
            f"OpenBLAS kernel {core!r} gives {digest}; pinned: {SCENE_DIGESTS.get(core)}")

    def test_vectors_are_rows_of_block_matrices(self):
        """A frame's vectors are consecutive rows, in frame order, of one
        matrix per block: SMALL is one block of the derived size, or 6
        blocks of 7 frames, the last of 5."""
        for frames_per_block, per_block in ((None, SMALL.num_frames), (7, 7)):
            frames, _ = _generate(SMALL, frames_per_block)
            for start in range(0, len(frames), per_block):
                block = [det for dets in frames[start:start + per_block] for det in dets]
                for rows, dim in (([det.embedding for det in block], SMALL.embed_dim),
                                  ([det.raw for det in block], SMALL.raw_dim)):
                    matrix = rows[0].base
                    assert matrix.shape == (len(rows), dim)
                    assert all(row.base is matrix for row in rows)
                    assert [row.ctypes.data for row in rows] == \
                        [matrix.ctypes.data + i * matrix.strides[0] for i in range(len(rows))]


class TestCallingThread:
    """`generate` builds every block on the calling thread and starts no
    thread, at every scene size; the bits are the per-object loop's."""

    # 12 * (2 + 16 + 32) + 1 = 601 normals a frame in the default scene,
    # 100 * (2 + 128 + 256) + 1 = 38,601, and in a 150-object crowd frame
    # 150 * (2 + 160 + 320) + 1 = 72,301; n <= d keeps the latter two's
    # latents on the QR branch. With the 2 · n² overlap values, a block of
    # the derived size holds 147, 2 and 1 of their frames (the default
    # scene's 3 frames are one block); each scene is also built in blocks
    # of 1 and 2 frames, and each `iou` call is one block's
    @pytest.mark.parametrize("cfg, derived", [
        (ScenarioConfig(num_frames=3), 147),
        (ScenarioConfig(num_objects=100, embed_dim=128, raw_dim=256, num_frames=4), 2),
        (ScenarioConfig(num_objects=150, embed_dim=160, raw_dim=320, num_frames=2), 1),
    ], ids=["default", "38601-normals", "crowd"])
    def test_equals_per_object_reference(self, monkeypatch, cfg, derived):
        threads, blocks = set(), []

        def recorded(a, b):
            threads.add(threading.get_ident())
            blocks.append(a.shape[1])
            return iou(a, b)
        monkeypatch.setattr(simulator, "iou", recorded)
        reference = _reference_generate(cfg)
        for frames_per_block in (None, 1, 2):
            blocks.clear()
            before = threading.active_count()
            scene = _generate(cfg, frames_per_block)
            assert threading.active_count() == before
            assert threads == {threading.get_ident()}
            full, last = divmod(cfg.num_frames, frames_per_block or derived)
            assert blocks == [frames_per_block or derived] * full + [last] * (last > 0)
            _assert_same_bits(scene, reference)


class TestMotion:
    """`generate` steps a block's camera along a path made once a block and
    reflects and clamps centers only on frames where some center is outside
    its limits; the bits are the per-object loop's, which reflects every
    frame, on a scene with a contact in every frame (an arena 2 px wider
    than the largest box, at speed 30), one with none (speed 0), one
    without camera drift, and one in 7-frame blocks whose boundaries fall
    between contact frames."""

    @pytest.mark.parametrize("cfg, frames_per_block, contact_frames", [
        (ScenarioConfig(arena=(simulator.BOX_MAX + 2, 420.0), speed=30.0, num_frames=40),
         None, 40),
        (ScenarioConfig(speed=0.0, num_frames=40), None, 0),
        (ScenarioConfig(camera_drift=0.0, num_frames=40), None, 10),
        (ScenarioConfig(num_frames=40), 7, 10),
    ], ids=["contact-every-frame", "contact-free", "no-camera-drift", "7-frame-blocks"])
    def test_equals_per_object_reference(self, cfg, frames_per_block, contact_frames):
        contacts = []
        reference = _reference_generate(cfg, contacts)
        assert sum(contacts) == contact_frames
        if frames_per_block is not None:
            # the contact frames fall in 5 of the 6 blocks
            blocks = [contacts[i:i + frames_per_block]
                      for i in range(0, cfg.num_frames, frames_per_block)]
            assert sum(map(any, blocks)) == 5
        _assert_same_bits(_generate(cfg, frames_per_block), reference)

    def test_every_box_runs_the_box_rules(self, monkeypatch):
        """`BoundingBox` alone holds a box's rules: a rule added there
        declines a box that `generate` builds."""
        checks = BoundingBox.__post_init__

        def narrower(box):
            checks(box)
            if box.w > 40:
                raise DegenerateBox(f"box wider than 40: w={box.w}")

        monkeypatch.setattr(BoundingBox, "__post_init__", narrower)
        with pytest.raises(DegenerateBox, match=r"^box wider than 40: w=4\d\."):
            generate(ScenarioConfig(num_frames=2))


class TestBlockScratch:
    """A block's scratch stays within `BLOCK_VALUES` plus one frame's: the
    block's normals are gathered and freed before its overlaps are built,
    and a frame's own scratch is its normals and three (n × n) matrices
    (`iou`'s x and y overlaps and one axis's lower edges). tracemalloc sees
    numpy's buffers, so `generate`'s peak less what its output holds is
    at most the scratch at the peak. With every object dropped the output holds no
    vector, and the peak of the default scene's two blocks (147 frames,
    then 53) is all scratch; one block of all 200 frames would exceed the
    bound. At 1,000 objects a frame is a block of its own, and a block of
    two would exceed the bound by more than a frame."""

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(),
        ScenarioConfig(dropout=1.0),
        ScenarioConfig(num_objects=simulator.MAX_OBJECTS, embed_dim=2, raw_dim=2, num_frames=3),
    ], ids=["default", "default-all-dropped", "1000-objects"])
    def test_peak_over_output_within_block_values(self, cfg):
        n = cfg.num_objects
        frame = n * (2 + cfg.embed_dim + cfg.raw_dim) + 1 + 3 * n * n
        tracemalloc.start()
        try:
            scene = generate(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scene[0]) == cfg.num_frames
        assert peak - held <= 8 * (simulator.BLOCK_VALUES + frame)


class TestCallerErrstateReachesBuild:
    """The caller's `np.errstate` governs the whole build: the first frame
    that overflows raises, as a data error, and no RuntimeWarning is left."""

    OVERFLOW = ("num_objects = 100\nembed_dim = 128\nraw_dim = 256\nnum_frames = 5\n"
                "camera_drift = 1e308\n")

    def test_first_error_wins_in_process(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(self.OVERFLOW)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim")])
        assert threading.active_count() == before
        assert code == cli.DATA_ERROR
        assert capsys.readouterr().err == "uatrack simulate: overflow encountered in add\n"

    def test_first_error_wins_from_the_command(self, tmp_path):
        """`uatrack simulate` gives one stderr line, from the caller's
        `np.errstate`, and no RuntimeWarning."""
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(self.OVERFLOW)
        env = dict(os.environ)
        pkg_root = str(Path(simulator.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "uatrack.cli", "simulate", "--config",
                               str(cfgp), "--out", str(tmp_path / "sim")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == cli.DATA_ERROR
        assert proc.stderr == "uatrack simulate: overflow encountered in add\n"


class TestMotionOverflow:
    """A motion overflow raises from the frame that makes it, whichever
    frame of its block that is, with the message of the per-frame build.
    In the first frame a step can overflow in the motion's add; in a later
    one only the reflection's subtract can: a step that overflows is longer
    than the corridor, so it crosses a wall in the first frame, and from
    then on each reflection also takes the center's mirror off the far
    wall, a larger sum than the next frame's step."""

    ARENA = "arena = 8.9e307 8.9e307\n"
    FIRST_FRAME = ("num_objects = 1\nembed_dim = 2\nraw_dim = 2\nnum_frames = 6\n"
                   + ARENA + "speed = 1.5e308\ncamera_drift = 0\nseed = 4\n")
    LATER_FRAME = ("num_objects = 1\nembed_dim = 2\nraw_dim = 2\nnum_frames = 6\n"
                   + ARENA + "speed = 9.2e307\ncamera_drift = 0\nseed = 0\n")

    @pytest.mark.parametrize("text, frame, message", [
        (FIRST_FRAME, 1, "overflow encountered in add"),
        (LATER_FRAME, 4, "overflow encountered in subtract"),
    ], ids=["first-frame-step", "later-frame-reflection"])
    def test_raises_from_its_frame(self, tmp_path, capsys, text, frame, message):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(text)
        cfg = formats.parse_scenario_config(cfgp)
        # one block holds all six frames, and every frame before `frame` builds
        assert max(1, simulator.BLOCK_VALUES // _frame_values(cfg)) >= cfg.num_frames
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if frame > 2:
                generate(replace(cfg, num_frames=frame - 1))
            with pytest.raises(FloatingPointError, match=f"^{message}$"):
                generate(replace(cfg, num_frames=max(2, frame)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim")])
        assert code == cli.DATA_ERROR
        assert capsys.readouterr().err == f"uatrack simulate: {message}\n"
        env = dict(os.environ)
        pkg_root = str(Path(simulator.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "uatrack.cli", "simulate", "--config",
                               str(cfgp), "--out", str(tmp_path / "cmd")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == cli.DATA_ERROR
        assert proc.stderr == f"uatrack simulate: {message}\n"
