"""Command-line surface: simulate / track / eval / augment / train / stats.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import formats
from .augment import augment_detections
from .contrastive import TrainConfig, draw_plan, train_embedder
from .errors import UatrackError
from .metrics import id_switches, pseudo_accuracy, uncertainty_separation
from .simulator import ScenarioConfig, generate
from .tracker import TrackerConfig, track_sequence, tracklets_from_log
from .uncertainty import UncertaintyMargins

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="uatrack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    sim.add_argument("--config", help="scenario config file (key = value)")
    sim.add_argument("--out", required=True, help="output directory")

    trk = sub.add_parser("track", help="run the tracker over a bundle")
    trk.add_argument("--dets", required=True)
    trk.add_argument("--embs", required=True)
    trk.add_argument("--out", required=True)
    trk.add_argument("--utl", choices=["on", "off"], default="on")
    trk.add_argument("--m1", type=float, default=UncertaintyMargins.m1)
    trk.add_argument("--m2", type=float, default=UncertaintyMargins.m2)
    trk.add_argument("--beta", type=float, default=TrackerConfig.beta)
    trk.add_argument("--K", type=int, default=TrackerConfig.K)
    trk.add_argument("--log")

    ev = sub.add_parser("eval", help="evaluate a run against ground truth")
    ev.add_argument("--results", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--log", required=True)
    ev.add_argument("--report", required=True)
    ev.add_argument("--max-age", type=int, default=100)

    aug = sub.add_parser("augment", help="emit a tracklet-guided augmentation plan")
    aug.add_argument("--bundle", required=True)
    aug.add_argument("--frame", type=int, required=True)
    aug.add_argument("--seed", type=int, required=True)
    aug.add_argument("--jitter", type=float, default=None)

    tr = sub.add_parser("train", help="train the linear embedder on a bundle")
    tr.add_argument("--bundle", required=True)
    tr.add_argument("--epochs", type=int, required=True)
    tr.add_argument("--lr", type=float, required=True)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--sampling", choices=["uncertainty", "random"],
                    default=TrainConfig.anchor_sampling)

    st = sub.add_parser("stats", help="print the uncertainty separation report")
    st.add_argument("--log", required=True)
    st.add_argument("--gt", required=True)
    return p


def _load_bundle(dets_path, embs_path):
    frames = formats.read_detections(dets_path)
    frames, _warned = formats.read_embeddings(embs_path, frames)
    return frames


def cmd_simulate(args) -> int:
    cfg = formats.parse_scenario_config(args.config) if args.config else ScenarioConfig()
    frames, gt = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    formats.write_detections(frames, os.path.join(args.out, "det.txt"))
    formats.write_vectors(frames, os.path.join(args.out, "emb.csv"), "embedding")
    formats.write_vectors(frames, os.path.join(args.out, "raw.csv"), "raw")
    formats.write_ground_truth(gt, os.path.join(args.out, "gt.txt"))
    formats.write_scenario_config(cfg, os.path.join(args.out, "config.txt"))
    return 0


def cmd_track(args) -> int:
    frames = _load_bundle(args.dets, args.embs)
    cfg = TrackerConfig(margins=UncertaintyMargins(m1=args.m1, m2=args.m2),
                        beta=args.beta, K=args.K, utl_enabled=args.utl == "on")
    state = track_sequence(frames, cfg)
    formats.write_results(state, args.out)
    if args.log:
        formats.write_log(state.log(), args.log)
    return 0


def cmd_eval(args) -> int:
    results = sorted(formats.read_results(args.results))
    gt = formats.read_ground_truth(args.gt)
    log = formats.read_log(args.log)
    tracklets = tracklets_from_log(log)
    if results != sorted((r.frame, t.id) for t in tracklets for r in t.records):
        raise UatrackError(f"{args.results}: (frame, track_id) rows differ from the "
                           "log's applied decisions")
    curve = pseudo_accuracy(tracklets, gt, max_age=args.max_age)
    sep = uncertainty_separation(log, gt)
    ids = id_switches(tracklets, gt)
    lines = [f"id_switches: {ids}"] + sep.lines()
    lines += [f"pseudo_accuracy {s}: {acc:.6f}" for s, acc in curve.points]
    formats.atomic_write(args.report, lines)
    for line in lines:
        print(line)
    return 0


def cmd_augment(args) -> int:
    cfg = TrainConfig(seed=args.seed)
    frames = _load_bundle(os.path.join(args.bundle, "det.txt"),
                          os.path.join(args.bundle, "emb.csv"))
    # clamped: a negative stop would track from the end
    state = track_sequence(frames[:max(args.frame, 0)])
    plan = draw_plan(state, args.frame, np.random.default_rng(cfg.seed), cfg, args.jitter)
    t = plan.transform
    print(f"source_track_id: {plan.source_track_id}")
    print(f"target_frame: {plan.target_frame}")
    print("transform: " + " ".join(f"{v:.6f}" for v in
                                   (t.m11, t.m12, t.m13, t.m21, t.m22, t.m23)))
    for d in augment_detections(frames[args.frame - 1], plan):
        print(f"box {d.det_index}: {d.box.cx:.6f} {d.box.cy:.6f} "
              f"{d.box.w:.6f} {d.box.h:.6f}")
    return 0


def cmd_train(args) -> int:
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed,
                      anchor_sampling=args.sampling)
    # training embeds from raw features, so emb.csv is not read
    frames = formats.read_detections(os.path.join(args.bundle, "det.txt"))
    frames = formats.read_raw_features(os.path.join(args.bundle, "raw.csv"), frames)
    embedder, losses = train_embedder(frames, cfg)
    formats.write_weights(embedder, args.out)
    for i, loss in enumerate(losses, start=1):
        print(f"epoch {i}: mean_loss {loss:.6f}")
    return 0


def cmd_stats(args) -> int:
    gt = formats.read_ground_truth(args.gt)
    log = formats.read_log(args.log)
    for line in uncertainty_separation(log, gt).lines():
        print(line)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "track": cmd_track,
    "eval": cmd_eval,
    "augment": cmd_augment,
    "train": cmd_train,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a float overflow or invalid operation means out-of-range inputs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except (UatrackError, OSError, FloatingPointError) as exc:
        print(f"uatrack {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
