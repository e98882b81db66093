"""Command-line surface: simulate / track / eval / augment / train / stats.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from .errors import UatrackError

USAGE_ERROR = 1
DATA_ERROR = 2


# perfbench/tracing.py wraps these five names here as well as in their modules.
# No command calls them; each imports its module when called and forwards the call.
def generate(*args, **kwargs):
    return import_module(".simulator", __package__).generate(*args, **kwargs)


def train_embedder(*args, **kwargs):
    return import_module(".contrastive", __package__).train_embedder(*args, **kwargs)


def id_switches(*args, **kwargs):
    return import_module(".metrics", __package__).id_switches(*args, **kwargs)


def pseudo_accuracy(*args, **kwargs):
    return import_module(".metrics", __package__).pseudo_accuracy(*args, **kwargs)


def uncertainty_separation(*args, **kwargs):
    return import_module(".metrics", __package__).uncertainty_separation(*args, **kwargs)


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
    trk.add_argument("--m1", type=float, default=argparse.SUPPRESS)
    trk.add_argument("--m2", type=float, default=argparse.SUPPRESS)
    trk.add_argument("--beta", type=float, default=argparse.SUPPRESS)
    trk.add_argument("--K", type=int, default=argparse.SUPPRESS)
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
                    dest="anchor_sampling", default=argparse.SUPPRESS)

    st = sub.add_parser("stats", help="print the uncertainty separation report")
    st.add_argument("--log", required=True)
    st.add_argument("--gt", required=True)
    return p


def _load_bundle(command, dets_path, embs_path):
    from . import formats
    frames = formats.read_detections(dets_path)
    renormalized = formats.read_embeddings(embs_path, frames)
    if renormalized:
        print(f"uatrack {command}: renormalized {renormalized} of "
              f"{sum(map(len, frames))} embeddings", file=sys.stderr)
    return frames


def _given(args, *names) -> dict:
    """The flags among `names` that were given; the config dataclasses hold the defaults."""
    return {n: getattr(args, n) for n in names if hasattr(args, n)}


def cmd_simulate(args) -> int:
    from . import formats, simulator
    cfg = formats.parse_scenario_config(args.config) if args.config else simulator.ScenarioConfig()
    frames, gt = simulator.generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    formats.write_detections(frames, os.path.join(args.out, "det.txt"))
    formats.write_vectors(frames, os.path.join(args.out, "emb.csv"), "embedding")
    formats.write_vectors(frames, os.path.join(args.out, "raw.csv"), "raw")
    formats.write_ground_truth(gt, os.path.join(args.out, "gt.txt"))
    formats.write_scenario_config(cfg, os.path.join(args.out, "config.txt"))
    return 0


def cmd_track(args) -> int:
    from . import formats, tracker, uncertainty
    frames = _load_bundle(args.command, args.dets, args.embs)
    cfg = tracker.TrackerConfig(margins=uncertainty.UncertaintyMargins(**_given(args, "m1", "m2")),
                                utl_enabled=args.utl == "on", **_given(args, "beta", "K"))
    state = tracker.track_sequence(frames, cfg)
    formats.write_results(state, args.out)
    if args.log:
        formats.write_log(state.log(), args.log)
    return 0


def cmd_eval(args) -> int:
    from . import formats, metrics, tracker
    results = sorted(formats.read_results(args.results))
    gt = formats.read_ground_truth(args.gt)
    log = formats.read_log(args.log)
    rows = tracker.applied(log)
    tid, frames, det_index = rows["track_id"], rows["frame"], rows["det_index"]
    if results != sorted(zip(frames.tolist(), tid.tolist())):
        raise UatrackError(f"{args.results}: (frame, track_id) rows differ from the "
                           "log's applied decisions")
    curve = metrics.accuracy_curve(tid, frames, det_index, gt, max_age=args.max_age)
    sep = metrics.uncertainty_separation(log, gt)
    ids = metrics.switch_count(tid, frames, det_index, gt)
    lines = [f"id_switches: {ids}"] + sep.lines()
    lines += [f"pseudo_accuracy {s}: {acc:.6f}" for s, acc in curve.points]
    formats.atomic_write(args.report, lines)
    for line in lines:
        print(line)
    return 0


def cmd_augment(args) -> int:
    import numpy as np
    from . import contrastive, geometry, tracker
    cfg = contrastive.TrainConfig(seed=args.seed)
    frames = _load_bundle(args.command, os.path.join(args.bundle, "det.txt"),
                          os.path.join(args.bundle, "emb.csv"))
    # clamped: a negative stop would track from the end
    state = tracker.track_sequence(frames[:max(args.frame, 0)])
    plan = contrastive.draw_plan(state, args.frame, np.random.default_rng(cfg.seed), cfg,
                                 args.jitter)
    t = plan.transform
    print(f"source_track_id: {plan.source_track_id}")
    print(f"target_frame: {plan.target_frame}")
    print("transform: " + " ".join(f"{v:.6f}" for v in
                                   (t.m11, t.m12, t.m13, t.m21, t.m22, t.m23)))
    for i, d in enumerate(frames[args.frame - 1]):
        box = geometry.apply_affine(t, d.box)
        print(f"box {i}: {box.cx:.6f} {box.cy:.6f} {box.w:.6f} {box.h:.6f}")
    return 0


def cmd_train(args) -> int:
    from . import contrastive, formats
    cfg = contrastive.TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed,
                                  **_given(args, "anchor_sampling"))
    # training embeds from raw features, so emb.csv is not read
    frames = formats.read_detections(os.path.join(args.bundle, "det.txt"))
    formats.read_raw_features(os.path.join(args.bundle, "raw.csv"), frames)
    embedder, losses = contrastive.train_embedder(frames, cfg)
    formats.write_weights(embedder.weights, args.out)
    for i, loss in enumerate(losses, start=1):
        print(f"epoch {i}: mean_loss {loss:.6f}")
    return 0


def cmd_stats(args) -> int:
    from . import formats, metrics
    gt = formats.read_ground_truth(args.gt)
    log = formats.read_log(args.log)
    for line in metrics.uncertainty_separation(log, gt).lines():
        print(line)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    import numpy as np   # only now, so --help and usage errors start without it
    try:
        # a float overflow or invalid operation means out-of-range inputs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return globals()[f"cmd_{args.command}"](args)
    except (UatrackError, OSError, FloatingPointError) as exc:
        print(f"uatrack {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
