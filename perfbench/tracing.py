"""Call-site tracing for the traced benchmark run.

The package binds its collaborators with `from .x import y`, so a function
is wrapped where it is looked up (`uatrack.tracker.iou`,
`uatrack.simulator.iou`, ...), not only where it is defined. Each wrapper
records calls, inclusive seconds and self seconds (inclusive minus the
wrapped calls made inside it), plus the work counts listed below. Nothing
inside the package is changed; `uninstall` puts every original back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

READERS = ("parse_scenario_config", "read_detections", "read_embeddings",
           "read_ground_truth", "read_log")
WRITERS = ("write_detections", "write_vectors", "write_ground_truth",
           "write_scenario_config", "write_results", "write_log")


def _verify(counts, args, out):
    certain, dissolved, _rows, _cols = out
    counts["tracker.verify_pairs"] += len(certain) + len(dissolved)
    counts["tracker.verify_dissolved"] += len(dissolved)


def _rectify(counts, args, out):
    counts["tracker.rectify_pool_pairs"] += len(args[0]) * len(args[1])
    counts["tracker.rectify_matched"] += len(out)


def _cells(counts, args, out):
    rows, cols = args[0].shape
    counts["assignment.hungarian_max_cells"] += rows * cols


def _deltas(counts, args, out):
    counts["uncertainty.tracklet_uncertainty_deltas"] += len(args[0])


def _detections(counts, args, out):
    counts["simulator.detections"] += sum(len(dets) for dets in out[0])


def _read_bytes(name):
    def count(counts, args, out):
        counts[f"formats.{name}_bytes"] += os.path.getsize(args[0])
    return count


def _written_bytes(name):
    def count(counts, args, out):
        counts[f"formats.{name}_bytes"] += os.path.getsize(args[1])
    return count


def call_sites(pkg):
    """(span name, [(owner, attribute)], count hook) for every traced call.

    `pkg` holds the imported uatrack modules as attributes."""
    t, c, cli = pkg.tracker, pkg.contrastive, pkg.cli
    sites = [
        ("tracker.step", [(t, "step")], None),
        ("tracker.build_similarity", [(t, "build_similarity")], None),
        ("tracker.verify", [(t, "verify")], _verify),
        ("tracker.rectify", [(t, "rectify")], _rectify),
        ("assignment.hungarian_max", [(t, "hungarian_max")], _cells),
        ("uncertainty.second_best", [(t, "second_best")], None),
        ("uncertainty.association_uncertainty", [(t, "association_uncertainty")], None),
        ("uncertainty.tracklet_uncertainty", [(pkg.augment, "tracklet_uncertainty")], _deltas),
        ("geometry.iou_tracker", [(t, "iou")], None),
        ("geometry.iou_simulator", [(pkg.simulator, "iou")], None),
        ("geometry.solve_affine", [(pkg.augment, "solve_affine")], None),
        ("simulator.generate", [(pkg.simulator, "generate"), (cli, "generate")], _detections),
        ("augment.source_anchor_weights", [(c, "source_anchor_weights")], None),
        ("augment.target_anchor_weights", [(c, "target_anchor_weights")], None),
        ("augment.sample", [(c, "sample")], None),
        ("augment.build_plan", [(c, "build_plan")], None),
        ("contrastive.train_embedder", [(c, "train_embedder"), (cli, "train_embedder")], None),
        ("contrastive.track_sequence", [(c, "track_sequence")], None),
        ("contrastive.info_nce", [(c, "info_nce")], None),
        ("contrastive.info_nce_grad", [(c, "info_nce_grad")], None),
        ("contrastive.embed", [(c.LinearEmbedder, "embed")], None),
        ("metrics.id_switches", [(pkg.metrics, "id_switches"), (cli, "id_switches")], None),
        ("metrics.pseudo_accuracy",
         [(pkg.metrics, "pseudo_accuracy"), (cli, "pseudo_accuracy")], None),
        ("metrics.uncertainty_separation",
         [(pkg.metrics, "uncertainty_separation"), (cli, "uncertainty_separation")], None),
    ]
    sites += [(f"formats.{n}", [(pkg.formats, n)], _read_bytes(n)) for n in READERS]
    sites += [(f"formats.{n}", [(pkg.formats, n)], _written_bytes(n)) for n in WRITERS]
    return sites


class Tracer:
    """Span totals per call-site name, kept in memory for one run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[float] = []   # per open span: seconds of its traced children
        self._patches = []

    def _wrap(self, owner, attr, name, count):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_s[name] += dt - children
            if count is not None:
                count(self.counts, args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, pkg) -> None:
        for name, owners, count in call_sites(pkg):
            for owner, attr in owners:
                self._wrap(owner, attr, name, count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def per_layer_spec(pkg):
    """[(metric name, unit, better)] in the order the traced run reports them."""
    spec = []
    for name, _owners, _count in call_sites(pkg):
        spec.append((f"{name}_calls", "count", "lower"))
        spec.append((f"{name}_s", "s", "lower"))
        if name.startswith("formats."):
            spec.append((f"{name}_bytes", "B", "lower"))
    spec += [
        ("tracker.step_self_s", "s", "lower"),
        ("tracker.verify_pairs", "count", "lower"),
        ("tracker.verify_dissolved", "count", "lower"),
        ("tracker.rectify_pool_pairs", "count", "lower"),
        ("tracker.rectify_matched", "count", "higher"),
        ("tracker.rectify_matched_ratio", "ratio", "higher"),
        ("assignment.hungarian_max_cells", "count", "lower"),
        ("uncertainty.tracklet_uncertainty_deltas", "count", "lower"),
        ("simulator.detections", "count", "higher"),
        ("contrastive.train_embedder_self_s", "s", "lower"),
        ("id_switches", "count", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


def per_layer_values(tracer: Tracer) -> dict[str, float]:
    """Span-derived values; the caller adds id_switches, cli.* and trace.*."""
    values = {}
    for name in tracer.calls:
        values[f"{name}_calls"] = tracer.calls[name]
        values[f"{name}_s"] = tracer.busy[name]
    values.update(tracer.counts)
    values["tracker.step_self_s"] = tracer.self_s["tracker.step"]
    values["contrastive.train_embedder_self_s"] = tracer.self_s["contrastive.train_embedder"]
    pool = tracer.counts["tracker.rectify_pool_pairs"]
    values["tracker.rectify_matched_ratio"] = (
        tracer.counts["tracker.rectify_matched"] / pool if pool else 0.0)
    return values
