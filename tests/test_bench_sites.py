"""The traced benchmark (`perfbench/run.py --trace 1`) wraps package functions
by name and reads their arguments and results; every name it wraps must
still exist and its count hooks must still read the calls, so a deletion,
rename or signature change fails here rather than in the traced run. The
benchmark's own scene check runs here too, so a tracker change that breaks
it fails Tier-1 and not only the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from uatrack import (assignment, augment, cli, contrastive, formats, metrics,
                     simulator, tracker)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Import perfbench/<name>.py by file path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PKG = SimpleNamespace(assignment=assignment, augment=augment, cli=cli,
                      contrastive=contrastive, formats=formats, metrics=metrics,
                      simulator=simulator, tracker=tracker)


def missing_sites():
    """The `owner.attribute` names the tracer wraps that do not resolve."""
    sites = load_perfbench("tracing").call_sites(PKG)
    assert sites
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for _name, owners, _count in sites for owner, attr in owners
            if not hasattr(owner, attr)]


def test_every_traced_call_site_resolves():
    """Checked in a fresh interpreter, so a name that resolves only after an
    earlier test has run a command fails here too."""
    path = [str(Path(cli.__file__).resolve().parent.parent), str(Path(__file__).resolve().parent)]
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path[:0] = {path!r}\n"
                           "import test_bench_sites\nprint(test_bench_sites.missing_sites())"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Traced functions that `perfbench/tracing.py` also wraps on `cli`, which the
# commands below call.
CLI_SITES = ("simulator.generate", "metrics.id_switches", "metrics.pseudo_accuracy",
             "metrics.uncertainty_separation")


def test_traced_cli_commands_count_each_call_once(tmp_path):
    """`simulate`, `track`, `eval` and `stats` through `cli.main` in this
    process, each under its own tracer: each call to a traced function
    counts once, and `uninstall` leaves every wrapped attribute, and `cli`'s
    namespace, as `install` found them."""
    tracing = load_perfbench("tracing")
    owners = [(owner, attr) for _name, sites, _count in tracing.call_sites(PKG)
              for owner, attr in sites]
    found = [getattr(owner, attr) for owner, attr in owners]
    namespace = dict(vars(cli))
    (tmp_path / "scenario.txt").write_text("seed = 3\nnum_objects = 4\nnum_frames = 20\n")
    bundle, results, log = tmp_path / "bundle", tmp_path / "results.txt", tmp_path / "log.txt"
    commands = [
        (["simulate", "--config", tmp_path / "scenario.txt", "--out", bundle],
         {"simulator.generate": 1}),
        (["track", "--dets", bundle / "det.txt", "--embs", bundle / "emb.csv",
          "--out", results, "--log", log], {}),
        (["eval", "--results", results, "--gt", bundle / "gt.txt", "--log", log,
          "--report", tmp_path / "report.txt"],
         {"metrics.uncertainty_separation": 1}),
        (["stats", "--log", log, "--gt", bundle / "gt.txt"],
         {"metrics.uncertainty_separation": 1}),
    ]
    for argv, calls in commands:
        tracer = tracing.Tracer()
        tracer.install(PKG)
        try:
            assert cli.main([str(a) for a in argv]) == 0, argv[0]
        finally:
            tracer.uninstall()
        assert {n: tracer.calls[n] for n in CLI_SITES} == {n: calls.get(n, 0) for n in CLI_SITES}
        assert [getattr(owner, attr) for owner, attr in owners] == found, argv[0]
        assert vars(cli) == namespace, argv[0]


def test_traced_scene_pass_counts_rectification():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    tracer.install(PKG)
    try:
        frames, _ = simulator.generate(simulator.ScenarioConfig(num_objects=20, num_frames=20))
        state = tracker.TrackerState(tracker.TrackerConfig())
        for frame, dets in enumerate(frames, start=1):
            tracker.step(state, frame, dets)
    finally:
        tracer.uninstall()
    values = tracing.per_layer_values(tracer)
    assert simulator.generate.__module__ == "uatrack.simulator"   # originals restored
    for name in ("tracker.step_calls", "tracker.verify_pairs", "tracker.rectify_calls",
                 "tracker.rectify_pool_pairs", "tracker.rectify_matched",
                 "uncertainty.second_best_calls", "uncertainty.association_uncertainty_calls",
                 "geometry.iou_tracker_calls",
                 "geometry.iou_simulator_calls", "simulator.detections"):
        assert values[name] > 0, name
    assert 0 < values["tracker.rectify_matched_ratio"] <= 1
    # the hooks count pairs, so each count is the number of its stage's log rows
    stages = [row["stage"] for row in state.log()]
    assert values["tracker.rectify_matched"] == stages.count(tracker.STAGE_RECTIFIED)
    assert values["tracker.verify_pairs"] == (stages.count(tracker.STAGE_ASSOC)
                                              + stages.count(tracker.STAGE_DISSOLVED))
    assert values["tracker.verify_dissolved"] == stages.count(tracker.STAGE_DISSOLVED)


def test_benchmark_scene_pass_is_clean():
    """`run.py`'s scene_pass, with its pinned composition digests, on the
    default scene and on a 150-object crowd scene, seed 7."""
    environ = dict(os.environ)
    try:
        run = load_perfbench("run")   # sets the BLAS thread variables on import
    finally:
        os.environ.clear()
        os.environ.update(environ)
    pkg = SimpleNamespace(**vars(PKG), np=np, id_switches=metrics.id_switches,
                          pseudo_accuracy=metrics.pseudo_accuracy)
    rec = run.Recorder(json.loads(run.PINS.read_text()))
    run.scene_pass(pkg, rec, "default", simulator.ScenarioConfig(seed=7))
    run.scene_pass(pkg, rec, "crowd", run.crowd_config(pkg, 7))
    assert rec.failures == []
    assert rec.pinned == 2
