#!/usr/bin/env python3
"""Benchmark for uatrack: the tracker, the trainer and the `uatrack` command.

Run from the root of a checkout (no install needed; the package is imported
from `src/`):

    python3 perfbench/run.py --workload crowd-track --seed 7 --seconds 45 --trace 0

Workloads (closed loop, one caller, no threads; see README.md for why):
  crowd-track   150-object scenes: simulate, then fold `step` frame by frame
  train         default scene: `train_embedder` with the default TrainConfig

Every workload measures every end-to-end metric: its own operation fills
most of the run, and the rest of the run goes to the documented CLI
workflow (`uatrack --help/simulate/track/eval/stats`, one process each) and
to short operations at the default scale, so each metric has a value on
each workload. A run is a fixed number of schedule cycles, `--seconds`
divided by the nominal length of a cycle, so a seed always gives the same
operations.

Every timed operation is scaled by the machine's speed at the time: it is
bracketed by probes of a fixed reference, and its time is multiplied by the
reference's nominal time over the probes' median. In-process operations are
bracketed by a small kernel of BLAS, interpreter and small-array work,
process starts (CLI calls, set-up) by a bare `python -c pass`. Values read as seconds on the baseline machine at its
usual speed; the slow and fast spells of a shared host cancel. The unscaled
values and the probes' medians are printed above the result line.

`--trace 0` prints the end-to-end metrics. `--trace 1` wraps the calls into
each module at their call sites (see tracing.py), runs a fixed recipe, and
prints the per-layer metrics, including the tracing overhead. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread: the numbers measure the program, not the scheduler. Set
# before numpy is imported here or in any child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import itertools
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

# 100 frames rather than the scenario default of 200, so that a run holds
# several crowd scenes and its medians steady.
CROWD = dict(num_objects=150, embed_dim=160, raw_dim=320, num_frames=100)
CROWD_SCENES = 3          # crowd-track cycles through seeds seed .. seed+2
CLI_TIMEOUT_S = 120
OVERHEAD_PAIRS = 3        # untraced/traced passes of the own operation in a traced run

# Each reference's median time on the baseline machine (README.md), and its
# probes before and after each timed operation. Within a scene the kernel is
# also probed once per TRACK_PROBE_EVERY_S of tracking.
NOMINAL_S = {"kernel": 0.0085, "spawn": 0.07}
PROBES = {"kernel": 8, "spawn": 3}
TRACK_PROBE_EVERY_S = 0.1

# The stderr of `uatrack eval` on the default workflow while defect D1 stands.
D1_ERROR = re.compile(r"uatrack eval: track \d+: frame \d+ after \d+")

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "simulate_s": "s",
    "track_det_per_s": "det/s", "frame_ms_p50": "ms", "frame_ms_p90": "ms",
    "train_epoch_s": "s", "cli_startup_s": "s", "cli_simulate_s": "s",
    "cli_track_s": "s", "cli_stats_s": "s",
}

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> SimpleNamespace:
    """Import uatrack from this checkout's src/ (and nothing else)."""
    if not (SRC / "uatrack" / "__init__.py").is_file():
        fail(f"no uatrack sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import uatrack
    if Path(uatrack.__file__).resolve().parent != SRC / "uatrack":
        fail(f"imported uatrack from {uatrack.__file__}, not from {SRC}")
    from uatrack import (assignment, augment, cli, contrastive, formats, metrics,
                         simulator, tracker)
    # The checks call these references, which tracing never wraps, so the
    # traced run times only the calls the program itself makes.
    return SimpleNamespace(np=np, assignment=assignment, augment=augment, cli=cli,
                           contrastive=contrastive, formats=formats, metrics=metrics,
                           simulator=simulator, tracker=tracker,
                           id_switches=metrics.id_switches,
                           pseudo_accuracy=metrics.pseudo_accuracy)


def warm_up(pkg, seed: int) -> None:
    """One tiny pass through generate, step, hungarian_max and training, so
    lazy imports and first-call costs land in set-up, not in a timed op."""
    cfg = pkg.simulator.ScenarioConfig(num_objects=4, num_frames=6, embed_dim=8,
                                       raw_dim=16, seed=seed)
    frames, _gt = pkg.simulator.generate(cfg)
    state = pkg.tracker.TrackerState(pkg.tracker.TrackerConfig())
    for frame, dets in enumerate(frames, start=1):
        pkg.tracker.step(state, frame, dets)
    pkg.assignment.hungarian_max(pkg.np.eye(3))
    pkg.contrastive.train_embedder(
        frames, pkg.contrastive.TrainConfig(epochs=1, steps_per_epoch=1, embed_dim=4))


def interpreter_seconds(args: list[str], times: int) -> list[float]:
    """Wall time of `times` fresh interpreters run with `args`, one after another."""
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return samples


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def composition_digest(tracklets) -> str:
    """sha256 over sorted (track_id, [(frame, det_index), ...])."""
    rows = sorted((t.id, [(r.frame, r.det_index) for r in t.records]) for t in tracklets)
    return sha256_bytes(json.dumps(rows).encode())


def kernel_seconds(np) -> float:
    """Time of a fixed mix of work like the package's: single-threaded BLAS
    products, an interpreter loop, and elementwise ops on small arrays."""
    t0 = time.perf_counter()
    a = np.arange(40000.0).reshape(200, 200)
    for _ in range(5):
        a = np.sqrt(a @ a.T % 97)
    total = 0
    for i in range(20000):
        total += i * i % 7
    b = np.ones((16, 32))
    for _ in range(150):
        b = np.tanh(b * 0.5 + 0.1)
    return time.perf_counter() - t0


def spawn_seconds() -> float:
    """Wall time of a bare interpreter, `python -c pass`, started as the CLI
    calls are. (Output is captured: without pipes, a wait with a timeout
    polls the child every 50 ms and its time rounds up by as much.)"""
    return interpreter_seconds(["-c", "pass"], 1)[0]


class Recorder:
    """Samples, operation counts and correctness checks of one run."""

    def __init__(self, pins: dict, np=None):
        self.pins = pins
        self.np = np       # set: bracket timed operations with speed probes
        self.probe_s: dict[str, list[float]] = defaultdict(list)
        # Per sample kind ("setup", "simulate", "frame", "epoch", "cli_<command>"):
        # the measured seconds, and the same scaled to the nominal speed.
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.dets = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.digests: dict[tuple[str, int], str] = {}
        self.pinned = 0
        self.id_switches: dict[tuple[str, int], int] = {}
        self.weights: dict[int, object] = {}
        self.cli_outputs: dict[str, str] | None = None
        self.cycles = 0

    def probe(self, reference: str, count: int | None = None) -> list[float]:
        """Times of `count` (default PROBES[reference]) runs of a reference."""
        if self.np is None:
            return []
        run = (lambda: kernel_seconds(self.np)) if reference == "kernel" else spawn_seconds
        times = [run() for _ in range(PROBES[reference] if count is None else count)]
        self.probe_s[reference] += times
        return times

    def add(self, kind: str, seconds: list[float], reference: str,
            probes: list[float]) -> None:
        """Record samples timed between `probes` of `reference`."""
        factor = NOMINAL_S[reference] / statistics.median(probes) if probes else 1.0
        self.raw[kind] += seconds
        self.scaled[kind] += [x * factor for x in seconds]

    def timed(self, kind: str, reference: str, fn, per: int = 1):
        """Run fn between probes of `reference`; record its time over `per`."""
        before = self.probe(reference)
        t0 = time.perf_counter()
        out = fn()
        seconds = (time.perf_counter() - t0) / per
        self.add(kind, [seconds], reference, before + self.probe(reference))
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def check_pinned(self, table: str, seed: int, value: str, what: str) -> None:
        pinned = self.pins.get(table, {}).get(str(seed))
        if pinned is None:
            note = (f"NOTE: pins.json has no {table} value for seed {seed}; "
                    "checked for determinism only")
            if note not in self.notes:
                self.notes.append(note)
            return
        self.pinned += 1
        self.check(pinned == value, f"{what} differs from the pinned value")


def scene_pass(pkg, rec: Recorder, kind: str, cfg) -> None:
    """Simulate one scene, then fold `step` over it frame by frame."""
    rec.attempted += 1
    probes = rec.probe("kernel")
    t0 = time.perf_counter()
    frames, gt = pkg.simulator.generate(cfg)
    simulate_s = time.perf_counter() - t0
    state = pkg.tracker.TrackerState(pkg.tracker.TrackerConfig())
    probes += rec.probe("kernel")
    frame_s = []
    since_probe = 0.0
    for frame, dets in enumerate(frames, start=1):
        t0 = time.perf_counter()
        pkg.tracker.step(state, frame, dets)
        dt = time.perf_counter() - t0
        frame_s.append(dt)
        rec.dets += len(dets)
        since_probe += dt
        if since_probe >= TRACK_PROBE_EVERY_S:
            probes += rec.probe("kernel", 1)
            since_probe = 0.0
    # One speed factor for the scene, from every probe taken during it.
    probes += rec.probe("kernel")
    rec.add("simulate", [simulate_s], "kernel", probes)
    rec.add("frame", frame_s, "kernel", probes)

    tracklets = state.all_tracklets()
    what = f"{kind} scene seed {cfg.seed}"
    assigned = [(r.frame, r.det_index) for t in tracklets for r in t.records]
    rec.check(len(assigned) == len(set(assigned)), f"{what}: a detection is in two tracklets")
    digest = composition_digest(tracklets)
    first = rec.digests.setdefault((kind, cfg.seed), digest)
    rec.check(first == digest, f"{what}: tracklet composition differs between passes")
    rec.check_pinned(kind, cfg.seed, digest, f"{what}: tracklet composition")
    rec.id_switches.setdefault((kind, cfg.seed), pkg.id_switches(tracklets, gt))
    curve = pkg.pseudo_accuracy(tracklets, gt, max_age=100)
    rec.check(all(0.0 <= acc <= 1.0 for _, acc in curve.points),
              f"{what}: pseudo-accuracy outside [0, 1]")


def train_op(pkg, rec: Recorder, frames, epochs: int | None) -> None:
    """`train_embedder` on a scene; epochs=None is the default TrainConfig."""
    cfg = pkg.contrastive.TrainConfig()
    if epochs is not None:
        cfg = pkg.contrastive.TrainConfig(epochs=epochs)
    rec.attempted += 1
    embedder, losses = rec.timed("epoch", "kernel",
                                 lambda: pkg.contrastive.train_embedder(frames, cfg),
                                 per=cfg.epochs)
    what = f"training ({cfg.epochs} epochs)"
    rec.check(len(losses) == cfg.epochs and all(math.isfinite(x) for x in losses),
              f"{what}: non-finite loss {losses}")
    if epochs is None:   # a one-epoch probe has no trend to check
        rec.check(losses[-1] < losses[0],
                  f"{what}: last loss {losses[-1]} >= first {losses[0]}")
    first = rec.weights.setdefault(cfg.epochs, embedder.weights.copy())
    rec.check(pkg.np.array_equal(first, embedder.weights),
              f"{what}: weights differ between identical runs")


def run_cli(pkg, argv: list[str], in_process: bool):
    """(exit code, seconds, stdout, stderr) of one `uatrack` command."""
    if not in_process:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "uatrack.cli", *argv], cwd=ROOT,
                              env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, time.perf_counter() - t0, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:   # argparse exits after --help and on usage errors
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def cli_cycle(pkg, rec: Recorder, seed: int, in_process: bool = False,
              setup: bool = False) -> None:
    """The documented workflow with default flags, one command at a time,
    after one set-up probe if `setup`. The process starts run back to back,
    and the spawn probes between two of them count for both."""
    rec.cycles += 1
    work = WORK / f"cycle{rec.cycles}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.txt"
    scenario.write_text(f"seed = {seed}\n")
    bundle = work / "bundle"
    det, emb, gt = (str(bundle / n) for n in ("det.txt", "emb.csv", "gt.txt"))
    results, log, report = (str(work / n) for n in ("results.txt", "log.txt", "report.txt"))
    calls = [
        ("startup", ["--help"]),
        ("simulate", ["simulate", "--config", str(scenario), "--out", str(bundle)]),
        ("track", ["track", "--dets", det, "--embs", emb, "--out", results, "--log", log]),
        ("eval", ["eval", "--results", results, "--gt", gt, "--log", log, "--report", report]),
        ("stats", ["stats", "--log", log, "--gt", gt]),
    ]
    outputs = {}
    probes = rec.probe("spawn")
    if setup:
        seconds = interpreter_seconds(
            [str(HERE / "run.py"), "--setup-only", "--seed", str(seed)], 1)
        after = rec.probe("spawn")
        rec.add("setup", seconds, "spawn", probes + after)
        probes = after
    for name, argv in calls:
        rec.attempted += 1
        code, seconds, stdout, stderr = run_cli(pkg, argv, in_process)
        before, probes = probes, rec.probe("spawn")
        if code != 0:
            rec.failed += 1
            note = f"uatrack {name} exited {code}: {stderr.strip()}"
            if note not in rec.notes:
                rec.notes.append(note)
            # eval's exit 2 with the D1 message on the default workflow is a
            # known defect, counted as a failed operation; any other failure
            # is wrong output.
            known = name == "eval" and code == 2 and D1_ERROR.fullmatch(stderr.strip())
            rec.check(bool(known), note)
            continue
        rec.add(f"cli_{name}", [seconds], "spawn", before + probes)
        if name == "stats":
            outputs["stats stdout"] = sha256_bytes(stdout.encode())
    for path in sorted(work.rglob("*")):
        if path.is_file() and path != scenario:
            outputs[str(path.relative_to(work))] = sha256_bytes(path.read_bytes())
    if rec.cli_outputs is None:
        rec.cli_outputs = outputs
    rec.check(outputs == rec.cli_outputs, "cli outputs differ between identical cycles")
    if "results.txt" in outputs:
        rec.check_pinned("cli_results", seed, outputs["results.txt"],
                         f"cli results.txt for seed {seed}")
    else:
        rec.check(False, "uatrack track wrote no results.txt")
    shutil.rmtree(work)


def crowd_config(pkg, seed: int):
    return pkg.simulator.ScenarioConfig(seed=seed, **CROWD)


def operations(pkg, rec: Recorder, seed: int) -> dict:
    """The operation kinds a workload mixes, bound to this run's inputs."""
    default_cfg = pkg.simulator.ScenarioConfig(seed=seed)
    default_frames = pkg.simulator.generate(default_cfg)[0]
    crowd_seeds = itertools.cycle(range(seed, seed + CROWD_SCENES))
    ops = {
        "crowd": lambda: scene_pass(pkg, rec, "crowd", crowd_config(pkg, next(crowd_seeds))),
        "default": lambda: scene_pass(pkg, rec, "default", default_cfg),
        "train": lambda: train_op(pkg, rec, default_frames, None),
        "epoch": lambda: train_op(pkg, rec, default_frames, 1),
        "cli-in-process": lambda: cli_cycle(pkg, rec, seed, in_process=True),
        "starts": lambda: cli_cycle(pkg, rec, seed, setup=True),
    }
    return ops


# One cycle of each workload's schedule. Its own operation recurs; the others
# are short and interleave with it, so that every end-to-end metric is
# measured on every workload and each median draws on samples from the whole
# run. crowd-track runs no default scene: its scene metrics are crowd-only.
# "starts" is one set-up probe (a fresh interpreter that imports the package
# and warms up) and then one CLI cycle, each command in its own process.
SCHEDULES = {
    "crowd-track": ["crowd", "epoch", "starts", "epoch"],
    "train": ["train", "epoch", "default", "starts", "epoch", "default", "epoch"],
}
# Wall seconds of one schedule cycle of either workload on the baseline
# machine; a run makes --seconds / CYCLE_S cycles (at least one).
CYCLE_S = 15.0


def run_schedule(ops: dict, kinds: list[str], cycles: int) -> None:
    """Run `kinds` in order, `cycles` times."""
    for _ in range(cycles):
        for kind in kinds:
            ops[kind]()


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def end_to_end(samples: dict[str, list[float]], dets: int) -> dict[str, float]:
    """The end-to-end metrics from one run's samples (raw or scaled)."""
    def median(kind):
        return statistics.median(samples[kind]) if samples[kind] else 0.0
    frames = samples["frame"]
    return {
        "setup_s": median("setup"),
        "peak_rss_mb": peak_rss_mb(),
        "simulate_s": median("simulate"),
        "track_det_per_s": dets / sum(frames) if frames else 0.0,
        "frame_ms_p50": 1000.0 * median("frame"),
        "frame_ms_p90": 1000.0 * statistics.quantiles(frames, n=10)[8],
        "train_epoch_s": median("epoch"),
        "cli_startup_s": median("cli_startup"),
        "cli_simulate_s": median("cli_simulate"),
        "cli_track_s": median("cli_track"),
        "cli_stats_s": median("cli_stats"),
    }


# The traced recipe of each workload: its own operation, then the others once.
TRACED = {
    "crowd-track": ("crowd", ["cli-in-process", "epoch"]),
    "train": ("train", ["cli-in-process", "default"]),
}


def traced(pkg, rec: Recorder, workload: str, seed: int) -> dict[str, float]:
    """A fixed recipe under call-site tracing, so counts repeat exactly for a
    seed. The workload's own operation runs OVERHEAD_PAIRS times untraced and
    as often traced, alternately; the tracing overhead is the median ratio of
    a traced pass to the untraced pass before it. The per-layer figures are
    those of the first traced pass and of the other operations."""
    import tracing
    ops = operations(pkg, rec, seed)
    ops["crowd"] = lambda: scene_pass(pkg, rec, "crowd", crowd_config(pkg, seed))
    own, others = TRACED[workload]

    def seconds(kinds, tracer=None):
        if tracer is not None:
            tracer.install(pkg)
        try:
            t0 = time.perf_counter()
            for kind in kinds:
                ops[kind]()
            return time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()

    tracer = tracing.Tracer()
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        untraced_s = seconds([own])
        ratios.append(seconds([own], tracer if i == 0 else tracing.Tracer()) / untraced_s)
    seconds(others, tracer)

    values = {name: 0.0 for name, _unit, _better in tracing.per_layer_spec(pkg)}
    values.update(tracing.per_layer_values(tracer))
    scene = "crowd" if workload == "crowd-track" else "default"
    values["id_switches"] = rec.id_switches[(scene, seed)]
    bare = statistics.median(interpreter_seconds(["-c", "pass"], 3))
    values["cli.interpreter_s"] = bare
    values["cli.import_s"] = (
        statistics.median(interpreter_seconds(["-c", "import uatrack.cli"], 3)) - bare)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return values


def machine() -> str:
    import platform
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(SCHEDULES))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up, then exit (one set-up sample)")
    args = p.parse_args(argv)

    pkg = load_package()
    warm_up(pkg, args.seed)
    if args.setup_only:
        return 0
    if args.workload is None:
        p.error("--workload is required")

    # The traced run takes no speed probes: its overhead ratio and spans
    # should hold only the program's work.
    rec = Recorder(json.loads(PINS.read_text()), None if args.trace else pkg.np)
    # First CLI start-up after a fresh checkout compiles bytecode; keep it out of the metrics.
    run_cli(pkg, ["--help"], in_process=False)
    try:
        if args.trace:
            import tracing
            units = {n: u for n, u, _b in tracing.per_layer_spec(pkg)}
            values = traced(pkg, rec, args.workload, args.seed)
        else:
            run_schedule(operations(pkg, rec, args.seed),
                         SCHEDULES[args.workload], max(1, round(args.seconds / CYCLE_S)))
            units = UNITS
            values = end_to_end(rec.scaled, rec.dets)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(machine())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rec.attempted} ops, {rec.failed} failed, {rec.dets} detections tracked, "
          f"{len(rec.raw['epoch'])} training runs, {rec.cycles} cli cycles, "
          f"{len(rec.raw['setup'])} set-up probes")
    print(f"checks: {len(rec.failures)} failed, {rec.pinned} pinned values compared")
    if not args.trace:
        print("speed probes: " + ", ".join(
            f"{ref} median {1000 * statistics.median(times):.3f} ms of {len(times)} "
            f"(nominal {1000 * NOMINAL_S[ref]:.3f} ms)"
            for ref, times in sorted(rec.probe_s.items())))
        print("unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value
                                       in end_to_end(rec.raw, rec.dets).items()))
    for (kind, scene), count in sorted(rec.id_switches.items()):
        print(f"id_switches {kind} scene seed {scene}: {count}")
    for line in rec.notes + [f"CHECK FAILED: {f}" for f in rec.failures]:
        print(line)
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
