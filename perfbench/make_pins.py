#!/usr/bin/env python3
"""Regenerate pins.json, the per-seed values run.py checks outputs against.

    python3 perfbench/make_pins.py

Pinned: the tracklet-composition digest of each crowd-track and default
scene seed, and the sha256 of the `results.txt` that the default CLI
workflow writes for each seed. Nothing that a legitimate fix may change is
pinned (the log, training weights). Regenerate only when a change is meant
to alter which detections form which tracklet, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run

CROWD_SEEDS = range(0, 102)   # crowd-track uses seeds seed .. seed+2
DEFAULT_SEEDS = range(0, 100)


def main() -> int:
    pkg = run.load_package()
    rec = run.Recorder({})
    for seed in DEFAULT_SEEDS:
        run.scene_pass(pkg, rec, "default", pkg.simulator.ScenarioConfig(seed=seed))
    for seed in CROWD_SEEDS:
        run.scene_pass(pkg, rec, "crowd", run.crowd_config(pkg, seed))
        print(f"crowd scene {seed} pinned", file=sys.stderr)
    pins = {kind: {str(s): d for (k, s), d in sorted(rec.digests.items()) if k == kind}
            for kind in ("crowd", "default")}
    pins["cli_results"] = {}
    for seed in DEFAULT_SEEDS:
        cycle = run.Recorder({})
        run.cli_cycle(pkg, cycle, seed, in_process=True)
        pins["cli_results"][str(seed)] = cycle.cli_outputs["results.txt"]
    run.shutil.rmtree(run.WORK, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
