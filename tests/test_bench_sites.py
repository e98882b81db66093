"""The traced benchmark (`perfbench/run.py --trace 1`) wraps package functions
by name; every name it wraps must still exist, so a deletion or rename
fails here rather than in the traced run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from uatrack import (assignment, augment, cli, contrastive, formats, metrics,
                     simulator, tracker)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    pkg = SimpleNamespace(assignment=assignment, augment=augment, cli=cli,
                          contrastive=contrastive, formats=formats, metrics=metrics,
                          simulator=simulator, tracker=tracker)
    sites = load_tracing().call_sites(pkg)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _name, owners, _count in sites for owner, attr in owners
               if not hasattr(owner, attr)]
    assert sites
    assert missing == []
