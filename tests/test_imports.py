"""Every name a module of the package imports is used in that module, and
every module imports only modules below it in the package's layering."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uatrack"
# The package's modules, lowest first: each may import only those before it.
LAYERS = ["errors", "geometry", "uncertainty", "assignment", "tracker", "simulator", "formats",
          "metrics", "augment", "contrastive", "cli"]


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each name `source` imports and never reads. A
    name imported on a line marked `# noqa: F401` is exempt, and so are
    `__future__` imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [(alias.asname or alias.name.partition(".")[0], alias.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for name, lineno in imported
            if name not in used and "# noqa: F401" not in lines[lineno - 1]]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import pi, tau  # noqa: F401\n"
              "from dataclasses import (dataclass,\n"
              "                         field)\n"
              "import numpy as np\n"
              "x = np.zeros(1)\n"
              "@dataclass\n"
              "class A:\n"
              "    y: int = 0\n")
    assert unused_imports(source) == ["line 2: os", "line 5: field"]


def upward_imports(source: str, module: str) -> list[str]:
    """`line N: module -> other` for each relative import in `source` of
    a module that is not before `module` in LAYERS: `from .x import ...`
    and `from . import x`, at module level or inside a function. A module
    named in a string, as `cli` passes to `import_module`, is out of its
    reach."""
    rank = LAYERS.index(module)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found += [f"line {node.lineno}: {module} -> {name}" for name in names
                      if name not in LAYERS[:rank]]
    return found


def test_modules_are_layered():
    assert sorted(LAYERS) == sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert [line for name in LAYERS
            for line in upward_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"),
                                       name)] == []


def test_upward_import_found():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .errors import ParseError\n"
              "from .contrastive import LinearEmbedder\n"
              "def f():\n"
              "    from . import geometry, metrics\n"
              "    from .formats import read_log\n")
    assert upward_imports(source, "formats") == ["line 4: formats -> contrastive",
                                                 "line 6: formats -> metrics",
                                                 "line 7: formats -> formats"]
