"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uatrack"


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
