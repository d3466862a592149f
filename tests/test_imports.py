"""Every name a package module imports is used in that module.

The scan reads src/dunklpd/*.py (except __init__.py, whose imports are the
public re-exports) with the ast module: a name bound by `import` or
`from ... import` counts as used when it appears as a Name anywhere else in
the module.  `from __future__` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dunklpd"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "t (line 2)"]


def test_scan_accepts_attribute_and_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Callable\n"
        "def f(g: Callable) -> None:\n"
        "    return np.sum(g())\n"
    )
    assert unused_imports(source) == []


def test_module_list_is_not_empty():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
