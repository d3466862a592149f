"""Every name a package module imports is used in that module, every name
it defines is used somewhere, and the kernel phase primitive and the
scattered contraction have no users beyond the listed ones.

The scans read src/dunklpd/*.py (except __init__.py, whose imports are the
public re-exports) with the ast module: a name bound by `import` or
`from ... import` counts as used when it appears as a Name anywhere else in
the module.  `from __future__` imports are exempt.  A module-level
definition counts as used when code outside that definition refers to it.
"""

from __future__ import annotations

import ast
import collections
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


# Every module-level definition in src/dunklpd/*.py (except __init__.py) must
# be referenced outside its own definition somewhere in these trees.  A
# reference is a loaded Name, an attribute, an imported name, or a string
# naming it (the benchmark's tracer and monkeypatch-based tests address
# functions by name, as "Grid.points" or "numeric_density").
ROOT = SRC.parents[1]
REFERENCE_TREES = ("src", "tests", "scripts", "perfbench")


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(node) -> set:
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.update(sub.value.split("."))
    return refs


def dead_definitions(module: str, elsewhere: set) -> list[str]:
    """Names defined at the top of `module` that neither the rest of the
    module nor the references `elsewhere` (from other files) mention."""
    tree = ast.parse(module)
    # per name, how many top-level statements of the module refer to it
    local = collections.Counter(name for node in tree.body for name in _references(node))
    dead = []
    for name, node in _definitions(tree):
        if name.startswith("__") and name.endswith("__"):
            continue
        if name not in elsewhere and local[name] == (name in _references(node)):
            dead.append(f"{name} (line {node.lineno})")
    return dead


def test_dead_scan_finds_an_unreferenced_definition():
    module = "A = 1\nB = A + 1\ndef f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\n"
    elsewhere = _references(ast.parse("g()\nx = 'C.method'\n"))
    assert dead_definitions(module, elsewhere) == ["B (line 2)", "f (line 3)"]


def test_no_dead_definitions():
    paths = [p for tree in REFERENCE_TREES for p in sorted((ROOT / tree).rglob("*.py"))]
    refs = {p: _references(ast.parse(p.read_text())) for p in paths}
    dead = {}
    for path in MODULES:
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        found = dead_definitions(path.read_text(), elsewhere)
        if found:
            dead[path.name] = found
    assert dead == {}


# The phase primitive, the scattered contraction and the per-distinct
# evaluation helper have fixed users:
# outside kernel.py, _phase_1d is used only by transform._axis_matrices (the
# one builder of phase matrices), and _scatter_contract only by
# transform._blocked_scatter (the one translation and transform sum) and
# translation.translate_mass.  `_per_distinct` serves exactly the three
# costly special-function evaluations, and it is the one place in kernel.py
# that calls np.unique.  A use is a loaded Name (or, for np.unique, the
# attribute); import statements do not count.


def users(source: str, name: str, attribute: bool = False) -> set[str]:
    """The top-level definitions of `source` whose code uses `name` (as a
    Name, or with `attribute` as an attribute such as np.name); "<module>"
    stands for module-level statements."""
    found = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(top):
            if attribute and isinstance(sub, ast.Attribute) and sub.attr == name:
                found.add(owner)
            elif isinstance(sub, ast.Name) and sub.id == name and not isinstance(sub.ctx, ast.Store):
                found.add(owner)
    return found


def test_use_scan_names_the_enclosing_definition():
    source = (
        "from m import f\n"
        "def a():\n"
        "    def inner():\n"
        "        return f(1)\n"
        "    return inner\n"
        "class B:\n"
        "    def g(self):\n"
        "        return self.f\n"
        "X = f\n"
    )
    assert users(source, "f") == {"a", "<module>"}
    assert users(source, "f", attribute=True) == {"a", "B", "<module>"}


def _package_users(name: str, skip: str = "") -> set[str]:
    return {f"{p.stem}.{owner}" for p in MODULES if p.name != skip for owner in users(p.read_text(), name)}


def test_phase_matrices_have_one_builder():
    assert _package_users("_phase_1d", skip="kernel.py") == {"transform._axis_matrices"}


def test_scattered_contraction_has_one_caller_per_sum():
    assert _package_users("_scatter_contract") == {"transform._blocked_scatter", "translation.translate_mass"}


def test_costly_evaluations_go_through_one_helper():
    assert _package_users("_per_distinct") == {
        "kernel._bessel_pair_generic",
        "kernel._real_1d_scaled",
        "functions._bessel_k_profile_values",
    }
    assert users((SRC / "kernel.py").read_text(), "unique", attribute=True) == {"_per_distinct"}


def test_psd_verdict_and_grid_convolution_have_one_route():
    # the PSD report is rendered only by GramReport.psd_report (the one reader
    # of hermitian_residual besides to_dict), and convolve_grid is a grid
    # transform, not a scattered convolve at every node
    readers = {
        f"{p.stem}.{owner}" for p in MODULES for owner in users(p.read_text(), "hermitian_residual", attribute=True)
    }
    assert readers == {"reports.GramReport"}
    translation = (SRC / "translation.py").read_text()
    assert users(translation, "forward_grid") == {"convolve_grid"}
    assert users(translation, "convolve") == set()
