"""Every name a package module imports is used in that module, every name
it defines is used somewhere, the kernel phase primitive and the
scattered contraction have no users beyond the listed ones, the store of
recent phase matrices has one reader (transform._axis_matrices), the orthant
fold has one owner (quadrature.Grid), every bound report is built by
IdentityReport.bound, every entry point the benchmark's tracer wraps
by name exists, input is converted in one home (root_system), and a catalog
handle's r^2 is formed in one helper (functions._radius_squared).

The scans read src/dunklpd/*.py (except __init__.py, whose imports are the
public re-exports) with the ast module: a name bound by `import` or
`from ... import` counts as used when it appears as a Name anywhere else in
the module.  `from __future__` imports are exempt.  A module-level
definition counts as used when code outside that definition refers to it.
"""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
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


# The phase primitive and the scattered contraction have fixed users:
# outside kernel.py, _phase_1d is used only by transform._axis_matrices (the
# one builder of phase matrices), and _scatter_contract only by
# transform._blocked_scatter (the one translation and transform sum),
# translation.translate_mass and posdef.bound_check (the translate diagonal).
# Every evaluator is elementwise and nothing deduplicates by value: no module
# calls np.unique, and the one sort of kernel.py is the generic Bessel pair's,
# which reads its panels and Hankel bands as runs of ascending arguments.
# A use is a loaded Name (or, for np.unique and np.argsort, the attribute);
# import statements do not count.


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


# the store of recent phase matrices and its cap are _axis_matrices' own: no
# other definition, in transform.py or in another module, reads them, by name
# or as an attribute (transform._STORE)
def test_the_phase_store_has_one_reader():
    for name in ("_STORE", "_STORE_BYTES"):
        readers = {f"{p.stem}.{owner}" for p in MODULES for owner in users(p.read_text(), name, attribute=True)}
        assert readers == {"transform._axis_matrices"}, name


def test_scattered_contraction_has_one_caller_per_sum():
    assert _package_users("_scatter_contract") == {
        "transform._blocked_scatter",
        "translation.translate_mass",
        "posdef.bound_check",
    }


# Grid.summand is the one owner of the orthant fold: only quadrature.py reads a
# grid's raw axis weights or halves an axis (a[len(a) // 2 :]), every other
# module reads the fold from the summand's axes or from Grid.half_axes and
# Grid.half_weights (translate_mass's position sum), and Grid has no second
# summand beside it.  Every handle summed over a grid is a Grid.summand; value
# arrays are summed by Grid.integrate.  suite_posdef's spectral quadratic form
# is the one value array times a handle sample, |sum_j a_j E(-i x_j, xi)|^2
# rho(xi): with complex coefficients that integrand is not even.


def attribute_readers(source: str, name: str) -> set[str]:
    """The top-level definitions of `source` that read the attribute `name` (x.name)."""
    return {
        top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for top in ast.parse(source).body
        for sub in ast.walk(top)
        if isinstance(sub, ast.Attribute) and sub.attr == name
    }


def halved_slices(source: str) -> set[str]:
    """The top-level definitions of `source` that slice with a bound len(...) // 2."""

    def halves(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "len"
            and getattr(node.right, "value", None) == 2
        )

    return {
        top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for top in ast.parse(source).body
        for sub in ast.walk(top)
        if isinstance(sub, ast.Slice) and any(halves(b) for b in (sub.lower, sub.upper) if b is not None)
    }


def test_fold_scans_name_the_enclosing_definition():
    source = (
        "def f(g):\n"
        "    return g.axis_weights, [a[len(a) // 2 :] for a in g.axes]\n"
        "def h(a):\n"
        "    return len(a) // 2, a[: len(a) // 3], a[n // 2 :], axis_weights\n"
        "class C:\n"
        "    w = x[: len(x) // 2]\n"
    )
    assert attribute_readers(source, "axis_weights") == {"f"}
    assert halved_slices(source) == {"f", "C"}


def _package_readers(scan, *args) -> set[str]:
    return {f"{p.stem}.{owner}" for p in MODULES for owner in scan(p.read_text(), *args)}


def test_the_orthant_fold_has_one_owner():
    from dunklpd.quadrature import Grid

    assert _package_readers(attribute_readers, "axis_weights") == {"quadrature.Grid"}
    assert _package_readers(halved_slices) == {"quadrature.Grid"}
    for half in ("half_axes", "half_weights"):
        assert _package_readers(attribute_readers, half) == {"quadrature.Grid", "translation.translate_mass"}
    assert not hasattr(Grid, "weighted")


# Grid.summand is also the one owner of the separable layout: only it asks a
# handle for its per-axis factors (functions.sample_factors; no module reads
# an axis_factors attribute) and multiplies them by the half weights, and
# only Summand reads a summand's values, dense (vw) or per axis (axis_vw).
# Every other module sums a summand through Summand.contract or
# Summand.total, which take either layout.
def test_the_separable_layout_has_one_owner():
    assert _package_readers(attribute_readers, "axis_factors") == set()
    assert _package_users("sample_factors", skip="functions.py") == {"quadrature.Grid"}
    for values in ("vw", "axis_vw"):
        assert _package_readers(attribute_readers, values) == {"quadrature.Summand"}, values


def test_handle_sums_read_the_summand_and_value_arrays_integrate():
    assert _package_readers(attribute_readers, "summand") == {
        "transform._transformer",
        "transform.plancherel_duality",
        "translation.translate",
        "translation.translate_mass",
        "posdef._gram_on",
        "posdef.bound_check",
        "quadrature.integrate_with_check",
        "identities.suite_kernel",
    }
    assert _package_readers(attribute_readers, "integrate") == {
        "transform.weighted_norm",
        "posdef.heat_kernel_mass",
        "identities.suite_translation",
        "identities.suite_posdef",
    }
    assert _package_readers(attribute_readers, "sample") == {
        "quadrature.Grid",
        "transform.weighted_norm",
        "posdef.bochner_forward",
        "identities.suite_posdef",
    }


def test_costly_evaluations_go_through_one_helper():
    assert {f"{p.stem}.{owner}" for p in MODULES for owner in users(p.read_text(), "unique", attribute=True)} == set()
    assert users((SRC / "kernel.py").read_text(), "argsort", attribute=True) == {"_bessel_pair_generic"}


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


# An inequality is reported as expected 0 against its excess clipped at 0, and
# only IdentityReport.bound spells that out: no other IdentityReport(...) call
# (or cls(...) call) in the package passes a literal 0 as the expected value.


def zero_expected_reports(source: str) -> list[str]:
    """The enclosing definition (dotted, "<module>" at the top level) of each
    IdentityReport(...) or cls(...) call whose expected value, the second
    positional argument or the keyword, is a literal 0."""
    found = []

    def expected(call):
        if len(call.args) > 1:
            return call.args[1]
        return next((k.value for k in call.keywords if k.arg == "expected"), None)

    def is_zero(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return False
        return isinstance(value, (int, float, complex)) and not isinstance(value, bool) and value == 0

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ("IdentityReport", "cls")
                and expected(child) is not None
                and is_zero(expected(child))
            ):
                found.append(owner or "<module>")
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def test_zero_expected_scan_names_each_call():
    source = (
        "r = IdentityReport('a', 0.0, x, 1e-9)\n"
        "def f():\n"
        "    return [IdentityReport('b', expected=-0.0, computed=x, tolerance=1), IdentityReport('c', 1.0, x, 0)]\n"
        "class R:\n"
        "    def bound(cls):\n"
        "        return cls('d', 0, x, 1.0), cls('e', False, x, 1.0), GramReport(0, 0)\n"
    )
    assert zero_expected_reports(source) == ["<module>", "f", "R.bound"]


def test_bound_reports_have_one_builder():
    found = [f"{p.stem}.{owner}" for p in MODULES for owner in zero_expected_reports(p.read_text())]
    assert found == ["reports.IdentityReport.bound"]


# Handles answer for themselves: operators read a capability with
# getattr(fn, name, None) (evaluate, on_axes, partner, spectral_hint, profile,
# nonnegative, even), and no isinstance or issubclass call in the package names
# a handle type.
HANDLE_TYPES = {"CatalogFunction", "SampledFunction", "DensityProduct"}


def handle_type_tests(source: str) -> list[int]:
    """Line numbers of the isinstance and issubclass calls of `source` whose class argument names a handle type."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            named = {getattr(n, "id", None) or getattr(n, "attr", None) for arg in node.args[1:] for n in ast.walk(arg)}
            if named & HANDLE_TYPES:
                found.append(node.lineno)
    return found


def test_handle_type_scan_finds_every_spelling():
    source = (
        "isinstance(f, CatalogFunction)\n"
        "isinstance(f, (int, functions.SampledFunction))\n"
        "issubclass(type(f), DensityProduct)\n"
        "isinstance(f, (int, float))\n"
        "getattr(f, 'partner', None)\n"
    )
    assert handle_type_tests(source) == [1, 2, 3]


def test_no_type_test_names_a_handle_type():
    found = {p.name: handle_type_tests(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# perfbench/tracer.py wraps each layer's entry points by name (setattr on the
# module, or on the class for "Class.method"); a rename in src/ would break
# traced benchmark runs while every other test passes.  The tracer is loaded
# by path, so that perfbench/ needs no change to be tested from here.
def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"dunklpd.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                found = isinstance(cls, type) and attr in cls.__dict__
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"dunklpd.{layer}.{name}")
    assert missing == []


# every checked operator at a batch of points is one _pointwise call (point
# check, n/2n check, scalar or batch return); grids are contracted axis by axis
# only inside _blocked_scatter, and by suite_posdef for its coefficient tensor;
# the identity suites check composites in one pass, never through the
# twice-checked tabulated_density
def test_checked_pointwise_operators_share_one_body():
    assert _package_users("_pointwise") == {
        "transform.forward",
        "transform.inverse",
        "transform.forward_grid",
        "translation.translate",
        "translation.convolve",
        "translation.convolve_direct",
    }


# quadrature.two_pass builds every grid a checked computation reads (its runs
# take grids); the other users of Grid build unchecked grids: the doubled-only
# integrals (numeric_density, weighted_norm, suite_kernel's and suite_posdef's
# fine grids), bochner_forward's sign sample, convolve_grid's output axes and
# suite_translation's two integration grids.  A use is a Name: a call, or an
# annotation, which the helpers that take a grid leave out.
def test_grids_are_built_in_fixed_places():
    assert _package_users("Grid") == {
        "quadrature.two_pass",
        "transform.numeric_density",
        "transform.weighted_norm",
        "posdef.bochner_forward",
        "translation.convolve_grid",
        "identities.suite_kernel",
        "identities.suite_posdef",
        "identities.suite_translation",
    }


def test_grid_contraction_has_fixed_callers():
    assert _package_users("_grid_contract") == {"transform._blocked_scatter", "identities.suite_posdef"}
    assert _package_users("tabulated_density") == {"posdef.closure_suite"}


# the Bessel mass identity is the weighted integral checked n/2n by
# quadrature.integrate_with_check, and report JSON has one writer
def test_checked_integral_and_json_writer_have_one_home():
    assert _package_users("integrate_with_check") == {"posdef.bessel_integral_identity"}
    assert users((SRC / "cli.py").read_text(), "dumps", attribute=True) == set()
    assert users((SRC / "reports.py").read_text(), "dumps", attribute=True) == {"_write_json"}


# root_system is the one home of input conversion: every coordinate array goes
# through _real_points, every set of grid axes through _query_axes (one 1-D
# axis per dimension) and every real parameter through _in_range, from the
# definitions pinned here (Class.method for a method; a closure counts for the
# function around it).  No public function, public method, __post_init__ or
# __call__ elsewhere converts one of its own arguments (self.field in a method)
# with float(...) or np.asarray(..., dtype=float), unless _in_range checked that
# argument first in the same definition; float(n).is_integer(), a count's
# whole-number test, keeps no float.  Arrays built inside the package, such as
# kernel._parts' z, are not arguments and are not scanned.


def _definitions_in(tree: ast.Module):
    """(owner, def) for every top-level function and every method, owner dotted as Class.method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for sub in top.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{top.name}.{sub.name}", sub


def callers(source: str, name: str) -> set[str]:
    """The functions and methods of `source` that use `name` as a loaded Name."""
    return {
        owner
        for owner, node in _definitions_in(ast.parse(source))
        if any(isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node))
    }


def own_conversions(source: str) -> list[str]:
    """owner(argument) for each unchecked float(...) or np.asarray(..., dtype=float) of an argument."""
    found = []
    for owner, node in _definitions_in(ast.parse(source)):
        if node.name.startswith("_") and node.name not in ("__post_init__", "__call__"):
            continue
        args = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs} - {"self"}
        is_arg = lambda n: (isinstance(n, ast.Name) and n.id in args) or (
            isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"
        )
        calls = [sub for sub in ast.walk(node) if isinstance(sub, ast.Call) and sub.args and is_arg(sub.args[0])]
        checked = {ast.unparse(c.args[0]) for c in calls if getattr(c.func, "id", None) == "_in_range"}
        tests = {id(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and sub.attr == "is_integer"}
        for call in calls:
            to_float = getattr(call.func, "id", None) == "float" or (
                getattr(call.func, "attr", None) in ("asarray", "array")
                and any(k.arg == "dtype" and getattr(k.value, "id", None) == "float" for k in call.keywords)
            )
            arg = ast.unparse(call.args[0])
            if to_float and id(call) not in tests and arg not in checked:
                found.append(f"{owner}({arg})")
    return found


def test_conversion_scans_name_each_site():
    source = (
        "def f(x, y, n, t):\n"
        "    a = np.asarray(x, dtype=float)\n"
        "    if not _in_range(t, 0, 1) or not float(n).is_integer():\n"
        "        raise ValueError\n"
        "    return _real_points(y, 'here'), float(t), float(np.max(a))\n"
        "def _private(x):\n"
        "    return float(x)\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'p', float(self.p))\n"
        "    def evaluate(self, pts):\n"
        "        return (lambda q: np.array(q, dtype=float))(pts), _real_points(pts, 'here')\n"
    )
    assert own_conversions(source) == ["f(x)", "C.__post_init__(self.p)"]
    assert callers(source, "_real_points") == {"f", "C.evaluate"}


def _package_callers(name: str) -> set[str]:
    return {f"{p.stem}.{owner}" for p in MODULES for owner in callers(p.read_text(), name)}


# A catalog handle's r^2 is formed by functions._radius_squared alone, the squares
# summed in ascending order: the points route (CatalogFunction.evaluate) and the grid
# route (CatalogFunction.on_axes) call it, and no method of the handle sums itself
# (no np.sum, no np.add.outer), so both routes give the same r^2 bit for bit.


def test_catalog_radius_squared_has_one_helper():
    assert _package_callers("_radius_squared") == {
        "functions.CatalogFunction.evaluate",
        "functions.CatalogFunction.on_axes",
    }
    sums = {
        owner
        for owner, node in _definitions_in(ast.parse((SRC / "functions.py").read_text()))
        if owner.startswith("CatalogFunction.")
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr in ("sum", "add")
    }
    assert sums == set()


def test_inputs_are_converted_in_one_home():
    assert _package_callers("_real_points") == {
        "root_system._query_points",
        "kernel._point_pair",
        "kernel.dunkl_operator_1d",
        "root_system._query_axes",
        "functions.SampledFunction.__post_init__",
        "functions.DensityProduct.__call__",
        "functions.evaluate_handle",
        "transform._transformer",
        "transform.forward_grid",
        "transform.spectral_density",
        "posdef.PointSet.__post_init__",
    }
    assert _package_callers("_query_axes") == {
        "functions.CatalogFunction._grid_axes",
        "functions.sample_on_axes",
        "transform.forward_grid",
    }
    assert _package_callers("_in_range") == {
        "root_system.make_config",
        "kernel._check_kappa",
        "functions.CatalogFunction.__post_init__",
        "functions.uniform_axes",
        "quadrature.QuadratureSpec.__post_init__",
        "transform.weighted_norm",
        "posdef._require_time",
        "posdef.bessel_integral_identity",
    }
    found = {p.name: own_conversions(p.read_text()) for p in MODULES if p.name != "root_system.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}
