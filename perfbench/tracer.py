"""Span recorder for the benchmark's traced runs.

The package is not instrumented.  Instead the recorder wraps each layer's
entry points from outside: a function is replaced at every module attribute
that binds it (modules import by name, so `identities.forward` and
`transform.forward` are separate bindings of one function), and a method is
replaced once, on its class.  `uninstall` puts every original back.

Spans stay in memory as tuples (request, parent, layer, name, start, end,
count) and are written out once, by `dump`.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import numpy as np

LAYERS = (
    "kernel",
    "quadrature",
    "functions",
    "transform",
    "translation",
    "posdef",
    "identities",
    "reports",
    "cli",
)

# Entry points per layer module.  "Class.method" entries are patched on the
# class; plain names at every module attribute bound to the function.
ENTRY_POINTS = {
    "kernel": (
        "_phase_1d",
        "_real_1d_scaled",
        "kernel_1d",
        "kernel_real_1d",
        "kernel_nd",
        "kernel_real_nd",
        "dunkl_operator_1d",
    ),
    "quadrature": (
        "Grid.__init__",
        "Grid.points",
        "Grid.weight_grid",
        "Grid.integrate",
        "default_spec",
        "integrate_with_check",
    ),
    "functions": (
        "evaluate_handle",
        "CatalogFunction.evaluate",
        "SampledFunction.evaluate",
        "sample_on_axes",
        "sampled_to_csv",
        "save_sampled_csv",
        "load_sampled_csv",
    ),
    "transform": (
        "forward",
        "inverse",
        "forward_grid",
        "spectral_density",
        "numeric_density",
        "tabulated_density",
        "weighted_norm",
        "plancherel_duality",
        "catalog_partner",
        "closed_form_transform",
        "_blocked_scatter",
    ),
    "translation": ("translate", "translate_mass", "convolve", "convolve_direct", "convolve_grid"),
    "posdef": (
        "gram",
        "quadratic_form",
        "bochner_forward",
        "bochner_certify",
        "bound_check",
        "closure_suite",
        "quadratic_form_heat",
        "heat_kernel",
        "heat_kernel_mass",
        "bessel_integral_identity",
        "kernel_independence",
        "strict_pd_certify",
        "builtin_points",
    ),
    "identities": (
        "run_suites",
        "suite_kernel",
        "suite_transform",
        "suite_translation",
        "suite_posdef",
        "suite_heat",
        "cauchy_exponent",
        "round_trip_specs",
        "_indefinite_profile",
    ),
    "reports": (
        "IdentityReport.__post_init__",
        "IdentityReport.to_dict",
        "IdentityReport.line",
        "GramReport.from_matrix",
        "GramReport.to_dict",
        "reports_to_json",
    ),
    "cli": ("main", "cmd_transform", "cmd_certify", "cmd_verify", "_parse_function", "_parse_points", "_load_config"),
}

BRANCHES = ("free", "ladder", "generic", "scaled_real", "real")

# Largest multiplicity the kernel's sine/cosine ladder serves; the branch is
# read from kappa here, outside the program.
_LADDER_MAX_KAPPA = 8.0


def kernel_branch(kappa: float) -> str:
    k = float(kappa)
    if k == 0.0:
        return "free"
    if k <= _LADDER_MAX_KAPPA and (2.0 * k).is_integer():
        return "ladder"
    return "generic"


def _rows(points) -> int:
    return 1 if np.ndim(points) <= 1 else int(np.shape(points)[0])


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Count recorded with a span: (key, amount) or None.  Products are counted at
# the array entry points only, so kernel_1d/kernel_nd (which call _phase_1d)
# add nothing of their own.
def _count(name: str, args: tuple):
    if name == "_phase_1d":
        return kernel_branch(args[0]), int(np.size(args[1]))
    if name == "_real_1d_scaled":
        return "scaled_real", int(np.size(args[1]))
    if name == "kernel_real_1d":
        return "real", 1
    if name == "kernel_real_nd":
        return "real", args[0].dimension
    if name == "Grid.__init__":
        grid = args[0]
        key = (grid.config.dimension, tuple(grid.config.kappa), grid.spec.radius, grid.spec.nodes_per_axis)
        return key, int(np.prod(grid.shape))
    if name == "Grid.points":
        grid = args[0]
        return "points_bytes", int(np.prod(grid.shape)) * grid.dimension * 8
    if name == "CatalogFunction.evaluate":
        return "catalog", _rows(args[2])
    if name == "SampledFunction.evaluate":
        return "sampled", _rows(args[2])
    if name == "evaluate_handle":
        fn = args[1]
        if type(fn).__name__ in ("CatalogFunction", "SampledFunction"):
            return None
        return "callable", _rows(args[2])
    if name == "save_sampled_csv":
        return "csv_bytes", _file_size(args[1])
    if name == "load_sampled_csv":
        return "csv_bytes", _file_size(args[0])
    return None


class Recorder:
    """Wraps the entry points and keeps the spans of the current request."""

    def __init__(self):
        self.spans: list = []
        self.request = None
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, layer: str, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span_id = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[span_id] = (rec.request, parent, layer, name, start, end, _count(name, args))

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "dunklpd" or n.startswith("dunklpd.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"dunklpd.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, name, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, name, raw)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                    continue
                fn = getattr(home, name)
                wrapped = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def dump(path: str, passes: list) -> None:
    """Write the spans of every traced pass; parents index into their pass."""

    def row(span):
        count = span[6]
        if count is not None:
            key, amount = count
            count = [list(key) if isinstance(key, tuple) else key, amount]
        return list(span[:6]) + [count]

    fields = ["request", "parent", "layer", "name", "start", "end", "count"]
    with open(path, "w") as fh:
        json.dump({"fields": fields, "passes": [[row(s) for s in spans] for spans in passes]}, fh)


def _suite_of(spans, index: int) -> str:
    while index >= 0:
        name = spans[index][3]
        if name.startswith("suite_"):
            return name[len("suite_"):]
        index = spans[index][1]
    return "other"


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times of one pass, as name -> (value, unit).

    `spans` holds exactly one pass; parents are indices into it.
    """
    child_time = [0.0] * len(spans)
    for request, parent, layer, name, start, end, count in spans:
        if parent >= 0:
            child_time[parent] += end - start

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    products = {b: 0 for b in BRANCHES}
    branch_s = {b: 0.0 for b in BRANCHES}
    suite_s = {}
    counts = {"catalog": 0, "sampled": 0, "callable": 0, "csv_bytes": 0, "points_bytes": 0}
    csv_s = 0.0
    grids = grid_nodes = repeats = 0
    seen = set()
    for i, (request, parent, layer, name, start, end, count) in enumerate(spans):
        own = end - start - child_time[i]
        self_s[layer] += own
        if parent < 0 or spans[parent][2] != layer:
            calls[layer] += 1
        if layer == "kernel":
            key = count[0] if count else None
            if key in products:
                products[key] += count[1]
                branch_s[key] += own
        elif layer == "quadrature" and name == "Grid.__init__":
            grids += 1
            grid_nodes += count[1]
            if (request, count[0]) in seen:
                repeats += 1
            seen.add((request, count[0]))
        elif layer == "identities":
            suite = _suite_of(spans, i)
            suite_s[suite] = suite_s.get(suite, 0.0) + own
        if name in ("sampled_to_csv", "save_sampled_csv", "load_sampled_csv"):
            csv_s += own
        if count and isinstance(count[0], str) and count[0] in counts:
            counts[count[0]] += count[1]

    total_products = sum(products.values())
    out = {}
    for b in BRANCHES:
        out[f"kernel.products.{b}"] = (products[b], "count")
    out["kernel.self_s"] = (self_s["kernel"], "s")
    out["kernel.rate"] = (total_products / self_s["kernel"] if self_s["kernel"] > 0 else 0.0, "1/s")
    for b in BRANCHES:
        out[f"kernel.self_s.{b}"] = (branch_s[b], "s")
        out[f"kernel.rate.{b}"] = (products[b] / branch_s[b] if branch_s[b] > 0 else 0.0, "1/s")
    out["quadrature.grids_built"] = (grids, "count")
    out["quadrature.grid_nodes"] = (grid_nodes, "count")
    out["quadrature.points_bytes"] = (counts["points_bytes"], "B")
    out["quadrature.repeat_ratio"] = (repeats / grids if grids else 0.0, "ratio")
    out["quadrature.self_s"] = (self_s["quadrature"], "s")
    for kind in ("catalog", "sampled", "callable"):
        out[f"functions.points.{kind}"] = (counts[kind], "count")
    out["functions.self_s"] = (self_s["functions"], "s")
    out["functions.csv_bytes"] = (counts["csv_bytes"], "B")
    out["functions.csv_s"] = (csv_s, "s")
    for layer in ("transform", "translation", "posdef"):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["identities.self_s"] = (self_s["identities"], "s")
    for suite in sorted(suite_s):
        out[f"identities.self_s.{suite}"] = (suite_s[suite], "s")
    out["reports.self_s"] = (self_s["reports"], "s")
    out["cli.self_s"] = (self_s["cli"], "s")
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Counts from the first traced pass (they repeat exactly); every other
    value is the median over the traced passes."""
    first = per_pass[0]
    out = {}
    for name, (value, unit) in first.items():
        if unit in ("count", "B"):
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(p.get(name, (0.0, unit))[0] for p in per_pass), unit)
    return out
