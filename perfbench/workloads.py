"""Seeded workloads, their requests, and the correctness gate.

A workload is a warm-up request plus a list of requests per pass.  The seed
only shapes the inputs: on the suite workloads it shuffles the order of the
(config, suite) requests, on `certify` it draws parameters, point sets and
the request order.  Every pass of a run repeats the same requests, so a
faster program times the same inputs as a slower one.  Every request is
timed around the program call alone; its outputs are checked afterwards and
give an `Outcome`.

Requests go through the package the way a user reaches it: identity suites
and certification through `dunklpd.cli.main` (in process), the d=3 heat and
transform requests through the public API.  Names are looked up on the
modules at call time so that a traced run sees the wrapped entry points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import dunklpd as dk
from dunklpd import cli as dk_cli

WORKLOADS = ("suites-small", "suites-d3", "generic-kappa", "certify")
SUITES = ("kernel", "transform", "translation", "posdef", "heat")

SMALL_CONFIGS = ((1, (0.0,)), (1, (0.5,)), (1, (2.0,)), (2, (1.0, 0.0)))
D3_CONFIG = (3, (1.0, 0.5, 0.0))
# Only d=1 runs every suite: at d=2 the transform, translation and posdef
# suites take 3.5 s, 30 s and 11 s, past one run's length.
GENERIC_REQUESTS = tuple(((1, (0.3,)), s) for s in SUITES) + (
    ((2, (0.3, 1.7)), "kernel"),
    ((2, (0.3, 1.7)), "heat"),
)

# Reports that FAIL at the parent of the benchmark's first commit, found by
# running each request once (abs error / tolerance in the comments).  The
# weight |y|^0.6 makes the Gauss-Legendre panels converge only algebraically.
# They count as failed operations on every pass; only a FAIL outside this
# table makes a run incorrect.
KNOWN_DEFECTS = {
    ((1, (0.3,)), "kernel"): {"kernel_gaussian_pairing_formula"},  # 1.5e-7 / 1e-7
    ((1, (0.3,)), "transform"): {
        "inversion_round_trip_gaussian",  # 7.8e-6 / 1e-6
        "inversion_round_trip_gaussian_density",  # 4.6e-6 / 1e-6
        "inversion_round_trip_generalized_cauchy",  # 9.3e-6 / 1e-6
        "inversion_round_trip_bessel_k_profile",  # 2.3e-6 / 1e-6
        "gaussian_transform_pair",  # 1.5e-7 / 1e-7
        "selfreciprocal_gaussian_fixed_point",  # 1.5e-7 / 1e-8
        "transform_pairing_symmetry_mixed",  # 1.0e-7 / 1e-7
    },
    ((1, (0.3,)), "translation"): {
        "translation_preserves_weighted_mass",  # 1.6e-5 / 1e-6
        "convolution_product_rule",  # 1.5e-6 / 1e-6
    },
    ((1, (0.3,)), "posdef"): {"translate_bounds_gaussian"},  # 8.5e-8 / 1e-8
    ((2, (0.3, 1.7)), "kernel"): {"kernel_gaussian_pairing_formula"},  # 5.6e-7 / 1e-7
    ((2, (0.3, 1.7)), "heat"): {"heat_kernel_weighted_mass"},  # 1.5e-6 / 1e-6
}

# The heat suite's extreme (t, |x|) cases, on the d=3 default node pair
# (48, 96) instead of heat_kernel_mass's (96, 192), which alone takes 9 s.
D3_HEAT_CASES = ((0.25, 0.8), (4.0, 0.0))
D3_FORWARD_T = (0.5, 1.0, 2.0)
HEAT_TOL = 1e-6
FORWARD_TOL = 1e-7

# Certify mix.  Parameters are drawn above each catalog edge
# gamma + d/2 + 1; below it the CLI must refuse the input with exit 2.
CERTIFY_D1 = ((1, (0.0,)), (1, (0.5,)), (1, (2.0,)))
CERTIFY_D2 = (2, (1.0, 0.0))
CERTIFY_D3 = (3, (1.0, 0.5, 0.0))
CATALOG = ("gaussian", "cauchy", "bessel_k")
CATALOG_KIND = {"gaussian": "gaussian", "cauchy": "generalized_cauchy", "bessel_k": "bessel_k_profile"}
# Transform requests sample gaussian(t), t in [0.5, 2]: forward CSVs must
# match catalog_partner at the written nodes (worst seen 2e-14 of the peak),
# and the inverse leg, which reads that CSV back through multilinear
# resampling and the output box's truncation, must return the Gaussian (worst
# seen 2.9e-2 at d=2, t=2).  Cauchy and Bessel-K sources are left out: their
# partners spill past the default boxes (forward errors up to 2e-2 for
# bessel_k at d=2, round trips off by up to 40 % for cauchy).
FORWARD_CSV_TOL = 1e-10
ROUND_TRIP_TOL = 5e-2


def config_name(config) -> str:
    d, kappa = config
    return f"d{d}-k" + "_".join(f"{k:g}" for k in kappa)


@dataclass(frozen=True)
class Verify:
    """`dunklpd verify --suite <suite>` on one config."""

    config: tuple
    suite: str


@dataclass(frozen=True)
class Certify:
    """`dunklpd certify --strict-pd`; expect is the exit code the gate wants."""

    config: tuple
    function: str
    points: str
    expect: int


@dataclass(frozen=True)
class Transform:
    """`dunklpd transform` of `function`: the forward leg of the catalog spec
    `catalog`, or the inverse leg reading the forward leg's CSV back."""

    config: tuple
    function: str
    output: str
    inverse: bool
    catalog: str


@dataclass(frozen=True)
class HeatMass:
    """Weighted mass of the d=3 heat kernel on a tensor grid (must be 1)."""

    t: float
    x_norm: float
    config: tuple = D3_CONFIG


@dataclass(frozen=True)
class Forward:
    """d=3 forward transform of gaussian(t) against its closed form."""

    t: float
    config: tuple = D3_CONFIG


@dataclass
class Outcome:
    attempted: int = 1
    failed: int = 0
    unexpected: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message: str, known: bool = False) -> None:
        self.failed += 1
        if not known:
            self.unexpected += 1
        self.messages.append(("known defect: " if known else "") + message)


def label(req) -> str:
    if isinstance(req, Verify):
        return f"verify {config_name(req.config)} {req.suite}"
    if isinstance(req, Certify):
        return f"certify {config_name(req.config)} {req.function} {os.path.basename(req.points)}"
    if isinstance(req, Transform):
        leg = "inverse" if req.inverse else "forward"
        return f"transform {leg} {config_name(req.config)} {req.catalog}"
    if isinstance(req, HeatMass):
        return f"heat-mass d3 t={req.t} |x|={req.x_norm}"
    return f"forward d3 gaussian t={req.t}"


class Plan:
    """Inputs of one workload, generated from the seed into `rundir`."""

    def __init__(self, name: str, seed: int, rundir: str, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.rundir = rundir
        self.tiny = tiny
        self.recorder = None
        os.makedirs(rundir, exist_ok=True)
        rng = np.random.default_rng(seed)
        if name == "suites-small":
            self.warmup = Verify(SMALL_CONFIGS[0], "kernel")
            base = [Verify(c, s) for c in SMALL_CONFIGS for s in SUITES]
        elif name == "generic-kappa":
            self.warmup = Verify(GENERIC_REQUESTS[4][0], "heat")
            base = [Verify(c, s) for c, s in GENERIC_REQUESTS]
        elif name == "suites-d3":
            self.warmup = Forward(1.0)
            base = [Verify(D3_CONFIG, "kernel"), Verify(D3_CONFIG, "translation")]
            base += [HeatMass(t, x) for t, x in D3_HEAT_CASES] + [Forward(t) for t in D3_FORWARD_T]
        else:
            self.warmup = Certify(CERTIFY_D1[1], "gaussian:t=1", "builtin:5", 0)
        if name == "certify":
            self.requests = self._certify_pass(rng)
        else:
            if tiny:
                base = [Verify(GENERIC_REQUESTS[0][0], "kernel")] if name == "generic-kappa" else [self.warmup]
            self.requests = [base[i] for i in rng.permutation(len(base))]
        for config in {r.config for r in [self.warmup] + self.requests}:
            with open(self.config_path(config), "w") as fh:
                json.dump({"dimension": config[0], "kappa": list(config[1])}, fh)

    def config_path(self, config) -> str:
        return os.path.join(self.rundir, f"cfg-{config_name(config)}.json")

    def _points(self, rng, config, i: int) -> str:
        """builtin:n or a CSV of seeded points at least 0.6 apart."""
        d = config[0]
        n = int(rng.integers(3, 7))
        if rng.random() < 0.5:
            return f"builtin:{n}"
        if d == 1:
            # sorted draws plus fixed gaps: placing points one by one on a
            # line can jam before n of them fit
            pts = np.sort(rng.uniform(-2.0, 2.0 - 0.6 * (n - 1), size=n)) + 0.6 * np.arange(n)
            pts = [np.array([p]) for p in pts]
        else:
            pts = []
            while len(pts) < n:
                p = rng.uniform(-2.0, 2.0, size=d)
                if all(np.linalg.norm(p - q) >= 0.6 for q in pts):
                    pts.append(p)
        path = os.path.join(self.rundir, f"pts-{i}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(f"x{j + 1}" for j in range(d)) + "\n")
            for p in pts:
                fh.write(",".join(f"{v:.17g}" for v in p) + "\n")
        return path

    def _certify_pass(self, rng) -> list:
        d1, d2, d3 = CERTIFY_D1, CERTIFY_D2, CERTIFY_D3
        catalog = [(c, kind) for c in d1 for kind in CATALOG] + [(d2, kind) for kind in CATALOG] * 2
        catalog += [(d3, "gaussian"), (d3, "bessel_k")]
        sinmod, refused, transforms = d1[1:], (d1[1], d2), d1 + (d2, d2)
        if self.tiny:
            catalog, sinmod, refused, transforms = [(d1[1], "gaussian")], d1[1:2], d1[1:2], d1[1:2]
        units = []

        def spec(config, kind):
            d, kappa = config
            edge = sum(kappa) + d / 2.0 + 1.0
            if kind == "gaussian":
                return f"gaussian:t={rng.uniform(0.5, 2.0):.4f}"
            return f"{kind}:p={edge + rng.uniform(0.5, 3.0):.4f}"

        for config, kind in catalog:
            units.append([Certify(config, spec(config, kind), self._points(rng, config, len(units)), 0)])
        for config in sinmod:
            units.append([Certify(config, "sinmod", self._points(rng, config, len(units)), 1)])
        for config in refused:
            d, kappa = config
            below = sum(kappa) + d / 2.0 + 1.0 - rng.uniform(0.1, 1.0)
            units.append([Certify(config, f"cauchy:p={below:.4f}", "builtin:4", 2)])
        for config in transforms:
            source = spec(config, "gaussian")
            fwd = os.path.join(self.rundir, f"fwd-{len(units)}.csv")
            back = os.path.join(self.rundir, f"back-{len(units)}.csv")
            units.append([Transform(config, source, fwd, False, source), Transform(config, fwd, back, True, source)])
        order = rng.permutation(len(units))
        return [req for j in order for req in units[j]]


class _Timed:
    """Times the program call; a traced run records spans only inside it."""

    def __init__(self, plan: Plan):
        self.recorder = plan.recorder

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.active = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if self.recorder is not None:
            self.recorder.active = False


def _run_cli(argv, plan: Plan) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _Timed(plan) as clock:
            try:
                code = dk_cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), clock.elapsed


def _finite(value) -> bool:
    if value is None:
        return False
    values = value if isinstance(value, list) else [value]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _config(config):
    return dk.make_config(config[0], list(config[1]))


def _catalog(config, source: str):
    """(config object, handle) for a catalog spec such as cauchy:p=4."""
    name, _, param = source.partition(":")
    return _config(config), dk.CatalogFunction(CATALOG_KIND[name], float(param.split("=")[1]))


def _read_csv(path: str, d: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != d + 2:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected {d + 2}")
    return data


def execute(req, plan: Plan) -> tuple[Outcome, float]:
    """Run one request; return its checked outcome and its wall time."""
    if isinstance(req, Verify):
        return _verify(req, plan)
    if isinstance(req, Certify):
        return _certify(req, plan)
    if isinstance(req, Transform):
        return _transform(req, plan)
    if isinstance(req, HeatMass):
        return _heat_mass(req, plan)
    return _forward(req, plan)


def _verify(req: Verify, plan: Plan):
    path = os.path.join(plan.rundir, "verify.json")
    if os.path.exists(path):
        os.remove(path)
    code, out, err, elapsed = _run_cli(
        ["verify", "--config", plan.config_path(req.config), "--suite", req.suite, "--report", path], plan
    )
    with open(path) as fh:
        reports = json.load(fh)["reports"]
    known = KNOWN_DEFECTS.get((req.config, req.suite), set())
    outcome = Outcome(attempted=max(1, len(reports)))
    if not reports:
        outcome.fail("no reports")
    for rep in reports:
        name = rep["identity_name"]
        if not (_finite(rep["computed"]) and _finite(rep["abs_error"])):
            outcome.fail(f"{name}: non-finite value")
        elif not rep["pass"]:
            outcome.fail(f"{name}: FAIL abs_error={rep['abs_error']:.3e}", known=name in known)
    want = 0 if all(r["pass"] for r in reports) else 1
    if code != want:
        outcome.fail(f"exit code {code}, verdicts say {want}")
    return outcome, elapsed


def _certify(req: Certify, plan: Plan):
    path = os.path.join(plan.rundir, "certify.json")
    if os.path.exists(path):
        os.remove(path)
    argv = ["certify", "--config", plan.config_path(req.config), "--function", req.function]
    argv += ["--points", req.points, "--strict-pd", "--report", path]
    code, out, err, elapsed = _run_cli(argv, plan)
    outcome = Outcome()
    if code != req.expect:
        outcome.fail(f"exit code {code}, expected {req.expect}: {err.strip()[:200]}")
        return outcome, elapsed
    if req.expect == 2:
        if os.path.exists(path) or "error:" not in err:
            outcome.fail("refused input left a report or printed no error")
        return outcome, elapsed
    with open(path) as fh:
        report = json.load(fh)
    gram = report["gram"]
    if not all(_finite(gram[k]) for k in ("min_eigenvalue", "max_eigenvalue", "tolerance")):
        outcome.fail("non-finite Gram eigenvalues")
    elif req.expect == 0:
        strict = report.get("strict", {})
        if not (report["pass"] and gram["psd"] and report["bochner"]["pass"] and strict.get("pass")):
            outcome.fail("a PD catalog function was not certified")
    elif report["pass"] or report["bochner"]["pass"] or "transform_nonneg=False" not in out:
        outcome.fail("the indefinite profile was not rejected by its transform certificate")
    return outcome, elapsed


def _transform(req: Transform, plan: Plan):
    argv = ["transform", "--config", plan.config_path(req.config), "--function", req.function]
    argv += ["--output", req.output] + (["--inverse"] if req.inverse else [])
    code, out, err, elapsed = _run_cli(argv, plan)
    outcome = Outcome()
    if code != 0:
        outcome.fail(f"exit code {code}: {err.strip()[:200]}")
        return outcome, elapsed
    d = req.config[0]
    data = _read_csv(req.output, d)
    if not np.all(np.isfinite(data)):
        outcome.fail("non-finite CSV values")
        return outcome, elapsed
    config, f = _catalog(req.config, req.catalog)
    if req.inverse:
        want, tol = f.evaluate(config, data[:, :d]), ROUND_TRIP_TOL
    else:
        want, tol = dk.catalog_partner(f).evaluate(config, data[:, :d]), FORWARD_CSV_TOL
    off = max(float(np.max(np.abs(data[:, d] - want))), float(np.max(np.abs(data[:, d + 1]))))
    scale = max(1.0, float(np.max(np.abs(want))))
    if off > tol * scale:
        outcome.fail(f"CSV off by {off:.3e} (tolerance {tol * scale:.1e})")
    return outcome, elapsed


def _heat_mass(req: HeatMass, plan: Plan):
    config = _config(req.config)
    x = np.full(3, req.x_norm / math.sqrt(3.0))
    radius = max(10.0, float(np.max(np.abs(x))) + math.sqrt(4.0 * req.t * 46.0))
    masses = []
    with _Timed(plan) as clock:
        for nodes in (48, 96):
            grid = dk.Grid(config, dk.QuadratureSpec(radius, nodes))
            pts = grid.points()
            vals = dk.heat_kernel(config, req.t, np.broadcast_to(x, pts.shape), pts)
            masses.append(grid.integrate(np.asarray(vals).reshape(grid.shape)))
    elapsed = clock.elapsed
    outcome = Outcome()
    if not all(math.isfinite(m) for m in masses):
        outcome.fail("non-finite mass")
    elif abs(masses[1] - 1.0) > HEAT_TOL or abs(masses[1] - masses[0]) > HEAT_TOL:
        outcome.fail(f"mass {masses[1]!r}, resolution delta {abs(masses[1] - masses[0]):.3e}")
    return outcome, elapsed


def _forward(req: Forward, plan: Plan):
    config = _config(req.config)
    probes = np.outer(np.linspace(-1.2, 1.2, 9), np.ones(3)) / math.sqrt(3.0)
    with _Timed(plan) as clock:
        got = dk.forward(config, None, dk.gaussian(req.t), probes)
    elapsed = clock.elapsed
    want = dk.gaussian_density(req.t).evaluate(config, probes)
    outcome = Outcome()
    err = np.abs(got - want) / np.abs(want)
    if not np.all(np.isfinite(got)):
        outcome.fail("non-finite transform")
    elif float(np.max(err)) > FORWARD_TOL:
        outcome.fail(f"relative error {float(np.max(err)):.3e}")
    return outcome, elapsed
