"""Command-line harness: transform sampling, PD certification, identity suites.

Exit codes: 0 all checks passed, 1 a numerical check failed (or an accuracy
warning escalated under --strict), 2 usage or configuration error.  Output
is deterministic: fixed seeds, single-threaded reductions, 17-digit CSV.
"""

from __future__ import annotations

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import functools
import sys
import warnings

from .errors import AccuracyWarning, ConfigurationError, DomainError, InputError, NotInCatalogError
from .functions import (
    BESSEL_K_PROFILE,
    CATALOG_PARAM,
    GENERALIZED_CAUCHY,
    CatalogFunction,
    _read_csv,
    load_sampled_csv,
    save_sampled_csv,
    uniform_axes,
)
from .identities import SUITE_NAMES, _indefinite_profile, run_suites
from .posdef import PointSet, bochner_certify, builtin_points, gram, strict_pd_certify
from .quadrature import _RESOLUTION
from .reports import _write_json, reports_to_json
from .root_system import MultiplicityConfig
from .transform import FORWARD, INVERSE, forward_grid

_USAGE_ERRORS = (ConfigurationError, DomainError, InputError, NotInCatalogError, OSError, ValueError)

# --function accepts each catalog kind by name (CATALOG_PARAM) or by one of these aliases
_CATALOG_ALIASES = {"cauchy": GENERALIZED_CAUCHY, "bessel_k": BESSEL_K_PROFILE}


def _load_config(path: str) -> MultiplicityConfig:
    with open(path, "r") as fh:
        return MultiplicityConfig.from_json(fh.read())


def _config_dict(config: MultiplicityConfig) -> dict:
    return {"dimension": config.dimension, "kappa": list(config.kappa)}


def _parse_function(config: MultiplicityConfig, text: str):
    if text == "sinmod":
        return _indefinite_profile(config)
    if text.endswith(".csv"):
        fn = load_sampled_csv(text)
        if fn.dimension != config.dimension:
            raise InputError(f"{text}: sampled in d={fn.dimension}, config has d={config.dimension}")
        return fn
    name, _, param = text.partition(":")
    kind = _CATALOG_ALIASES.get(name, name)
    if kind not in CATALOG_PARAM:
        names = sorted([*CATALOG_PARAM, *_CATALOG_ALIASES])
        raise InputError(f"unknown function {name!r}; choose from {names} or sinmod or a CSV path")
    param_name = CATALOG_PARAM[kind]
    key, eq, val = param.partition("=")
    if key.strip() != param_name or not eq:
        raise InputError(f"{name} takes one parameter: expected {name}:{param_name}=<value>, got {text!r}")
    try:
        value = float(val)
    except ValueError:
        raise InputError(f"parameter {param_name!r} needs one numeric value, got {val!r}") from None
    handle = CatalogFunction(kind, value)
    handle.validate_for(config)
    return handle


def _parse_points(config: MultiplicityConfig, text: str) -> PointSet:
    if text.startswith("builtin:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad point spec {text!r}; expected builtin:<n>") from None
        return builtin_points(config.dimension, n)
    header, data = _read_csv(text)
    want = [f"x{i + 1}" for i in range(config.dimension)]
    if header != want:
        raise InputError(f"{text}: point CSV header must be {','.join(want)}, got {','.join(header)}")
    return PointSet(data)


def _parse_grid(text: str) -> tuple[float, int]:
    try:
        r_str, n_str = text.split(",")
        return float(r_str), int(n_str)
    except ValueError:
        raise InputError(f"bad grid spec {text!r}; expected R,n") from None


def cmd_transform(args) -> int:
    config = _load_config(args.config)
    fn = _parse_function(config, args.function)
    radius, count = _parse_grid(args.grid) if args.grid else _RESOLUTION["output_mesh"][config.dimension]
    axes = uniform_axes(config.dimension, radius, count)
    sign = INVERSE if args.inverse else FORWARD
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AccuracyWarning)
        result = forward_grid(config, None, fn, axes, sign=sign)
    save_sampled_csv(result, args.output)
    direction = "inverse" if args.inverse else "forward"
    print(f"{direction} transform of {args.function} written to {args.output} ({result.values.size} nodes)")
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.strict and caught:
        print("accuracy warnings escalated by --strict", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args) -> int:
    config = _load_config(args.config)
    phi = _parse_function(config, args.function)
    pts = _parse_points(config, args.points)
    gram_report = gram(config, None, phi, pts)
    bochner = bochner_certify(config, None, phi)
    payload = {
        "config": _config_dict(config),
        "function": args.function,
        "points": [list(map(float, row)) for row in pts.points],
        "gram": gram_report.to_dict(),
        "bochner": bochner.to_dict(),
    }
    ok = gram_report.psd and bochner.passed
    if args.strict_pd:
        if bochner.passed:
            strict = strict_pd_certify(config, None, phi)
            payload["strict"] = strict.to_dict()
            ok = ok and strict.passed
        else:
            payload["strict"] = {"pass": False, "notes": "skipped: transform certificate failed"}
            ok = False
    payload["pass"] = ok
    text = _write_json(payload, args.report)
    if not args.report:
        print(text, end="")
    tag = "PASS" if ok else "FAIL"
    print(
        f"[{tag}] certify {args.function} on {pts.size} points: "
        f"psd={gram_report.psd} spd={gram_report.spd} transform_nonneg={bochner.passed}"
    )
    if not bochner.passed:
        print(f"  {bochner.notes}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    reports = run_suites(config, which=args.suite)
    for rep in reports:
        print(rep.line())
    extra = {"config": _config_dict(config), "suite": args.suite}
    text = reports_to_json(reports, args.report, extra=extra)
    if not args.report:
        sys.stdout.write(text)
    ok = all(r.passed for r in reports)
    print(f"{'all' if ok else 'NOT all'} {len(reports)} identities passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklpd",
        description="Weighted reflection-group harmonic analysis: transforms, translation, PD certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="sample the forward or inverse transform onto a grid")
    t.add_argument("--config", required=True, help="JSON config: {dimension, kappa}")
    t.add_argument("--function", required=True, help="catalog spec like gaussian:t=1, sinmod, or a CSV path")
    t.add_argument("--output", required=True, help="output CSV path")
    t.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    t.add_argument("--grid", help="output grid as R,n (extent and nodes per axis)")
    t.add_argument("--strict", action="store_true", help="escalate accuracy warnings to exit 1")

    c = sub.add_parser("certify", help="Gram + transform-positivity certification")
    c.add_argument("--config", required=True)
    c.add_argument("--function", required=True)
    c.add_argument("--points", default="builtin:5", help="builtin:<n> or CSV with columns x1..xd")
    c.add_argument("--report", help="write the JSON report here instead of stdout")
    c.add_argument("--strict-pd", action="store_true", help="add the strict-PD certificate")

    v = sub.add_parser("verify", help="run identity suites and report pass/fail")
    v.add_argument("--config", required=True)
    v.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    v.add_argument("--report", help="write the JSON report here")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand: its handler, cmd_<name>, is looked up at call time."""
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
