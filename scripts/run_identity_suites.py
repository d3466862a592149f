"""Sweep the identity suites over a batch of multiplicity configs.

Prints one block per config with every report line, then a summary table
with the number of AccuracyWarnings each config raised (every warning is
still printed, to stderr, each time it is raised).  Exit status is nonzero
if any identity fails, so this doubles as a slow regression gate:

    python3 scripts/run_identity_suites.py
    python3 scripts/run_identity_suites.py --suite translation --config 2:1,0

With --json DIR it also writes each config's reports to
DIR/d<d>_kappa_<k1>_..._<kd>.json, in the format of
`dunklpd verify --report` for the same config and suite.
"""

import argparse
import os
import sys
import time
import warnings

from dunklpd import AccuracyWarning
from dunklpd.cli import _config_dict
from dunklpd.identities import run_suites
from dunklpd.reports import reports_to_json
from dunklpd.root_system import make_config

SWEEP = [
    (1, [0.0]),
    (1, [0.5]),
    (1, [2.0]),
    (2, [1.0, 0.0]),
    (3, [1.0, 0.5, 0.0]),
]


def parse_config(text):
    head, _, tail = text.partition(":")
    return int(head), [float(v) for v in tail.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="all", help="all, kernel, transform, translation, posdef, heat")
    parser.add_argument(
        "--config",
        action="append",
        type=parse_config,
        help="d:k1,...,kd (repeatable); default sweeps the validation set",
    )
    parser.add_argument("--json", metavar="DIR", help="write one JSON report per config into DIR")
    args = parser.parse_args(argv)
    if args.json:
        os.makedirs(args.json, exist_ok=True)
    targets = args.config or SWEEP

    rows = []
    all_ok = True
    for dim, kappa in targets:
        config = make_config(dim, kappa)
        print(f"== d={dim} kappa={kappa} suite={args.suite}")
        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = run_suites(config, which=args.suite)
        elapsed = time.perf_counter() - started
        for w in caught:
            sys.stderr.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
        raised = sum(issubclass(w.category, AccuracyWarning) for w in caught)
        for rep in reports:
            print("  " + rep.line())
        if args.json:
            name = f"d{dim}_kappa_{'_'.join(map(str, config.kappa))}.json"
            extra = {"config": _config_dict(config), "suite": args.suite}
            reports_to_json(reports, os.path.join(args.json, name), extra=extra)
        passed = sum(r.passed for r in reports)
        rows.append((dim, kappa, passed, len(reports), raised, elapsed))
        all_ok = all_ok and passed == len(reports)
        print()

    print(f"{'config':<24} {'passed':>8} {'warnings':>9} {'seconds':>9}")
    for dim, kappa, passed, total, raised, elapsed in rows:
        tag = f"d={dim} kappa={kappa}"
        print(f"{tag:<24} {passed:>4}/{total:<3} {raised:>9} {elapsed:>9.1f}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
