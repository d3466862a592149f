"""Worst-case inversion round-trip error per config and catalog function.

Useful when retuning the paired quadrature boxes: the forward leg of the
slow-decay pair must resolve oscillations out to the inverse leg's box,
and this table shows immediately which leg gave out.  The rows are the
inversion_round_trip_<kind> reports of the transform suite
(identities.round_trips), each timed on its own.

    python3 scripts/round_trip_report.py
    python3 scripts/round_trip_report.py --dims 1
"""

import argparse
import sys
import time

from dunklpd.identities import round_trips
from dunklpd.root_system import make_config

SWEEP = [
    (1, [0.0]),
    (1, [0.5]),
    (1, [2.0]),
    (2, [1.0, 0.0]),
    (3, [1.0, 0.5, 0.0]),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, action="append", help="restrict to these dimensions (repeatable)")
    args = parser.parse_args(argv)
    targets = [(d, k) for d, k in SWEEP if not args.dims or d in args.dims]

    print(f"{'config':<22} {'function':<20} {'worst rel':>12} {'seconds':>8}")
    for dim, kappa in targets:
        tag = f"d={dim} kappa={kappa}"
        started = time.perf_counter()
        for rep in round_trips(make_config(dim, kappa)):
            elapsed = time.perf_counter() - started
            label = rep.identity_name.removeprefix("inversion_round_trip_")
            print(f"{tag:<22} {label:<20} {rep.rel_error:>12.3e} {elapsed:>8.2f}")
            started = time.perf_counter()
    return 0


if __name__ == "__main__":
    sys.exit(main())
