"""Worst-case inversion round-trip error per config and catalog function.

Useful when retuning the paired quadrature boxes: the forward leg of the
slow-decay pair must resolve oscillations out to the inverse leg's box,
and this table shows immediately which leg gave out.

    python3 scripts/round_trip_report.py
    python3 scripts/round_trip_report.py --dims 1
"""

import argparse
import sys
import time

import numpy as np

from dunklpd.functions import (
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
)
from dunklpd.identities import cauchy_exponent, round_trip_specs
from dunklpd.root_system import make_config
from dunklpd.transform import inverse, tabulated_density

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
        config = make_config(dim, kappa)
        p = cauchy_exponent(config)
        catalog = {
            "gaussian": gaussian(1.0),
            "gaussian_density": gaussian_density(1.0),
            "generalized_cauchy": generalized_cauchy(p),
            "bessel_k_profile": bessel_k_profile(p),
        }
        if dim > 2:
            # the slow-decay pair is priced out past two axes
            catalog.pop("generalized_cauchy")
            catalog.pop("bessel_k_profile")
        mags = np.linspace(-1.2, 1.2, 9)
        probes = np.stack([np.full(dim, m / np.sqrt(dim)) for m in mags])
        for label, f in catalog.items():
            started = time.perf_counter()
            fwd_spec, inv_spec = round_trip_specs(config, label)
            density = tabulated_density(config, fwd_spec, f)
            back = inverse(config, inv_spec, density, probes)
            truth = np.asarray(evaluate_handle(config, f, probes), dtype=complex)
            rel = float(np.max(np.abs(back - truth) / np.maximum(np.abs(truth), 1e-30)))
            elapsed = time.perf_counter() - started
            tag = f"d={dim} kappa={kappa}"
            print(f"{tag:<22} {label:<20} {rel:>12.3e} {elapsed:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
