"""Gap between the heat-smoothed quadratic form and its sharp limit.

The smoothed form at time t replaces each translate pairing with its
heat-regularized version; the gap to the exact Gram form decays linearly
in t once t is small.  This sweep prints the measured gaps and the
step-to-step decay ratios so the constant in front of t can be read off
directly.  For the default two-point configuration gap/t is 6.93 at
t = 0.05 and rises to the small-t slope of about 10 (10.43 at t = 4e-4),
which is why a 5e-3 gap needs t near 4e-4 rather than t = 0.05.

    python3 scripts/heat_smoothing_sweep.py
    python3 scripts/heat_smoothing_sweep.py --kappa 1.0 --points 0,1.5
"""

import argparse
import sys

import numpy as np

from dunklpd.functions import gaussian
from dunklpd.posdef import PointSet, quadratic_form, quadratic_form_heat
from dunklpd.root_system import make_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kappa", type=float, default=0.5)
    parser.add_argument("--points", default="0,1", help="comma-separated 1d point locations")
    parser.add_argument("--width", type=float, default=1.0, help="gaussian width parameter")
    args = parser.parse_args(argv)

    config = make_config(1, [args.kappa])
    locs = [float(v) for v in args.points.split(",")]
    coeffs = np.ones(len(locs))
    coeffs[1::2] = -1.0
    pts = PointSet(np.array([[v] for v in locs]), coefficients=coeffs)
    phi = gaussian(args.width)

    target = quadratic_form(config, None, phi, pts)
    print(f"sharp form value: {target.real:.12f}")
    print(f"{'t':>10} {'gap':>14} {'gap/t':>10} {'ratio':>7}")
    prev = None
    for t in (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.0016, 0.0004):
        gap = abs(quadratic_form_heat(config, None, phi, pts, t) - target)
        ratio = f"{prev / gap:7.3f}" if prev else "      -"
        print(f"{t:>10} {gap:>14.6e} {gap / t:>10.4f} {ratio}")
        prev = gap
    return 0


if __name__ == "__main__":
    sys.exit(main())
