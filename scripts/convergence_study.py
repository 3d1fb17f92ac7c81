#!/usr/bin/env python3
"""Step-refinement study of the RK4 oracle against the unit helix.

Prints the maximum position deviation for a sequence of halved steps and
the observed convergence order between consecutive rows.  The deviation
should shrink ~16x per halving (order 4) until rounding takes over.

Usage:
    python scripts/convergence_study.py [--steps 4e-3,2e-3,1e-3,5e-4,2.5e-4]
"""

import argparse
import math
import sys

from galmag.magnetic import KillingField, MagneticIC, solve_magnetic
from galmag.oracle import verify

FIELD = KillingField(1, 0, 0)
IC = MagneticIC(0, 0, 0, 1)
WINDOW = (0.0, 2 * math.pi)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", default="4e-3,2e-3,1e-3,5e-4,2.5e-4")
    args = parser.parse_args()
    steps = [float(s) for s in args.steps.split(",")]

    curve = solve_magnetic(FIELD, IC)

    print(f"{'step':>10s} {'deviation':>13s} {'ratio':>8s} {'order':>7s}")
    prev_dev = prev_step = None
    for step in steps:
        dev = verify(curve, *WINDOW, step)["deviation"]
        if prev_dev is None:
            print(f"{step:10.1e} {dev:13.3e} {'-':>8s} {'-':>7s}")
        else:
            ratio = prev_dev / dev
            order = math.log(ratio) / math.log(prev_step / step)
            print(f"{step:10.1e} {dev:13.3e} {ratio:8.2f} {order:7.2f}")
        prev_dev, prev_step = dev, step
    return 0


if __name__ == "__main__":
    sys.exit(main())
