#!/usr/bin/env python3
"""Export the two reference trajectory families as CSV and verify each one.

Family A: magnetic curves under the isotropic fields (0,0,0), (0,1,1),
(0,2,2) with shared initial data, sampled on [0, pi].
Family B: n-magnetic curves under (0,0,0), (0,0,1), (0,1,0), (0,1,2).
The non-trivial fields constrain the initial accelerations (T0, U0), so
the script first shows the rejection of the unadjusted data, then solves
with the nearest compatible accelerations.

Usage:
    python scripts/export_demo_trajectories.py [--outdir trajectories]
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from galmag.errors import IncompatibleIC
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    solve_magnetic,
    solve_n_magnetic,
)
from galmag.oracle import verify

MAGNETIC_IC = MagneticIC(y0=1, Y0=5, z0=4, Z0=3)
MAGNETIC_FIELDS = [(0, 0, 0), (0, 1, 1), (0, 2, 2)]
MAGNETIC_WINDOW = (0.0, math.pi)

# base second-order data (T0, U0) = (1, 1); each constrained field gets the
# closest accelerations satisfying v2*U0 = v3*T0
NMAGNETIC_BASE = dict(y0=4, Y0=3, z0=1, Z0=2)
NMAGNETIC_RUNS = [
    ((0, 0, 0), (1.0, 1.0)),
    ((0, 0, 1), (0.0, 1.0)),
    ((0, 1, 0), (1.0, 0.0)),
    ((0, 1, 2), (1.0, 2.0)),
]
NMAGNETIC_WINDOW = (0.0, 5.0)
STEP = 1e-3  # RK4 step of the cross-check


def write_csv(path, curve, s_start, s_end, step=0.01):
    grid = np.arange(s_start, s_end + 0.5 * step, step)
    table = np.column_stack((grid, curve.eval(grid)))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="s,x,y,z", comments="")
    return len(grid)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="trajectories")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print("family A: magnetic curves, ic", MAGNETIC_IC)
    for coeffs in MAGNETIC_FIELDS:
        field = KillingField(*coeffs)
        curve = solve_magnetic(field, MAGNETIC_IC)
        name = f"magnetic_v{coeffs[0]}{coeffs[1]}{coeffs[2]}.csv"
        rows = write_csv(outdir / name, curve, *MAGNETIC_WINDOW)
        dev = verify(curve, *MAGNETIC_WINDOW, STEP)["deviation"]
        print(f"  V={coeffs}  case={curve.case.value:18s} rows={rows}  "
              f"rk4 deviation={dev:.2e}  -> {name}")

    print("family B: n-magnetic curves, base ic", NMAGNETIC_BASE, "T0=U0=1")
    unadjusted = NMagneticIC(T0=1.0, U0=1.0, **NMAGNETIC_BASE)
    for coeffs, _ in NMAGNETIC_RUNS[1:3]:
        try:
            solve_n_magnetic(KillingField(*coeffs), unadjusted)
        except IncompatibleIC as exc:
            print(f"  V={coeffs}  rejects T0=U0=1: {exc}")
    for coeffs, (t0, u0) in NMAGNETIC_RUNS:
        field = KillingField(*coeffs)
        ic = NMagneticIC(T0=t0, U0=u0, **NMAGNETIC_BASE)
        curve = solve_n_magnetic(field, ic)
        name = f"nmagnetic_v{coeffs[0]}{coeffs[1]}{coeffs[2]}.csv"
        rows = write_csv(outdir / name, curve, *NMAGNETIC_WINDOW)
        dev = verify(curve, *NMAGNETIC_WINDOW, STEP)["deviation"]
        print(f"  V={coeffs}  case={curve.case.value:18s} rows={rows}  "
              f"T0={t0} U0={u0}  rk4 deviation={dev:.2e}  -> {name}")
    print(f"wrote {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
