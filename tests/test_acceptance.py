"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest
with ``-s`` to see them) and asserts the criterion at its tolerance.
Randomized criteria use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from galmag.errors import IncompatibleIC
from galmag.frenet import curvature, frenet_frame, frenet_residual, torsion
from galmag.galilean import GVector3, ZERO, cross, norm, scalar_product
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    helix_decomposition,
    n_magnetic_residual,
    solve_magnetic,
    solve_n_magnetic,
)
from galmag.oracle import verify


def check(num, desc, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


HELIX_FIELD = KillingField(1, 0, 0)
HELIX_IC = MagneticIC(0, 0, 0, 1)


def test_criterion_1_isotropic_family_reproduction():
    ic = MagneticIC(y0=1, Y0=5, z0=4, Z0=3)
    start = time.perf_counter()
    worst = 0.0
    for coeffs in ((0, 0, 0), (0, 1, 1), (0, 2, 2)):
        field = KillingField(*coeffs)
        crv = solve_magnetic(field, ic)
        worst = max(worst, verify(crv, 0.0, math.pi)["deviation"])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    check(
        1,
        "isotropic-field family matches RK4 to 1e-10 within 1 s",
        ok,
        f"max deviation {worst:.3e}, runtime {elapsed:.2f} s",
    )


def test_criterion_2_helix_case():
    crv = solve_magnetic(HELIX_FIELD, HELIX_IC)
    deviation = verify(crv, 0.0, 2 * math.pi)["deviation"]

    helix = helix_decomposition(crv)
    samples = np.linspace(0.0, 2 * math.pi, 1000)
    kappas = curvature(crv, samples)
    kappa_spread = kappas.max() - kappas.min()
    kappa_err = np.abs(kappas - HELIX_FIELD.v1**2 * helix.r).max()
    tau_err = np.abs(torsion(crv, samples) - HELIX_FIELD.v1).max()
    dist_err = np.abs(norm(crv.eval(samples, 0) - helix.point(samples)) - helix.r).max()
    ok = (
        deviation < 1e-9
        and kappa_spread < 1e-9
        and kappa_err < 1e-9
        and tau_err < 1e-8
        and dist_err < 1e-9
    )
    check(
        2,
        "helix matches RK4, kappa = v1^2*r = 1, tau = v1 = 1, constant axis distance",
        ok,
        f"deviation {deviation:.3e}, kappa spread {kappa_spread:.3e}, "
        f"tau err {tau_err:.3e}, distance err {dist_err:.3e}",
    )


def test_criterion_3_quadratic_trajectory_reproduction():
    field = KillingField(0, 0, 0)
    ic = NMagneticIC(y0=4, Y0=3, T0=1, z0=1, Z0=2, U0=1)
    crv = solve_n_magnetic(field, ic)
    deviation = verify(crv, 0.0, 5.0)["deviation"]
    kappa_err = np.abs(curvature(crv, np.linspace(0, 5, 1000)) - math.sqrt(2)).max()
    ok = deviation < 1e-10 and kappa_err < 1e-9
    check(
        3,
        "free n-magnetic quadratic matches RK4 to 1e-10 with kappa = sqrt(2)",
        ok,
        f"deviation {deviation:.3e}, kappa err {kappa_err:.3e}",
    )


def test_criterion_4_randomized_helix_suite():
    rng = np.random.default_rng(20250810)
    worst_dev = worst_kappa = worst_res = 0.0
    for _ in range(20):
        v1 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
        field = KillingField(v1, rng.uniform(-2, 2), rng.uniform(-2, 2))
        t0, u0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        while math.hypot(t0, u0) < 0.1:
            t0, u0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ic = NMagneticIC(
            y0=rng.uniform(-2, 2),
            Y0=rng.uniform(-2, 2),
            T0=t0,
            z0=rng.uniform(-2, 2),
            Z0=rng.uniform(-2, 2),
            U0=u0,
        )
        s_end = 4 * math.pi / abs(v1)
        crv = solve_n_magnetic(field, ic)
        worst_dev = max(worst_dev, verify(crv, 0.0, s_end)["deviation"])
        probes = np.linspace(0.0, s_end, 1000)
        kappa_err = np.abs(curvature(crv, probes) - math.hypot(ic.T0, ic.U0)).max()
        worst_kappa = max(worst_kappa, kappa_err)
        worst_res = max(worst_res, n_magnetic_residual(crv, probes).max())
    ok = worst_dev < 1e-8 and worst_kappa < 1e-8 and worst_res < 1e-9
    check(
        4,
        "20 randomized helices match RK4 with constant curvature and zero force residual",
        ok,
        f"deviation {worst_dev:.3e}, kappa err {worst_kappa:.3e}, "
        f"residual {worst_res:.3e}",
    )


def test_criterion_5_constraint_enforcement():
    rng = np.random.default_rng(1138)

    def signed(lo, hi):
        return rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)

    rejected = accepted = 0
    # incompatible draws: with continuous coefficients the constraint is
    # essentially never zero, and the fixed seed makes that deterministic
    for _ in range(100):
        v2, v3 = signed(0.1, 3.0), signed(0.1, 3.0)
        t0, u0 = signed(0.01, 3.0), signed(0.01, 3.0)
        constraint = v2 * u0 - v3 * t0
        if abs(constraint) <= 1e-9 * (1 + abs(v2 * u0) + abs(v3 * t0)):
            continue
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(
                KillingField(0, v2, v3), NMagneticIC(0, 0, t0, 0, 0, u0)
            )
        rejected += 1

    # compatible draws: accelerations proportional to the field components
    for _ in range(20):
        v2, v3 = signed(0.1, 3.0), signed(0.1, 3.0)
        t = signed(0.1, 2.0)
        field = KillingField(0, v2, v3)
        ic = NMagneticIC(
            y0=rng.uniform(-2, 2), Y0=rng.uniform(-2, 2), T0=v2 * t,
            z0=rng.uniform(-2, 2), Z0=rng.uniform(-2, 2), U0=v3 * t,
        )
        crv = solve_n_magnetic(field, ic)
        assert verify(crv, 0.0, 2.0)["deviation"] < 1e-10
        assert n_magnetic_residual(crv, np.linspace(0, 2, 200)).max() < 1e-9
        accepted += 1

    # boundary set: constraint exactly zero in floating point
    boundary = [
        (2.0, 4.0, 3.0, 6.0),
        (1.0, 1.0, 1.0, 1.0),
        (-2.0, 1.0, -1.0, 0.5),
        (0.5, -0.25, 2.0, -1.0),
    ]
    for v2, v3, t0, u0 in boundary:
        assert v2 * u0 - v3 * t0 == 0.0
        crv = solve_n_magnetic(KillingField(0, v2, v3), NMagneticIC(0, 0, t0, 0, 0, u0))
        assert verify(crv, 0.0, 2.0)["deviation"] < 1e-10
        accepted += 1

    ok = rejected == 100 and accepted == 24
    check(
        5,
        "incompatible accelerations rejected, compatible ones solved and verified",
        ok,
        f"{rejected} rejected, {accepted} accepted",
    )


def _generated_curves():
    """Representative closed forms from every solver case with kappa != 0."""
    return [
        solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3)),
        solve_magnetic(KillingField(0, 2, 2), MagneticIC(1, 5, 4, 3)),
        solve_magnetic(HELIX_FIELD, HELIX_IC),
        solve_magnetic(KillingField(2, 0.5, -1.5), MagneticIC(1, 2, 3, 4)),
        solve_n_magnetic(KillingField(0, 0, 0), NMagneticIC(4, 3, 1, 1, 2, 1)),
        solve_n_magnetic(KillingField(0, 0, 2), NMagneticIC(0.5, -1, 0, 0, 2, 1)),
        solve_n_magnetic(KillingField(0, 3, 0), NMagneticIC(0, 1, -2, 0, 0, 0)),
        solve_n_magnetic(KillingField(0, 1, 2), NMagneticIC(0, 0, 1, 0, 0, 2)),
        solve_n_magnetic(KillingField(1, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0)),
        solve_n_magnetic(KillingField(-3, 0.7, 0.2), NMagneticIC(1, -1, 0.8, 2, 0.3, -0.6)),
    ]


def test_criterion_6_frenet_suite():
    worst_ortho = worst_res = 0.0
    for crv in _generated_curves():
        samples = np.linspace(0.0, 2 * math.pi, 102)[1:-1]
        for s in samples:
            f = frenet_frame(crv, s)
            worst_ortho = max(
                worst_ortho,
                abs(scalar_product(f.N, f.N) - 1.0),
                abs(scalar_product(f.B, f.B) - 1.0),
                abs(scalar_product(f.N, f.B)),
            )
            worst_res = max(worst_res, *frenet_residual(crv, s, h=1e-5))
    ok = worst_ortho < 1e-12 and worst_res < 1e-6
    check(
        6,
        "frame orthonormality to 1e-12 and frame-equation residuals below 1e-6",
        ok,
        f"orthonormality err {worst_ortho:.3e}, residual {worst_res:.3e}",
    )


def test_criterion_7_geodesic_degeneration():
    line = solve_magnetic(KillingField(0, 0, 0), MagneticIC(1, 5, 4, 3))
    accels_vanish = all(
        line.eval(s, 2).x2 == 0.0 and line.eval(s, 2).x3 == 0.0
        for s in np.linspace(-10, 10, 101)
    )
    bent = solve_n_magnetic(KillingField(0, 0, 0), NMagneticIC(1, 5, 0.3, 4, 3, -0.4))
    kappa = curvature(bent, 0.0)
    ok = accels_vanish and kappa > 0.0
    check(
        7,
        "zero field degenerates magnetic curves to geodesics but not n-magnetic ones",
        ok,
        f"line acceleration identically zero: {accels_vanish}, "
        f"n-magnetic kappa {kappa:.3f}",
    )


def test_criterion_8_rk4_convergence_order():
    crv = solve_magnetic(HELIX_FIELD, HELIX_IC)
    dev_coarse = verify(crv, 0.0, 2 * math.pi, 1e-3)["deviation"]
    dev_fine = verify(crv, 0.0, 2 * math.pi, 5e-4)["deviation"]
    ratio = dev_coarse / dev_fine
    ok = 12.0 <= ratio <= 20.0
    check(
        8,
        "halving the RK4 step shrinks the deviation about sixteenfold",
        ok,
        f"{dev_coarse:.3e} / {dev_fine:.3e} = {ratio:.2f}",
    )


def test_criterion_9_algebra_kernel():
    rng = np.random.default_rng(4242)
    failures = 0
    for i in range(1000):
        pattern = i % 4  # cycle isotropy combinations of (x, y)
        x1 = 0.0 if pattern in (2, 3) else rng.uniform(-10, 10)
        y1 = 0.0 if pattern in (1, 3) else rng.uniform(-10, 10)
        x = GVector3(x1, rng.uniform(-10, 10), rng.uniform(-10, 10))
        y = GVector3(y1, rng.uniform(-10, 10), rng.uniform(-10, 10))
        c = cross(x, y)
        checks = (
            c == -cross(y, x),
            cross(x, x) == ZERO,
            abs(scalar_product(c, x)) <= 1e-12,
            abs(scalar_product(c, y)) <= 1e-12,
            abs(norm(x) ** 2 - scalar_product(x, x)) <= 1e-12,
            abs(norm(y) ** 2 - scalar_product(y, y)) <= 1e-12,
        )
        if not all(checks):
            failures += 1
    ok = failures == 0
    check(
        9,
        "antisymmetry, orthogonality, norm consistency and X x X = 0 "
        "over 1000 vectors in all isotropy branches",
        ok,
        f"{failures} failing vectors",
    )
