import math

import numpy as np
import pytest

from galmag.errors import ZeroCurvature
from galmag.frenet import curvature, frenet_frame, frenet_residual, torsion
from galmag.galilean import cross, scalar_product
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    solve_magnetic,
    solve_n_magnetic,
)

PARABOLA = solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3))
HELIX = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
# helix with zero drift: y = cos(s) - 1, z = sin(s), tau = v1 = 1
PURE_CIRCLE = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
NMAG_HELIX = solve_n_magnetic(KillingField(1, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0))
LINE = solve_magnetic(KillingField(0, 0, 0), MagneticIC(1, 2, 3, 4))


def fd_curvature(curve, s, h=1e-4):
    """Curvature from position samples only: an oracle independent of the
    analytic derivatives stored on the curve."""
    ydd = (curve.y.eval(s + h) - 2 * curve.y.eval(s) + curve.y.eval(s - h)) / h**2
    zdd = (curve.z.eval(s + h) - 2 * curve.z.eval(s) + curve.z.eval(s - h)) / h**2
    return math.hypot(ydd, zdd)


def fd_torsion(curve, s, h=1e-3):
    """det(gamma', gamma'', gamma''')/kappa**2 with every derivative taken
    by central differences of the position samples."""

    def d2(f, t):
        return (f(t + h) - 2 * f(t) + f(t - h)) / h**2

    def d3(f, t):
        return (f(t + 2 * h) - 2 * f(t + h) + 2 * f(t - h) - f(t - 2 * h)) / (2 * h**3)

    ydd, zdd = d2(curve.y.eval, s), d2(curve.z.eval, s)
    yddd, zddd = d3(curve.y.eval, s), d3(curve.z.eval, s)
    kappa_sq = ydd**2 + zdd**2
    return (ydd * zddd - zdd * yddd) / kappa_sq


class TestCurvature:
    def test_straight_line_is_flat(self):
        for s in (-2.0, 0.0, 1.7):
            assert curvature(LINE, s) == 0.0

    def test_parabola_constant_sqrt2(self):
        for s in np.linspace(0, math.pi, 7):
            assert curvature(PARABOLA, s) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_nmagnetic_helix_unit_curvature(self):
        # y'' = cos(s), z'' = sin(s)
        for s in np.linspace(0, 2 * math.pi, 9):
            assert curvature(NMAG_HELIX, s) == pytest.approx(1.0, abs=1e-15)

    def test_matches_finite_difference_oracle(self):
        for curve in (PARABOLA, HELIX, NMAG_HELIX):
            for s in (0.0, 0.4, 1.9):
                assert curvature(curve, s) == pytest.approx(
                    fd_curvature(curve, s), abs=1e-5
                )


class TestTorsion:
    def test_parabola_is_planar(self):
        for s in (0.0, 1.0, 2.5):
            assert torsion(PARABOLA, s) == 0.0

    def test_helix_torsion_equals_frequency(self):
        crv = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
        for s in np.linspace(0, 2 * math.pi, 11):
            assert torsion(crv, s) == pytest.approx(1.0, abs=1e-12)

    def test_torsion_equals_v1_for_magnetic_helices(self):
        for v1 in (-2.0, 0.5, 3.0):
            crv = solve_magnetic(KillingField(v1, 0.3, -0.7), MagneticIC(1, 2, 3, 4))
            for s in (0.0, 0.9, 4.2):
                assert torsion(crv, s) == pytest.approx(v1, rel=1e-12)

    def test_zero_curvature_raises(self):
        with pytest.raises(ZeroCurvature):
            torsion(LINE, 0.0)

    def test_matches_finite_difference_oracle(self):
        for curve in (HELIX, NMAG_HELIX):
            for s in (0.2, 1.3):
                assert torsion(curve, s) == pytest.approx(
                    fd_torsion(curve, s), abs=1e-4
                )


class TestFrenetFrame:
    def test_canonical_frame_at_origin(self):
        crv = solve_magnetic(KillingField(0, 0, 1), MagneticIC(0, 0, 0, 0))
        f = frenet_frame(crv, 0.0)
        assert f.T.as_tuple() == (1.0, 0.0, 0.0)
        assert f.N.as_tuple() == (0.0, 1.0, 0.0)
        assert f.B.as_tuple() == (0.0, 0.0, 1.0)
        assert f.kappa == 1.0
        assert f.tau == 0.0

    def test_tangent_matches_first_derivative(self):
        f = frenet_frame(PARABOLA, 0.25)
        vel = PARABOLA.eval(0.25, 1)
        assert f.T == vel
        assert f.T.x1 == 1.0

    @pytest.mark.parametrize("curve", [PARABOLA, HELIX, NMAG_HELIX])
    @pytest.mark.parametrize("s", [0.0, 0.8, 3.1])
    def test_orthonormality(self, curve, s):
        f = frenet_frame(curve, s)
        assert scalar_product(f.N, f.N) == pytest.approx(1.0, abs=1e-12)
        assert scalar_product(f.B, f.B) == pytest.approx(1.0, abs=1e-12)
        assert scalar_product(f.N, f.B) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("curve", [PARABOLA, HELIX, NMAG_HELIX])
    def test_cross_n_b_is_unit_absolute(self, curve):
        f = frenet_frame(curve, 1.1)
        nb = cross(f.N, f.B)
        assert nb.x1 == pytest.approx(1.0, abs=1e-12)
        assert (nb.x2, nb.x3) == (0.0, 0.0)

    def test_zero_curvature_raises(self):
        with pytest.raises(ZeroCurvature):
            frenet_frame(LINE, 1.0)


class TestFrenetResidual:
    @pytest.mark.parametrize("curve", [PARABOLA, HELIX, NMAG_HELIX])
    @pytest.mark.parametrize("s", [0.3, 2.0])
    def test_frame_equations_hold(self, curve, s):
        r1, r2, r3 = frenet_residual(curve, s, h=1e-5)
        assert r1 < 1e-6
        assert r2 < 1e-6
        assert r3 < 1e-6

    def test_invalid_step_rejected(self):
        # nan gave (nan, nan, nan), and so did inf but on a helix: a math domain error
        for curve in (PARABOLA, HELIX):
            for h in (0.0, -1e-5, math.nan, math.inf):
                with pytest.raises(ValueError, match="step h must be positive and finite"):
                    frenet_residual(curve, 0.5, h=h)

    def test_zero_curvature_raises(self):
        with pytest.raises(ZeroCurvature):
            frenet_residual(LINE, 0.5)


class TestConstantCurvature:
    def test_parabola_value(self):
        samples = np.linspace(-3, 3, 1000)
        kappas = curvature(PARABOLA, samples)
        assert kappas.max() - kappas.min() < 1e-9
        assert kappas[0] == pytest.approx(math.hypot(1.0, 1.0), abs=1e-12)

    def test_magnetic_helix_value(self):
        v1 = 2.0
        crv = solve_magnetic(KillingField(v1, 0.5, -1.5), MagneticIC(1, 2, 3, 4))
        a = (4 - (-1.5) / v1) / v1
        b = (2 - 0.5 / v1) / v1
        expected = v1 * v1 * math.hypot(a, b)
        samples = np.linspace(0, 4 * math.pi, 1000)
        kappas = curvature(crv, samples)
        assert kappas.max() - kappas.min() < 1e-9
        assert kappas[0] == pytest.approx(expected, rel=1e-12)

    def test_nmagnetic_values(self):
        cases = [
            (KillingField(0, 0, 0), NMagneticIC(1, 2, 0.7, 3, 4, -0.4), math.hypot(0.7, 0.4)),
            (KillingField(0, 0, 2), NMagneticIC(1, 2, 0.0, 3, 4, -0.4), 0.4),
            (KillingField(0, 2, 0), NMagneticIC(1, 2, 0.7, 3, 4, 0.0), 0.7),
            (KillingField(3, 1, 1), NMagneticIC(1, 2, 0.7, 3, 4, -0.4), math.hypot(0.7, 0.4)),
        ]
        for field, ic, expected in cases:
            crv = solve_n_magnetic(field, ic)
            samples = np.linspace(0, 5, 1000)
            kappas = curvature(crv, samples)
            assert kappas.max() - kappas.min() < 1e-9
            assert kappas[0] == pytest.approx(expected, rel=1e-12)
