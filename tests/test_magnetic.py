import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from galmag.errors import IncompatibleIC, WrongCase, ZeroCurvature
from galmag.galilean import GVector3, norm
from galmag.magnetic import (
    ClosedFormCurve,
    CurveCase,
    KillingField,
    MagneticIC,
    NMagneticIC,
    QuadSinusoid,
    b_magnetic_constraint,
    b_magnetic_rhs,
    helix_decomposition,
    lorentz_force,
    lorentz_residual,
    magnetic_rhs,
    n_magnetic_constraint,
    n_magnetic_residual,
    n_magnetic_rhs,
    solve_magnetic,
    solve_n_magnetic,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def fields(nonzero_v1=False):
    # |v1| is kept in [0.1, 10]: the solution amplitudes scale like 1/v1**2,
    # so tighter-than-float claims only make sense away from v1 = 0 (the
    # solver warns below 1e-12).
    signed = st.floats(0.1, 10).flatmap(lambda m: st.sampled_from([-m, m]))
    v1 = signed if nonzero_v1 else st.one_of(st.just(0.0), signed)
    return st.builds(KillingField, v1, finite, finite)


class TestLorentzForce:
    def test_zero_field_vanishes(self):
        v = KillingField(0, 0, 0)
        assert lorentz_force(v, GVector3(1, 2, 3)) == GVector3(0, 0, 0)

    def test_absolute_field(self):
        assert lorentz_force(KillingField(1, 0, 0), GVector3(1, 0, 1)) == GVector3(0, -1, 0)

    def test_matches_isotropic_system(self):
        # against a unit tangent this reproduces the (v3, -v2) accelerations
        out = lorentz_force(KillingField(0, 1, 1), GVector3(1, 5.0, 3.0))
        assert out == GVector3(0, 1, -1)


class TestMagneticRhs:
    def test_isotropic_field_constant_acceleration(self):
        deriv = magnetic_rhs(KillingField(0, 1, 1), (9.0, -4.0, 0.3, 0.8))
        assert deriv == (0.3, 0.8, 1.0, -1.0)

    def test_nonisotropic_field(self):
        deriv = magnetic_rhs(KillingField(1, 0, 0), (0.0, 0.0, 0.0, 1.0))
        assert deriv[2:] == (-1.0, 0.0)

    def test_zero_field_is_geodesic(self):
        deriv = magnetic_rhs(KillingField(0, 0, 0), (1.0, 2.0, 3.0, 4.0))
        assert deriv == (3.0, 4.0, 0.0, 0.0)

    def test_matches_force_on_tangent(self):
        field = KillingField(1.5, -0.3, 0.8)
        state = (0.7, -0.2, 1.1, -2.4)
        deriv = magnetic_rhs(field, state)
        force = lorentz_force(field, GVector3(1.0, state[2], state[3]))
        assert deriv[2] == force.x2
        assert deriv[3] == force.x3


class TestSolveMagnetic:
    def test_isotropic_reference_curve(self):
        # y = s**2/2 + 5s + 1, z = -s**2/2 + 3s + 4
        crv = solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3))
        assert crv.case is CurveCase.MAGNETIC_PARABOLA
        for s in np.linspace(0, math.pi, 13):
            assert crv.y.eval(s) == pytest.approx(0.5 * s * s + 5 * s + 1, rel=1e-15)
            assert crv.z.eval(s) == pytest.approx(-0.5 * s * s + 3 * s + 4, rel=1e-15)

    def test_zero_field_gives_straight_line(self):
        crv = solve_magnetic(KillingField(0, 0, 0), MagneticIC(1.0, 2.0, 3.0, 4.0))
        for s in (-1.0, 0.0, 2.5):
            assert crv.y.eval(s) == 1.0 + 2.0 * s
            assert crv.z.eval(s) == 3.0 + 4.0 * s
            acc = crv.eval(s, 2)
            assert (acc.x2, acc.x3) == (0.0, 0.0)

    def test_unit_circle_helix(self):
        crv = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
        assert crv.case is CurveCase.MAGNETIC_HELIX
        for s in np.linspace(0, 2 * math.pi, 17):
            assert crv.y.eval(s) == pytest.approx(math.cos(s) - 1.0, abs=1e-15)
            assert crv.z.eval(s) == pytest.approx(math.sin(s), abs=1e-15)

    @given(fields(), st.builds(MagneticIC, finite, finite, finite, finite))
    def test_initial_conditions_reproduced(self, field, ic):
        crv = solve_magnetic(field, ic)
        pos = crv.eval(0.0, 0)
        vel = crv.eval(0.0, 1)
        assert pos.x2 == pytest.approx(ic.y0, abs=1e-12)
        assert pos.x3 == pytest.approx(ic.z0, abs=1e-12)
        assert vel.x2 == pytest.approx(ic.Y0, abs=1e-12)
        assert vel.x3 == pytest.approx(ic.Z0, abs=1e-12)

    @given(fields(), st.builds(MagneticIC, finite, finite, finite, finite),
           st.floats(-20, 20))
    def test_solves_lorentz_equation_everywhere(self, field, ic, s):
        crv = solve_magnetic(field, ic)
        assert lorentz_residual(crv, s) < 1e-9

    @given(fields(), st.builds(MagneticIC, finite, finite, finite, finite),
           st.floats(-20, 20))
    def test_unit_speed(self, field, ic, s):
        crv = solve_magnetic(field, ic)
        assert crv.eval(s, 1).x1 == 1.0
        assert crv.eval(s, 0).x1 == s

    def test_tiny_v1_warns(self):
        with pytest.warns(RuntimeWarning, match="helix radius"):
            solve_magnetic(KillingField(1e-13, 0, 0), MagneticIC(0, 0, 0, 1))

    def test_underflowing_v1_squared_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            solve_magnetic(KillingField(1e-200, 0, 0), MagneticIC(0, 0, 0, 0))
        with pytest.raises(ValueError, match="underflows"):
            solve_n_magnetic(KillingField(-1e-170, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0))

    def test_overflowing_coefficients_rejected(self):
        # a rejected solve raises its error without the tiny-v1 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                solve_magnetic(KillingField(1e-160, 0, 1), MagneticIC(1, 0, 0, 0))
            with pytest.raises(ValueError, match="overflow"):
                solve_n_magnetic(KillingField(1e-160, 0, 0), NMagneticIC(0, 0, 1e10, 0, 0, 0))


class TestHelixDecomposition:
    def test_unit_circle(self):
        crv = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
        helix = helix_decomposition(crv)
        assert helix.r == 1.0
        assert (helix.a, helix.b, helix.c, helix.d) == (0.0, -1.0, 0.0, 0.0)
        for s in np.linspace(0, 2 * math.pi, 33):
            offset = crv.eval(s, 0) - helix.point(s)
            assert offset.x1 == 0.0
            assert norm(offset) == pytest.approx(1.0, abs=1e-12)

    def test_nmagnetic_helix(self):
        crv = solve_n_magnetic(KillingField(1, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0))
        helix = helix_decomposition(crv)
        assert helix.r == 1.0
        # axis line (s, 1, s)
        assert (helix.a, helix.b, helix.c, helix.d) == (0.0, 1.0, 1.0, 0.0)

    def test_radius_formula_general(self):
        field = KillingField(2.0, 0.5, -1.5)
        ic = MagneticIC(1, 2, 3, 4)
        crv = solve_magnetic(field, ic)
        helix = helix_decomposition(crv)
        expected_r = math.hypot(
            ic.Z0 / field.v1 - field.v3 / field.v1**2,
            ic.Y0 / field.v1 - field.v2 / field.v1**2,
        )
        assert helix.r == pytest.approx(expected_r, rel=1e-15)
        for s in np.linspace(-5, 5, 101):
            dist = norm(crv.eval(s, 0) - helix.point(s))
            assert dist == pytest.approx(helix.r, abs=1e-9)

    def test_axis_is_admissible_line(self):
        crv = solve_magnetic(KillingField(3, 1, -2), MagneticIC(0.3, -0.4, 0.5, 0.6))
        helix = helix_decomposition(crv)
        p0, p1 = helix.point(0.0), helix.point(1.0)
        assert p0.x1 == 0.0 and p1.x1 == 1.0
        assert p1.x2 - p0.x2 == pytest.approx(helix.a)

    def test_oscillation_frequency_is_v1_in_both_families(self):
        for v1 in (-4.0, 0.3, 7.0):
            mag = solve_magnetic(KillingField(v1, 1, 2), MagneticIC(1, 2, 3, 4))
            nmag = solve_n_magnetic(KillingField(v1, 1, 2), NMagneticIC(1, 2, 1, 3, 4, 2))
            for crv in (mag, nmag):
                assert crv.y.omega == v1
                assert crv.z.omega == v1

    def test_parabola_rejected(self):
        crv = solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3))
        with pytest.raises(WrongCase):
            helix_decomposition(crv)

    def test_quadratic_nmagnetic_rejected(self):
        crv = solve_n_magnetic(KillingField(0, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 1))
        with pytest.raises(WrongCase):
            helix_decomposition(crv)


class TestNMagneticRhs:
    def test_rotation_of_acceleration(self):
        deriv = n_magnetic_rhs(KillingField(1, 0, 0), 1.0, (0, 0, 0, 0, 1.0, 0.0))
        assert deriv[4:] == (0.0, 1.0)

    def test_zero_field(self):
        deriv = n_magnetic_rhs(KillingField(0, 0, 0), 1.0, (1, 2, 3, 4, 5, 6))
        assert deriv == (3.0, 4.0, 5.0, 6.0, 0.0, 0.0)
        assert n_magnetic_constraint(KillingField(0, 0, 0), (1, 2, 3, 4, 5, 6)) == 0.0

    def test_constraint_value(self):
        field = KillingField(0, 1, 2)
        state = (0, 0, 0, 0, 1.0, 1.0)
        assert n_magnetic_constraint(field, state) == -1.0

    def test_constraint_zero_when_v1_nonzero(self):
        assert n_magnetic_constraint(KillingField(2, 1, 2), (0, 0, 0, 0, 1, 1)) == 0.0

    def test_kappa0_must_be_positive(self):
        with pytest.raises(ValueError):
            n_magnetic_rhs(KillingField(1, 0, 0), 0.0, (0, 0, 0, 0, 1, 0))
        with pytest.raises(ValueError):
            b_magnetic_rhs(KillingField(1, 0, 0), -2.0, (0, 0, 0, 0, 1, 0))


class TestBMagneticRhs:
    def test_rotation_of_acceleration(self):
        deriv = b_magnetic_rhs(KillingField(1, 0, 0), 1.0, (0, 0, 0, 0, 0.0, 1.0))
        assert deriv[4:] == (-1.0, 0.0)

    def test_zero_field(self):
        deriv = b_magnetic_rhs(KillingField(0, 0, 0), 2.0, (1, 2, 3, 4, 5, 6))
        assert deriv[4:] == (0.0, 0.0)

    def test_constraint_value(self):
        field = KillingField(0, 1, 1)
        state = (0, 0, 0, 0, 1.0, -1.0)
        assert b_magnetic_constraint(field, state) == 0.0
        assert b_magnetic_constraint(KillingField(0, 2, 3), (0, 0, 0, 0, 1.0, 1.0)) == 5.0

    def test_same_third_order_system_as_n_magnetic(self):
        field = KillingField(1.7, 0.4, -0.9)
        state = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert b_magnetic_rhs(field, 2.0, state) == n_magnetic_rhs(field, 2.0, state)


class TestSolveNMagnetic:
    def test_free_reference_curve(self):
        # y = s**2/2 + 3s + 4, z = s**2/2 + 2s + 1
        crv = solve_n_magnetic(KillingField(0, 0, 0), NMagneticIC(4, 3, 1, 1, 2, 1))
        assert crv.case is CurveCase.NMAGNETIC_FREE
        for s in np.linspace(0, 5, 11):
            assert crv.y.eval(s) == pytest.approx(0.5 * s * s + 3 * s + 4, rel=1e-15)
            assert crv.z.eval(s) == pytest.approx(0.5 * s * s + 2 * s + 1, rel=1e-15)
        assert crv.kappa0 == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_cycloid_like_helix(self):
        crv = solve_n_magnetic(KillingField(1, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0))
        assert crv.case is CurveCase.NMAGNETIC_HELIX
        for s in np.linspace(0, 4 * math.pi, 21):
            assert crv.y.eval(s) == pytest.approx(1.0 - math.cos(s), abs=1e-14)
            assert crv.z.eval(s) == pytest.approx(s - math.sin(s), abs=1e-14)
        assert crv.kappa0 == pytest.approx(1.0, abs=1e-15)

    def test_zero_curvature_rejected(self):
        with pytest.raises(ZeroCurvature):
            solve_n_magnetic(KillingField(0, 0, 0), NMagneticIC(1, 2, 0, 3, 4, 0))

    def test_z_field_requires_flat_y(self):
        field = KillingField(0, 0, 2)
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 1.0))
        crv = solve_n_magnetic(field, NMagneticIC(0.5, -1, 0.0, 0, 2, 1.0))
        assert crv.case is CurveCase.NMAGNETIC_Z_FIELD
        assert crv.y.c2 == 0.0
        assert crv.kappa0 == 1.0

    def test_y_field_requires_flat_z(self):
        field = KillingField(0, 3, 0)
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 0.5))
        crv = solve_n_magnetic(field, NMagneticIC(0, 1, -2.0, 0, 0, 0.0))
        assert crv.case is CurveCase.NMAGNETIC_Y_FIELD
        assert crv.z.c2 == 0.0
        assert crv.kappa0 == 2.0

    def test_yz_field_proportionality_constraint(self):
        field = KillingField(0, 1, 2)
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 1.0))
        crv = solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 2.0))
        assert crv.case is CurveCase.NMAGNETIC_YZ_FIELD
        # direct solution of the quadrature: leading coefficients T0/2, U0/2
        assert crv.y.c2 == 0.5
        assert crv.z.c2 == 1.0

    def test_exact_boundary_constraint_accepted(self):
        crv = solve_n_magnetic(KillingField(0, 2, 4), NMagneticIC(0, 0, 3, 0, 0, 6))
        assert crv.case is CurveCase.NMAGNETIC_YZ_FIELD

    def test_constraint_tolerance_configurable(self):
        field = KillingField(0, 1, 1)
        ic = NMagneticIC(0, 0, 1.0, 0, 0, 1.0 + 1e-9)
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(field, ic)
        crv = solve_n_magnetic(field, ic, constraint_rtol=1e-6)
        assert crv.case is CurveCase.NMAGNETIC_YZ_FIELD

    @given(
        fields(nonzero_v1=True),
        st.builds(NMagneticIC, finite, finite, st.floats(0.1, 5), finite, finite, finite),
    )
    def test_helix_initial_conditions_reproduced(self, field, ic):
        crv = solve_n_magnetic(field, ic)
        pos, vel, acc = (crv.eval(0.0, k) for k in (0, 1, 2))
        assert pos.x2 == pytest.approx(ic.y0, abs=1e-12)
        assert pos.x3 == pytest.approx(ic.z0, abs=1e-12)
        assert vel.x2 == pytest.approx(ic.Y0, abs=1e-12)
        assert vel.x3 == pytest.approx(ic.Z0, abs=1e-12)
        assert acc.x2 == pytest.approx(ic.T0, abs=1e-12)
        assert acc.x3 == pytest.approx(ic.U0, abs=1e-12)

    @given(
        fields(nonzero_v1=True),
        st.builds(NMagneticIC, finite, finite, st.floats(0.1, 5), finite, finite, finite),
        st.floats(-20, 20),
    )
    def test_helix_solves_force_equation(self, field, ic, s):
        crv = solve_n_magnetic(field, ic)
        assert n_magnetic_residual(crv, s) < 1e-9

    def test_residual_requires_curvature(self):
        line = solve_magnetic(KillingField(0, 0, 0), MagneticIC(0, 1, 0, 2))
        with pytest.raises(ZeroCurvature):
            n_magnetic_residual(line, 0.0)

    def test_tiny_v1_warns(self):
        with pytest.warns(RuntimeWarning, match="helix radius"):
            solve_n_magnetic(KillingField(5e-13, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0))

    @pytest.mark.parametrize("v1", [0.0, 1.0])
    def test_overflowing_kappa0_rejected(self, v1):
        # each acceleration is finite, their hypot is not
        ic = NMagneticIC(0, 0, 1.5e308, 0, 0, 1.5e308)
        with pytest.raises(ValueError, match="kappa0"):
            solve_n_magnetic(KillingField(v1, 0, 0), ic)


class TestClosedFormCurve:
    def test_derivative_orders_validated(self):
        crv = solve_magnetic(KillingField(0, 1, 1), MagneticIC(0, 0, 0, 0))
        with pytest.raises(ValueError):
            crv.eval(0.0, 4)
        with pytest.raises(ValueError):
            crv.eval(0.0, -1)
        with pytest.raises(ValueError):
            QuadSinusoid(c0=1.0).eval(0.0, 5)

    def test_first_components_by_order(self):
        crv = solve_magnetic(KillingField(2, 1, 1), MagneticIC(1, 2, 3, 4))
        s = 0.37
        assert crv.eval(s, 0).x1 == s
        assert crv.eval(s, 1).x1 == 1.0
        assert crv.eval(s, 2).x1 == 0.0
        assert crv.eval(s, 3).x1 == 0.0

    def test_quad_sinusoid_derivatives_consistent(self):
        # analytic derivatives vs central differences of the value
        form = QuadSinusoid(c0=0.3, c1=-1.2, c2=0.8, a_cos=0.5, a_sin=-0.9, omega=1.7)
        for s in (0.0, 0.77, -2.1):
            h = 1e-6
            fd1 = (form.eval(s + h) - form.eval(s - h)) / (2 * h)
            assert form.eval(s, 1) == pytest.approx(fd1, abs=1e-7)
            h = 1e-4
            fd2 = (form.eval(s + h) - 2 * form.eval(s) + form.eval(s - h)) / h**2
            assert form.eval(s, 2) == pytest.approx(fd2, abs=1e-5)
            fd3 = (
                form.eval(s + 2 * h)
                - 2 * form.eval(s + h)
                + 2 * form.eval(s - h)
                - form.eval(s - 2 * h)
            ) / (2 * h**3)
            assert form.eval(s, 3) == pytest.approx(fd3, abs=1e-3)

    def test_case_tags_partition(self):
        assert CurveCase.MAGNETIC_HELIX.is_helix
        assert CurveCase.NMAGNETIC_HELIX.is_helix
        assert not CurveCase.MAGNETIC_PARABOLA.is_helix
        assert CurveCase.MAGNETIC_PARABOLA.is_magnetic
        assert not CurveCase.NMAGNETIC_FREE.is_magnetic

    def test_field_isotropy(self):
        assert KillingField(0, 1, 2).is_isotropic
        assert not KillingField(0.5, 0, 0).is_isotropic
        assert KillingField(0.5, 1, 2).as_vector() == GVector3(0.5, 1, 2)

    def test_nmagnetic_kappa0_property(self):
        assert NMagneticIC(0, 0, 3, 0, 0, 4).kappa0 == 5.0
