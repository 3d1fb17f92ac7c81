import dataclasses
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from galmag.errors import IncompatibleIC, WrongCase, ZeroCurvature
from galmag.galilean import GVector3, norm
from galmag.magnetic import (
    ClosedFormCurve,
    CurveCase,
    KillingField,
    MagneticIC,
    NMagneticIC,
    QuadSinusoid,
    helix_decomposition,
    lorentz_force,
    lorentz_residual,
    magnetic_system,
    n_magnetic_residual,
    n_magnetic_system,
    solve_magnetic,
    solve_n_magnetic,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def signed(exponents):
    """-10**e or 10**e for e drawn from exponents."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), exponents).map(lambda t: t[0] * 10.0 ** t[1])


# 0 or a magnitude log-uniform in [1e-100, 1e100]: no product of two overflows or underflows
wide = st.one_of(st.just(0.0), signed(st.floats(-100, 100)))


def at(system, state):
    """The system's rows evaluated in full at the state: a*x[k] + c, or the constant c."""
    return tuple(row[0] if len(row) == 1 else row[0] * state[row[1]] + row[2] for row in system)


# v1 = 0 of either sign, a small v1 and any other
rhs_v1 = st.one_of(st.sampled_from([0.0, -0.0, 1e-7]), st.floats(-5, 5))


def fields(nonzero_v1=False, components=finite):
    # |v1| is log-uniform in [1e-300, 10]: no coefficient divides by v1, so
    # the closed form holds as v1 -> 0 (only the helix radius kappa0/v1**2
    # grows, and overflows below |v1| ~ 1e-154).
    v1 = signed(st.floats(-300, 1))
    if not nonzero_v1:
        v1 = st.one_of(st.just(0.0), v1)
    return st.builds(KillingField, v1, components, components)


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
        deriv = at(magnetic_system(KillingField(0, 1, 1)), (9.0, -4.0, 0.3, 0.8))
        assert deriv == (0.3, 0.8, 1.0, -1.0)

    def test_nonisotropic_field(self):
        deriv = at(magnetic_system(KillingField(1, 0, 0)), (0.0, 0.0, 0.0, 1.0))
        assert deriv[2:] == (-1.0, 0.0)

    def test_zero_field_is_geodesic(self):
        deriv = at(magnetic_system(KillingField(0, 0, 0)), (1.0, 2.0, 3.0, 4.0))
        assert deriv == (3.0, 4.0, 0.0, 0.0)

    @given(rhs_v1, finite, finite, st.tuples(finite, finite, finite, finite))
    def test_matches_force_on_tangent(self, v1, v2, v3, state):
        # == is bit for bit but for the sign of a zero: the cross product's
        # -(v1*z' - v3) is -0.0 where the row's (-v1)*z' + v3 is 0.0
        field = KillingField(v1, v2, v3)
        force = lorentz_force(field, GVector3(1.0, state[2], state[3]))
        assert at(magnetic_system(field), state) == (state[2], state[3], force.x2, force.x3)


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

    def test_tiny_v1_solves_silently(self):
        # y = -(1 - cos v1*s)/v1 ~ -v1*s**2/2, which the old helix recipe lost to
        # cancellation; z = sin(v1*s)/v1 ~ s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crv = solve_magnetic(KillingField(1e-13, 0, 0), MagneticIC(0, 0, 0, 1))
            assert crv.eval(2.0, 0).as_tuple() == pytest.approx((2.0, -2e-13, 2.0), rel=1e-15)
            assert helix_decomposition(crv).r == pytest.approx(1e13, rel=1e-15)

    @pytest.mark.parametrize("field, ic", [
        # the acceleration (v3, -v2) of a parabola is finite, its norm is not
        (KillingField(0, 1.5e308, 1.5e308), MagneticIC(0, 0, 0, 0)),
        (KillingField(1, 0, 0), MagneticIC(0, 1.5e308, 0, 1.5e308)),
    ])
    def test_overflowing_curvature_rejected(self, field, ic):
        with pytest.raises(ValueError, match="kappa0"):
            solve_magnetic(field, ic)

    def test_acceleration_whose_product_overflows(self):
        # v1*Y0 = 2e308 overflows, but y'' = v2 - v1*Y0 at s = 0 is -5e307
        crv = solve_magnetic(KillingField(-2, 1.5e308, -3e-162), MagneticIC(-2, -1e308, 1e-320, 0))
        assert crv.kappa0 == 5e307
        with mp.workdps(50):
            for s in (-1.0, -0.3, 0.0, 0.001):
                ref = reference_derivatives(crv, s)
                for k in (2, 3):
                    got = crv.eval(s, k)
                    assert math.isfinite(got.x2) and math.isfinite(got.x3)
                    err = max(abs(got.x2 - ref[k].real), abs(got.x3 - ref[k].imag))
                    assert err <= 8 * 2.0**-52 * abs(ref[k]), (s, k)

    def test_overflowing_v1_straight_line(self):
        # v1*v1 overflows, but with zero data every term still vanishes
        crv = solve_magnetic(KillingField(1e308, 0, 0), MagneticIC(0, 0, 0, 0))
        assert crv.kappa0 == 0.0
        grid = np.linspace(0, 1, 11)
        assert np.array_equal(crv.eval(grid), np.column_stack((grid, 0 * grid, 0 * grid)))


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

    @pytest.mark.parametrize("v1", [1e-200, -1e-320])
    def test_tiny_v1_gives_an_infinite_radius(self, v1):
        # the curve itself stays finite and exact; only r = kappa0/v1**2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mag = solve_magnetic(KillingField(v1, 0.5, 0.7), MagneticIC(1, 0, 0, 0))
            nmag = solve_n_magnetic(KillingField(v1, 0, 0), NMagneticIC(0, 0, 1, 0, 0, 0))
            for crv in (mag, nmag):
                assert helix_decomposition(crv).r == math.inf
            assert mag.eval(2.0, 0).as_tuple() == pytest.approx((2.0, 2.4, -1.0), rel=1e-15)
            # z = S2 = s**2*(x - sin x)/x**2 ~ v1*s**3/6, subnormal for v1 = -1e-320
            assert nmag.eval(2.0, 0).as_tuple() == pytest.approx((2.0, 2.0, 8 * v1 / 6), rel=1e-2)
            assert mag.kappa0 == math.hypot(0.7, 0.5) and nmag.kappa0 == 1.0

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
        deriv = at(n_magnetic_system(KillingField(1, 0, 0)), (0, 0, 0, 0, 1.0, 0.0))
        assert deriv[4:] == (0.0, 1.0)

    def test_zero_field(self):
        deriv = at(n_magnetic_system(KillingField(0, 0, 0)), (1, 2, 3, 4, 5, 6))
        assert deriv == (3.0, 4.0, 5.0, 6.0, 0.0, 0.0)

    @given(rhs_v1, finite, finite, st.tuples(*[finite] * 6))
    def test_matches_force_on_normal(self, v1, v2, v3, state):
        # N = (0, y'', z'')/kappa0, and V x N is linear in N; == as in the magnetic test
        field = KillingField(v1, v2, v3)
        force = lorentz_force(field, GVector3(0.0, state[4], state[5]))
        assert at(n_magnetic_system(field), state) == (*state[2:], force.x2, force.x3)


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
        # y'' = T0*cos + ... = 0: y is a straight line
        assert (crv.y.u, crv.y.eval(1.5, 2)) == (0.0, 0.0)
        assert crv.kappa0 == 1.0

    def test_y_field_requires_flat_z(self):
        field = KillingField(0, 3, 0)
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 0.5))
        for k in (0, 20, 40, 300):  # the check scales with the data
            with pytest.raises(IncompatibleIC):
                solve_n_magnetic(field, NMagneticIC(0, 0, 2.0**-k, 0, 0, 2.0**-k))
        crv = solve_n_magnetic(field, NMagneticIC(0, 1, -2.0, 0, 0, 0.0))
        assert crv.case is CurveCase.NMAGNETIC_Y_FIELD
        assert (crv.z.u, crv.z.eval(1.5, 2)) == (0.0, 0.0)
        assert crv.kappa0 == 2.0

    def test_yz_field_proportionality_constraint(self):
        field = KillingField(0, 1, 2)
        with pytest.raises(IncompatibleIC):
            solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 1.0))
        crv = solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 2.0))
        assert crv.case is CurveCase.NMAGNETIC_YZ_FIELD
        # direct solution of the quadrature: y = s**2/2, z = s**2, as C2 = s**2/2
        assert (crv.y.u, crv.z.u) == (1.0, 2.0)
        assert (crv.y.eval(3.0), crv.z.eval(3.0)) == (4.5, 9.0)

    def test_exact_boundary_constraint_accepted(self):
        crv = solve_n_magnetic(KillingField(0, 2, 4), NMagneticIC(0, 0, 3, 0, 0, 6))
        assert crv.case is CurveCase.NMAGNETIC_YZ_FIELD

    def test_constraint_tolerance_is_relative_1e_12(self):
        # |v2*U0 - v3*T0| relative to |v2*U0| + |v3*T0| is about 1e-13
        # (accepted) or 1e-9 (refused) here, for any field strength
        for scale in (1e-100, 1e-8, 1.0, 1e8, 1e100):
            field = KillingField(0, scale, scale)
            crv = solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 1.0 + 3e-13))
            assert crv.case is CurveCase.NMAGNETIC_YZ_FIELD
            with pytest.raises(IncompatibleIC):
                solve_n_magnetic(field, NMagneticIC(0, 0, 1.0, 0, 0, 1.0 + 3e-9))

    @given(st.one_of(st.just(0.0), signed(st.floats(-50, 50))), signed(st.floats(-50, 50)),
           signed(st.floats(-50, 50)), finite, finite)
    def test_accelerations_along_the_field_accepted(self, v2, v3, lam, y0, z0):
        # T0 = lam*v2 and U0 = lam*v3, as the benchmark draws compatible data
        crv = solve_n_magnetic(KillingField(0.0, v2, v3),
                               NMagneticIC(y0, 0.0, lam * v2, z0, 0.0, lam * v3))
        assert not crv.case.is_helix

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

    def test_overflowing_phase_gives_nan_at_a_float_s(self):
        # v1*s = 3e308 overflows at s = -3: a float s must give cos(inf) = nan as
        # a grid does, not the "math domain error" that math.cos(inf) raises
        crv = solve_magnetic(KillingField(-1e308, -1e308, 1e-13), MagneticIC(-2, 0.5, 1e-200, 0.5))
        with np.errstate(all="ignore"):  # as the CLI runs it: the overflow is the point
            acc = crv.eval(-3.0, 2)
            rows = crv.eval(np.array([-3.0]), 2)
        assert not (math.isfinite(acc.x2) and math.isfinite(acc.x3))
        assert np.array(acc.as_tuple()).tobytes() == rows.tobytes()

    def test_first_components_by_order(self):
        crv = solve_magnetic(KillingField(2, 1, 1), MagneticIC(1, 2, 3, 4))
        s = 0.37
        assert crv.eval(s, 0).x1 == s
        assert crv.eval(s, 1).x1 == 1.0
        assert crv.eval(s, 2).x1 == 0.0
        assert crv.eval(s, 3).x1 == 0.0

    def test_quad_sinusoid_derivatives_consistent(self):
        # analytic derivatives vs central differences of the value, helix and quadratic
        forms = [QuadSinusoid(c0=0.3, c1=-1.2, p=0.5, q=-0.9, u=0.8, v=0.4, omega=w)
                 for w in (1.7, 0.0)]
        for form, s in itertools.product(forms, (0.0, 0.77, -2.1)):
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

    def test_field_isotropy(self):
        # v1 = 0 is an isotropic field: a parabola, not a helix
        ic = MagneticIC(0, 1, 0, 0)
        assert solve_magnetic(KillingField(0, 1, 2), ic).case is CurveCase.MAGNETIC_PARABOLA
        assert solve_magnetic(KillingField(0.5, 0, 0), ic).case is CurveCase.MAGNETIC_HELIX
        assert KillingField(0.5, 1, 2).as_vector() == GVector3(0.5, 1, 2)


def _phi(k, x):
    """phi_k(x) = sum of x**j/(j + k)! in mpmath, by the series where the closed form cancels."""
    if abs(x) < mp.mpf("1e-3"):
        return mp.fsum(x**j / mp.factorial(j + k) for j in range(20))
    return (mp.exp(x), mp.expm1(x) / x, (mp.expm1(x) - x) / x**2)[k]


def reference_derivatives(crv, s):
    """P = y + i*z and its derivatives of order 1..4 at s, from the phi-form in mpmath.

    Written from the trajectory equations alone: P''' = i*v1*P'' in both
    families, with P''(0) = (v3 - i*v2) + i*v1*P'(0) (magnetic, from
    P'' = (v3 - i*v2) + i*v1*P') or T0 + i*U0 (N-magnetic).  P''(0) is formed
    from the data before any phase enters, so where it cancels to 0, every
    order from 2 on is exactly 0 here too.
    """
    ic, field = crv.ic, crv.field
    s = mp.mpf(s)
    iw = mp.mpc(0, field.v1)
    x = iw * s
    p0, q0 = mp.mpc(ic.y0, ic.z0), mp.mpc(ic.Y0, ic.Z0)
    if isinstance(ic, MagneticIC):
        a0 = mp.mpc(field.v3, -field.v2) + iw * q0
    else:
        a0 = mp.mpc(ic.T0, ic.U0)
    p = p0 + q0 * s + a0 * s**2 * _phi(2, x)
    dp = q0 + a0 * s * _phi(1, x)
    ddp = a0 * _phi(0, x)
    return p, dp, ddp, iw * ddp, iw * iw * ddp


class TestAgainstMpmath:
    @given(fields(components=wide), st.booleans(), st.tuples(*[wide] * 6),
           st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1e-300])),
           st.none() | st.tuples(st.floats(-1, 1), signed(st.floats(-1, 6))), st.booleans())
    def test_every_order_within_8_ulps_of_scale(self, field, magnetic, data, s, phased, cancel):
        # The scale of order k is |P^(k)(s)| + |s*P^(k+1)(s)|/2.  Its second
        # term is the effect of moving s by half an ulp, which no double
        # evaluation avoids: the phase v1*s is rounded, and terms of that size
        # may cancel.  Doubles are never closer than 2**-1074, so the scale is
        # at least 2**-1022, the smallest normal double.  The bound covers all
        # the rest.
        if phased is not None:
            # 0.1 <= |s| <= 1e6 and v1 = phase/s, so |v1| <= 10 and v1*s falls
            # where the S2 series serves (|v1*s| < 0.5) and on both sides of its edge
            phase, s = phased
            field = dataclasses.replace(field, v1=phase / s)
        y0, yd, z0, zd, t0, u0 = data
        if magnetic and cancel:
            # v2 = v1*Y0 and v3 = v1*Z0 rounded: P''(0) = (v3 - i*v2) + i*v1*P'(0)
            # is then only the products' rounding errors, which orders 2-3 must keep
            field = dataclasses.replace(field, v2=field.v1 * yd, v3=field.v1 * zd)
        if magnetic:
            crv = solve_magnetic(field, MagneticIC(y0, yd, z0, zd))
        else:
            if field.v1 == 0.0:  # the compatibility constraint v2*U0 = v3*T0
                t0, u0 = field.v2 * t0, field.v3 * t0
            assume(t0 != 0.0 or u0 != 0.0)
            crv = solve_n_magnetic(field, NMagneticIC(y0, yd, t0, z0, zd, u0))
        with mp.workdps(50):
            ref = reference_derivatives(crv, s)
            for k in range(4):
                got = crv.eval(s, k)
                err = max(abs(got.x2 - ref[k].real), abs(got.x3 - ref[k].imag))
                scale = abs(ref[k]) + abs(s * ref[k + 1]) / 2
                scale = max(scale, 2.0**-1022)
                assert err <= 8 * 2.0**-52 * scale, (k, float(err / scale / 2.0**-52))
