import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from galmag.errors import NonFiniteState
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    magnetic_rhs,
    n_magnetic_constraint,
    n_magnetic_rhs,
    solve_magnetic,
    solve_n_magnetic,
)
from galmag.oracle import (
    IntegratorConfig,
    SampledCurve,
    grid_points,
    integrate,
    max_deviation,
)


def magnetic_initial(ic):
    return (ic.y0, ic.z0, ic.Y0, ic.Z0)


def nmagnetic_initial(ic):
    return (ic.y0, ic.z0, ic.Y0, ic.Z0, ic.T0, ic.U0)


class TestIntegratorConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 1.0, step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 1.0, step=-1e-3)

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            IntegratorConfig(1.0, 1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(2.0, 1.0)

    def test_rejects_runaway_grid(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 1.0, step=1e-9)

    def test_default_step(self):
        assert IntegratorConfig(0.0, 1.0).step == 1e-3


class TestGrid:
    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 100), st.floats(1e-2, 10))
    def test_grid_points_match_loop_reference(self, s_start, length, step):
        cfg = IntegratorConfig(s_start, s_start + length, step)
        n = int((cfg.s_end - cfg.s_start) / cfg.step)
        while n > 0 and cfg.s_start + n * cfg.step > cfg.s_end:
            n -= 1
        expected = [cfg.s_start + i * cfg.step for i in range(n + 1)]
        if expected[-1] < cfg.s_end:
            expected.append(cfg.s_end)
        assert grid_points(cfg).tolist() == expected

    def test_uniform_with_exact_endpoint(self):
        cfg = IntegratorConfig(0.0, 1.0, step=0.25)
        sampled = integrate(lambda st: (0.0,), (1.0,), cfg)
        assert sampled.grid[0] == 0.0
        assert sampled.grid[-1] == 1.0
        assert np.all(np.diff(sampled.grid) > 0)

    def test_short_final_step(self):
        cfg = IntegratorConfig(0.0, 1.0, step=0.3)
        sampled = integrate(lambda st: (0.0,), (1.0,), cfg)
        assert sampled.grid[-1] == 1.0
        diffs = np.diff(sampled.grid)
        assert np.all(diffs[:-1] == pytest.approx(0.3, abs=1e-15))
        assert diffs[-1] == pytest.approx(0.1, abs=1e-12)
        assert np.all(diffs > 0)

    def test_states_aligned_with_grid(self):
        cfg = IntegratorConfig(0.0, 2.0, step=0.5)
        sampled = integrate(lambda st: (1.0,), (0.0,), cfg)
        assert sampled.states.shape == (len(sampled.grid), 1)
        # u' = 1 integrates exactly: u(s) = s
        assert np.allclose(sampled.states[:, 0], sampled.grid, atol=1e-15)


class TestIntegrate:
    def test_exact_on_straight_lines(self):
        field = KillingField(0, 0, 0)
        ic = MagneticIC(1.0, 2.0, 3.0, 4.0)
        crv = solve_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, 1.0, step=1e-3)
        sampled = integrate(partial(magnetic_rhs, field), magnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-12

    def test_quadratics_at_rounding_level(self):
        field = KillingField(0, 1, 1)
        ic = MagneticIC(1, 5, 4, 3)
        crv = solve_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, math.pi, step=1e-3)
        sampled = integrate(partial(magnetic_rhs, field), magnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-10

    def test_helix_within_global_error_bound(self):
        field = KillingField(1, 0, 0)
        ic = MagneticIC(0, 0, 0, 1)
        crv = solve_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, 2 * math.pi, step=1e-3)
        sampled = integrate(partial(magnetic_rhs, field), magnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-9

    def test_nmagnetic_quadratic_any_step(self):
        field = KillingField(0, 0, 0)
        ic = NMagneticIC(4, 3, 1, 1, 2, 1)
        crv = solve_n_magnetic(field, ic)
        for step in (0.5, 1e-2, 1e-3):
            cfg = IntegratorConfig(0.0, 5.0, step=step)
            sampled = integrate(
                partial(n_magnetic_rhs, field, ic.kappa0), nmagnetic_initial(ic), cfg
            )
            assert max_deviation(crv, sampled, components="full") < 1e-11

    def test_nmagnetic_helix_full_state(self):
        field = KillingField(1.0, 0.4, -0.3)
        ic = NMagneticIC(0.2, -0.1, 1.0, 0.3, 0.5, 0.5)
        crv = solve_n_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, 4 * math.pi, step=1e-3)
        sampled = integrate(
            partial(n_magnetic_rhs, field, ic.kappa0), nmagnetic_initial(ic), cfg
        )
        assert max_deviation(crv, sampled, components="full") < 1e-9

    def test_step_halving_reduces_error_sixteenfold(self):
        field = KillingField(1, 0, 0)
        ic = MagneticIC(0, 0, 0, 1)
        crv = solve_magnetic(field, ic)
        devs = []
        for step in (1e-3, 5e-4):
            cfg = IntegratorConfig(0.0, 2 * math.pi, step=step)
            sampled = integrate(partial(magnetic_rhs, field), magnetic_initial(ic), cfg)
            devs.append(max_deviation(crv, sampled))
        ratio = devs[0] / devs[1]
        assert 12.0 <= ratio <= 20.0

    def test_nonfinite_state_detected(self):
        # u' = u**2 from a huge start overflows within a few steps
        cfg = IntegratorConfig(0.0, 1.0, step=0.1)
        with pytest.raises(NonFiniteState):
            integrate(lambda st: (st[0] * st[0],), (1e200,), cfg)

    def test_rhs_arity_checked(self):
        cfg = IntegratorConfig(0.0, 1.0, step=0.1)
        with pytest.raises(ValueError, match="components"):
            integrate(lambda st: (st[0],), (1.0, 2.0), cfg)

    def test_constraint_violation_stays_constant(self):
        # with v1 = 0 the third derivatives vanish, so an incompatible
        # acceleration pair keeps its exact violation along the trajectory
        field = KillingField(0, 1, 2)
        initial = (0.0, 0.0, 0.3, -0.7, 1.0, 1.0)
        value0 = n_magnetic_constraint(field, initial)
        assert value0 == -1.0
        cfg = IntegratorConfig(0.0, 3.0, step=1e-2)
        sampled = integrate(partial(n_magnetic_rhs, field, 1.0), initial, cfg)
        for state in sampled.states:
            assert n_magnetic_constraint(field, tuple(state)) == value0


class TestMaxDeviation:
    def _exact_samples(self, crv, grid, dim):
        states = []
        for s in grid:
            row = [crv.y.eval(s, 0), crv.z.eval(s, 0), crv.y.eval(s, 1), crv.z.eval(s, 1)]
            if dim == 6:
                row += [crv.y.eval(s, 2), crv.z.eval(s, 2)]
            states.append(row)
        return SampledCurve(grid=np.asarray(grid), states=np.asarray(states))

    def test_identity_is_zero(self):
        crv = solve_magnetic(KillingField(1, 0.3, -0.2), MagneticIC(1, 2, 3, 4))
        grid = np.linspace(0, 5, 64)
        sampled = self._exact_samples(crv, grid, dim=4)
        assert max_deviation(crv, sampled) == 0.0
        assert max_deviation(crv, sampled, components="full") == 0.0

    def test_full_state_sees_derivative_mismatch(self):
        crv = solve_magnetic(KillingField(0, 0, 0), MagneticIC(0, 1, 0, 0))
        grid = np.linspace(0, 1, 11)
        sampled = self._exact_samples(crv, grid, dim=4)
        states = sampled.states.copy()
        states[:, 2] += 1e-3  # perturb y' only
        perturbed = SampledCurve(grid=sampled.grid, states=states)
        assert max_deviation(crv, perturbed) == 0.0
        assert max_deviation(crv, perturbed, components="full") == pytest.approx(1e-3)

    def test_rejects_unknown_components(self):
        crv = solve_magnetic(KillingField(0, 1, 1), MagneticIC(0, 0, 0, 0))
        grid = np.linspace(0, 1, 3)
        sampled = self._exact_samples(crv, grid, dim=4)
        with pytest.raises(ValueError):
            max_deviation(crv, sampled, components="velocity")

    def test_rejects_bad_dimension(self):
        crv = solve_magnetic(KillingField(0, 1, 1), MagneticIC(0, 0, 0, 0))
        grid = np.linspace(0, 1, 3)
        sampled = SampledCurve(grid=grid, states=np.zeros((3, 5)))
        with pytest.raises(ValueError):
            max_deviation(crv, sampled)
