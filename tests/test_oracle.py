import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from galmag import oracle
from galmag.errors import NonFiniteState
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    magnetic_system,
    n_magnetic_system,
    solve_magnetic,
    solve_n_magnetic,
)
from galmag.oracle import (
    _CHUNK,
    IntegratorConfig,
    SampledCurve,
    _rk4_chunks,
    grid_points,
    integrate,
    max_deviation,
    verify,
)

# a power-of-two step: the windows below are exact multiples of it
H = 2.0 ** -10
# RK4 chunk rows for the chunk boundary tests, so that a window of a few
# chunks runs in milliseconds; above the kernel's _BLOCK and no multiple of
# it, so that a chunk ends inside a block
SMALL = 1500


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(oracle, "_RK4_CHUNK", SMALL)


def _reference_integrate(rhs, initial, cfg, check=True, sign=1.0):
    """The textbook per-component RK4 loop that `integrate` unrolls.

    With sign -1.0 it steps on the negated grid, as `_rk4_chunks` does for
    verify's backward run.  With check=False it runs on past an overflow
    instead of raising.
    """
    state = [float(w) for w in initial]
    m = len(state)
    grid = (sign * grid_points(cfg)).tolist()
    states = [tuple(state)]
    comp = [0.0] * m
    sixth = 1.0 / 6.0
    s_prev = grid[0]
    for s_next in grid[1:]:
        h = s_next - s_prev
        half = 0.5 * h
        st = tuple(state)
        k1 = rhs(st)
        k2 = rhs(tuple(w + half * k for w, k in zip(st, k1)))
        k3 = rhs(tuple(w + half * k for w, k in zip(st, k2)))
        k4 = rhs(tuple(w + h * k for w, k in zip(st, k3)))
        for j in range(m):
            inc = h * sixth * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]) - comp[j]
            t = state[j] + inc
            comp[j] = (t - state[j]) - inc
            state[j] = t
        total = 0.0
        for w in state:
            total += w
        if check and not math.isfinite(total) and any(not math.isfinite(w) for w in state):
            raise NonFiniteState(f"state became non-finite at s = {s_next}")
        states.append(tuple(state))
        s_prev = s_next
    return SampledCurve(grid=np.asarray(grid), states=np.asarray(states))


def evaluate(system):
    """The system's rows as a callable, each in full: a*x[k] + c, or the constant c."""
    def rhs(st):
        return tuple(row[0] if len(row) == 1 else row[0] * st[row[1]] + row[2] for row in system)
    return rhs


def _stepped(system, initial, cfg, sign):
    """`_rk4_chunks`'s whole run, on the grid it steps on, as one SampledCurve."""
    chunks = [SampledCurve(c.grid, c.states.copy())
              for c in _rk4_chunks(system, initial, cfg, sign)]
    return SampledCurve(np.concatenate([c.grid for c in chunks]),
                        np.concatenate([c.states for c in chunks]))


def assert_equals_reference(system, initial, cfg):
    """Forward and on the negated grid, the states equal the textbook loop's bit for bit."""
    for sign in (1.0, -1.0):
        got = (integrate(system, initial, cfg) if sign > 0.0
               else _stepped(system, initial, cfg, sign))
        want = _reference_integrate(evaluate(system), initial, cfg, sign=sign)
        assert got.grid.tobytes() == want.grid.tobytes()
        assert got.states.shape == want.states.shape
        assert got.states.tobytes() == want.states.tobytes()


# u' = u and w' = -w: u grows like e**s.  DECAY, its negation, grows alike on
# the negated grid s = -t, as verify's backward run steps it
GROWTH = ((1.0, 0, -0.0), (-1.0, 1, -0.0))
DECAY = ((-1.0, 0, -0.0), (1.0, 1, -0.0))


@st.composite
def affine_systems(draw):
    # a one-term row or a constant per component; a = 1.0 and signed zero
    # constants make the kernel's bare reads and its (a * x) form
    m = draw(st.integers(0, 6))
    coeff = st.floats(-2.0, 2.0)
    constant = st.one_of(st.sampled_from([0.0, -0.0]), coeff)
    row = st.one_of(st.tuples(constant), st.tuples(
        st.one_of(st.just(1.0), coeff), st.integers(0, max(m - 1, 0)), constant))
    system = tuple(draw(row) for _ in range(m))
    initial = [draw(st.floats(-10.0, 10.0)) for _ in range(m)]
    return system, initial


@st.composite
def short_last_step_windows(draw):
    # n full steps and a shorter last one, from a start of either sign
    s_start = draw(st.floats(-5.0, 5.0))
    length = draw(st.floats(0.05, 3.0))
    n = draw(st.integers(1, 120))
    step = length / (n + draw(st.floats(0.1, 0.9)))
    return IntegratorConfig(s_start, s_start + length, step)


@st.composite
def raw_systems(draw):
    # the package's own systems, over isotropic and helix fields
    coeff = st.floats(-2.0, 2.0)
    v1 = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1)))
    field = KillingField(v1, draw(coeff), draw(coeff))
    initial = [draw(coeff) for _ in range(4)]
    if draw(st.booleans()):
        return magnetic_system(field), initial
    accel = [draw(st.floats(0.1, 2.0)), draw(coeff)]
    return n_magnetic_system(field), initial + accel


def magnetic_initial(ic):
    return (ic.y0, ic.z0, ic.Y0, ic.Z0)


def nmagnetic_initial(ic):
    return (ic.y0, ic.z0, ic.Y0, ic.Z0, ic.T0, ic.U0)


def _raw_system(dim):
    """A helix of either mode, with the raw system that verify integrates."""
    if dim == 4:
        field, ic = KillingField(1.5, -0.3, 0.8), MagneticIC(1, 2, -1, 0.5)
        return solve_magnetic(field, ic), magnetic_system(field), magnetic_initial(ic)
    field, ic = KillingField(-2, 0.4, 1), NMagneticIC(0.5, -1, 0.8, 2, 0.3, -0.6)
    return solve_n_magnetic(field, ic), n_magnetic_system(field), nmagnetic_initial(ic)


class TestIntegratorConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 1.0, step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 1.0, step=-1e-3)
        for step in (math.inf, math.nan):  # an infinite step gave a grid of nan
            with pytest.raises(ValueError):
                IntegratorConfig(0.0, 1.0, step=step)

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

    @given(st.sampled_from([SMALL, oracle._RK4_CHUNK]), st.floats(-1e3, 1e3),
           st.floats(1e-3, 10.0), st.integers(1, 3), st.integers(-2, 1),
           st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)), st.booleans())
    # s_end one ulp below the last uniform point, which the count loop drops:
    # the short last step is then alone in the second chunk
    @example(oracle._RK4_CHUNK, -998.6787684184258, 4.0543521094107176, 1, 0, 0.0, True)
    # two full chunks, the last row exactly s_end
    @example(oracle._RK4_CHUNK, 0.0, H, 2, -1, 0.0, False)
    def test_chunk_grids_concatenate_to_grid_points(self, chunk, s_start, step, k, d, frac,
                                                    below):
        # k*chunk + d steps, then frac of one more, or an ulp less
        s_end = s_start + (k * chunk + d + frac) * step
        if below and math.nextafter(s_end, -math.inf) > s_start:
            s_end = math.nextafter(s_end, -math.inf)
        cfg = IntegratorConfig(s_start, s_end, step)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_RK4_CHUNK", chunk)
            grids = [c.grid for c in _rk4_chunks(((0.0,),), (0.0,), cfg)]
        assert all(len(grid) == chunk for grid in grids[:-1])
        assert 0 < len(grids[-1]) <= chunk
        assert np.concatenate(grids).tobytes() == grid_points(cfg).tobytes()

    def test_uniform_with_exact_endpoint(self):
        cfg = IntegratorConfig(0.0, 1.0, step=0.25)
        sampled = integrate(((0.0,),), (1.0,), cfg)
        assert sampled.grid[0] == 0.0
        assert sampled.grid[-1] == 1.0
        assert np.all(np.diff(sampled.grid) > 0)

    def test_short_final_step(self):
        cfg = IntegratorConfig(0.0, 1.0, step=0.3)
        sampled = integrate(((0.0,),), (1.0,), cfg)
        assert sampled.grid[-1] == 1.0
        diffs = np.diff(sampled.grid)
        assert np.all(diffs[:-1] == pytest.approx(0.3, abs=1e-15))
        assert diffs[-1] == pytest.approx(0.1, abs=1e-12)
        assert np.all(diffs > 0)

    def test_states_aligned_with_grid(self):
        cfg = IntegratorConfig(0.0, 2.0, step=0.5)
        sampled = integrate(((1.0,),), (0.0,), cfg)
        assert sampled.states.shape == (len(sampled.grid), 1)
        # u' = 1 integrates exactly: u(s) = s
        assert np.allclose(sampled.states[:, 0], sampled.grid, atol=1e-15)


def _derivative_deviation(closed, sampled):
    """Largest difference of the state's (y', z') and (y'', z'') columns from
    the closed form's first and second derivatives; nan if any is nan."""
    return float(np.max([
        np.abs(sampled.states[:, 2 * order:2 * order + 2]
               - closed.eval(sampled.grid, order)[:, 1:]).max()
        for order in (1, 2)
    ]))


class TestIntegrate:
    def test_exact_on_straight_lines(self):
        field = KillingField(0, 0, 0)
        ic = MagneticIC(1.0, 2.0, 3.0, 4.0)
        crv = solve_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, 1.0, step=1e-3)
        sampled = integrate(magnetic_system(field), magnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-12

    def test_quadratics_at_rounding_level(self):
        field = KillingField(0, 1, 1)
        ic = MagneticIC(1, 5, 4, 3)
        crv = solve_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, math.pi, step=1e-3)
        sampled = integrate(magnetic_system(field), magnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-10

    def test_helix_within_global_error_bound(self):
        field = KillingField(1, 0, 0)
        ic = MagneticIC(0, 0, 0, 1)
        crv = solve_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, 2 * math.pi, step=1e-3)
        sampled = integrate(magnetic_system(field), magnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-9

    def test_nmagnetic_quadratic_any_step(self):
        field = KillingField(0, 0, 0)
        ic = NMagneticIC(4, 3, 1, 1, 2, 1)
        crv = solve_n_magnetic(field, ic)
        for step in (0.5, 1e-2, 1e-3):
            cfg = IntegratorConfig(0.0, 5.0, step=step)
            sampled = integrate(n_magnetic_system(field), nmagnetic_initial(ic), cfg)
            assert max_deviation(crv, sampled) < 1e-11
            assert _derivative_deviation(crv, sampled) < 1e-11

    def test_nmagnetic_helix_full_state(self):
        field = KillingField(1.0, 0.4, -0.3)
        ic = NMagneticIC(0.2, -0.1, 1.0, 0.3, 0.5, 0.5)
        crv = solve_n_magnetic(field, ic)
        cfg = IntegratorConfig(0.0, 4 * math.pi, step=1e-3)
        sampled = integrate(n_magnetic_system(field), nmagnetic_initial(ic), cfg)
        assert max_deviation(crv, sampled) < 1e-9
        assert _derivative_deviation(crv, sampled) < 1e-9

    def test_step_halving_reduces_error_sixteenfold(self):
        field = KillingField(1, 0, 0)
        ic = MagneticIC(0, 0, 0, 1)
        crv = solve_magnetic(field, ic)
        devs = []
        for step in (1e-3, 5e-4):
            cfg = IntegratorConfig(0.0, 2 * math.pi, step=step)
            sampled = integrate(magnetic_system(field), magnetic_initial(ic), cfg)
            devs.append(max_deviation(crv, sampled))
        ratio = devs[0] / devs[1]
        assert 12.0 <= ratio <= 20.0

    def test_nonfinite_state_detected(self):
        # u' = 1000*u from a huge start overflows within a few steps
        cfg = IntegratorConfig(0.0, 1.0, step=0.1)
        with pytest.raises(NonFiniteState):
            integrate(((1e3, 0, -0.0),), (1e300,), cfg)

    @given(affine_systems(), short_last_step_windows())
    # (-1.0)*0.0 + 0.0 is 0.0, so the state -0.0 turns 0.0 on the first step;
    # without its + 0.0 the row would be -0.0 and the state stay -0.0
    @example((((-1.0, 1, 0.0), (0.0,)), [-0.0, 0.0]), IntegratorConfig(0.0, 1.0, 0.25))
    def test_bit_identical_to_reference_loop(self, system, cfg):
        assert_equals_reference(*system, cfg)

    @given(st.integers(1, 6), st.data())
    def test_nonfinite_at_reference_s(self, m, data):
        # one component grows like u' = a*u from a huge start, by over 10**3.9
        # a step, so it overflows within the window; the others decay
        big = data.draw(st.integers(0, m - 1))
        initial = [1.0] * m
        initial[big] = 10.0 ** data.draw(st.floats(5.0, 300.0))
        system = [(-1.0, j, -0.0) for j in range(m)]
        system[big] = (data.draw(st.floats(200.0, 1e4)), big, data.draw(st.floats(-2.0, 2.0)))
        cfg = IntegratorConfig(0.0, 10.0, step=0.1)
        with pytest.raises(NonFiniteState) as want:
            _reference_integrate(evaluate(system), initial, cfg)
        with pytest.raises(NonFiniteState) as got:
            integrate(system, initial, cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"s = {got.value.s}")

    @pytest.mark.parametrize("initial, n", [
        *(((sys.float_info.max / 6.0 * math.exp(-(n - 0.5) * 1e-3), 1.0), n)
          for n in (1023, 1024, 1025, 2048, 2049)),
        ((1.0, math.inf), 1), ((1.0, -math.inf), 1), ((1.0, math.nan), 1),
    ], ids=["1023", "1024", "1025", "2048", "2049", "inf", "-inf", "nan"])
    def test_overflow_at_reference_step(self, initial, n):
        # the weights 6*u overflow at step n, either side of the kernel's
        # 1024-step blocks; a non-finite initial value counts at the first step
        cfg = IntegratorConfig(0.0, 3.0, step=1e-3)
        with pytest.raises(NonFiniteState) as want:
            _reference_integrate(evaluate(GROWTH), initial, cfg)
        with pytest.raises(NonFiniteState) as got:
            integrate(GROWTH, initial, cfg)
        assert str(got.value) == str(want.value)
        assert got.value.s == grid_points(cfg)[n]

    @pytest.mark.parametrize("n", [SMALL - 1, SMALL, SMALL + 1, 2 * SMALL + 1, 3 * SMALL])
    def test_overflow_in_a_later_chunk_at_reference_step(self, small_chunks, n):
        # as above, at step n on either side of a chunk boundary
        initial = (sys.float_info.max / 6.0 * math.exp(-(n - 0.5) * 1e-3), 1.0)
        cfg = IntegratorConfig(0.0, 5.0, step=1e-3)
        with pytest.raises(NonFiniteState) as want:
            _reference_integrate(evaluate(GROWTH), initial, cfg)
        with pytest.raises(NonFiniteState) as got:
            integrate(GROWTH, initial, cfg)
        assert str(got.value) == str(want.value)
        assert got.value.s == grid_points(cfg)[n]

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("chunk, where", [
        (SMALL, "first"), (SMALL, "last"), (None, "first"), (None, "last"),
    ], ids=["small-first", "small-last", "full-first", "full-last"])
    def test_overflow_on_a_chunk_edge_at_reference_step(self, monkeypatch, chunk, where,
                                                       backward):
        # the only overflow check reads each chunk's last state: u grows
        # like e**|s| and overflows on the first or the last row of the
        # second chunk; backward, a system that decays on the negated grid
        chunk = chunk or oracle._RK4_CHUNK
        monkeypatch.setattr(oracle, "_RK4_CHUNK", chunk)
        n = chunk if where == "first" else 2 * chunk - 1
        initial = (sys.float_info.max / 6.0 * math.exp(-(n - 0.5) * 1e-3), 1.0)
        cfg = IntegratorConfig(0.0, (2 * chunk + 10) * 1e-3, step=1e-3)
        system, sign = (DECAY, -1.0) if backward else (GROWTH, 1.0)
        with pytest.raises(NonFiniteState) as want:
            _reference_integrate(evaluate(system), initial, cfg, sign=sign)
        with pytest.raises(NonFiniteState) as got:
            list(_rk4_chunks(system, initial, cfg, sign))
        assert str(got.value) == str(want.value)
        assert got.value.s == sign * grid_points(cfg)[n]

    @pytest.mark.parametrize("n", [1, 700, SMALL - 2])
    def test_overflow_that_turns_nan_later_in_the_chunk(self, small_chunks, n):
        # the Kahan compensation (inf - u) - inf of the step where u
        # overflows is nan, so u is nan from the next step on, while w stays
        # finite: the chunk ends on a nan, and its first non-finite row is
        # still the overflow's
        initial = (sys.float_info.max / 6.0 * math.exp(-(n - 0.5) * 1e-3), 1.0)
        cfg = IntegratorConfig(0.0, 2.0, step=1e-3)
        states = _reference_integrate(evaluate(GROWTH), initial, cfg, check=False).states
        assert states[n, 0] == math.inf and math.isnan(states[n + 1, 0])
        assert math.isnan(states[SMALL - 1, 0]) and np.isfinite(states[:, 1]).all()
        with pytest.raises(NonFiniteState) as want:
            _reference_integrate(evaluate(GROWTH), initial, cfg)
        with pytest.raises(NonFiniteState) as got:
            integrate(GROWTH, initial, cfg)
        assert str(got.value) == str(want.value)
        assert got.value.s == grid_points(cfg)[n]

    @pytest.mark.parametrize("system", [
        ((0.0,), (0.0,)),
        ((0.0, 1, -0.0), (-0.0, 0, -0.0)),
    ], ids=["state-free", "state-reading"])
    def test_finite_states_with_overflowing_sum(self, system):
        # the components stay finite while their sum, the reference loop's quick check, is inf
        cfg = IntegratorConfig(0.0, 3.0, step=1e-3)
        got = integrate(system, (1e308, 1e308), cfg)
        want = _reference_integrate(evaluate(system), (1e308, 1e308), cfg)
        assert np.array_equal(got.states, want.states)
        assert got.states[-1].tolist() == [1e308, 1e308]

    @given(raw_systems(), short_last_step_windows())
    def test_package_systems_bit_identical(self, system, cfg):
        assert_equals_reference(*system, cfg)

    @pytest.mark.parametrize("steps", [SMALL - 1, SMALL, SMALL + 1, 2 * SMALL + 0.5])
    @pytest.mark.parametrize("dim", [4, 6])
    def test_chunks_resume_bit_identical_to_reference_loop(self, small_chunks, steps, dim):
        # the kernel stops after each chunk and resumes from the state and
        # compensations it hands back; 2*SMALL + 0.5 ends in a short step
        _curve, system, initial = _raw_system(dim)
        assert_equals_reference(system, initial, IntegratorConfig(0.0, steps * H, H))

    def test_full_size_chunks_resume_bit_identical_to_reference_loop(self):
        _curve, system, initial = _raw_system(6)
        cfg = IntegratorConfig(0.0, (2 * oracle._RK4_CHUNK + 0.5) * H, H)
        want = _reference_integrate(evaluate(system), initial, cfg)
        assert integrate(system, initial, cfg).states.tobytes() == want.states.tobytes()

    @given(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
           st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
           st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), short_last_step_windows())
    def test_isotropic_magnetic_matches_state_reading_form(self, v2, v3, initial, cfg):
        # magnetic_system has the constants (v3, -v2) for v1 = 0; up to the
        # sign of a zero they equal the general form's v3 - 0*z' and 0*y' - v2
        def general(state):
            _y, _z, yd, zd = state
            return (yd, zd, v3 - 0.0 * zd, 0.0 * yd - v2)

        got = integrate(magnetic_system(KillingField(0.0, v2, v3)), initial, cfg)
        want = _reference_integrate(general, initial, cfg)
        assert np.array_equal(got.states, want.states)

    def test_rhs_arity_checked(self):
        cfg = IntegratorConfig(0.0, 1.0, step=0.1)
        with pytest.raises(ValueError, match="a 2-dim state needs 2 rows"):
            integrate(((1.0, 0, -0.0),), (1.0, 2.0), cfg)

    @pytest.mark.parametrize("k", [2, -1])
    def test_row_reading_outside_the_state_rejected(self, k):
        cfg = IntegratorConfig(0.0, 1.0, step=0.1)
        with pytest.raises(ValueError, match=r"2 rows, each reading x\[0\] to x\[1\]"):
            integrate(((1.0, k, -0.0), (0.0,)), (1.0, 2.0), cfg)

    def test_constraint_violation_stays_constant(self):
        # with v1 = 0 the third derivatives vanish, so an incompatible
        # acceleration pair keeps its exact violation along the trajectory
        field = KillingField(0, 1, 2)
        initial = (0.0, 0.0, 0.3, -0.7, 1.0, 1.0)
        cfg = IntegratorConfig(0.0, 3.0, step=1e-2)
        sampled = integrate(n_magnetic_system(field), initial, cfg)
        # v2*z'' - v3*y'', which must vanish for compatible data
        violation = field.v2 * sampled.states[:, 5] - field.v3 * sampled.states[:, 4]
        assert violation.tolist() == [-1.0] * len(sampled.grid)


class TestMaxDeviation:
    def _exact_samples(self, crv, grid):
        states = [[crv.y.eval(s, 0), crv.z.eval(s, 0), crv.y.eval(s, 1), crv.z.eval(s, 1)]
                  for s in grid]
        return SampledCurve(grid=np.asarray(grid), states=np.asarray(states))

    def test_identity_is_zero(self):
        crv = solve_magnetic(KillingField(1, 0.3, -0.2), MagneticIC(1, 2, 3, 4))
        grid = np.linspace(0, 5, 64)
        sampled = self._exact_samples(crv, grid)
        assert max_deviation(crv, sampled) == 0.0

    def test_derivative_mismatch_is_ignored(self):
        crv = solve_magnetic(KillingField(0, 0, 0), MagneticIC(0, 1, 0, 0))
        grid = np.linspace(0, 1, 11)
        sampled = self._exact_samples(crv, grid)
        sampled.states[:, 2] += 1e-3  # perturb y' only
        assert max_deviation(crv, sampled) == 0.0
        sampled.states[:, 0] += 1e-3  # and y
        assert max_deviation(crv, sampled) == pytest.approx(1e-3)

    def test_nan_gives_nan(self):
        # Python's max(0.0, 1e-3, nan) is 1e-3
        crv = solve_magnetic(KillingField(1, 0.3, -0.2), MagneticIC(1, 2, 3, 4))
        sampled = self._exact_samples(crv, np.linspace(0, 5, 64))
        sampled.states[-1, 2:] = math.nan  # velocities only
        assert max_deviation(crv, sampled) == 0.0
        sampled.states[-1] = math.nan
        assert math.isnan(max_deviation(crv, sampled))


def _unchunked_deviation(closed, sampled):
    """max_deviation's formula over the whole grid at once."""
    return float(np.abs(sampled.states[:, :2] - closed.eval(sampled.grid)[:, 1:]).max())


class TestMaxDeviationChunks:
    """max_deviation compares _CHUNK grid rows at a time; no result may show it."""

    CURVES = {
        4: solve_magnetic(KillingField(1, 0.5, 0.7), MagneticIC(1, 2, -1, 0.5)),
        6: solve_n_magnetic(KillingField(-2, 0.4, 1), NMagneticIC(0.5, -1, 0.8, 2, 0.3, -0.6)),
    }

    def _noisy_samples(self, dim, rows, seed, state="full"):
        # the exact states off by up to 1e-9, on a window of either sign: the
        # full dim-column RK4 state, or its "position" columns (y, z) alone
        grid = np.linspace(-1.5, 4.0, rows)
        orders = range(dim // 2) if state == "full" else (0,)
        exact = [self.CURVES[dim].eval(grid, order)[:, 1:] for order in orders]
        noise = np.random.default_rng(seed).uniform(-1e-9, 1e-9, (rows, dim))
        return SampledCurve(grid=grid, states=np.hstack(exact) + noise[:, :2 * len(orders)])

    @pytest.mark.parametrize("rows", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("dim", [4, 6])
    @pytest.mark.parametrize("state", ["position", "full"])
    def test_bit_equal_to_unchunked(self, rows, dim, state):
        crv = self.CURVES[dim]
        sampled = self._noisy_samples(dim, rows, seed=rows + dim, state=state)
        want = _unchunked_deviation(crv, sampled)
        assert max_deviation(crv, sampled) == want
        # the worst row on either side of each chunk boundary, and at both ends
        for row in sorted({0, _CHUNK - 1, _CHUNK, 2 * _CHUNK, rows - 1} & set(range(rows))):
            spiked = SampledCurve(sampled.grid, sampled.states.copy())
            spiked.states[row, row % 2] += 1e-6
            want = _unchunked_deviation(crv, spiked)
            assert want > 1e-7
            assert max_deviation(crv, spiked) == want

    @pytest.mark.parametrize("dim", [4, 6])
    def test_nan_in_a_middle_chunk_gives_nan(self, dim):
        crv = self.CURVES[dim]
        sampled = self._noisy_samples(dim, 2 * _CHUNK + 1, seed=dim)
        sampled.states[_CHUNK + 7, 2:] = math.nan  # derivatives only
        assert not math.isnan(max_deviation(crv, sampled))
        sampled.states[_CHUNK + 7, 1] = math.nan
        assert math.isnan(max_deviation(crv, sampled))


def _whole_window_samples(system, initial, s_start, s_end, step):
    """The rows verify compares, cut from whole-window runs: the forward run
    on [0, s_end] from s_start on, the backward run on the negated grid of
    [0, -s_start] from -s_end on."""
    samples = []
    if s_end > 0.0:
        sampled = integrate(system, initial, IntegratorConfig(0.0, s_end, step))
        first = int(np.searchsorted(sampled.grid, s_start))
        samples.append(SampledCurve(sampled.grid[first:], sampled.states[first:]))
    if s_start < 0.0:
        back = _stepped(system, initial, IntegratorConfig(0.0, -s_start, step), -1.0)
        first = int(np.searchsorted(-back.grid, -s_end))
        samples.append(SampledCurve(back.grid[first:], back.states[first:]))
    return samples


C = SMALL


class TestVerify:
    def test_deviation_equals_integrating_the_raw_system(self):
        for crv, system, initial in map(_raw_system, (4, 6)):
            cfg = IntegratorConfig(0.0, 3.0, 2e-3)
            expected = max_deviation(crv, integrate(system, initial, cfg))
            assert verify(crv, 0.0, 3.0, 2e-3)["deviation"] == expected

    @pytest.mark.parametrize("dim", [4, 6])
    def test_backward_runs_share_the_forward_kernel(self, dim):
        # the backward run steps the same system on the negated grid, so a
        # window below 0 generates no second kernel
        curve = _raw_system(dim)[0]
        oracle._rk4_kernel.cache_clear()
        verify(curve, 0.0, 1.0)
        assert oracle._rk4_kernel.cache_info().currsize == 1
        verify(curve, -1.0, 1.0)
        verify(curve, -1.0, -0.5)
        assert oracle._rk4_kernel.cache_info().currsize == 1

    def test_kernels_are_keyed_by_shape_not_by_value(self):
        # each family has one row shape at v1 = 0 and one elsewhere (a zero
        # v2 would drop a "+ c"), and one kernel serves every curve of a shape
        rng = np.random.default_rng(7)
        oracle._rk4_kernel.cache_clear()
        for i in range(40):
            v1 = 0.0 if i % 4 < 2 else rng.uniform(-3.0, 3.0)
            field = KillingField(v1, *rng.uniform(-2.0, 2.0, 2))
            y0, Y0, z0, Z0, lam = rng.uniform(-2.0, 2.0, 5)
            if i % 2:
                curve = solve_magnetic(field, MagneticIC(y0, Y0, z0, Z0))
            else:  # accelerations along (v2, v3), compatible at v1 = 0
                ic = NMagneticIC(y0, Y0, lam * field.v2, z0, Z0, lam * field.v3)
                curve = solve_n_magnetic(field, ic)
            verify(curve, -0.05, 0.05)
        assert oracle._rk4_kernel.cache_info().currsize <= 4

    # window ends in steps of H: forward runs of k*C - 1, k*C and k*C + 1 steps
    # and one ending in a short step; offset starts inside a later chunk, on
    # the first row of one and on the last row of the one before; backward and
    # straddling windows, with backward offsets on and off a chunk boundary
    @pytest.mark.parametrize("window", [
        (0, C - 1), (0, C), (0, C + 1), (0, 2 * C - 1), (0, 2 * C), (0, 2 * C + 1),
        (0, C + 0.5), (C + 100.5, 2 * C + 1), (C, 2 * C - 1), (C - 1, 2 * C),
        (-(C - 1), 0), (-C, 0), (-(2 * C + 1), 0), (-2 * C, -C), (-(2 * C + 1), -(C + 100.5)),
        (-(C + 1), C - 1), (-0.5, 2 * C + 1),
    ], ids=str)
    @pytest.mark.parametrize("dim", [4, 6])
    def test_chunked_deviation_equals_whole_window(self, small_chunks, window, dim,
                                                   monkeypatch):
        curve, system, initial = _raw_system(dim)
        s_start, s_end = window[0] * H, window[1] * H
        want = _whole_window_samples(system, initial, s_start, s_end, H)
        seen = []

        def recording(closed, sampled):
            seen.append(SampledCurve(sampled.grid.copy(), sampled.states.copy()))
            return max_deviation(closed, sampled)

        monkeypatch.setattr(oracle, "max_deviation", recording)
        deviation = verify(curve, s_start, s_end, H)["deviation"]
        assert deviation == float(np.max([max_deviation(curve, w) for w in want]))
        # the same rows, states and points of evaluation, chunk by chunk
        assert all(len(chunk.grid) <= C for chunk in seen)
        for attr in ("grid", "states"):
            got = np.concatenate([getattr(chunk, attr) for chunk in seen])
            assert got.tobytes() == np.concatenate([getattr(w, attr) for w in want]).tobytes()

    @pytest.mark.parametrize("step", [5e-4, 2e-4])
    @pytest.mark.parametrize("window", [(0.0, 4.0), (3.5, 4.0), (-4.0, 0.0), (-4.0, -3.5)])
    def test_overflow_in_a_later_chunk_at_integrates_s(self, small_chunks, window, step):
        # the constant acceleration 1e307 makes y's RK4 weights 6*y' overflow
        # near s = 3: row 5993 (fourth chunk) or 14982 (tenth)
        field = KillingField(0, 0, 1e307)
        curve = solve_magnetic(field, MagneticIC(0, 0, 0, 0))
        sign = -1.0 if window[0] < 0.0 else 1.0
        cfg = IntegratorConfig(0.0, 4.0, step)
        with pytest.raises(NonFiniteState) as want:
            list(_rk4_chunks(magnetic_system(field), (0.0, 0.0, 0.0, 0.0), cfg, sign))
        s = want.value.s
        assert sign * s >= grid_points(cfg)[C]
        with pytest.raises(NonFiniteState) as got:
            verify(curve, *window, step)
        assert got.value.s == s
        assert str(got.value) == f"state became non-finite at s = {s}"

    def test_metrics_in_report_order(self):
        helix = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
        parabola = solve_magnetic(KillingField(0, 1, 1), MagneticIC(1, 5, 4, 3))
        assert list(verify(helix, -1.0, 2.0)) == [
            "deviation", "residual", "curvature_spread", "helix_spread"]
        assert list(verify(parabola, -1.0, 2.0)) == ["deviation", "residual", "curvature_spread"]
        assert all(value < 1e-9 for value in verify(helix, -1.0, 2.0).values())

    def test_rejects_empty_window(self):
        crv = solve_magnetic(KillingField(1, 0, 0), MagneticIC(0, 0, 0, 1))
        with pytest.raises(ValueError):
            verify(crv, 1.0, 1.0)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    @pytest.mark.parametrize("window", ["0.0, 200.0", "-200.0, 0.0", "100.0, 200.0"])
    def test_long_window_memory_stays_near_its_states(self, window):
        # verify holds one RK4 chunk of states at a time, so its peak does not
        # grow with the window: the 200,000- and 400,000-step runs (the window
        # and its double) both grow it by less than 2 MB, where the longer
        # run's grid alone would take 3.2 MB and the shorter run's
        # six-component states 9.6 MB (0.25 MB measured).  The child reads
        # its own peak RSS (VmHWM, in kB): its ru_maxrss would start near this
        # process's, which Linux carries into a child across exec.
        script = f"""
from galmag.magnetic import KillingField, NMagneticIC, solve_n_magnetic
from galmag.oracle import verify
def peak():
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])
curve = solve_n_magnetic(KillingField(1, 0.5, 0.7), NMagneticIC(0, 0, 0.5, 0, 0, -0.6))
verify(curve, -20.0, 20.0)  # warm-up: imports, the generated kernels, full-size chunks
before = peak()
window = ({window})
verify(curve, *window)
print(peak() - before)
verify(curve, *(2 * s for s in window))
print(peak() - before)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        growth_kb = [int(line) for line in proc.stdout.split()]
        assert len(growth_kb) == 2
        assert max(growth_kb) < 2048, growth_kb
