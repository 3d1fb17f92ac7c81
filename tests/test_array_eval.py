"""A point must evaluate to its row in a grid, bit for bit.

A float s runs through the array code as a 1-row array.  These tests hold
each point to its row in a grid that the CLI evaluates in one call,
comparing the bytes of the doubles (so even the sign of a zero, which the
output shows, must agree).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from galmag.errors import ZeroCurvature
from galmag.frenet import curvature, frenet_frame, torsion
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    helix_decomposition,
    lorentz_residual,
    n_magnetic_residual,
    solve_magnetic,
    solve_n_magnetic,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
signed = st.floats(0.1, 2).flatmap(lambda m: st.sampled_from([-m, m]))


@st.composite
def curves(draw):
    """Both modes over isotropic (v1 = 0) and helix (0.1 <= |v1| <= 2) fields."""
    v1 = draw(st.one_of(st.just(0.0), signed))
    v2, v3 = draw(signed), draw(signed)
    field = KillingField(v1, v2, v3)
    y0, yd, z0, zd = (draw(finite) for _ in range(4))
    if draw(st.booleans()):
        return solve_magnetic(field, MagneticIC(y0, yd, z0, zd))
    t = draw(signed)
    # v1 = 0 requires v2*U0 = v3*T0; a helix takes any nonzero (T0, U0).
    t0, u0 = (v2 * t, v3 * t) if v1 == 0.0 else (t, draw(finite))
    return solve_n_magnetic(field, NMagneticIC(y0, yd, t0, z0, zd, u0))


grids = st.builds(
    lambda s0, length, n: np.linspace(s0, s0 + length, n),
    st.floats(-20, 20),
    st.floats(0.1, 40),
    st.integers(2, 60),
)


def rows(vectors):
    return [v.as_tuple() for v in vectors]


def assert_bits_equal(array, expected):
    expected = np.asarray(expected, dtype=float)
    assert array.shape == expected.shape
    assert array.tobytes() == expected.tobytes()


@given(curves(), grids)
def test_curve_eval_matches_scalar(crv, grid):
    points = grid.tolist()
    for order in range(4):
        table = crv.eval(grid, order)
        assert_bits_equal(table, rows(crv.eval(s, order) for s in points))
        # y and z run crv.eval's code: their columns, and a float s at the ends
        for column, part in ((1, crv.y), (2, crv.z)):
            assert_bits_equal(part.eval(grid, order), table[:, column])
            ends = [part.eval(s, order) for s in (points[0], points[-1])]
            assert_bits_equal(table[[0, -1], column], ends)


@given(curves(), grids)
def test_residuals_and_helix_axis_match_scalar(crv, grid):
    points = grid.tolist()
    residual = lorentz_residual if isinstance(crv.ic, MagneticIC) else n_magnetic_residual
    assert_bits_equal(residual(crv, grid), [residual(crv, s) for s in points])
    if crv.case.is_helix:
        helix = helix_decomposition(crv)
        assert_bits_equal(helix.point(grid), rows(helix.point(s) for s in points))


@given(curves(), grids)
def test_frenet_data_match_scalar(crv, grid):
    points = grid.tolist()
    assert_bits_equal(curvature(crv, grid), [curvature(crv, s) for s in points])
    try:
        frames = [frenet_frame(crv, s) for s in points]
    except ZeroCurvature:
        with pytest.raises(ZeroCurvature):
            frenet_frame(crv, grid)
        return
    frame = frenet_frame(crv, grid)
    for name in ("T", "N", "B"):
        assert_bits_equal(getattr(frame, name), rows(getattr(f, name) for f in frames))
    assert_bits_equal(frame.kappa, [f.kappa for f in frames])
    assert_bits_equal(frame.tau, [f.tau for f in frames])
    assert_bits_equal(torsion(crv, grid), [f.tau for f in frames])
