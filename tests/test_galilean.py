import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from galmag.galilean import (
    ZERO,
    GVector3,
    cross,
    is_isotropic,
    norm,
    scalar_product,
)


def gvectors(max_mag=10.0):
    """Vectors whose first component is zero with elevated probability,
    so both branches of every operation get exercised."""
    comp = st.floats(-max_mag, max_mag, allow_nan=False, allow_infinity=False)
    first = st.one_of(st.just(0.0), comp)
    return st.builds(GVector3, first, comp, comp)


class TestClassify:
    """Isotropy classification through is_isotropic."""

    def test_nonisotropic(self):
        assert is_isotropic(GVector3(1, 2, 3)) is False

    def test_isotropic(self):
        assert is_isotropic(GVector3(0, 2, 3)) is True

    def test_zero_vector_is_isotropic(self):
        assert is_isotropic(GVector3(0, 0, 0)) is True
        assert is_isotropic(ZERO) is True

    @given(
        st.builds(
            GVector3,
            st.floats(min_value=1e-50, max_value=1e50),
            st.floats(-10, 10),
            st.floats(-10, 10),
        ),
        st.floats(min_value=1e-50, max_value=1e50),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_stable_under_nonzero_scaling(self, x, mag, sign):
        c = sign * mag
        assert is_isotropic(c * x) is is_isotropic(x) is False
        x_iso = GVector3(0.0, x.x2, x.x3)
        assert is_isotropic(c * x_iso) is is_isotropic(x_iso) is True


class TestScalarProduct:
    def test_nonisotropic_branch(self):
        assert scalar_product(GVector3(2, 5, 7), GVector3(3, 1, 1)) == 6.0

    def test_isotropic_branch(self):
        assert scalar_product(GVector3(0, 1, 2), GVector3(0, 3, 4)) == 11.0

    def test_mixed_uses_first_components(self):
        assert scalar_product(GVector3(0, 2, 3), GVector3(5, 1, 1)) == 0.0

    @given(gvectors())
    def test_norm_squared_is_self_product(self, x):
        n = norm(x)
        assert n * n == pytest.approx(scalar_product(x, x), abs=1e-12)

    @given(gvectors(), gvectors())
    def test_symmetric(self, x, y):
        assert scalar_product(x, y) == scalar_product(y, x)


class TestNorm:
    def test_nonisotropic(self):
        assert norm(GVector3(-3, 1, 2)) == 3.0

    def test_isotropic(self):
        assert norm(GVector3(0, 3, 4)) == 5.0

    def test_zero(self):
        assert norm(ZERO) == 0.0

    @given(gvectors())
    def test_nonnegative(self, x):
        assert norm(x) >= 0.0


class TestCross:
    def test_nonisotropic_branch(self):
        assert cross(GVector3(1, 0, 0), GVector3(0, 1, 0)) == GVector3(0, 0, 1)

    def test_isotropic_branch(self):
        assert cross(GVector3(0, 1, 0), GVector3(0, 0, 1)) == GVector3(1, 0, 0)

    def test_result_shape_per_branch(self):
        # either argument non-isotropic -> isotropic result
        out = cross(GVector3(2, 1, 5), GVector3(0, 3, 4))
        assert out.x1 == 0.0
        # both isotropic -> result on the absolute axis
        out = cross(GVector3(0, 1, 5), GVector3(0, 3, 4))
        assert (out.x2, out.x3) == (0.0, 0.0)

    @given(gvectors())
    def test_self_cross_vanishes(self, x):
        assert cross(x, x) == ZERO

    @given(gvectors(max_mag=1e100), gvectors(max_mag=1e100))
    def test_antisymmetry_is_exact(self, x, y):
        assert cross(x, y) == -cross(y, x)

    @given(gvectors(), gvectors())
    def test_orthogonality(self, x, y):
        c = cross(x, y)
        # components of c are sums of two products of the inputs
        scale = max(abs(v) for v in (*x.as_tuple(), *y.as_tuple(), 1.0))
        tol = 1e-14 * scale**3
        assert abs(scalar_product(c, x)) <= tol
        assert abs(scalar_product(c, y)) <= tol

    @given(
        gvectors(),
        gvectors(),
        st.builds(
            GVector3,
            st.floats(-10, 10).filter(lambda v: v != 0.0),
            st.floats(-10, 10),
            st.floats(-10, 10),
        ),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    def test_bilinearity_nonisotropic_branch(self, x, xp, y, a, b):
        # y1 != 0 pins every cross product here to the non-isotropic branch
        lhs = cross(a * x + b * xp, y)
        rhs = a * cross(x, y) + b * cross(xp, y)
        for l, r in zip(lhs.as_tuple(), rhs.as_tuple()):
            assert l == pytest.approx(r, abs=1e-10)

    @given(
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(-10, 10), st.floats(-10, 10),
    )
    def test_bilinearity_isotropic_branch(self, x2, x3, p2, p3, y2, y3, a, b):
        x = GVector3(0.0, x2, x3)
        xp = GVector3(0.0, p2, p3)
        y = GVector3(0.0, y2, y3)
        lhs = cross(a * x + b * xp, y)
        rhs = a * cross(x, y) + b * cross(xp, y)
        for l, r in zip(lhs.as_tuple(), rhs.as_tuple()):
            assert l == pytest.approx(r, abs=1e-10)


class TestVectorArithmetic:
    def test_add_sub_neg_scale(self):
        u = GVector3(1, 2, 3)
        v = GVector3(4, 5, 6)
        assert u + v == GVector3(5, 7, 9)
        assert v - u == GVector3(3, 3, 3)
        assert -u == GVector3(-1, -2, -3)
        assert 2 * u == GVector3(2, 4, 6)
        assert u * 2 == GVector3(2, 4, 6)
        assert u.as_tuple() == (1, 2, 3)

    def test_mixed_scalar_product_both_orders(self):
        # exactly one argument non-isotropic: product is x1*y1 = 0
        iso = GVector3(0.0, 2.0, 3.0)
        non = GVector3(5.0, 1.0, 1.0)
        assert scalar_product(iso, non) == 0.0
        assert scalar_product(non, iso) == 0.0

    def test_norm_uses_hypot(self):
        # no overflow in the isotropic norm for large components
        big = GVector3(0.0, 1e200, 1e200)
        assert norm(big) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)


class TestRowArrays:
    @given(st.lists(st.tuples(gvectors(), gvectors()), min_size=1, max_size=20))
    def test_rows_match_scalar_results_exactly(self, pairs):
        xs = np.array([x.as_tuple() for x, _ in pairs], dtype=float)
        ys = np.array([y.as_tuple() for _, y in pairs], dtype=float)
        norms = norm(xs)
        crosses = cross(xs, ys)
        assert crosses.shape == (len(pairs), 3)
        # compare bytes, so that the sign of a zero must agree as well
        for i, (x, y) in enumerate(pairs):
            assert norms[i:i + 1].tobytes() == np.float64(norm(x)).tobytes()
            assert crosses[i].tobytes() == np.array(cross(x, y).as_tuple()).tobytes()
            # a single vector against rows, as the Lorentz force uses it
            assert cross(x, ys)[i].tobytes() == np.array(cross(x, y).as_tuple()).tobytes()
