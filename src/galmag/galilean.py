"""Vector algebra of the Galilean 3-space.

The first coordinate is measured along the absolute direction; the other
two span the Euclidean yz-plane.  A vector is *non-isotropic* when its
first component is nonzero and *isotropic* otherwise, and the scalar
product, norm and cross product all branch on that distinction.

Branch selection uses exact ``== 0`` comparisons on the stored doubles,
never an epsilon: the case split of the geometry is exact, and snapping
near-zero components would silently move the case boundaries of the
trajectory classification built on top of this module.

`norm` and `cross` also take (n, 3) arrays of row vectors, classify each row
on its own and match the GVector3 results row by row, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GVector3",
    "ZERO",
    "is_isotropic",
    "scalar_product",
    "norm",
    "cross",
]


@dataclass(frozen=True)
class GVector3:
    """A vector (x1, x2, x3); isotropic iff x1 == 0."""

    x1: float
    x2: float
    x3: float

    def __add__(self, other: "GVector3") -> "GVector3":
        return GVector3(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "GVector3") -> "GVector3":
        return GVector3(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, a: float) -> "GVector3":
        return GVector3(a * self.x1, a * self.x2, a * self.x3)

    __rmul__ = __mul__

    def __neg__(self) -> "GVector3":
        return GVector3(-self.x1, -self.x2, -self.x3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


ZERO = GVector3(0.0, 0.0, 0.0)


def _components(x):
    """(x1, x2, x3) of a GVector3, or the three columns of (n, 3) rows."""
    return x.as_tuple() if isinstance(x, GVector3) else tuple(x.T)


def _vector(x1, x2, x3):
    """A GVector3, or (n, 3) rows when any component is an array."""
    if any(isinstance(c, np.ndarray) for c in (x1, x2, x3)):
        return np.column_stack(np.broadcast_arrays(x1, x2, x3))
    return GVector3(x1, x2, x3)


def _select(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _hypot(a, b):
    # np.hypot can differ from math.hypot in the last ulp, so arrays map
    # math.hypot to keep them equal to the scalar results.
    if isinstance(a, np.ndarray):
        return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), float, len(a))
    return math.hypot(a, b)


def is_isotropic(x: GVector3) -> bool:
    """True iff x1 == 0; the zero vector counts as isotropic."""
    return x.x1 == 0.0


def scalar_product(x: GVector3, y: GVector3) -> float:
    """Galilean scalar product: x1*y1 unless both arguments are isotropic."""
    if x.x1 != 0.0 or y.x1 != 0.0:
        return x.x1 * y.x1
    return x.x2 * y.x2 + x.x3 * y.x3


def norm(x):
    """|x1| for non-isotropic vectors, the Euclidean yz-norm otherwise."""
    x1, x2, x3 = _components(x)
    return _select(x1 != 0.0, abs(x1), _hypot(x2, x3))


def cross(x, y):
    """Galilean cross product.

    When either argument is non-isotropic the result is the isotropic
    vector (0, -(x1*y3 - x3*y1), x1*y2 - x2*y1); when both are isotropic
    the result lies on the absolute axis, (x2*y3 - x3*y2, 0, 0).
    """
    x1, x2, x3 = _components(x)
    y1, y2, y3 = _components(y)
    mixed = (x1 != 0.0) | (y1 != 0.0)
    return _vector(
        _select(mixed, 0.0, x2 * y3 - x3 * y2),
        _select(mixed, -(x1 * y3 - x3 * y1), 0.0),
        _select(mixed, x1 * y2 - x2 * y1, 0.0),
    )
