"""Vector algebra of the Galilean 3-space.

The first coordinate is measured along the absolute direction; the other
two span the Euclidean yz-plane.  A vector is *non-isotropic* when its
first component is nonzero and *isotropic* otherwise, and the scalar
product, norm and cross product all branch on that distinction.

Branch selection uses exact ``== 0`` comparisons on the stored doubles,
never an epsilon: the case split of the geometry is exact, and snapping
near-zero components would silently move the case boundaries of the
trajectory classification built on top of this module.

`norm` and `cross` compute on (n, 3) arrays of row vectors, classifying each
row on its own; a GVector3 goes through the same code as one row.
"""

from __future__ import annotations

import functools
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


def _point(value):
    """A 1-row result as a Python float, a GVector3, or a dataclass of those."""
    if not hasattr(value, "ndim"):  # a dataclass of rows, such as a FrenetFrame
        return type(value)(*map(_point, vars(value).values()))
    row = value[0].tolist()
    return GVector3(*row) if value.ndim == 2 else row


def _pointwise(fn):
    """Let fn(obj, s, ...), written for a 1-D array s, take a float s as well:
    it runs as a 1-row array, so a point and a grid share every operation."""
    @functools.wraps(fn)
    def wrapper(obj, s, *args, **kwargs):
        if getattr(s, "ndim", 0):  # 0 for a float or a NumPy scalar
            return fn(obj, s, *args, **kwargs)
        return _point(fn(obj, np.array([s], dtype=float), *args, **kwargs))
    return wrapper


def _columns(x):
    """The three columns of (n, 3) rows; a GVector3 is one row."""
    return tuple((np.array([x.as_tuple()], dtype=float) if isinstance(x, GVector3) else x).T)


def _vector(x1, x2, x3):
    """(n, 3) rows from the columns x1, x2 and x3; x1 may be one float for every row."""
    out = np.empty((len(x2), 3))
    out[:, 0], out[:, 1], out[:, 2] = x1, x2, x3
    return out


def _hypot(a, b):
    # np.hypot can differ from math.hypot in the last ulp: the output keeps math's
    return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), float, len(a))


def is_isotropic(x: GVector3) -> bool:
    """True iff x1 == 0; the zero vector counts as isotropic."""
    return x.x1 == 0.0


def scalar_product(x: GVector3, y: GVector3) -> float:
    """Galilean scalar product: x1*y1 unless both arguments are isotropic."""
    if x.x1 != 0.0 or y.x1 != 0.0:
        return x.x1 * y.x1
    return x.x2 * y.x2 + x.x3 * y.x3


def norm(x):
    """|x1| for non-isotropic vectors, the Euclidean yz-norm otherwise, row by row."""
    x1, x2, x3 = _columns(x)
    out = np.where(x1 != 0.0, np.abs(x1), _hypot(x2, x3))
    return _point(out) if isinstance(x, GVector3) else out


def cross(x, y):
    """Galilean cross product.

    When either argument is non-isotropic the result is the isotropic
    vector (0, -(x1*y3 - x3*y1), x1*y2 - x2*y1); when both are isotropic
    the result lies on the absolute axis, (x2*y3 - x3*y2, 0, 0).  Each
    argument is a GVector3 or (n, 3) rows; two GVector3 give a GVector3.
    """
    x1, x2, x3 = _columns(x)
    y1, y2, y3 = _columns(y)
    mixed = (x1 != 0.0) | (y1 != 0.0)
    out = _vector(
        np.where(mixed, 0.0, x2 * y3 - x3 * y2),
        np.where(mixed, -(x1 * y3 - x3 * y1), 0.0),
        np.where(mixed, x1 * y2 - x2 * y1, 0.0),
    )
    return _point(out) if isinstance(x, GVector3) and isinstance(y, GVector3) else out
