"""Points of the round sphere and the stereographic chart, without numpy.

Points live on the unit sphere S^2 in R^3; the plane chart is the
stereographic projection from the north pole (0,0,1), which is the chart's
point at infinity.  The pair potential is the chordal logarithmic kernel

    green(x, y) = -log ||x - y||,

and chordal and plane distances are tied by the exact identity

    ||x(z) - x(w)||^2 = 4 |z - w|^2 / ((1 + |z|^2)(1 + |w|^2)),

so the plane-chart integrands used elsewhere can always be rewritten in
bounded chordal quantities.

Everything here is plain float arithmetic, so `stability` places the
marked points of a curve, and the `zeta` and `stability` commands run,
without importing numpy; the array kernels over many points live in
`sphere`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import CoincidenceError, ValidationError

__all__ = [
    "COINCIDENCE_TOL",
    "INFINITY",
    "PlaneCoord",
    "SpherePoint",
    "stereo_to_sphere",
    "sphere_to_stereo",
    "chordal",
    "green",
]

COINCIDENCE_TOL = 1e-14


class _Infinity:
    """The distinguished point at infinity of the plane chart."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()
PlaneCoord = Union[complex, _Infinity]


@dataclass(frozen=True)
class SpherePoint:
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not math.isfinite(n) or n == 0.0:
            raise ValidationError(f"cannot normalize ({self.x}, {self.y}, {self.z})")
        if abs(n - 1.0) > 1e-12:
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)

    @property
    def vec(self):
        """The point as a numpy array of shape (3,)."""
        import numpy as np

        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_vec(cls, v) -> "SpherePoint":
        return cls(float(v[0]), float(v[1]), float(v[2]))


def stereo_to_sphere(p: PlaneCoord) -> SpherePoint:
    """Plane chart -> sphere; 0 maps to the south pole, INFINITY to the north."""
    if p is INFINITY:
        return SpherePoint(0.0, 0.0, 1.0)
    z = complex(p)
    denom = 1.0 + z.real * z.real + z.imag * z.imag
    if math.isinf(denom):
        return SpherePoint(0.0, 0.0, 1.0)
    return SpherePoint(2.0 * z.real / denom, 2.0 * z.imag / denom, (denom - 2.0) / denom)


def sphere_to_stereo(x: SpherePoint) -> PlaneCoord:
    """Inverse chart.  Uses (1+x3)/(x1^2+x2^2) near the north pole, where the
    naive 1/(1-x3) form has already lost the digits to cancellation."""
    if x.z >= 1.0:
        return INFINITY
    if x.z <= 0.0:
        return complex(x.x, x.y) / (1.0 - x.z)
    r2 = x.x * x.x + x.y * x.y
    if r2 == 0.0:
        return INFINITY
    return complex(x.x, x.y) * ((1.0 + x.z) / r2)


def chordal(x: SpherePoint, y: SpherePoint) -> float:
    """Euclidean distance through the ball, in [0, 2]."""
    d = math.sqrt((x.x - y.x) ** 2 + (x.y - y.y) ** 2 + (x.z - y.z) ** 2)
    return min(d, 2.0)


def green(x: SpherePoint, y: SpherePoint) -> float:
    d = chordal(x, y)
    if d < COINCIDENCE_TOL:
        raise CoincidenceError(f"green evaluated at chordal distance {d:.3e}")
    return -math.log(d)
