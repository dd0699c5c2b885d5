"""Round-sphere model of the projective line.

Points live on the unit sphere S^2 in R^3; the plane chart is the
stereographic projection from the north pole (0,0,1), which is the chart's
point at infinity.  The pair potential is the chordal logarithmic kernel

    green(x, y) = -log ||x - y||,

and chordal and plane distances are tied by the exact identity

    ||x(z) - x(w)||^2 = 4 |z - w|^2 / ((1 + |z|^2)(1 + |w|^2)),

so the plane-chart integrands used elsewhere can always be rewritten in
bounded chordal quantities.  Configuration energy is the normalized pairwise
Green sum

    E(x_1..x_N) = (d_L / (N (N-1))) * sum_{i != j} green(x_i, x_j),

with d_L the anticanonical degree carried by the curve; divisor weights enter
through the reference measure, not through E.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CoincidenceError, ValidationError

__all__ = [
    "INFINITY",
    "PlaneCoord",
    "SpherePoint",
    "PointConfiguration",
    "stereo_to_sphere",
    "sphere_to_stereo",
    "chordal",
    "green",
    "config_energy",
    "sq_chord",
    "sample_uniform_array",
    "config_to_csv",
    "config_from_csv",
    "config_to_plane_json",
    "config_from_plane_json",
]

COINCIDENCE_TOL = 1e-14
_D2_FLOOR = 1e-300  # clamp of squared chordal distances in the pairwise kernel
_LOG_FLOOR = 0.5 * float(np.log(_D2_FLOOR))  # what the kernel returns for a clamped pair


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
    def vec(self) -> np.ndarray:
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


@dataclass(frozen=True)
class PointConfiguration:
    points: tuple[SpherePoint, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValidationError("a configuration needs at least 2 points")
        seen = set()
        for p in self.points:
            key = (p.x, p.y, p.z)
            if key in seen:
                raise ValidationError("bit-identical points in configuration")
            seen.add(key)

    def __len__(self):
        return len(self.points)

    @property
    def array(self) -> np.ndarray:
        return np.array([[p.x, p.y, p.z] for p in self.points])


def sq_chord(a, b) -> np.ndarray:
    """||a - b||^2 for component-major arrays a and b of shape (3, ...),
    broadcast against each other; b may also be a scalar such as 0.0.

    The squares are summed x + y + z, left to right: the order numpy's
    reduction over a 3-long axis takes.  So the result is bit-identical to
    np.sum((a - b) ** 2, axis=0), without the reduction's call overhead.
    The pair kernel, the importance draws' chords to marked points and the
    Metropolis sampler all take their squared chords from here."""
    d = a - b
    d *= d
    return d[0] + d[1] + d[2]


def pairwise_sq_chord(arr: np.ndarray) -> np.ndarray:
    """||x_i - x_j||^2 for i < j; arr has shape (..., N, 3) in any memory
    layout.  The result is one (N(N-1)/2, ...) buffer, pair axis first,
    filled row block by row block: block i holds sq_chord of point i against
    points i+1..N-1, read from the (3, N, ...) view of arr, so the Python
    loop runs N-1 times and no pair index is gathered."""
    n = arr.shape[-2]
    xyz = np.moveaxis(arr, (-1, -2), (0, 1))
    out = np.empty((n * (n - 1) // 2,) + arr.shape[:-2])
    k = 0
    for i in range(n - 1):
        out[k:k + n - 1 - i] = sq_chord(xyz[:, i:i + 1], xyz[:, i + 1:])
        k += n - 1 - i
    return out


def pairwise_log_chordal(arr: np.ndarray) -> np.ndarray:
    """log ||x_i - x_j|| for i < j along the last axis; arr has shape (..., N, 3)
    in any memory layout.  The squared distances of pairwise_sq_chord are
    clamped at _D2_FLOOR (so the result is always finite), then logged and
    halved in place.  The result is the (..., N(N-1)/2) view of that buffer:
    the pair axis stays outermost in memory, and a caller's sum over pairs
    adds in that order."""
    out = pairwise_sq_chord(arr)
    np.maximum(out, _D2_FLOOR, out=out)
    np.log(out, out=out)
    out *= 0.5
    return np.moveaxis(out, 0, -1)


def config_energy(c: PointConfiguration, curve) -> float:
    """Normalized pairwise Green energy; `curve` only contributes d_L.  A pair
    at or below the kernel's clamp (chordal distance <= 1e-150, including
    distances whose square underflows to 0) counts as coincident."""
    n = len(c)
    logs = pairwise_log_chordal(c.array)
    if np.any(logs <= _LOG_FLOOR):
        raise CoincidenceError("coincident points in configuration energy")
    # ordered sum = 2 * (sum over unordered pairs)
    return float(curve.d_L / (n * (n - 1)) * (-2.0) * np.sum(logs))


def _uniform_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z rows of n uniform points (z uniform on [-1, 1])."""
    t = rng.uniform(-1.0, 1.0, size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = t * t
    np.subtract(1.0, r, out=r)
    np.maximum(0.0, r, out=r)
    np.sqrt(r, out=r)
    x = np.cos(theta)
    x *= r
    np.sin(theta, out=theta)
    theta *= r
    return x, theta, t


def sample_uniform_array(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.stack(_uniform_rows(rng, n), axis=-1)


# ---------------------------------------------------------------------------
# serialization

def config_to_csv(c: PointConfiguration) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "z"])
    for p in c.points:
        writer.writerow([repr(p.x), repr(p.y), repr(p.z)])
    return buf.getvalue()


def config_from_csv(text: str) -> PointConfiguration:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [h.strip() for h in rows[0]] != ["x", "y", "z"]:
        raise ValidationError("configuration CSV must start with an x,y,z header")
    pts = []
    for row in rows[1:]:
        if not row:
            continue
        try:
            pts.append(SpherePoint.from_vec(row))
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"bad CSV row {row}: {exc}") from exc
    return PointConfiguration(tuple(pts))


def plane_coord_to_json(p: PlaneCoord):
    if p is INFINITY:
        return "INFINITY"
    z = complex(p)
    return [z.real, z.imag]


def plane_coord_from_json(obj) -> PlaneCoord:
    if obj == "INFINITY":
        return INFINITY
    try:
        re_, im = obj
        return complex(float(re_), float(im))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad plane coordinate {obj!r}") from exc


def config_to_plane_json(c: PointConfiguration) -> str:
    return json.dumps([plane_coord_to_json(sphere_to_stereo(p)) for p in c.points])


def config_from_plane_json(text: str) -> PointConfiguration:
    coords = json.loads(text)
    return PointConfiguration(tuple(stereo_to_sphere(plane_coord_from_json(o)) for o in coords))
