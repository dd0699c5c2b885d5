"""Configurations of points on the round sphere, as numpy arrays.

The points, the stereographic chart and the pair potential
green(x, y) = -log ||x - y|| are defined in `chart`, which needs no numpy;
they are re-exported here.  This module holds what works on many points at
once: configurations, the pairwise kernels, uniform sampling and the
configuration files.  Configuration energy is the normalized pairwise Green
sum

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

import numpy as np

from .chart import (
    INFINITY,
    PlaneCoord,
    SpherePoint,
    chordal,
    green,
    sphere_to_stereo,
    stereo_to_sphere,
)
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

_D2_FLOOR = 1e-300  # clamp of squared chordal distances in the pairwise kernel
_LOG_FLOOR = 0.5 * float(np.log(_D2_FLOOR))  # what the kernel returns for a clamped pair


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
