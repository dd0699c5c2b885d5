"""Chart, kernel, and energy checks for the sphere model.

Hand-derived pins used below:
  * plane/chordal identity: ||x(z)-x(w)||^2 (1+|z|^2)(1+|w|^2) = 4 |z-w|^2
  * mean of green against the uniform measure = -(log 2 - 1/2)
  * E(antipodal pair, d_L=2) = -2 log 2
  * E(equilateral triple on a great circle) = -d_L log sqrt(3)
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kezeta.errors import CoincidenceError, ValidationError
from kezeta.sphere import (
    INFINITY,
    PointConfiguration,
    SpherePoint,
    chordal,
    config_energy,
    config_from_csv,
    config_from_plane_json,
    config_to_csv,
    config_to_plane_json,
    green,
    pairwise_log_chordal,
    sq_chord,
    sample_uniform_array,
    sphere_to_stereo,
    stereo_to_sphere,
)


class _Curve:
    d_L = 2.0


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(finite_coord, finite_coord)
def test_round_trip_plane_sphere_plane(re_, im):
    z = complex(re_, im)
    back = sphere_to_stereo(stereo_to_sphere(z))
    assert back is not INFINITY
    assert abs(back - z) <= 1e-12 * max(1.0, abs(z))


def test_round_trip_at_infinity_and_poles():
    assert sphere_to_stereo(stereo_to_sphere(INFINITY)) is INFINITY
    assert stereo_to_sphere(0.0).z == -1.0
    assert stereo_to_sphere(INFINITY).z == 1.0
    # |z| well beyond the guaranteed window should still behave
    big = sphere_to_stereo(stereo_to_sphere(1e8 + 0j))
    assert abs(big - 1e8) <= 1e-4 * 1e8


@given(finite_coord, finite_coord, finite_coord, finite_coord)
def test_chordal_plane_identity(re1, im1, re2, im2):
    z, w = complex(re1, im1), complex(re2, im2)
    x, y = stereo_to_sphere(z), stereo_to_sphere(w)
    lhs = chordal(x, y) ** 2 * (1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2)
    rhs = 4.0 * abs(z - w) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_rotation_invariance_of_kernel():
    rng = np.random.default_rng(7)
    pts = sample_uniform_array(rng, 12)
    for _ in range(5):
        rot = random_rotation(rng)
        rotated = pts @ rot.T
        a, b = pts[::2], pts[1::2]
        ra, rb = rotated[::2], rotated[1::2]
        for u, v, ru, rv in zip(a, b, ra, rb):
            d0 = chordal(SpherePoint.from_vec(u), SpherePoint.from_vec(v))
            d1 = chordal(SpherePoint.from_vec(ru), SpherePoint.from_vec(rv))
            assert d1 == pytest.approx(d0, abs=1e-12)


def test_green_coincidence_guard():
    p = SpherePoint(0.3, 0.4, math.sqrt(1 - 0.25))
    with pytest.raises(CoincidenceError):
        green(p, p)


def test_green_mean_against_uniform():
    # E_y[green(x, y)] = -(1/4) * int_-1^1 log(2 - 2t) dt = -(log 2 - 1/2),
    # checked against tanh-sinh quadrature which eats the endpoint log.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    quad = -mp.quad(lambda t: mp.log(2 - 2 * t), [-1, 1]) / 4
    closed = -(math.log(2.0) - 0.5)
    assert abs(float(quad) - closed) < 1e-12


def test_config_energy_antipodal_pair():
    c = PointConfiguration((SpherePoint(0, 0, 1.0), SpherePoint(0, 0, -1.0)))
    assert config_energy(c, _Curve()) == pytest.approx(-2.0 * math.log(2.0), abs=1e-13)


def test_config_energy_equilateral_triple():
    ang = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    c = PointConfiguration(tuple(SpherePoint(math.cos(a), math.sin(a), 0.0) for a in ang))
    # side sqrt(3), so E = d_L/(3*2) * 6 * (-log sqrt 3)
    assert config_energy(c, _Curve()) == pytest.approx(-2.0 * math.log(math.sqrt(3.0)), abs=1e-13)


def test_config_energy_rejects_pair_whose_distance_underflows():
    # distinct points, but the squared chordal distance 1e-340 underflows to 0
    c = PointConfiguration((SpherePoint(1.0, 0.0, 0.0), SpherePoint(1.0, 1e-170, 0.0)))
    with pytest.raises(CoincidenceError):
        config_energy(c, _Curve())


def _config(arr):
    return PointConfiguration(tuple(SpherePoint.from_vec(r) for r in arr))


def test_config_energy_rotation_invariant():
    rng = np.random.default_rng(11)
    arr = sample_uniform_array(rng, 6)
    c0 = _config(arr)
    c1 = _config(arr @ random_rotation(rng).T)
    assert config_energy(c1, _Curve()) == pytest.approx(config_energy(c0, _Curve()), abs=1e-11)


def test_pairwise_log_chordal_matches_scalar():
    rng = np.random.default_rng(3)
    arr = sample_uniform_array(rng, 5)
    logs = pairwise_log_chordal(arr)
    k = 0
    for i in range(5):
        for j in range(i + 1, 5):
            d = chordal(SpherePoint.from_vec(arr[i]), SpherePoint.from_vec(arr[j]))
            assert logs[k] == pytest.approx(math.log(d), abs=1e-12)
            k += 1


def test_pairwise_log_chordal_layouts_match_dense_reference():
    # the kernel fills the upper-triangle pairs row block by row block; the
    # reference is the dense (..., N, N, 3) difference summed over its last axis
    def dense(arr):
        diff = arr[..., :, None, :] - arr[..., None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        iu = np.triu_indices(arr.shape[-2], k=1)
        return 0.5 * np.log(np.maximum(d2[..., iu[0], iu[1]], 1e-300))

    rng = np.random.default_rng(17)
    for shape in [(40, 8, 3), (5, 16, 3), (3, 2, 4, 3), (6, 3), (1, 3), (2, 3), (300, 3)]:
        rows = sample_uniform_array(rng, math.prod(shape[:-1])).reshape(shape)
        if shape[-2] > 1:
            rows[(0,) * (len(shape) - 2) + (1,)] = rows[(0,) * (len(shape) - 1)]  # a coincident pair: the clamp
        buf = np.ascontiguousarray(np.moveaxis(rows, -1, 0))  # component-major (3, ..., N)
        want = dense(rows)
        assert want.shape == shape[:-2] + (shape[-2] * (shape[-2] - 1) // 2,)
        if want.size:
            assert want.min() == 0.5 * math.log(1e-300)
        for arr in (rows, np.moveaxis(buf, 0, -1)):
            got = pairwise_log_chordal(arr)
            assert np.array_equal(got, want)
            # callers sum over the pairs; same layout, same addition order
            assert np.array_equal(np.sum(got, axis=-1), np.sum(want, axis=-1))


def test_pairwise_log_chordal_allocates_no_gather():
    # one output buffer plus one row block's temporaries; an index gather of
    # both pair ends (with their differences) peaks near ten times the output
    rng = np.random.default_rng(23)
    buf = np.ascontiguousarray(sample_uniform_array(rng, 20_000 * 8).T).reshape(3, 20_000, 8)
    for arr in (np.moveaxis(buf, 0, -1), np.ascontiguousarray(np.moveaxis(buf, 0, -1))):
        tracemalloc.start()
        try:
            got = pairwise_log_chordal(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (20_000, 28)
        assert peak <= 4 * got.nbytes, peak / got.nbytes


def test_sq_chord_matches_numpy_sum_bitwise_under_broadcasting():
    # the one squared-chord helper must give np.sum's bits over the component
    # axis, for a scalar origin and for (3, lanes, 1) against (3, 1, M)
    rng = np.random.default_rng(5)
    a = np.ascontiguousarray(sample_uniform_array(rng, 7 * 5).T).reshape(3, 7, 5)
    b = np.ascontiguousarray(sample_uniform_array(rng, 4).T).reshape(3, 1, 4)
    assert np.array_equal(sq_chord(a, 0.0), np.sum((a - 0.0) ** 2, axis=0))
    cols = a[:, :, :1]  # (3, lanes, 1)
    got = sq_chord(cols, b)
    assert got.shape == (7, 4)
    assert np.array_equal(got, np.sum((cols - b) ** 2, axis=0))
    # strided operands (a column of a component-major buffer) give the same bits
    assert np.array_equal(sq_chord(a[:, :, 2:3], b), np.sum((a[:, :, 2:3] - b) ** 2, axis=0))


def test_uniform_sampler_axial_moments():
    rng = np.random.default_rng(2024)
    arr = sample_uniform_array(rng, 200_000)
    assert np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) < 1e-12
    t = arr[:, 2]
    # t is uniform on [-1,1]: mean 0 (se ~ 1.3e-3), second moment 1/3
    assert abs(t.mean()) < 5e-3
    assert abs((t * t).mean() - 1.0 / 3.0) < 5e-3


def test_configuration_rejects_duplicates_and_singletons():
    p = SpherePoint(0, 0, 1.0)
    q = SpherePoint(1.0, 0, 0)
    with pytest.raises(ValidationError):
        PointConfiguration((p, SpherePoint(0, 0, 1.0)))
    with pytest.raises(ValidationError):
        PointConfiguration((q,))


def test_csv_round_trip():
    rng = np.random.default_rng(5)
    c = _config(sample_uniform_array(rng, 4))
    back = config_from_csv(config_to_csv(c))
    assert np.allclose(back.array, c.array, atol=0)  # repr() round-trips floats exactly


def test_csv_rejects_garbage():
    with pytest.raises(ValidationError):
        config_from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        config_from_csv("x,y,z\n1,oops,0\n")


def test_plane_json_round_trip_includes_infinity():
    pts = (SpherePoint(0, 0, 1.0), SpherePoint(0, 0, -1.0), stereo_to_sphere(2.5 + 1.0j))
    c = PointConfiguration(pts)
    text = config_to_plane_json(c)
    assert "INFINITY" in text
    back = config_from_plane_json(text)
    assert np.allclose(back.array, c.array, atol=1e-12)
    with pytest.raises(ValidationError):
        config_from_plane_json(json.dumps([[0.0, 0.0], "nope"]))


@settings(max_examples=30)
@given(st.lists(st.tuples(finite_coord, finite_coord), min_size=2, max_size=6, unique=True))
def test_plane_json_round_trip_generic(coords):
    pts = tuple(stereo_to_sphere(complex(a, b)) for a, b in coords)
    try:
        c = PointConfiguration(pts)
    except ValidationError:
        return  # distinct plane coords can still collide on the sphere at float precision
    back = config_from_plane_json(config_to_plane_json(c))
    assert np.allclose(back.array, c.array, atol=1e-12)
