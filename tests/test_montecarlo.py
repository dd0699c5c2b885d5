"""Monte Carlo estimator tests: exact pins, closed-form agreement, determinism.

Everything stochastic runs with a pinned seed, so the "within k SE" checks are
deterministic replays of runs that were verified once; they don't flake.
"""

import json
import math
import os
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kezeta.closedforms import gaussian_det_Z, p1_three_point_Z
from kezeta.errors import StabilityError, ThresholdError, ValidationError
from kezeta import montecarlo
from kezeta.gammaprod import eval_gamma_product
from kezeta.montecarlo import (
    McEstimate,
    ProposalMixture,
    _draw_log_weights,
    _hill_tail_index,
    _log_abs_det_sq,
    free_energy_curve,
    mc_circular,
    mc_gaussian_det,
    mc_gaussian_det_ratio,
    mc_selberg,
    mc_sphere_partition,
)
from kezeta.stability import LogFanoCurve

TRIVIAL = LogFanoCurve.standard(())
SELBERG_HALF_3 = 5904.80443225  # frozen in test_closedforms, mpmath dps=30


def _dev(est, target):
    return abs(est.mean - target) / est.std_error


# ---------------------------------------------------------------------------
# exact pins (zero-variance cases)

def test_circular_beta_zero_is_exact_volume():
    est = mc_circular(4, 0.0, 1000, seed=0)
    assert est.mean == pytest.approx((2 * math.pi) ** 4, rel=1e-13)
    assert est.std_error == 0.0
    assert est.diagnostics["warnings"] == []


def test_gaussian_det_s_zero_is_exact_volume():
    est = mc_gaussian_det(1, 0.0, 1000, seed=0)
    assert est.mean == pytest.approx(math.pi**4, rel=1e-13)
    assert est.std_error == 0.0


def test_sphere_partition_beta_zero_is_exactly_one():
    # self-normalized ratio: numerator and denominator weights coincide
    est = mc_sphere_partition(TRIVIAL, 0.0, 3, 1000, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_sphere_partition_refuses_a_curve_that_is_not_log_fano():
    # the reference measure c^-2.1 cannot be normalised, whatever beta
    with pytest.raises(StabilityError):
        mc_sphere_partition(LogFanoCurve.standard((1.05,)), 1.0, 3, 1000)


def test_sphere_partition_refuses_beyond_the_free_collision_bound():
    # w = -1/2 at N = 2: the pair integral of c^-2.5 diverges at beta = -1/2
    with pytest.raises(ThresholdError):
        mc_sphere_partition(LogFanoCurve.standard((Fraction(-1, 2),)), -0.5, 2, 1000)


# ---------------------------------------------------------------------------
# closed-form agreement at pinned seeds

def test_selberg_matches_gamma_product():
    est = mc_selberg((0.5, 0.5, 0.5), 3, 200_000, seed=7)
    assert est.n_samples == 200_000
    assert _dev(est, SELBERG_HALF_3) < 3.0


def test_selberg_explicit_uniform_proposal_still_consistent(monkeypatch):
    # a deliberately naive proposal: heavier tails (flagged) but consistent
    uniform = ProposalMixture((), ())
    monkeypatch.setattr(ProposalMixture, "cluster_safe", lambda weights: uniform)
    est = mc_selberg((0.5, 0.5, 0.5), 2, 50_000, seed=11)
    assert _dev(est, 378.145440258) < 4.0
    assert any("tail" in w for w in est.diagnostics["warnings"])


def test_circular_pins():
    est = mc_circular(3, 1.0, 200_000, seed=7)
    assert _dev(est, 48 * math.pi**2) < 3.0
    est = mc_circular(5, 2.0, 200_000, seed=7)
    assert _dev(est, 1920 * math.pi**3) < 3.0


def test_gaussian_det_matches_gamma_product():
    target = eval_gamma_product(gaussian_det_Z(1), {"s": 1}).value.real
    est = mc_gaussian_det(1, 1.0, 200_000, seed=7)
    assert _dev(est, target) < 3.0


def test_gaussian_det_ratio_bernstein_pins():
    # Z(s+1)/Z(s) = prod_j (s+j): 1*2 = 2 at s=0, 1.5*2.5 = 3.75 at s=0.5
    est = mc_gaussian_det_ratio(1, 0.0, 200_000, seed=7)
    assert _dev(est, 2.0) < 3.0
    est = mc_gaussian_det_ratio(1, 0.5, 200_000, seed=7)
    assert _dev(est, 3.75) < 3.0


def test_sphere_partition_matches_three_point_formula():
    # trivial curve, N = 3, d_L = 2: Z_sphere(beta) = 2^(6 beta) Z_plane / pi^3
    gp = p1_three_point_Z()
    for beta in (-0.2, 0.5):
        target = 2.0 ** (6 * beta) * eval_gamma_product(gp, {"beta": beta}).value.real / math.pi**3
        est = mc_sphere_partition(TRIVIAL, beta, 3, 200_000, seed=7)
        assert _dev(est, target) < 3.0, (beta, est.mean, target)


def test_sphere_partition_near_threshold_flags_heavy_tail():
    # beta just above -gamma_4 = -3/4: mean stays finite but the importance
    # weights are in the infinite-variance regime and must be flagged
    est = mc_sphere_partition(TRIVIAL, -0.74, 4, 200_000, seed=7)
    assert math.isfinite(est.mean) and est.mean > 0
    assert est.diagnostics["tail_index_estimate"] <= 2.0
    assert any("tail" in w for w in est.diagnostics["warnings"])


# ---------------------------------------------------------------------------
# determinism and worker splitting

def test_bit_for_bit_reproducible():
    a = mc_selberg((0.5, 0.5, 0.5), 3, 20_000, seed=42, workers=3)
    b = mc_selberg((0.5, 0.5, 0.5), 3, 20_000, seed=42, workers=3)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert a.diagnostics["batch_means_variance"] == b.diagnostics["batch_means_variance"]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 5))
def test_circular_reproducible_for_any_seed(seed, workers):
    a = mc_circular(3, 0.5, 600, seed=seed, workers=workers)
    b = mc_circular(3, 0.5, 600, seed=seed, workers=workers)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert a.n_samples == 600 and a.worker_count == workers


def test_worker_count_changes_stream_but_not_answer():
    e1 = mc_circular(3, 1.0, 100_000, seed=3, workers=1)
    e4 = mc_circular(3, 1.0, 100_000, seed=3, workers=4)
    assert e1.mean != e4.mean  # different substreams
    comb = math.hypot(e1.std_error, e4.std_error)
    assert abs(e1.mean - e4.mean) < 4.0 * comb
    s1 = mc_selberg((0.5, 0.5, 0.5), 3, 100_000, seed=3, workers=1)
    s4 = mc_selberg((0.5, 0.5, 0.5), 3, 100_000, seed=3, workers=4)
    assert abs(s1.mean - s4.mean) < 4.0 * math.hypot(s1.std_error, s4.std_error)


def _reference_weights(mix):
    """The mixture weights: 1 - 0.1 M for the uniform component, then 0.1
    for each of the M radial ones."""
    m = len(mix.points)
    return [1.0 - 0.1 * m] + [0.1] * m


def _reference_sample(mix, rng, n):
    """ProposalMixture.sample written row-major: each component fills its
    rows of an (n, 3) array at once, the uniform one first."""
    from kezeta.montecarlo import _orthonormal_frame

    which = rng.choice(len(mix.points) + 1, size=n, p=np.array(_reference_weights(mix)))
    out = np.empty((n, 3))
    idx = np.nonzero(which == 0)[0]
    if idx.size:
        t = rng.uniform(-1.0, 1.0, size=idx.size)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=idx.size)
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        out[idx] = np.stack([r * np.cos(theta), r * np.sin(theta), t], axis=-1)
    for k, (point, a) in enumerate(zip(mix.points, mix.exponents), start=1):
        idx = np.nonzero(which == k)[0]
        if idx.size == 0:
            continue
        r = 2.0 * rng.uniform(size=idx.size) ** (1.0 / (2.0 - a))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=idx.size)
        p = point.vec
        e1, e2 = _orthonormal_frame(p)
        trans = (r * np.sqrt(np.maximum(0.0, 1.0 - r * r / 4.0)))[:, None]
        out[idx] = (1.0 - r * r / 2.0)[:, None] * p + trans * (
            np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        )
    return out


def _reference_log_chord(pts, p):
    return 0.5 * np.log(np.maximum(np.sum((pts - p) ** 2, axis=-1), 1e-300))


def _reference_log_density(mix, flat):
    """The mixture's log density at row-major points (n, 3): the components'
    log densities stacked on a new axis 0, then a max-shifted logsumexp."""
    uniform, *radial = _reference_weights(mix)
    logs = [np.full(len(flat), math.log(uniform))]
    for point, a, wt in zip(mix.points, mix.exponents, radial):
        logr = _reference_log_chord(flat, point.vec)
        logs.append(math.log(wt) + math.log(2.0 - a) + (a - 1.0) * math.log(2.0) - a * logr)
    stacked = np.stack(logs, axis=0)
    top = np.max(stacked, axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.log(np.sum(np.exp(stacked - top), axis=0)) + top


def _reference_draw(mix, rng, m, N):
    """Row-major points (m, N, 3), the dense (m, N, N, 3) pair sum, and the
    proposal log density recomputing its own chords."""
    flat = _reference_sample(mix, rng, m * N)
    pts = flat.reshape(m, N, 3)
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    iu = np.triu_indices(N, k=1)
    pairs = np.sum(0.5 * np.log(np.maximum(d2[..., iu[0], iu[1]], 1e-300)), axis=-1)
    log_q = np.sum(_reference_log_density(mix, flat).reshape(m, N), axis=-1)
    return pts, pairs, log_q


def _reference_streams(seed, workers, n_samples, draw, chunk=20_000):
    """The serial stream loop: worker after worker, chunk after chunk, each
    draw(rng, m) returning its m rows, concatenated in that order."""
    streams = np.random.SeedSequence(seed).spawn(workers)
    base, extra = divmod(n_samples, workers)
    parts = []
    for k, stream in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        size = base + (k < extra)
        parts += [draw(rng, min(chunk, size - done)) for done in range(0, size, chunk)]
    return np.concatenate(parts)


def _reference_hill(weights):
    w = weights[weights > 0]
    if w.size < 200:
        return float("inf")
    k = max(2, w.size // 100)
    top = np.sort(w)[-k:]
    denom = float(np.mean(np.log(top[1:] / top[0])))
    return float("inf") if denom <= 0 else 1.0 / denom


def _reference_diagnostics(weights, s, den=None):
    nbatch = min(100, max(2, weights.size // 50))
    if den is None:
        bm = np.array([b.mean() for b in np.array_split(weights, nbatch)])
    else:
        bm = np.array([b.sum() for b in np.array_split(weights, nbatch)]) / np.maximum(
            np.array([b.sum() for b in np.array_split(den, nbatch)]), 1e-300)
    bm = [float(b * s) for b in bm]
    hill = _reference_hill(weights)
    return {
        "batch_means_variance": float(np.var(bm, ddof=1)),
        "batch_means": bm,
        "tail_index_estimate": hill,
        "warnings": [f"tail index {hill:.3g} <= 2: importance weights look heavy-tailed (likely "
                     "infinite variance), so the standard error may understate the error"] if hill <= 2.0 else [],
    }


def _reference_aggregate(logw, log_const, seed, workers):
    shift = float(np.max(logw))
    weights = np.exp(logw - shift)
    s = math.exp(log_const + shift)
    n = weights.size
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / math.sqrt(n))
    return McEstimate(mean * s, se * s, n, seed, workers, _reference_diagnostics(weights, s))


def _reference_ratio(num, den, scale_log, seed, workers, extra_diag):
    n = num.size
    nbar, dbar = float(np.mean(num)), float(np.mean(den))
    ratio = nbar / dbar
    resid = num - ratio * den
    se = float(np.sqrt(np.mean(resid * resid) / n) / abs(dbar))
    s = math.exp(scale_log)
    diagnostics = {**_reference_diagnostics(num, s, den), **extra_diag}
    return McEstimate(ratio * s, se * s, n, seed, workers, diagnostics)


def _reference_selberg(w, N, n_samples, seed, workers, mix):
    d = 2.0 - sum(w)
    marked = LogFanoCurve.standard(w).marked_sphere_points()
    log_const = N * math.log(math.pi) + math.log(2.0) * (d * N + 2 * N * w[0] + N * w[1] + 2 * N * w[2])

    def draw(rng, m):
        pts, pairs, log_q = _reference_draw(mix, rng, m, N)
        logw = -d / (N - 1) * 2.0 * pairs
        for p, wj in zip(marked, w):
            logw -= 2.0 * wj * np.sum(_reference_log_chord(pts, p.vec), axis=-1)
        return logw - log_q

    logw = _reference_streams(seed, workers, n_samples, draw)
    return _reference_aggregate(logw, log_const, seed, workers), logw


def _reference_sphere(curve, beta, N, n_samples, seed, workers):
    mix = ProposalMixture.default_for_curve(curve)
    pref = curve.d_L / (N * (N - 1))

    def draw(rng, m):
        pts, pairs, log_q = _reference_draw(mix, rng, m, N)
        log_ref = np.zeros(m)
        for p, wj in zip(curve.marked_sphere_points(), curve.weights):
            log_ref -= 2.0 * wj * np.sum(_reference_log_chord(pts, p.vec), axis=-1)
        return np.stack([2.0 * beta * N * pref * pairs + log_ref - log_q, log_ref - log_q], axis=-1)

    logw = _reference_streams(seed, workers, n_samples, draw)
    shift_n, shift_d = float(np.max(logw[:, 0])), float(np.max(logw[:, 1]))
    conv = N * math.log(math.pi) - beta * N * curve.d_L * math.log(2.0)
    est = _reference_ratio(np.exp(logw[:, 0] - shift_n), np.exp(logw[:, 1] - shift_d), shift_n - shift_d,
                           seed, workers, {"log_plane_conversion": conv})
    return est, logw


def _reference_circular(N, beta, n_samples, seed, workers):
    iu = np.triu_indices(N, k=1)

    def draw(rng, m):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(m, N))
        half = 0.5 * (theta[:, iu[0]] - theta[:, iu[1]])
        logs = np.log(np.maximum(2.0 * np.abs(np.sin(half)), 1e-300))
        return 2.0 * beta / (N - 1) * np.sum(logs, axis=-1)

    logw = _reference_streams(seed, workers, n_samples, draw)
    return _reference_aggregate(logw, N * math.log(2.0 * math.pi), seed, workers), logw


def _reference_gaussdet_ratio(n, s, n_samples, seed, workers):
    def draw(rng, m):
        re = rng.normal(0.0, math.sqrt(0.5), size=(m, n + 1, n + 1))
        im = rng.normal(0.0, math.sqrt(0.5), size=(m, n + 1, n + 1))
        return 2.0 * np.linalg.slogdet(re + 1j * im)[1]

    logd = _reference_streams(seed, workers, n_samples, draw)
    shift = float(np.max(logd)) if s >= 0 else 0.0
    num = np.exp((s + 1.0) * logd - (s + 1.0) * shift)
    den = np.exp(s * logd - s * shift)
    return _reference_ratio(num, den, shift, seed, workers, {}), logd


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 200_000))
def test_blocks_cover_a_chunk_with_no_one_row_block(m):
    # a one-row block would reduce its pair axis in another order (other bits)
    bounds = montecarlo._blocks(m)
    assert bounds[0][0] == 0 and bounds[-1][1] == m
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    sizes = [hi - lo for lo, hi in bounds]
    assert max(sizes) <= montecarlo._BLOCK
    assert min(sizes) >= 2 or m == 1


def _spy_on_log_weights(monkeypatch):
    """Record a copy of every output of the stream driver."""
    drawn = []

    def spy(*args, **kwargs):
        out = _draw_log_weights(*args, **kwargs)
        drawn.append(out.copy())
        return out

    monkeypatch.setattr(montecarlo, "_draw_log_weights", spy)
    return drawn


def _drawing_from(proposal, run):
    """run() with mc_selberg drawing from `proposal` in place of its
    cluster-safe mixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProposalMixture, "cluster_safe", lambda weights: proposal)
        return run()


def test_importance_draws_reproduce_row_major_reference_bitwise(monkeypatch):
    # the component-major, blocked draws on concurrent lanes must give the
    # bits of the serial loop over row-major draws, whatever the core count:
    # every per-sample log-weight, and the estimate built from them
    drawn = _spy_on_log_weights(monkeypatch)
    uniform = ProposalMixture((), ())
    half = ProposalMixture.cluster_safe((0.5, 0.5, 0.5))
    curve = LogFanoCurve.standard((0.5, 0.4, 0.3))
    cases = [
        # three workers, shares 20001/20000/20000: the first takes two chunks
        (lambda: mc_selberg((0.5, 0.5, 0.5), 3, 60_001, seed=5, workers=3),
         _reference_selberg((0.5, 0.5, 0.5), 3, 60_001, 5, 3, half)),
        # one share of three chunks (20000, 20000, 5001), several blocks each
        (lambda: mc_selberg((0.5, 0.5, 0.5), 5, 45_001, seed=8),
         _reference_selberg((0.5, 0.5, 0.5), 5, 45_001, 8, 1, half)),
        (lambda: mc_selberg((0.3, 0.6, 0.7), 5, 3_000, seed=2),
         _reference_selberg((0.3, 0.6, 0.7), 5, 3_000, 2, 1, ProposalMixture.cluster_safe((0.3, 0.6, 0.7)))),
        (lambda: _drawing_from(uniform, lambda: mc_selberg((0.5, 0.5, 0.5), 2, 3_000, seed=11)),
         _reference_selberg((0.5, 0.5, 0.5), 2, 3_000, 11, 1, uniform)),
        # shares of 4097: a chunk one configuration longer than a block
        (lambda: mc_selberg((0.5, 0.5, 0.5), 5, 5 * 4_097, seed=19, workers=5),
         _reference_selberg((0.5, 0.5, 0.5), 5, 5 * 4_097, 19, 5, half)),
        # more workers than any small machine has cores
        (lambda: mc_selberg((0.5, 0.5, 0.5), 4, 30_003, seed=9, workers=5),
         _reference_selberg((0.5, 0.5, 0.5), 4, 30_003, 9, 5, half)),
        # shares 1/1/1/0: the last worker draws nothing
        (lambda: mc_selberg((0.5, 0.5, 0.5), 3, 3, seed=12, workers=4),
         _reference_selberg((0.5, 0.5, 0.5), 3, 3, 12, 4, half)),
        (lambda: mc_sphere_partition(curve, 1.0, 3, 3_001, seed=4, workers=2),
         _reference_sphere(curve, 1.0, 3, 3_001, 4, 2)),
        (lambda: mc_sphere_partition(TRIVIAL, -0.74, 4, 3_000, seed=6),
         _reference_sphere(TRIVIAL, -0.74, 4, 3_000, 6, 1)),
        (lambda: mc_sphere_partition(curve, 0.5, 5, 50_002, seed=13, workers=5),
         _reference_sphere(curve, 0.5, 5, 50_002, 13, 5)),
        (lambda: mc_sphere_partition(TRIVIAL, 1.0, 3, 3, seed=14, workers=4),
         _reference_sphere(TRIVIAL, 1.0, 3, 3, 14, 4)),
        (lambda: mc_circular(5, 2.0, 60_001, seed=15, workers=3),
         _reference_circular(5, 2.0, 60_001, 15, 3)),
        (lambda: mc_circular(3, 1.0, 45_001, seed=16), _reference_circular(3, 1.0, 45_001, 16, 1)),
        (lambda: mc_circular(6, 0.5, 30_003, seed=17, workers=5), _reference_circular(6, 0.5, 30_003, 17, 5)),
        (lambda: mc_circular(4, 1.0, 3, seed=18, workers=4), _reference_circular(4, 1.0, 3, 18, 4)),
    ]
    for run, (ref, ref_logw) in cases:
        drawn.clear()
        est = run()
        assert len(drawn) == 1 and np.array_equal(drawn[0], ref_logw)
        assert json.dumps(est.to_json()) == json.dumps(ref.to_json())


@pytest.mark.parametrize("n,s,n_samples,workers", [
    (1, 0.5, 20_001, 3), (2, 0.0, 9_000, 5), (3, 1.0, 3, 4),
    (1, -0.5, 45_001, 1),  # one share of three chunks
])
def test_gaussian_det_ratio_matches_serial_slogdet_reference(monkeypatch, n, s, n_samples, workers):
    # the batched elimination replaces slogdet, so the bits may move by an ulp
    drawn = _spy_on_log_weights(monkeypatch)
    est = mc_gaussian_det_ratio(n, s, n_samples, seed=21, workers=workers)
    ref, ref_logd = _reference_gaussdet_ratio(n, s, n_samples, 21, workers)
    np.testing.assert_allclose(drawn[0], ref_logd, rtol=0, atol=1e-12)
    assert est.mean == pytest.approx(ref.mean, rel=1e-12)
    assert est.std_error == pytest.approx(ref.std_error, rel=1e-12)
    assert est.diagnostics["batch_means"] == pytest.approx(ref.diagnostics["batch_means"], rel=1e-12)
    assert est.diagnostics["tail_index_estimate"] == pytest.approx(ref.diagnostics["tail_index_estimate"], rel=1e-9)


def test_stream_driver_raises_a_lane_error_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 1_000)  # each worker runs many chunks

    def draw(rng, rows):
        if rng.bit_generator.seed_seq.spawn_key == (1,):
            raise ValidationError("worker 1 refuses")
        rows[:] = 0.0

    before = threading.active_count()
    with pytest.raises(ValidationError, match="worker 1 refuses"):
        _draw_log_weights(3, 4, 50_000, draw)
    assert threading.active_count() == before
    assert np.all(_draw_log_weights(3, 4, 50_000, lambda rng, rows: rows.fill(1.0)) == 1.0)
    assert threading.active_count() == before


def test_stream_driver_runs_at_most_one_thread_per_usable_core():
    idents = set()

    def draw(rng, rows):
        idents.add(threading.get_ident())
        rows[:] = rng.uniform(size=len(rows))

    out = _draw_log_weights(0, 10_000, 20_000, draw)
    assert out.shape == (20_000,) and np.all((0.0 <= out) & (out < 1.0))
    assert 1 <= len(idents) <= len(os.sched_getaffinity(0))


def test_stream_driver_refuses_more_workers_than_the_cap_before_spawning(monkeypatch):
    def never(*a, **k):
        raise AssertionError("streams spawned before the worker count was checked")

    monkeypatch.setattr(np.random, "SeedSequence", never)
    with pytest.raises(ValidationError, match="workers"):
        _draw_log_weights(0, montecarlo._MAX_WORKERS + 1, 20_000, lambda rng, rows: None)


def test_log_abs_det_sq_matches_slogdet():
    rng = np.random.default_rng(41)
    for k in range(1, 7):
        a = rng.normal(size=(500, k, k)) + 1j * rng.normal(size=(500, k, k))
        if k > 1:
            a[:100, 0, 0] = 0.0  # the first pivot must come from a row swap
        want = 2.0 * np.linalg.slogdet(a)[1]
        got = _log_abs_det_sq(a.copy())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    singular = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    singular[0] = [[2, 4, 6], [1, 2, 5], [1, 2, 3]]  # exact zero second pivot column
    singular[1, :, 1] = 0.0  # a zero column
    singular[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_abs_det_sq(singular.copy())
    want = 2.0 * np.linalg.slogdet(singular)[1]
    assert np.all(got[:3] == -np.inf) and np.all(want[:3] == -np.inf)
    assert not np.any(np.isnan(got))
    assert abs(got[3] - want[3]) <= 1e-12


@pytest.mark.parametrize("estimate", [
    lambda n: mc_selberg((0.5, 0.5, 0.5), 4, n, seed=3, workers=4),
    lambda n: mc_circular(5, 2.0, n, seed=3, workers=4),
    lambda n: mc_gaussian_det_ratio(1, 0.5, n, seed=3, workers=4),
    lambda n: mc_sphere_partition(TRIVIAL, 1.0, 3, n, seed=3, workers=4),
], ids=["selberg", "circular", "gaussdet-ratio", "sphere"])
def test_estimator_peak_allocation_is_a_few_weight_vectors(estimate):
    # concurrent lanes hold their chunks' buffers at the same time: the
    # blocked, in-place post-sample work keeps the traced peak near the
    # serial loop's.  A small warm-up run keeps one-time allocations out.
    n = 250_000
    estimate(5_000)
    tracemalloc.start()
    try:
        estimate(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * n * 8, peak / (n * 8)


def test_gaussian_det_peak_allocation_is_bounded_by_the_chunk(monkeypatch):
    # each lane draws one chunk's normals at a time, not its worker's share:
    # two lanes, so that the bound does not depend on the core count
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    n = 500_000
    mc_gaussian_det(3, 0.5, 5_000, seed=3, workers=4)
    tracemalloc.start()
    try:
        mc_gaussian_det(3, 0.5, n, seed=3, workers=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * n * 8, peak / (n * 8)


def test_gaussian_det_ratio_peak_allocation_is_three_weight_vectors(monkeypatch):
    # the numerator's weights, the denominator and the delta-method residual;
    # the Hill index partitions the numerator in place, with no copy
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    n = 500_000
    mc_gaussian_det_ratio(1, 0.5, 5_000, seed=3, workers=4)
    tracemalloc.start()
    try:
        mc_gaussian_det_ratio(1, 0.5, n, seed=3, workers=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * n * 8, peak / (n * 8)


def test_hill_tail_index_partitions_the_weights_in_place():
    # zeros (underflowed weights) and ties in the top 1%: the same index as a
    # sort of the positive weights' copy, the same values left in the array,
    # and no copy of it allocated beside the positivity mask
    rng = np.random.default_rng(9)
    weights = rng.pareto(1.5, 1_000_000)
    weights[rng.random(weights.size) < 0.1] = 0.0
    weights[np.argsort(weights)[-3_000:-2_000]] = weights.max()
    want, values = _reference_hill(weights), np.sort(weights)
    tracemalloc.start()
    try:
        got = _hill_tail_index(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert np.array_equal(np.sort(weights), values)
    assert peak <= 0.25 * weights.nbytes, peak / weights.nbytes


def test_log_density_matches_stacked_reference_bitwise():
    # the mixture density adds its components' exps one at a time; the
    # reference stacks them and reduces over the stack
    curve = LogFanoCurve.standard((0.5, 0.4, 0.3))
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(400, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    pts[7] = curve.marked_sphere_points()[1].vec  # on a marked point: the chord clamps
    mixes = [
        ProposalMixture.default_for_curve(TRIVIAL),  # uniform only
        ProposalMixture.default_for_curve(curve),
        ProposalMixture.cluster_safe((0.5, 0.4, 0.3)),
    ]
    assert mixes[0].points == () and mixes[0].exponents == ()
    for mix in mixes:
        got = mix.log_density(pts)
        assert np.array_equal(got, _reference_log_density(mix, pts))
        assert np.array_equal(mix.log_density(pts.reshape(20, 20, 3)), got.reshape(20, 20))
    assert np.all(mixes[0].log_density(pts) == 0.0)
    a = mixes[2].exponents[1]
    clamped = math.log(0.1) + math.log(2.0 - a) + (a - 1.0) * math.log(2.0) - a * 0.5 * math.log(1e-300)
    assert mixes[2].log_density(pts)[7] == pytest.approx(clamped, rel=1e-12)


@pytest.mark.parametrize("estimate", [
    lambda: mc_selberg((0.5, 0.5, 0.5), 3, 20_000, seed=1),
    lambda: mc_sphere_partition(TRIVIAL, 1.0, 3, 20_000, seed=1),
    lambda: mc_circular(3, 1.0, 20_000, seed=1),
    lambda: mc_gaussian_det(1, 1.0, 20_000, seed=1),
    lambda: mc_gaussian_det_ratio(1, 0.5, 20_000, seed=1),
], ids=["selberg", "sphere", "circular", "gaussdet", "gaussdet-ratio"])
def test_batch_means_variance_is_in_the_estimates_units(estimate):
    diag = estimate().diagnostics
    assert diag["batch_means_variance"] == pytest.approx(np.var(diag["batch_means"], ddof=1), rel=1e-12)


def test_estimate_serializes():
    est = mc_circular(2, 0.5, 1000, seed=1)
    blob = json.loads(json.dumps(est.to_json()))
    assert blob["n_samples"] == 1000 and blob["seed"] == 1
    assert "batch_means_variance" in blob["diagnostics"]
    assert "tail_index_estimate" in blob["diagnostics"]


# ---------------------------------------------------------------------------
# gates and validation

def test_selberg_refuses_unstable_weights():
    with pytest.raises(StabilityError):
        mc_selberg((0.9, 0.1, 0.1), 3, 1000)


def test_selberg_needs_two_points():
    with pytest.raises(ValidationError, match="N >= 2"):
        mc_selberg((0.5, 0.5, 0.5), 1, 1000)


def test_selberg_refuses_free_collision_divergence():
    # weight condition holds but N d' >= 2: integral diverges anyway
    with pytest.raises(StabilityError, match="free collision"):
        mc_selberg((0.1, 0.1, 0.1), 2, 1000)
    with pytest.raises(StabilityError, match="free collision"):
        mc_selberg((0.2, 0.2, 0.2), 2, 1000)
    # same weights, enough points to be fine again (N d' decreases in N)
    assert mc_selberg((0.5, 0.5, 0.5), 2, 1000, seed=0).mean > 0


def test_sphere_partition_threshold():
    with pytest.raises(ThresholdError):
        mc_sphere_partition(TRIVIAL, -0.75, 4, 1000)  # exactly -gamma_4
    with pytest.raises(ThresholdError):
        mc_sphere_partition(TRIVIAL, -1.0, 4, 1000)


def test_circular_threshold():
    with pytest.raises(ThresholdError):
        mc_circular(3, -2.0 / 3.0, 1000)
    with pytest.raises(ValidationError):
        mc_circular(1, 0.5, 1000)


def test_gaussian_det_threshold():
    with pytest.raises(ThresholdError):
        mc_gaussian_det(1, -1.0, 1000)
    with pytest.raises(ThresholdError):
        mc_gaussian_det_ratio(2, -1.5, 1000)


@pytest.mark.parametrize("estimate", [mc_gaussian_det, mc_gaussian_det_ratio])
def test_gaussian_det_chunk_at_the_cap_is_not_refused(monkeypatch, estimate):
    # one chunk of 1 000 complex 2 x 2 matrices: 16 * 1000 * 4 bytes of normals
    monkeypatch.setattr(montecarlo, "_MAX_LOG_WEIGHT_BYTES", 64_000)
    assert estimate(1, 0.5, 1_000).n_samples == 1_000
    monkeypatch.setattr(montecarlo, "_MAX_LOG_WEIGHT_BYTES", 63_999)
    with pytest.raises(ValidationError, match="Gaussian entries"):
        estimate(1, 0.5, 1_000)


@pytest.mark.parametrize("estimate", [
    lambda n: mc_selberg((0.5, 0.5, 0.5), 3, n),
    lambda n: mc_sphere_partition(TRIVIAL, 1.0, 3, n),
    lambda n: mc_circular(3, 1.0, n),
], ids=["selberg", "sphere", "circular"])
def test_pair_block_at_the_cap_is_not_refused(monkeypatch, estimate):
    # one block of 1 000 configurations of 3 points: 8 * 3 * 1000 bytes of pair terms
    monkeypatch.setattr(montecarlo, "_MAX_LOG_WEIGHT_BYTES", 24_000)
    assert estimate(1_000).n_samples == 1_000
    monkeypatch.setattr(montecarlo, "_MAX_LOG_WEIGHT_BYTES", 23_999)
    with pytest.raises(ValidationError, match="pair terms"):
        estimate(1_000)


def test_sample_count_validation():
    estimators = [
        lambda n: mc_circular(3, 0.5, n),
        lambda n: mc_selberg((0.5, 0.5, 0.5), 3, n),
        lambda n: mc_sphere_partition(TRIVIAL, 1.0, 3, n),
        lambda n: mc_gaussian_det(1, 0.5, n),
        lambda n: mc_gaussian_det_ratio(1, 0.5, n),
    ]
    for estimate in estimators:
        for n_samples in (0, 1):
            with pytest.raises(ValidationError, match="at least 2 samples"):
                estimate(n_samples)


def test_free_energy_curve_input_validation():
    with pytest.raises(ValidationError):
        free_energy_curve(TRIVIAL, 3, [], 1000)
    with pytest.raises(ThresholdError):
        free_energy_curve(TRIVIAL, 3, [-0.7, 0.5], 1000)  # -gamma_3 = -2/3


@pytest.mark.parametrize(
    "grid",
    [
        [0.25 + 0.0625 * k for k in range(13)],  # the ladder: Simpson increments throughout
        [-0.5, -0.2, 0.3, 0.4, 1.0, 1.6],  # uneven: trapezoid and Simpson increments mixed
    ],
)
def test_free_energy_se_propagates_shared_node_coefficients(monkeypatch, grid):
    # F is linear in the node means; its SE must be sqrt(sum_j coef_j^2 se_j^2)
    # with coef_j node j's total coefficient, read off by bumping node j's mean
    import kezeta.sampler as sampler

    stub = {"node": None}

    def fixed_run(curve, betas, N, sweeps, seed=0):
        stub["nodes"] = len(betas)
        return [
            McEstimate(-0.3 * b + (1.0 if k == stub["node"] else 0.0), 0.01 * (1 + k), sweeps, seed, 16)
            for k, b in enumerate(betas)
        ]

    monkeypatch.setattr(sampler, "mean_energy_run", fixed_run)
    base = free_energy_curve(TRIVIAL, 3, grid, 10_000)
    coefs = []
    for k in range(stub["nodes"]):
        stub["node"] = k
        coefs.append([f - f0 for (_, f, _), (_, f0, _) in zip(free_energy_curve(TRIVIAL, 3, grid, 10_000), base)])
    coefs = np.array(coefs)  # (nodes, grid points)
    node_se = 0.01 * (1 + np.arange(stub["nodes"]))
    for g, (b, _, se) in enumerate(base):
        assert b == grid[g]
        assert se == pytest.approx(math.sqrt(np.sum((coefs[:, g] * node_se) ** 2)), rel=1e-12, abs=0.0)


def _dense_free_energy_rows(nodes, energies, ses, grid):
    """free_energy_curve's bookkeeping on a dense (n - 1) x n coefficient
    matrix, row i holding increment i's coefficient on every node: the
    reference whose bits the per-node table must give."""
    incs = []
    coef = np.zeros((len(nodes) - 1, len(nodes)))
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        h = x1 - x0
        if i + 2 < len(nodes) and abs((nodes[i + 2] - x1) - h) < 1e-12:
            cs, idx = (h * 5.0 / 12.0, h * 8.0 / 12.0, -h / 12.0), (i, i + 1, i + 2)
        elif i >= 1 and abs((x0 - nodes[i - 1]) - h) < 1e-12:
            cs, idx = (-h / 12.0, h * 8.0 / 12.0, h * 5.0 / 12.0), (i - 1, i, i + 1)
        else:
            cs, idx = (h / 2.0, h / 2.0), (i, i + 1)
        incs.append(sum(c * energies[j] for c, j in zip(cs, idx)))
        coef[i, list(idx)] = cs
    zero_pos = nodes.index(0.0)
    rows = []
    for b in grid:
        pos = nodes.index(b)
        lo, hi = min(pos, zero_pos), max(pos, zero_pos)
        total = sum(incs[lo:hi])
        se = float(np.sqrt(np.sum((coef[lo:hi].sum(axis=0) * ses) ** 2)))
        rows.append((b, total if pos >= zero_pos else -total, se))
    return rows


def _random_grids(count, seed):
    # even runs (Simpson increments), uneven points (trapezoids), grids on
    # both sides of 0 and on one; the trivial curve at N = 3 allows beta > -2/3
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        start = float(rng.choice([-0.625, -0.5, -0.25, 0.0, 0.125, 0.5]))
        step = float(rng.choice([1 / 64, 1 / 16, 0.1, 0.25]))
        grid = [start + step * k for k in range(int(rng.integers(1, 40)))]
        grid += [float(x) for x in rng.uniform(-0.66, 2.0, size=int(rng.integers(0, 6)))]
        if rng.random() < 0.2:
            grid = [-abs(b) for b in grid if b != 0.0 and abs(b) < 0.66] or [-0.3]
        yield grid


def test_free_energy_se_matches_the_dense_coefficient_matrix_bitwise(monkeypatch):
    import kezeta.sampler as sampler

    rng = np.random.Generator(np.random.PCG64(28))
    seen = {}

    def random_run(curve, betas, N, sweeps, seed=0):
        seen["nodes"] = list(betas)
        seen["means"] = rng.standard_normal(len(betas)) * 0.3
        seen["ses"] = rng.uniform(1e-4, 1e-1, size=len(betas))
        return [McEstimate(float(m), float(s), sweeps, seed, 16) for m, s in zip(seen["means"], seen["ses"])]

    monkeypatch.setattr(sampler, "mean_energy_run", random_run)
    for grid in _random_grids(300, 28):
        got = free_energy_curve(TRIVIAL, 3, grid, 10_000)
        want = _dense_free_energy_rows(seen["nodes"], [float(m) for m in seen["means"]], seen["ses"],
                                       sorted(set(grid)))
        assert repr(got) == repr(want), grid


def test_free_energy_bookkeeping_is_linear_in_the_nodes(monkeypatch):
    # a 1,000-point grid, the --grid cap, makes about 2,000 nodes; a dense
    # coefficient matrix over them would take 32 MB
    import kezeta.sampler as sampler

    def fixed_run(curve, betas, N, sweeps, seed=0):
        return [McEstimate(-0.3 * b, 0.01, sweeps, seed, 16) for b in betas]

    monkeypatch.setattr(sampler, "mean_energy_run", fixed_run)
    grid = [-0.6 + 1.6 * k / 999 for k in range(1000)]
    free_energy_curve(TRIVIAL, 3, grid[:10], 10_000)
    tracemalloc.start()
    try:
        rows = free_energy_curve(TRIVIAL, 3, grid, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 1000
    assert peak < 2 * 2**20, peak


# ---------------------------------------------------------------------------
# proposal mixtures

def test_proposal_mixture_validation():
    south = LogFanoCurve.standard((0.5, 0.5, 0.5)).marked_sphere_points()[0]
    with pytest.raises(ValidationError, match="one exponent per point"):
        ProposalMixture((south,), ())
    with pytest.raises(ValidationError, match="one exponent per point"):
        ProposalMixture((), (0.5,))
    with pytest.raises(ValidationError, match="radial exponent"):
        ProposalMixture((south,), (2.0,))
    with pytest.raises(ValidationError, match="radial exponent"):
        ProposalMixture((south,), (-0.1,))
    assert ProposalMixture((south,), (0.0,)).exponents == (0.0,)


def test_proposal_mixture_needs_a_uniform_share():
    # each radial component takes 0.1 of the mass: ten leave the uniform one none
    south = LogFanoCurve.standard((0.5, 0.5, 0.5)).marked_sphere_points()[0]
    assert len(ProposalMixture((south,) * 9, (0.5,) * 9).points) == 9
    with pytest.raises(ValidationError, match="no weight"):
        ProposalMixture((south,) * 10, (0.5,) * 10)


def test_default_mixture_shapes():
    curve = LogFanoCurve.standard((0.5, 0.4, 0.3))
    mix = ProposalMixture.default_for_curve(curve)
    assert mix.points == curve.marked_sphere_points()
    # pinned default radial exponent: 2 w rho with rho = 0.9
    assert mix.exponents == pytest.approx((0.9, 0.72, 0.54))
    # weights 0.7 for the uniform component and 0.1 for each radial one
    x = np.array([0.6, 0.0, 0.8])
    radial = [(2.0 - a) * 2.0 ** (a - 1.0) * np.linalg.norm(x - p.vec) ** -a
              for p, a in zip(mix.points, mix.exponents)]
    assert mix.log_density(x) == pytest.approx(math.log(0.7 + 0.1 * sum(radial)), rel=1e-14)
    # trivial curve has nothing to focus on
    triv = ProposalMixture.default_for_curve(TRIVIAL)
    assert triv.points == () and triv.exponents == ()
    assert triv.log_density(x) == 0.0


def test_cluster_safe_exponents_respect_variance_bound():
    w = (0.5, 0.5, 0.5)
    mix = ProposalMixture.cluster_safe(w)
    assert len(mix.exponents) == len(w)
    for a, wi in zip(mix.exponents, w):
        assert 2.0 + 4.0 * wi - 2.0 * sum(w) < a < 2.0


def test_mixture_density_is_normalized():
    # sample from the mixture, importance-weight back to uniform: E[1/q] = 1
    mix = ProposalMixture.default_for_curve(LogFanoCurve.standard((0.5, 0.4, 0.3)))
    rng = np.random.Generator(np.random.PCG64(5))
    pts = mix.sample(rng, 50_000)
    assert pts.shape == (50_000, 3)
    assert np.allclose(np.sum(pts * pts, axis=-1), 1.0, atol=1e-12)  # on-sphere
    w = np.exp(-mix.log_density(pts))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 4.0 * se


def test_marked_point_radial_law():
    # one point with exponent a: the uniform law (P(r <= t) = (t/2)^2) with
    # weight 0.9 and the radial law (P(r <= t) = (t/2)^(2-a)) with weight 0.1
    a = 0.5
    south = LogFanoCurve.standard((0.5, 0.5, 0.5)).marked_sphere_points()[0]
    mix = ProposalMixture((south,), (a,))
    rng = np.random.Generator(np.random.PCG64(9))
    pts = mix.sample(rng, 40_000)
    r = np.sqrt(np.sum((pts - south.vec) ** 2, axis=-1))
    # the exact CDF at the draws is uniform on [0, 1]: mean 1/2, and K-S
    # distance below its 0.1% quantile 1.95 / sqrt(n)
    u = np.sort(0.9 * (r / 2.0) ** 2 + 0.1 * (r / 2.0) ** (2.0 - a))
    assert abs(u.mean() - 0.5) < 4.0 * u.std(ddof=1) / math.sqrt(u.size)
    ranks = np.arange(1, u.size + 1) / u.size
    ks = max(np.max(ranks - u), np.max(u - (ranks - 1.0 / u.size)))
    assert ks < 1.95 / math.sqrt(u.size)


if __name__ == "__main__":
    est = mc_selberg((0.5, 0.5, 0.5), 3, 10**6, seed=20)
    print(f"MC  {est.mean:.3f} +- {est.std_error:.3f}")
    print(f"ref {SELBERG_HALF_3:.3f}  ({_dev(est, SELBERG_HALF_3):.2f} SE)")
