"""Gibbs sampler tests: target math, detailed balance, dynamics, statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kezeta.errors import (
    CoincidenceError,
    StabilityError,
    ThresholdError,
    ValidationError,
)
from kezeta.sampler import (
    MarginalHistogram,
    ks_against,
    ks_threshold,
    log_target,
    marginal_histogram,
    mean_energy_estimate,
    mean_energy_run,
    run_chain,
)
from kezeta.sphere import PointConfiguration, SpherePoint, sample_uniform_array
from kezeta.stability import LogFanoCurve

TRIVIAL = LogFanoCurve.standard(())
HALF3 = LogFanoCurve.standard((0.5, 0.5, 0.5))


def _config(arr):
    return PointConfiguration(tuple(SpherePoint.from_vec(r) for r in arr))


def _random_config(n, seed):
    return _config(sample_uniform_array(np.random.Generator(np.random.PCG64(seed)), n))


# ---------------------------------------------------------------------------
# log_target

def test_log_target_beta_zero_trivial_is_constant_zero():
    for seed in range(5):
        assert log_target(_random_config(4, seed), TRIVIAL, 0.0) == 0.0


def test_log_target_swap_symmetry():
    c = _random_config(5, 3)
    swapped = PointConfiguration(tuple(c.points[i] for i in (1, 0, 2, 3, 4)))
    a = log_target(c, HALF3, -1.0)
    b = log_target(swapped, HALF3, -1.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_log_target_attractive_ratio_is_ordered_chordal_product():
    # beta = -1, trivial curve, N = 3: d_L/(N-1) = 1, so the density ratio is
    # the product over ordered pairs of chordal ratios to the first power --
    # attractive, so shrinking the distances raises the density
    c1, c2 = _random_config(3, 1), _random_config(3, 2)

    def ordered_log_chords(c):
        return sum(
            math.log(np.linalg.norm(np.array(p.vec) - np.array(q.vec)))
            for p in c.points
            for q in c.points
            if p is not q
        )

    expected = ordered_log_chords(c2) - ordered_log_chords(c1)
    got = log_target(c1, TRIVIAL, -1.0) - log_target(c2, TRIVIAL, -1.0)
    assert got == pytest.approx(expected, abs=1e-10)


def test_log_target_coincidence_with_marked_point():
    # a sample sitting exactly on a positively weighted marked point
    pts = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(CoincidenceError):
        log_target(_config(pts), HALF3, 0.5)


# ---------------------------------------------------------------------------
# detailed balance, brute force

def _coarse_sites():
    sites = []
    for t in (-0.8, -0.3, 0.3, 0.8):
        r = math.sqrt(1 - t * t)
        for phi in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
            sites.append((r * math.cos(phi), r * math.sin(phi), t))
    return np.array(sites)


def test_detailed_balance_two_point_transition_matrix():
    # 2-point chain on 12 fixed sites, single-site uniform proposals, exact
    # Metropolis ratio from log_target: the target must be stationary.
    sites = _coarse_sites()
    n = len(sites)
    states = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {s: k for k, s in enumerate(states)}
    logpi = np.array(
        [
            log_target(_config(sites[[a, b]]), HALF3, -1.0)
            for a, b in states
        ]
    )
    pi = np.exp(logpi - logpi.max())
    pi /= pi.sum()

    P = np.zeros((len(states), len(states)))
    for k, (a, b) in enumerate(states):
        for site in range(2):
            for target in range(n):
                cur = (a, b)
                new = (target, b) if site == 0 else (a, target)
                if new == cur:
                    continue
                prob = 0.5 * (1.0 / (n - 1))  # pick a site, pick a destination
                if new[0] == new[1]:
                    P[k, k] += prob  # coincidence guard: outright rejection
                    continue
                ratio = min(1.0, math.exp(logpi[index[new]] - logpi[k]))
                P[k, index[new]] += prob * ratio
                P[k, k] += prob * (1.0 - ratio)

    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(pi @ P, pi, atol=1e-13)
    # detailed balance entrywise, not just stationarity
    flow = pi[:, None] * P
    assert np.max(np.abs(flow - flow.T)) < 1e-15


# ---------------------------------------------------------------------------
# chain dynamics

def test_beta_zero_accepts_every_proposal():
    stream = run_chain(TRIVIAL, 0.0, 4, sweeps=60, burn_in=0, seed=2, thinning=5)
    assert np.all(stream.acceptance_rate == 1.0)


def test_pair_distance_moment_matches_exact_law():
    # N = 2, trivial, beta: pair density prop to c^(4 beta) on the chordal
    # distance, so E[c^2] = 4(4b+2)/(4b+4); at beta = 1 that's 3.
    stream = run_chain(TRIVIAL, 1.0, 2, sweeps=4000, seed=5, thinning=2, chains=8)
    c2 = np.sum((stream.configs[..., 0, :] - stream.configs[..., 1, :]) ** 2, axis=-1).ravel()
    batches = np.array([b.mean() for b in np.array_split(c2, 32)])
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    assert abs(c2.mean() - 3.0) < 4.0 * se


def test_negative_weight_enters_the_target():
    # beta = 0, w = -1/2 at the north pole: each point's axial t has density
    # prop to c^1 = (2 - 2t)^(1/2) on [-1, 1], so E[t] = -1/5 exactly
    curve = LogFanoCurve.standard((Fraction(-1, 2),))
    stream = run_chain(curve, 0.0, 2, sweeps=4000, seed=1, chains=64)
    chain_means = stream.configs[..., 2].mean(axis=(1, 2))
    se = chain_means.std(ddof=1) / math.sqrt(chain_means.size)
    assert abs(chain_means.mean() + 0.2) < 4.0 * se


def test_stream_reproducible_and_merged_deterministically():
    a = run_chain(TRIVIAL, 0.5, 4, sweeps=200, seed=9, chains=3)
    b = run_chain(TRIVIAL, 0.5, 4, sweeps=200, seed=9, chains=3)
    assert np.array_equal(a.configs, b.configs)
    assert np.array_equal(a.energies, b.energies)
    # one row per chain, one column per kept sweep (200 // 10)
    assert a.configs.shape == (3, 20, 4, 3) and a.energies.shape == (3, 20)


def test_rotation_leaves_energies_invariant():
    stream = run_chain(TRIVIAL, 1.0, 4, sweeps=100, seed=4)
    th = 0.7
    R = np.array(
        [[math.cos(th), -math.sin(th), 0.0], [math.sin(th), math.cos(th), 0.0], [0.0, 0.0, 1.0]]
    )
    rotated = stream.configs @ R.T
    d_orig = np.linalg.norm(stream.configs[..., :, None, :] - stream.configs[..., None, :, :], axis=-1)
    d_rot = np.linalg.norm(rotated[..., :, None, :] - rotated[..., None, :, :], axis=-1)
    assert np.allclose(d_orig, d_rot, atol=1e-12)


def test_exchangeability_of_recorded_energies():
    from kezeta.sphere import config_energy

    stream = run_chain(HALF3, -1.0, 4, sweeps=60, seed=6)
    for k in range(0, stream.energies.shape[1], 3):
        cfg = _config(stream.configs[0, k])
        perm = _config(stream.configs[0, k][::-1])
        assert config_energy(cfg, HALF3) == pytest.approx(stream.energies[0, k], abs=1e-10)
        assert config_energy(perm, HALF3) == pytest.approx(stream.energies[0, k], abs=1e-10)


def test_attractive_weighted_triangle_stays_ergodic():
    # marked points at an equilateral triangle on the equator great circle
    omega = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    curve = LogFanoCurve((1 + 0j, omega, omega.conjugate()), (0.5, 0.5, 0.5))
    stream = run_chain(curve, -1.0, 6, sweeps=400, seed=12, chains=2)
    assert np.all(np.isfinite(stream.energies))
    assert np.all(stream.acceptance_rate > 0.01)
    assert np.all(stream.acceptance_rate < 1.0)
    assert np.all((0 < stream.final_step_scale) & (stream.final_step_scale <= 2.0))


def _reference_run_chain(curve, beta, N, sweeps, burn_in, seed, thinning, chains, tol=1e-24, vetoes=None):
    """The scalar-beta sweep loop, written out once more, row-major (chains,
    N, 3) with np.sum and without caches, as the reference that run_chain's
    component-major lanes must reproduce bit for bit.  tol is the squared
    guard radius; a dict `vetoes` counts, under "pair" and "marked", the
    proposals Metropolis accepted that each guard rejected."""
    from kezeta.sphere import pairwise_log_chordal

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    on = [(p.vec, w) for p, w in zip(curve.marked_sphere_points(), curve.weights) if w != 0]
    marked = np.array([p for p, _ in on]).reshape(-1, 3)
    wts = np.array([w for _, w in on], dtype=float)
    pref = curve.d_L / (N * (N - 1))

    def weight_part(pts):  # sum_j 2 w_j G(x, p_j) for pts: (chains, 3)
        d2 = np.sum((pts[:, None, :] - marked) ** 2, axis=-1)
        return -np.sum(wts * np.log(np.maximum(d2, 1e-300)), axis=-1)

    def guard_violations(X):
        d2 = np.sum((X[:, :, None, :] - X[:, None, :, :]) ** 2, axis=-1)
        d2[:, np.arange(N), np.arange(N)] = 1.0
        bad = d2.min(axis=(1, 2)) < tol
        if marked.shape[0]:
            bad |= np.sum((X[:, :, None, :] - marked) ** 2, axis=-1).min(axis=(1, 2)) < tol
        return bad

    X = sample_uniform_array(rng, chains * N).reshape(chains, N, 3)
    for _ in range(100):
        bad = guard_violations(X)
        if not bad.any():
            break
        X[bad] = sample_uniform_array(rng, int(bad.sum()) * N).reshape(-1, N, 3)
    scales = np.full(chains, 0.5)
    acc = np.zeros(chains, dtype=np.int64)
    prop = np.zeros(chains, dtype=np.int64)
    kept_X, kept_E = [], []
    for sweep in range(burn_in + sweeps):
        # a sweep's normals, then its uniforms; each candidate is still made
        # from the current X at its step
        normals = rng.normal(size=(N, chains, 3))
        uniforms = rng.uniform(size=(N, chains))
        for i in range(N):
            x = X[:, i, :]
            g = normals[i]
            cand = x + scales[:, None] * (g - np.sum(g * x, axis=-1, keepdims=True) * x)
            cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
            d2_new = np.sum((X - cand[:, None, :]) ** 2, axis=-1)
            d2_old = np.sum((X - x[:, None, :]) ** 2, axis=-1)
            d2_new[:, i] = d2_old[:, i] = 1.0
            guard = d2_new.min(axis=-1) < tol
            mguard = np.zeros(chains, dtype=bool)
            if marked.shape[0]:
                mguard = np.sum((cand[:, None, :] - marked) ** 2, axis=-1).min(axis=-1) < tol
            dpair = -0.5 * (np.sum(np.log(d2_new), axis=-1) - np.sum(np.log(d2_old), axis=-1))
            dw = weight_part(cand) - weight_part(x)
            metropolis = np.log(uniforms[i]) < -beta * N * pref * 2.0 * dpair + dw
            if vetoes is not None:
                vetoes["pair"] = vetoes.get("pair", 0) + int(np.sum(metropolis & guard))
                vetoes["marked"] = vetoes.get("marked", 0) + int(np.sum(metropolis & mguard))
            accept = metropolis & ~(guard | mguard)
            X[accept, i, :] = cand[accept]
            acc += accept
            prop += 1
        if sweep < burn_in and (sweep + 1) % 50 == 0:
            rate = acc / np.maximum(prop, 1)
            scales = np.where(rate > 0.5, scales * 1.4, scales)
            scales = np.clip(np.where(rate < 0.2, scales * 0.7, scales), 1e-3, 2.0)
            acc[:] = prop[:] = 0
        if sweep + 1 == burn_in:
            acc[:] = prop[:] = 0
        if sweep >= burn_in and (sweep - burn_in + 1) % thinning == 0:
            kept_X.append(X.copy())
            kept_E.append(-2.0 * pref * np.sum(pairwise_log_chordal(X), axis=-1))
    # (chains, kept, N, 3) and (chains, kept)
    return np.stack(kept_X, axis=1), np.stack(kept_E, axis=1), acc / np.maximum(prop, 1), scales


@pytest.mark.parametrize(
    "curve, beta, N, sweeps, burn_in, seed, thinning, chains",
    [
        (TRIVIAL, 1.0, 3, 120, 200, 7, 1, 16),
        (TRIVIAL, 0.0, 4, 60, 0, 2, 5, 3),
        (HALF3, -1.0, 5, 80, 100, 8, 4, 2),
        (LogFanoCurve.standard((0.5,)), 0.75, 6, 40, 150, 1, 10, 5),
        (LogFanoCurve.standard((0.5,)), 1.0, 16, 40, 100, 3, 10, 8),  # the chain workload's N
        (HALF3, 2.0, 8, 60, 100, 4, 5, 16),  # three marked points, ~30 % rejected: a stale row shows
        (LogFanoCurve.standard((Fraction(-1, 2),)), 1.0, 4, 60, 100, 5, 5, 8),  # a negative weight
        # either side of the row sums' switch from one add per term to
        # numpy's pairwise sum at 8 terms
        (LogFanoCurve.standard((0.5,)), 1.0, 7, 30, 60, 21, 3, 8),
        (HALF3, 1.0, 9, 30, 60, 22, 3, 8),
        (TRIVIAL, 1.0, 17, 20, 60, 23, 2, 4),  # 136 pairs: the kept-energy sum past 128 terms
        (LogFanoCurve.standard((0.5,)), 1.0, 130, 3, 2, 24, 1, 2),  # rows past numpy's 128-term block
    ],
)
def test_run_chain_reproduces_scalar_beta_reference_bitwise(curve, beta, N, sweeps, burn_in, seed, thinning, chains):
    stream = run_chain(curve, beta, N, sweeps=sweeps, burn_in=burn_in, seed=seed, thinning=thinning,
                       chains=chains)
    configs, energies, rate, scales = _reference_run_chain(curve, beta, N, sweeps, burn_in, seed, thinning, chains)
    assert np.array_equal(stream.configs, configs)
    assert np.array_equal(stream.energies, energies)
    assert np.array_equal(stream.acceptance_rate, rate)
    assert np.array_equal(stream.final_step_scale, scales)


def test_run_chain_reproduces_reference_when_both_guards_reject(monkeypatch):
    # at the real radius a guard almost never trips, and run_chain tests a
    # row's minimum before each lane's; a wide radius makes both guards veto
    import kezeta.sampler as sampler

    monkeypatch.setattr(sampler, "_GUARD_TOL", 0.05)
    run = dict(sweeps=80, burn_in=60, seed=9, thinning=4, chains=16)
    stream = run_chain(HALF3, -1.0, 6, **run)
    vetoes = {}
    configs, energies, rate, scales = _reference_run_chain(HALF3, -1.0, 6, **run, tol=sampler._GUARD_TOL**2,
                                                           vetoes=vetoes)
    assert vetoes["pair"] > 0 and vetoes["marked"] > 0
    assert np.array_equal(stream.configs, configs)
    assert np.array_equal(stream.energies, energies)
    assert np.array_equal(stream.acceptance_rate, rate)
    assert np.array_equal(stream.final_step_scale, scales)


def _row_sum_cases():
    # the orientations the sweep loop sums: (n, lanes) rows as np.log makes
    # them, and row L[i] and column L[:, i] of an (n, n, lanes) cache
    rng = np.random.Generator(np.random.PCG64(30))
    for n in [*range(2, 21), *range(127, 131), 256]:
        for lanes in (1, 2, 16, 432):
            # signs, zeros of both signs and magnitudes 1e-300 .. 1e300
            a = rng.choice([-1.0, 1.0], size=(n, lanes)) * 10.0 ** rng.integers(-300, 301, size=(n, lanes))
            a[rng.random((n, lanes)) < 0.2] = 0.0
            a[rng.random((n, lanes)) < 0.2] = -0.0
            a[:, 0] = -0.0
            yield f"n{n}-lanes{lanes}-rows", a
            # terms of comparable size, where the order of the adds shows in
            # nearly every lane: unscaled normals, and logs of squared chords
            # (in (0, 4]) as the sweep loop sums them
            yield f"n{n}-lanes{lanes}-normal", rng.standard_normal((n, lanes))
            yield f"n{n}-lanes{lanes}-log-chords", np.log(4.0 * (1.0 - rng.random((n, lanes))))
            if n * n * lanes > 2**20:
                continue  # cubes of at most 8 MB
            cube = rng.standard_normal((n, n, lanes)) * 10.0 ** rng.integers(-300, 301, size=(n, n, lanes))
            cube[0] = cube[:, 0] = -0.0  # the first term of every row and column
            yield f"n{n}-lanes{lanes}-L[i]", cube[n // 2]
            yield f"n{n}-lanes{lanes}-L[:, i]", cube[:, n // 2]
            logs = np.log(4.0 * (1.0 - rng.random((n, n, lanes))))
            yield f"n{n}-lanes{lanes}-log-chords-L[i]", logs[n // 2]
            yield f"n{n}-lanes{lanes}-log-chords-L[:, i]", logs[:, n // 2]


def test_row_sums_match_add_reduce_bitwise():
    # _row_sums(a) of an (n, lanes) array must give each lane the sum numpy
    # takes of that lane's n terms lying contiguous: a numpy whose summation
    # order differs, or a helper that sums the wrong way round, fails here by
    # name
    from kezeta.sampler import _row_sums

    for name, a in _row_sum_cases():
        want = np.array([np.add.reduce(np.array(a[:, lane])) for lane in range(a.shape[1])])
        got = _row_sums(a)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), name


@pytest.mark.parametrize("kept", [8, 9, 63, 64, 65, 232, 2047, 2048, 2049, 5000])
@pytest.mark.parametrize("chains", [1, 16])
def test_energy_estimate_matches_array_split_means_bitwise(kept, chains):
    # the batch means come from two reshaped reductions; the estimator they
    # replace cut each chain with np.array_split and took .mean() per batch
    from kezeta.montecarlo import McEstimate
    from kezeta.sampler import _energy_estimate, _integrated_autocorr

    rng = np.random.Generator(np.random.PCG64(kept * 100 + chains))
    energies = rng.standard_normal((chains, kept)) * 0.3 - 0.2
    batch_means = []
    for e in energies:
        batch_means.extend(b.mean() for b in np.array_split(e, min(32, max(4, e.size // 64))))
    bm = np.array(batch_means)
    want = McEstimate(
        float(energies.mean()), float(bm.std(ddof=1) / math.sqrt(bm.size)), energies.size, 5, chains,
        {
            "tau_int": float(np.mean([_integrated_autocorr(e) for e in energies])),
            "n_batches": int(bm.size),
            "batch_means_variance": float(bm.var(ddof=1)),
        },
    )
    got = _energy_estimate(energies, 5).to_json()
    assert repr(got) == repr(want.to_json())


# ---------------------------------------------------------------------------
# gates

def test_run_chain_gates():
    with pytest.raises(ThresholdError):
        run_chain(TRIVIAL, -1.0, 4, sweeps=10)  # trivial curve: gamma_N < 1
    with pytest.raises(ThresholdError):
        run_chain(TRIVIAL, -0.75, 4, sweeps=10)
    with pytest.raises(StabilityError):
        run_chain(LogFanoCurve((0j,), (1.2,)), 1.0, 4, sweeps=10)
    with pytest.raises(ValidationError):
        run_chain(TRIVIAL, 1.0, 1, sweeps=10)
    with pytest.raises(ValidationError):
        run_chain(TRIVIAL, 1.0, 4, sweeps=0)
    # attractive runs are allowed exactly when gamma_N > 1
    run_chain(HALF3, -1.0, 6, sweeps=5, burn_in=5, seed=0)


def test_negative_burn_in_is_refused_before_any_draw(monkeypatch):
    # a negative burn-in used to keep a slot no sweep had written
    import kezeta.sampler as sampler

    def no_draws(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampler, "sample_uniform_array", no_draws)
    with pytest.raises(ValidationError):
        run_chain(TRIVIAL, 1.0, 3, sweeps=20, burn_in=-5, thinning=5)


# ---------------------------------------------------------------------------
# energy statistics

def test_mean_energy_uniform_pin():
    # beta = 0: points are uniform, E[config_energy] = d_L (1/2 - log 2)
    (est,) = mean_energy_run(TRIVIAL, [0.0], 6, sweeps=6000, seed=3)
    target = 2.0 * (0.5 - math.log(2.0))
    assert abs(est.mean - target) < 4.0 * est.std_error


def test_mean_energy_two_seeds_agree():
    (a,) = mean_energy_run(TRIVIAL, [1.0], 3, sweeps=4000, seed=1)
    (b,) = mean_energy_run(TRIVIAL, [1.0], 3, sweeps=4000, seed=2)
    comb = math.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) < 4.0 * comb


def test_mean_energy_monotone_in_beta():
    # dE/dbeta = -N Var(E) <= 0: mean energy decreases along the beta grid
    ests = mean_energy_run(TRIVIAL, [0.0, 0.5, 1.0], 3, sweeps=4000, seed=7)
    for lo, hi in zip(ests, ests[1:]):
        slack = 3.0 * math.hypot(lo.std_error, hi.std_error)
        assert hi.mean < lo.mean + slack


def test_mean_energy_run_mixed_betas_match_digamma_closed_form():
    # one call, three nodes; at beta = 0 the target is d_L (1/2 - log 2)
    from kezeta.verify import three_point_mean_energy

    betas = [0.0, 0.5, 1.0]
    ests = mean_energy_run(TRIVIAL, betas, 3, sweeps=4000, seed=5)
    assert three_point_mean_energy(0.0) == pytest.approx(2.0 * (0.5 - math.log(2.0)), rel=1e-14)
    for beta, est in zip(betas, ests):
        assert est.n_samples == 16 * 250 and est.worker_count == 16
        assert abs(est.mean - three_point_mean_energy(beta)) < 4.0 * est.std_error


def test_mean_energy_run_lanes_are_node_major_run_chain_lanes():
    # nodes [b, b] with c chains each are run_chain's 2c lanes split in two
    # blocks, each estimated by the estimator mean_energy_estimate uses; at
    # N = 9 the row sums and kept energies run past 8 terms
    from dataclasses import replace

    import kezeta.sampler as sampler

    c, per_chain = sampler._LADDER_CHAINS, 60
    for N in (3, 9):
        stream = run_chain(TRIVIAL, 0.5, N, sweeps=per_chain, burn_in=200, seed=13, thinning=1, chains=2 * c)
        ests = mean_energy_run(TRIVIAL, [0.5, 0.5], N, sweeps=c * per_chain, seed=13)
        for k, est in enumerate(ests):
            block = slice(k * c, (k + 1) * c)
            part = replace(stream, configs=stream.configs[block], energies=stream.energies[block], chains=c)
            assert est.to_json() == mean_energy_estimate(part).to_json()


def test_mean_energy_run_gates_before_sampling(monkeypatch):
    import kezeta.sampler as sampler

    def no_draws(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampler, "sample_uniform_array", no_draws)
    with pytest.raises(ThresholdError):  # -gamma_3 = -2/3 on the trivial curve
        mean_energy_run(TRIVIAL, [0.5, 1.0, -0.7], 3, sweeps=1000)
    with pytest.raises(ThresholdError):
        mean_energy_run(TRIVIAL, [-2.0 / 3.0], 3, sweeps=1000)
    with pytest.raises(ValidationError):
        mean_energy_run(TRIVIAL, [], 3, sweeps=1000)


# ---------------------------------------------------------------------------
# marginals and K-S machinery

def test_marginal_histogram_uniform_passes_ks():
    stream = run_chain(TRIVIAL, 1.0, 8, sweeps=2000, seed=1, thinning=4, chains=4)
    hist = marginal_histogram(stream, bins=40)
    assert hist.counts.sum() == stream.energies.size * 8
    assert hist.effective_sample_size > 100
    ks = ks_against(hist, lambda t: (t + 1.0) / 2.0)
    assert ks < ks_threshold(hist.effective_sample_size)


def test_marginal_histogram_negative_control():
    # same samples against a wrong (quadratic) reference cdf: must fail big
    stream = run_chain(TRIVIAL, 1.0, 8, sweeps=1000, seed=1, thinning=4, chains=2)
    hist = marginal_histogram(stream)
    ks = ks_against(hist, lambda t: ((t + 1.0) / 2.0) ** 2)
    assert ks > 0.15
    assert ks > ks_threshold(hist.effective_sample_size)


def test_marginal_histogram_validation():
    stream = run_chain(TRIVIAL, 1.0, 4, sweeps=50, seed=1)
    with pytest.raises(ValidationError):
        marginal_histogram(stream, bins=5)
    with pytest.raises(ValidationError):
        MarginalHistogram(np.linspace(-1, 1, 11), -np.ones(10), 10.0)
    with pytest.raises(ValidationError):
        MarginalHistogram(np.linspace(-0.5, 1, 11), np.ones(10), 10.0)
    with pytest.raises(ValidationError):
        ks_threshold(0.0)


def test_mean_energy_estimate_empty_stream():
    stream = run_chain(TRIVIAL, 1.0, 4, sweeps=3, burn_in=0, thinning=10, seed=1)
    assert stream.configs.shape == (1, 0, 4, 3) and stream.energies.shape == (1, 0)
    with pytest.raises(ValidationError):
        mean_energy_estimate(stream)
