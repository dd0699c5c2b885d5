"""Metropolis-Hastings sampling of the canonical Gibbs ensemble on (S^2)^N.

Target density with respect to dsigma^(N):

    exp(-beta N E(x)) * prod_i prod_j c(x_i, p_j)^(-2 w_j),
    E(x) = d_L/(N(N-1)) * sum_{i != j} -log||x_i - x_j||,

so log_target = -beta N E + sum_{i,j} 2 w_j G(x_i, p_j).  Proposals are
single-site: a tangent-space Gaussian at the current point, re-projected to
the sphere; that kernel's density depends only on the angle between old and
new point, hence is symmetric and plain Metropolis acceptance is correct.
step_scale is adapted every 50 sweeps during burn-in towards acceptance in
[0.2, 0.5], then frozen so the measurement phase satisfies detailed balance.

Proposals landing within chordal 1e-12 of another point (or of a marked point
with nonzero weight) are rejected outright -- a measure-zero modification
that keeps log_target finite.

Chains run as lanes of one vectorized sweep loop: lane l uses lane l of
every draw from a single master stream, so results are bit-reproducible for
fixed (seed, lanes) and lanes are mutually independent.  Each lane carries
its own beta.  run_chain broadcasts one beta to its `chains` lanes and keeps
the (chains, kept) energy and (chains, kept, N, 3) configuration arrays the
loop fills: row c is chain c, column j its sweep (j + 1) * thinning - 1.
mean_energy_run runs a whole beta list as one batch, node-major (node k owns
lanes k*_LADDER_CHAINS .. (k+1)*_LADDER_CHAINS - 1), and keeps energies only.

Positions are stored component-major with lanes last, as one (3, N, lanes)
array, so every per-site slice a step reads or writes (site i's x, y and z
across the lanes) is one contiguous run of `lanes` doubles; every squared
distance comes from sphere.sq_chord.  Kept configurations are written out
as (lanes, kept, N, 3).

A sweep visits sites 0 .. N-1 in turn.  It starts by drawing all its
proposal normals, rng.normal(size=(N, lanes, 3)), then all its acceptance
uniforms, rng.uniform(size=(N, lanes)); step i reads row i of each.  In the
same batch it forms all N candidates, normalises them and, when the curve has
marked points, computes their guard against the marked points and their
weight part.  This is exact, not an approximation: only step i moves site i,
so at its turn site i still sits where it sat when the sweep began, and step
scales change only between sweeps.  The kernel is the same one; hoisting
only fixes which draws feed which step.  The per-step loop keeps what reads
state other steps write: the candidate's distance row against the current
positions, the pair guard, the log row and the Metropolis test.  The pair
guard is read from the minimum of the whole (N, lanes) row, and only when
that trips from each lane's; step i writes its accept decisions to row i of
an (N, lanes) buffer, counted once per sweep.

Each lane caches its N x N matrix of log squared distances, L: (N, N,
lanes), and the weight part of every site, SW: (N, lanes).  A step computes
the candidate's distance row only, reuses the cached row L[i] and weight
SW[i] of the point it would replace, and rewrites row L[i] and column
L[:, i] of the cache (and SW[i]) where the proposal is accepted, through one
(N, lanes) copy of its decisions.  A step's row sums keep the order numpy
takes along a contiguous lane row (_row_sums): below 8 terms one vector add
per term, from 8 terms on numpy's pairwise sum over a contiguous (lanes, N)
copy.  Kept energies are summed from the cached logs, the pairs one after
the other in triu order, as a sum over the pair axis of
sphere.pairwise_log_chordal for a batch of chains adds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .chart import green
from .errors import ValidationError
from .montecarlo import McEstimate
from .sphere import (
    _D2_FLOOR,
    PointConfiguration,
    config_energy,
    sample_uniform_array,
    sq_chord,
)
from .stability import LogFanoCurve, require_gibbs_measure

__all__ = [
    "SampleStream",
    "MarginalHistogram",
    "log_target",
    "run_chain",
    "mean_energy_estimate",
    "mean_energy_run",
    "marginal_histogram",
    "ks_against",
    "ks_threshold",
]

_ADAPT_WINDOW = 50  # sweeps between step-scale updates during burn-in
_GUARD_TOL = 1e-12  # outright-reject radius around other points and marked points
_SCALE_LO, _SCALE_HI = 1e-3, 2.0
_STEP_SCALE = 0.5  # every lane's proposal scale before adaptation
_LADDER_CHAINS = 16  # lanes per beta node in mean_energy_run
KS_99 = 1.628  # asymptotic K-S quantile sqrt(-log(0.005)/2)
MIN_BINS = 10  # fewest axial histogram bins marginal_histogram accepts
# Bytes of a run's (N, N, lanes) log-distance caches plus its kept energies
# and (lanes, kept, N, 3) configurations, refused above this before any array
# is allocated; `sample` writes its CSV one row of text at a time.
_MAX_STATE_BYTES = 256 * 2**20


def log_target(config: PointConfiguration, curve: LogFanoCurve, beta: float) -> float:
    """Unnormalized log density of the Gibbs measure wrt dsigma^(N)."""
    return _log_target(config, curve, beta, config_energy(config, curve))


def _log_target(config: PointConfiguration, curve: LogFanoCurve, beta: float, energy: float) -> float:
    """log_target of a configuration whose config_energy is already known."""
    lt = -beta * len(config) * energy
    for p in config.points:
        for q, w in zip(curve.marked_sphere_points(), curve.weights):
            lt += 2.0 * w * green(p, q)
    return float(lt)


@dataclass
class SampleStream:
    """Thinned post-burn-in configurations from one vectorized chain batch."""

    beta: float
    n_points: int
    configs: np.ndarray  # (chains, kept, N, 3)
    energies: np.ndarray  # (chains, kept), config_energy of each configuration
    seed: int
    chains: int
    sweeps: int
    burn_in: int
    thinning: int
    acceptance_rate: np.ndarray  # per chain, measurement phase
    final_step_scale: np.ndarray
    adaptation_trace: list

    def to_report(self) -> dict:
        return {
            "beta": self.beta,
            "n_points": self.n_points,
            "chains": self.chains,
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
            "thinning": self.thinning,
            "seed": self.seed,
            "kept": int(self.energies.size),
            "acceptance_rate": [float(a) for a in self.acceptance_rate],
            "final_step_scale": [float(s) for s in self.final_step_scale],
            "adaptation_trace": self.adaptation_trace,
        }


def _marked_arrays(curve: LogFanoCurve):
    """The marked points of nonzero weight, component-major (3, M), and
    their weights (M,)."""
    pts = [p.vec for p, w in zip(curve.marked_sphere_points(), curve.weights) if w != 0]
    wts = [w for w in curve.weights if w != 0]
    if not pts:
        return np.zeros((3, 0)), np.zeros(0)
    return np.stack(pts, axis=-1), np.array(wts, dtype=float)


def _weight_part(dm: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """sum_j 2 w_j G(x, p_j) from the squared distances dm: (..., M) of
    points x to the M marked points."""
    return -np.add.reduce(wts * np.log(np.maximum(dm, _D2_FLOOR)), axis=-1)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each lane's sum of an (n, lanes) array a, bit for bit the sum numpy
    takes of that lane's n terms lying contiguous, as a row-major loop over
    (lanes, n) rows sums them.  Below 8 terms numpy adds a row's terms one
    by one onto 0.0, which is also the order of a sum over axis 0, one
    vector add per term.  From 8 terms on it sums a contiguous row pairwise,
    while a sum over axis 0 stays sequential and gives other bits, so the
    terms are first copied into a contiguous (lanes, n) array."""
    if a.shape[0] < 8:
        return np.add.reduce(a, axis=0)
    return np.add.reduce(np.ascontiguousarray(a.T), axis=-1)


def _run_lanes(
    curve: LogFanoCurve,
    betas: np.ndarray,
    N: int,
    sweeps: int,
    burn_in: int,
    seed: int,
    thinning: int,
    keep_configs: bool,
):
    """The one Metropolis sweep loop: lane l targets inverse temperature
    betas[l] and draws lane l of every draw from the master stream of `seed`.
    Returns (energies, configs or None, step scales, acceptance rates, trace):
    every `thinning`-th measurement sweep fills column j of the preallocated
    (lanes, kept) arrays, and trace holds (sweep, rates, scales) per adaptation.
    A run whose caches and kept arrays would take more than _MAX_STATE_BYTES
    is refused before any of them is allocated."""
    if N < 2:
        raise ValidationError("need at least 2 points")
    if sweeps < 1 or betas.size < 1 or thinning < 1:
        raise ValidationError("sweeps, chains and thinning must be positive")
    if burn_in < 0:
        raise ValidationError(f"burn-in must be non-negative, got {burn_in}")
    lanes = betas.size
    kept = sweeps // thinning
    per_kept = 1 + 3 * N if keep_configs else 1  # an energy, and the configuration if kept
    nbytes = 8 * lanes * (N * N + kept * per_kept)
    if nbytes > _MAX_STATE_BYTES:
        raise ValidationError(
            f"{lanes} lanes of {N} points keeping {kept} sweeps need {nbytes / 2**20:.0f} MiB, "
            f"more than {_MAX_STATE_BYTES // 2**20} MiB"
        )
    require_gibbs_measure(curve, float(betas.min()), N)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    marked, wts = _marked_arrays(curve)
    tol2 = _GUARD_TOL**2
    pref = curve.d_L / (N * (N - 1))
    coef = -betas * N * pref * 2.0  # per lane; the same bits as a scalar beta
    hcoef = coef * -0.5  # the pair term's -1/2 folded in: a power of two, exact

    # initial state: uniform, lane by lane, resampled until the guard is
    # satisfied; draw row l * N + i is site i of lane l
    X = np.ascontiguousarray(sample_uniform_array(rng, lanes * N).reshape(lanes, N, 3).transpose(2, 1, 0))
    for _ in range(100):
        bad = _guard_violations(X, marked)
        if not bad.any():
            break
        X[:, :, bad] = sample_uniform_array(rng, int(bad.sum()) * N).reshape(-1, N, 3).transpose(2, 1, 0)

    # Per-lane caches, built once and then rewritten only where a proposal
    # is accepted: L[a, b, l] = log |x_a - x_b|^2 with log 1 = 0 on the
    # diagonal, SW[a, l] = the weight part of site a.  (a - b)^2 = (b - a)^2
    # exactly, so a cached entry is the float recomputation would give.
    L = np.log(_self_masked_sq_dists(X))
    SW = _weight_part(_marked_sq_dists(X, marked), wts)
    iu = np.triu_indices(N, k=1)

    scales = np.full(lanes, _STEP_SCALE)
    acc = np.zeros(lanes, dtype=np.int64)
    accs = np.empty((N, lanes), dtype=bool)  # row i: step i's accept decisions
    on = np.empty((N, lanes), dtype=bool)  # step i's decisions, for every site
    prop = 0  # proposals per lane since the last reset: N per sweep
    trace = []

    energies = np.empty((lanes, kept))
    configs = np.empty((lanes, kept, N, 3)) if keep_configs else None
    for sweep in range(burn_in + sweeps):
        # The sweep's draws and every candidate, in one batch: step i moves
        # site i only, so site i still sits at X[:, i] when its turn comes.
        g = rng.normal(size=(N, lanes, 3)).transpose(2, 0, 1)  # (3, N, lanes)
        logu = np.log(rng.uniform(size=(N, lanes)))
        gx = g * X
        cands = X + scales * (g - (gx[0] + gx[1] + gx[2]) * X)
        cands /= np.sqrt(sq_chord(cands, 0.0))  # |cand|
        if marked.shape[1]:
            dm = _marked_sq_dists(cands, marked)  # (N, lanes, M)
            mok = ~(np.minimum.reduce(dm, axis=-1) < tol2)
            sw = _weight_part(dm, wts)
            dsw = sw - SW  # SW[i] changes only at step i
        for i in range(N):
            cand = cands[:, i]
            # only the candidate's row is new; the old one is L[i]
            d2 = sq_chord(X, cand[:, None])
            d2[i] = 1.0  # mask self
            row = np.log(d2)
            dlt = hcoef * (_row_sums(row) - _row_sums(L[i]))
            if marked.shape[1]:
                dlt += dsw[i]
            accept = np.less(logu[i], dlt, out=accs[i])
            if marked.shape[1]:
                accept &= mok[i]
            # the pair guard seldom trips: test the whole row's minimum, and
            # only then (or on a NaN) each lane's
            if not d2.min() >= tol2:
                accept &= ~(np.minimum.reduce(d2, axis=0) < tol2)
            on[...] = accept
            np.copyto(X[:, i], cand, where=accept)
            np.putmask(L[i], on, row)
            np.putmask(L[:, i], on, row)
            if marked.shape[1]:
                np.putmask(SW[i], accept, sw[i])
        acc += np.add.reduce(accs, axis=0)
        prop += N

        if sweep < burn_in and (sweep + 1) % _ADAPT_WINDOW == 0:
            rate = acc / max(prop, 1)
            scales = np.where(rate > 0.5, scales * 1.4, scales)
            scales = np.where(rate < 0.2, scales * 0.7, scales)
            scales = np.clip(scales, _SCALE_LO, _SCALE_HI)
            trace.append((sweep + 1, rate, scales))
            acc[:] = 0
            prop = 0
        if sweep + 1 == burn_in:
            acc[:] = 0
            prop = 0

        k = sweep - burn_in
        if k >= 0 and (k + 1) % thinning == 0:
            j = k // thinning
            # the cached logs are the pairwise kernel's values: the guard keeps
            # every pair far above its clamp; the pairs are summed one after
            # the other, in triu order
            energies[:, j] = -2.0 * pref * np.add.reduce(0.5 * L[iu[0], iu[1]], axis=0)
            if configs is not None:
                configs[:, j] = X.T
    return energies, configs, scales, acc / max(prop, 1), trace


def run_chain(
    curve: LogFanoCurve,
    beta: float,
    N: int,
    sweeps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
    thinning: int = 10,
    chains: int = 1,
) -> SampleStream:
    """Run `chains` parallel chains at one `beta` for `sweeps` measurement
    sweeps each."""
    if burn_in is None:
        burn_in = max(100, sweeps // 10)
    energies, configs, scales, rate, trace = _run_lanes(
        # a read-only view: nothing of size `chains` exists before the size check
        curve, np.broadcast_to(float(beta), max(chains, 0)), N, sweeps, burn_in,
        seed, thinning, keep_configs=True,
    )
    return SampleStream(
        beta=beta,
        n_points=N,
        configs=configs,
        energies=energies,
        seed=seed,
        chains=chains,
        sweeps=sweeps,
        burn_in=burn_in,
        thinning=thinning,
        acceptance_rate=rate,
        final_step_scale=scales,
        adaptation_trace=[
            {"sweep": k, "acceptance": [float(r) for r in r_k], "step_scale": [float(x) for x in sc]}
            for k, r_k, sc in trace
        ],
    )


def _self_masked_sq_dists(X: np.ndarray) -> np.ndarray:
    """(N, N, lanes) squared distances between the sites of each lane of
    X: (3, N, lanes), with 1.0 on the diagonal."""
    d2 = sq_chord(X[:, :, None], X[:, None])
    n = X.shape[1]
    d2[np.arange(n), np.arange(n)] = 1.0
    return d2


def _marked_sq_dists(X: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """(N, lanes, M) squared distances from the sites of X: (3, N, lanes)
    to the marked points (3, M)."""
    return sq_chord(X[..., None], marked[:, None, None, :])


def _guard_violations(X: np.ndarray, marked: np.ndarray) -> np.ndarray:
    bad = _self_masked_sq_dists(X).min(axis=(0, 1)) < _GUARD_TOL**2
    if marked.shape[1]:
        bad |= _marked_sq_dists(X, marked).min(axis=(0, 2)) < _GUARD_TOL**2
    return bad


# ---------------------------------------------------------------------------
# statistics on sample streams

def _integrated_autocorr(series: np.ndarray) -> float:
    """Initial-positive-sequence estimate of tau = sum_k rho_k (k >= 1)."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 8:
        return 0.0
    x = x - x.mean()
    var = float(np.dot(x, x) / n)
    if var <= 0:
        return 0.0
    tau = 0.0
    for k in range(1, n // 3):
        rho = float(np.dot(x[:-k], x[k:]) / ((n - k) * var))
        if rho <= 0:
            break
        tau += rho
    return tau


def _batch_means(energies: np.ndarray) -> np.ndarray:
    """(chains, nb) batch means of a (chains, kept) energy block: each row
    cut into nb batches as np.array_split cuts it (the first r one longer)
    and each batch averaged as .mean() does, one pairwise sum and one
    division, in a single reduction per batch length."""
    chains, kept = energies.shape
    nb = min(32, max(4, kept // 64)) if kept >= 8 else 1
    q, r = divmod(kept, nb)
    cut = r * (q + 1)
    long = np.add.reduce(energies[:, :cut].reshape(chains, r, q + 1), axis=-1) / (q + 1)
    short = np.add.reduce(energies[:, cut:].reshape(chains, nb - r, q), axis=-1) / q
    return np.concatenate([long, short], axis=1)


def _energy_estimate(energies: np.ndarray, seed: int) -> McEstimate:
    """Batch-means estimate of the mean of a (chains, kept) energy block,
    one row per chain: the estimator behind both mean-energy routes."""
    bm = _batch_means(energies).ravel()
    taus = [_integrated_autocorr(e) for e in energies]
    se = float(bm.std(ddof=1) / math.sqrt(bm.size)) if bm.size > 1 else float("inf")
    return McEstimate(
        float(energies.mean()),
        se,
        int(energies.size),
        seed,
        energies.shape[0],
        {
            "tau_int": float(np.mean(taus)),
            "n_batches": int(bm.size),
            "batch_means_variance": float(bm.var(ddof=1)) if bm.size > 1 else float("inf"),
        },
    )


def mean_energy_estimate(samples: SampleStream) -> McEstimate:
    """Batch-means estimate of E[config_energy] over the stream."""
    if samples.energies.size == 0:
        raise ValidationError("empty sample stream")
    return _energy_estimate(samples.energies, samples.seed)


def mean_energy_run(
    curve: LogFanoCurve,
    betas: Sequence[float],
    N: int,
    sweeps: int,
    seed: int = 0,
) -> list[McEstimate]:
    """Mean-energy estimates at every beta of `betas` from one lane batch;
    the unit free_energy_curve builds on.

    Node k owns lanes k*_LADDER_CHAINS .. (k+1)*_LADDER_CHAINS - 1.  Every
    chain makes max(50, ceil(sweeps / _LADDER_CHAINS)) measurement sweeps after
    max(200, that // 5) burn-in sweeps and keeps the energy of each, so
    `sweeps` is the budget of one node pooled over its chains.  All lanes
    draw from the one stream of `seed`, in run_chain's order: a single-node
    call returns the numbers mean_energy_estimate gives on the matching
    run_chain stream (thinning 1).  Only a (lanes, kept) energy array is
    stored; node k's estimate comes from its row block.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValidationError("need a non-empty beta list")
    chains = _LADDER_CHAINS
    per_chain = max(50, int(math.ceil(sweeps / chains)))
    energies = _run_lanes(
        curve, np.repeat(betas, chains), N, per_chain, max(200, per_chain // 5),
        seed, 1, keep_configs=False,
    )[0]
    return [_energy_estimate(energies[k * chains:(k + 1) * chains], seed) for k in range(len(betas))]


@dataclass
class MarginalHistogram:
    edges: np.ndarray  # bins + 1 edges covering [-1, 1]
    counts: np.ndarray
    effective_sample_size: float

    def __post_init__(self):
        if np.any(self.counts < 0):
            raise ValidationError("negative histogram counts")
        if abs(self.edges[0] + 1.0) > 1e-12 or abs(self.edges[-1] - 1.0) > 1e-12:
            raise ValidationError("bins must cover [-1, 1]")

    def probabilities(self) -> np.ndarray:
        total = self.counts.sum()
        return self.counts / total if total > 0 else self.counts


def marginal_histogram(samples: SampleStream, bins: int = 40) -> MarginalHistogram:
    """Axial (t = cos theta) histogram of all retained points.

    The effective sample size is conservative: kept configurations divided by
    (1 + 2 tau) of the per-configuration axial mean, ignoring that each
    configuration carries N points.
    """
    if bins < MIN_BINS:
        raise ValidationError(f"need at least {MIN_BINS} bins")
    t = samples.configs[..., 2]  # (chains, kept, N)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(t, bins=edges)
    taus = [_integrated_autocorr(axial_mean) for axial_mean in t.mean(axis=-1)]
    tau = float(np.mean(taus)) if taus else 0.0
    ess = samples.energies.size / (1.0 + 2.0 * tau)
    return MarginalHistogram(edges, counts.astype(float), float(ess))


def ks_against(hist: MarginalHistogram, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """K-S distance between the histogram's empirical cdf and a reference cdf,
    both evaluated at the bin edges."""
    total = hist.counts.sum()
    if total <= 0:
        raise ValidationError("empty histogram")
    ecdf = np.concatenate([[0.0], np.cumsum(hist.counts) / total])
    ref = np.asarray(cdf(hist.edges), dtype=float)
    return float(np.max(np.abs(ecdf - ref)))


def ks_threshold(ess: float) -> float:
    """Pass threshold for ks_against at the given effective sample size."""
    if ess <= 0:
        raise ValidationError("effective sample size must be positive")
    return KS_99 / math.sqrt(ess)
