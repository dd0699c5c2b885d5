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
with positive weight) are rejected outright -- a measure-zero modification
that keeps log_target finite.

Several chains run as one vectorized batch: chain c uses lane c of every
draw from a single master stream, so results are bit-reproducible for fixed
(seed, chains) and chains are mutually independent.  Samples merge in
(chain index, step index) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import StabilityError, ThresholdError, ValidationError
from .montecarlo import McEstimate
from .sphere import (
    PointConfiguration,
    config_energy,
    green,
    pairwise_log_chordal,
    sample_uniform_array,
)
from .stability import LogFanoCurve, classify, gamma_threshold

__all__ = [
    "ChainState",
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
KS_99 = 1.628  # asymptotic K-S quantile sqrt(-log(0.005)/2)


def log_target(config: PointConfiguration, curve: LogFanoCurve, beta: float) -> float:
    """Unnormalized log density of the Gibbs measure wrt dsigma^(N)."""
    lt = -beta * len(config) * config_energy(config, curve)
    for p in config.points:
        for q, w in zip(curve.marked_sphere_points(), curve.weights):
            lt += 2.0 * w * green(p, q)
    return float(lt)


@dataclass
class ChainState:
    config: PointConfiguration
    log_density: float
    step_scale: float
    accept_count: int
    proposal_count: int


@dataclass
class SampleStream:
    """Thinned post-burn-in configurations from one vectorized chain batch."""

    curve: LogFanoCurve
    beta: float
    n_points: int
    configs: np.ndarray  # (kept_total, N, 3), chain-major
    energies: np.ndarray  # config_energy per kept configuration
    chain_index: np.ndarray
    step_index: np.ndarray
    seed: int
    chains: int
    sweeps: int
    burn_in: int
    thinning: int
    acceptance_rate: np.ndarray  # per chain, measurement phase
    final_step_scale: np.ndarray
    adaptation_trace: list = field(default_factory=list)
    final_states: list = field(default_factory=list)

    def axial_values(self) -> np.ndarray:
        """z-coordinates (t = cos theta) of every retained point, pooled."""
        return self.configs[:, :, 2].ravel()

    def to_report(self) -> dict:
        return {
            "beta": self.beta,
            "n_points": self.n_points,
            "chains": self.chains,
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
            "thinning": self.thinning,
            "seed": self.seed,
            "kept": int(self.configs.shape[0]),
            "acceptance_rate": [float(a) for a in self.acceptance_rate],
            "final_step_scale": [float(s) for s in self.final_step_scale],
            "adaptation_trace": self.adaptation_trace,
        }


def _marked_arrays(curve: LogFanoCurve):
    pts = [p.vec for p, w in zip(curve.marked_sphere_points(), curve.weights) if w > 0]
    wts = [w for w in curve.weights if w > 0]
    if not pts:
        return np.zeros((0, 3)), np.zeros(0)
    return np.stack(pts), np.array(wts, dtype=float)


def _site_weight_part(x: np.ndarray, marked: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """sum_j 2 w_j G(x, p_j) for a batch of single points x: (..., 3)."""
    if marked.shape[0] == 0:
        return np.zeros(x.shape[:-1])
    d2 = np.sum((x[..., None, :] - marked) ** 2, axis=-1)
    return -np.sum(wts * np.log(np.maximum(d2, 1e-300)), axis=-1)


def run_chain(
    curve: LogFanoCurve,
    beta: float,
    N: int,
    sweeps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
    thinning: int = 10,
    chains: int = 1,
    step_scale: float = 0.5,
    adapt: bool = True,
) -> SampleStream:
    """Run `chains` parallel chains for `sweeps` measurement sweeps each."""
    if N < 2:
        raise ValidationError("need at least 2 points")
    if sweeps < 1 or chains < 1 or thinning < 1:
        raise ValidationError("sweeps, chains and thinning must be positive")
    verdict = classify(curve)
    if verdict.kind == "NotLogFano":
        raise StabilityError(f"refusing to sample: verdict {verdict.kind}")
    gamma = gamma_threshold(curve.weights, N)
    if beta <= -gamma:
        raise ThresholdError(
            f"beta = {beta} at or below -gamma_N = {-gamma}: Z_N diverges, no Gibbs measure"
        )
    if burn_in is None:
        burn_in = max(100, sweeps // 10)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    marked, wts = _marked_arrays(curve)
    pref = curve.d_L / (N * (N - 1))

    # initial state: uniform, resampled until the guard is satisfied
    X = sample_uniform_array(rng, chains * N).reshape(chains, N, 3)
    for _ in range(100):
        bad = _guard_violations(X, marked)
        if not bad.any():
            break
        X[bad] = sample_uniform_array(rng, int(bad.sum()) * N).reshape(-1, N, 3)

    scales = np.full(chains, step_scale)
    acc = np.zeros(chains, dtype=np.int64)
    prop = np.zeros(chains, dtype=np.int64)
    trace = []

    kept_X, kept_E, kept_step = [], [], []
    total = burn_in + sweeps
    for sweep in range(total):
        for i in range(N):
            x = X[:, i, :]
            g = rng.normal(size=(chains, 3))
            tang = g - np.sum(g * x, axis=-1, keepdims=True) * x
            cand = x + scales[:, None] * tang
            cand /= np.linalg.norm(cand, axis=-1, keepdims=True)

            d2_new = np.sum((X - cand[:, None, :]) ** 2, axis=-1)
            d2_old = np.sum((X - x[:, None, :]) ** 2, axis=-1)
            d2_new[:, i] = d2_old[:, i] = 1.0  # mask self
            guard = d2_new.min(axis=-1) < _GUARD_TOL**2
            if marked.shape[0]:
                dm = np.sum((cand[:, None, :] - marked) ** 2, axis=-1)
                guard |= dm.min(axis=-1) < _GUARD_TOL**2

            dpair = -0.5 * (np.sum(np.log(d2_new), axis=-1) - np.sum(np.log(d2_old), axis=-1))
            dw = _site_weight_part(cand, marked, wts) - _site_weight_part(x, marked, wts)
            dlt = -beta * N * pref * 2.0 * dpair + dw
            accept = (np.log(rng.uniform(size=chains)) < dlt) & ~guard
            X[accept, i, :] = cand[accept]
            acc += accept
            prop += 1

        if adapt and sweep < burn_in and (sweep + 1) % _ADAPT_WINDOW == 0:
            rate = acc / np.maximum(prop, 1)
            scales = np.where(rate > 0.5, scales * 1.4, scales)
            scales = np.where(rate < 0.2, scales * 0.7, scales)
            scales = np.clip(scales, _SCALE_LO, _SCALE_HI)
            trace.append(
                {
                    "sweep": sweep + 1,
                    "acceptance": [float(r) for r in rate],
                    "step_scale": [float(s) for s in scales],
                }
            )
            acc[:] = 0
            prop[:] = 0
        if sweep + 1 == burn_in:
            acc[:] = 0
            prop[:] = 0

        k = sweep - burn_in
        if k >= 0 and (k + 1) % thinning == 0:
            kept_X.append(X.copy())
            kept_E.append(-2.0 * pref * np.sum(pairwise_log_chordal(X), axis=-1))
            kept_step.append(k)

    kept = len(kept_X)
    configs = np.stack(kept_X, axis=1).reshape(chains * kept, N, 3) if kept else np.zeros((0, N, 3))
    energies = np.stack(kept_E, axis=1).reshape(chains * kept) if kept else np.zeros(0)
    chain_index = np.repeat(np.arange(chains), kept)
    step_index = np.tile(np.array(kept_step, dtype=int), chains)

    states = []
    for c in range(chains):
        cfg = PointConfiguration.from_array(X[c])
        states.append(
            ChainState(
                config=cfg,
                log_density=log_target(cfg, curve, beta),
                step_scale=float(scales[c]),
                accept_count=int(acc[c]),
                proposal_count=int(prop[c]),
            )
        )
    return SampleStream(
        curve=curve,
        beta=beta,
        n_points=N,
        configs=configs,
        energies=energies,
        chain_index=chain_index,
        step_index=step_index,
        seed=seed,
        chains=chains,
        sweeps=sweeps,
        burn_in=burn_in,
        thinning=thinning,
        acceptance_rate=acc / np.maximum(prop, 1),
        final_step_scale=scales,
        adaptation_trace=trace,
        final_states=states,
    )


def _guard_violations(X: np.ndarray, marked: np.ndarray) -> np.ndarray:
    diff = X[:, :, None, :] - X[:, None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    n = X.shape[1]
    d2[:, np.arange(n), np.arange(n)] = 1.0
    bad = d2.min(axis=(1, 2)) < _GUARD_TOL**2
    if marked.shape[0]:
        dm = np.sum((X[:, :, None, :] - marked) ** 2, axis=-1)
        bad |= dm.min(axis=(1, 2)) < _GUARD_TOL**2
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


def mean_energy_estimate(samples: SampleStream, curve: Optional[LogFanoCurve] = None) -> McEstimate:
    """Batch-means estimate of E[config_energy] over the stream.

    Energies scale linearly in d_L, so re-targeting another curve is a
    rescale of the stored values.
    """
    if samples.configs.shape[0] == 0:
        raise ValidationError("empty sample stream")
    energies = samples.energies
    if curve is not None and curve.d_L != samples.curve.d_L:
        energies = energies * (curve.d_L / samples.curve.d_L)
    means, taus = [], []
    batch_means = []
    for c in range(samples.chains):
        e = energies[samples.chain_index == c]
        nb = min(32, max(4, e.size // 64)) if e.size >= 8 else 1
        batch_means.extend(b.mean() for b in np.array_split(e, nb))
        taus.append(_integrated_autocorr(e))
        means.append(e.mean())
    bm = np.array(batch_means)
    mean = float(energies.mean())
    se = float(bm.std(ddof=1) / math.sqrt(bm.size)) if bm.size > 1 else float("inf")
    return McEstimate(
        mean,
        se,
        int(energies.size),
        samples.seed,
        samples.chains,
        {
            "tau_int": float(np.mean(taus)),
            "n_batches": int(bm.size),
            "batch_means_variance": float(bm.var(ddof=1)) if bm.size > 1 else float("inf"),
        },
    )


def mean_energy_run(
    curve: LogFanoCurve,
    beta: float,
    N: int,
    sweeps: int,
    seed: int = 0,
    chains: int = 16,
) -> McEstimate:
    """Run a fresh chain batch (total sweep budget pooled over chains) and
    return the mean-energy estimate; the unit free_energy_curve builds on."""
    per_chain = max(50, int(math.ceil(sweeps / chains)))
    stream = run_chain(
        curve,
        beta,
        N,
        sweeps=per_chain,
        burn_in=max(200, per_chain // 5),
        seed=seed,
        thinning=1,
        chains=chains,
    )
    return mean_energy_estimate(stream)


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
    if bins < 10:
        raise ValidationError("need at least 10 bins")
    t = samples.axial_values()
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(t, bins=edges)
    taus = []
    for c in range(samples.chains):
        axial_mean = samples.configs[samples.chain_index == c, :, 2].mean(axis=-1)
        taus.append(_integrated_autocorr(axial_mean))
    tau = float(np.mean(taus)) if taus else 0.0
    ess = samples.configs.shape[0] / (1.0 + 2.0 * tau)
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


def ks_threshold(ess: float, quantile: float = KS_99) -> float:
    """Pass threshold for ks_against at the given effective sample size."""
    if ess <= 0:
        raise ValidationError("effective sample size must be positive")
    return quantile / math.sqrt(ess)
