"""Monte Carlo estimators for every integral with a closed form.

All estimators work on the round sphere, in log space, with importance
mixtures that put mass near marked points.  The plane integrals are mapped to
the sphere through the chordal identity |z-w|^2 = c(x,y)^2 (1+|z|^2)(1+|w|^2)/4
and dLebesgue = pi (1+|z|^2)^2 dsigma, which turns the three-point integrand
into bounded chordal factors (the weight at infinity becomes an ordinary
chordal factor to the north pole):

    integral = pi^N 2^(dN + 2N w1 + N w2 + 2N w3)
               E_sigma[ prod_{i!=j} c_ij^(-d/(N-1))
                        prod_i c(x_i,p0)^(-2w1) c(x_i,p1)^(-2w2) c(x_i,pinf)^(-2w3) ].

The sphere partition function is reported under the Z(0) = 1 pin
(self-normalized ratio, so beta = 0 is exactly 1); the conversion to the
plane-Lebesgue convention, Z_plane = pi^N 2^(-beta N d_L) Z_sphere, is in the
diagnostics.

Tail safety: a Hill estimate on the top 1% of importance weights; an index
<= 2 flags likely-infinite variance and switches aggregation to
median-of-means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import StabilityError, ThresholdError, ValidationError
from .sphere import SpherePoint, pairwise_log_chordal, sample_uniform_array
from .stability import LogFanoCurve, classify, gamma_threshold

__all__ = [
    "McEstimate",
    "ProposalComponent",
    "ProposalMixture",
    "mc_selberg",
    "mc_sphere_partition",
    "mc_circular",
    "mc_gaussian_det",
    "mc_gaussian_det_ratio",
    "free_energy_curve",
]

_CHUNK = 20_000
_SOUTH = np.array([0.0, 0.0, -1.0])
_ONE = np.array([1.0, 0.0, 0.0])
_NORTH = np.array([0.0, 0.0, 1.0])


@dataclass
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    worker_count: int
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "worker_count": self.worker_count,
            "diagnostics": self.diagnostics,
        }


def _draw_log_weights(
    seed: int, workers: int, n_samples: int, draw: Callable, chunk: int = _CHUNK
) -> np.ndarray:
    """Per-sample log-weights from `workers` independent streams spawned from
    `seed`.  Each worker draws its share of n_samples (the first
    n_samples % workers take one more) in consecutive calls draw(rng, m),
    m <= chunk; the results are concatenated along axis 0 in (worker, chunk)
    order."""
    streams = np.random.SeedSequence(seed).spawn(workers)
    base, extra = divmod(n_samples, workers)
    parts = []
    for k, stream in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        size = base + (k < extra)
        parts += [draw(rng, min(chunk, size - done)) for done in range(0, size, chunk)]
    return np.concatenate(parts)


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def _hill_tail_index(weights: np.ndarray) -> float:
    """Hill estimate on the top 1% of positive weights (merged, sorted)."""
    w = weights[weights > 0]
    if w.size < 200:
        return float("inf")
    k = max(2, w.size // 100)
    top = np.sort(w)[-k:]
    logs = np.log(top[1:] / top[0])
    denom = float(np.mean(logs))
    return float("inf") if denom <= 0 else 1.0 / denom


def _aggregate(weights: np.ndarray, scale_log: float, seed: int, workers: int) -> McEstimate:
    """Turn per-sample importance weights (times e^scale_log) into an estimate."""
    n = weights.size
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    nbatch = min(100, max(2, n // 50))
    batch_means = np.array([b.mean() for b in np.array_split(weights, nbatch)])
    s_for_batches = math.exp(scale_log)
    diagnostics = {
        "batch_means_variance": float(np.var(batch_means, ddof=1)),
        "batch_means": [float(b * s_for_batches) for b in batch_means],
        "tail_index_estimate": _hill_tail_index(weights),
        "warnings": [],
    }
    if diagnostics["tail_index_estimate"] <= 2.0:
        diagnostics["warnings"].append(
            "tail index <= 2: importance weights look heavy-tailed (infinite "
            "variance); reporting median-of-means"
        )
        g = 32
        groups = np.array([b.mean() for b in np.array_split(weights, g)])
        mean = float(np.median(groups))
        se = float(1.2533 * np.std(groups, ddof=1) / math.sqrt(g))
    s = math.exp(scale_log)
    return McEstimate(mean * s, se * s, n, seed, workers, diagnostics)


# ---------------------------------------------------------------------------
# proposals

def _orthonormal_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = _NORTH if abs(p[2]) < 0.9 else _ONE
    e1 = np.cross(p, ref)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(p, e1)


@dataclass(frozen=True)
class ProposalComponent:
    kind: str  # "uniform" | "marked_point"
    weight: float
    point: Optional[SpherePoint] = None
    radial_exponent: float = 0.0  # the a in density ~ r^(1-a) for the radius

    def __post_init__(self):
        if self.kind not in ("uniform", "marked_point"):
            raise ValidationError(f"unknown proposal kind {self.kind!r}")
        if self.weight <= 0:
            raise ValidationError("proposal component weights must be positive")
        if self.kind == "marked_point":
            if self.point is None:
                raise ValidationError("marked_point component needs a point")
            if not 0 <= self.radial_exponent < 2:
                raise ValidationError("radial exponent must lie in [0, 2) to stay normalizable")


@dataclass(frozen=True)
class ProposalMixture:
    components: tuple[ProposalComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("proposal mixture needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"mixture weights sum to {total}, expected 1")

    @classmethod
    def default_for_curve(cls, curve: LogFanoCurve, rho: float = 0.9) -> "ProposalMixture":
        comps = []
        marked = curve.marked_sphere_points()
        for p, w in zip(marked, curve.weights):
            if w > 0:
                comps.append(ProposalComponent("marked_point", 0.1, p, 2.0 * w * rho))
        comps.insert(0, ProposalComponent("uniform", 1.0 - 0.1 * len(comps)))
        return cls(tuple(comps))

    @classmethod
    def cluster_safe(cls, weights: Sequence[float], rho: float = 0.9) -> "ProposalMixture":
        """Mixture whose radial exponents also tame multi-point pileups.

        A k-point cluster at marked point j carries weight tail index
        (2-a)/(2 w_j + d'(k-1) - a), worst at k = N where d'(N-1) = d; finite
        variance for the full product needs a_j > 2 + 4 w_j - 2 sum(w), which
        is < 2 exactly when the weight condition holds at p_j.  The naive
        single-point choice a_j = 2 w_j rho misses this, so take the max
        (plus margin, capped just under 2).
        """
        total = sum(weights)
        comps = []
        curve = LogFanoCurve.standard(weights)
        for p, w in zip(curve.marked_sphere_points(), curve.weights):
            if w > 0:
                a = min(1.95, max(2.0 * w * rho, 2.0 + 4.0 * w - 2.0 * total + 0.3))
                comps.append(ProposalComponent("marked_point", 0.1, p, a))
        comps.insert(0, ProposalComponent("uniform", 1.0 - 0.1 * len(comps)))
        return cls(tuple(comps))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        probs = np.array([c.weight for c in self.components])
        which = rng.choice(len(self.components), size=n, p=probs)
        out = np.empty((n, 3))
        for k, comp in enumerate(self.components):
            idx = np.nonzero(which == k)[0]
            if idx.size == 0:
                continue
            if comp.kind == "uniform":
                out[idx] = sample_uniform_array(rng, idx.size)
            else:
                a = comp.radial_exponent
                u = rng.uniform(size=idx.size)
                r = 2.0 * u ** (1.0 / (2.0 - a))
                phi = rng.uniform(0.0, 2.0 * math.pi, size=idx.size)
                p = comp.point.vec
                e1, e2 = _orthonormal_frame(p)
                trans = (r * np.sqrt(np.maximum(0.0, 1.0 - r * r / 4.0)))[:, None]
                out[idx] = (
                    (1.0 - r * r / 2.0)[:, None] * p
                    + trans * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)
                )
        return out

    def log_density(self, pts: np.ndarray) -> np.ndarray:
        """log of the mixture density with respect to the uniform probability
        measure dsigma; components: uniform -> 1, marked -> (2-a) 2^(a-1) r^-a."""
        logs = []
        for comp in self.components:
            if comp.kind == "uniform":
                logs.append(np.full(pts.shape[0], math.log(comp.weight)))
            else:
                a = comp.radial_exponent
                logr = _log_chord_to(pts, comp.point.vec)
                logs.append(
                    math.log(comp.weight) + math.log(2.0 - a) + (a - 1.0) * math.log(2.0) - a * logr
                )
        return _logsumexp(np.stack(logs, axis=0), axis=0)


# ---------------------------------------------------------------------------
# estimators

def _log_chord_to(pts: np.ndarray, p: np.ndarray) -> np.ndarray:
    d2 = np.sum((pts - p) ** 2, axis=-1)
    return 0.5 * np.log(np.maximum(d2, 1e-300))


def mc_selberg(
    w: Sequence[float],
    N: int,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
    proposal: Optional[ProposalMixture] = None,
) -> McEstimate:
    """Importance-sampling estimate of the three-point plane integral."""
    w1, w2, w3 = (float(x) for x in w)
    shown = ", ".join(map(str, w))
    # both walls are decided on w as given: exactly when the weights are rationals
    verdict = classify(LogFanoCurve.standard(tuple(w)))
    if verdict.kind != "GibbsStable":
        raise StabilityError(f"weights {shown} are {verdict.kind}: the integral is infinite")
    n_dprime = N * (2 - sum(w)) / (N - 1)
    if n_dprime >= 2:
        raise StabilityError(
            f"weights {shown} pass the weight condition but N d' = {float(n_dprime)} >= 2: "
            f"free collisions make the N={N} integral diverge"
        )
    d = 2.0 - (w1 + w2 + w3)
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    if proposal is None:
        proposal = ProposalMixture.cluster_safe((w1, w2, w3))

    dprime = d / (N - 1)
    log_const = N * math.log(math.pi) + math.log(2.0) * (d * N + 2 * N * w1 + N * w2 + 2 * N * w3)

    def draw(rng, m):
        flat = proposal.sample(rng, m * N)
        pts = flat.reshape(m, N, 3)
        logw = -dprime * 2.0 * np.sum(pairwise_log_chordal(pts), axis=-1)
        logw -= 2.0 * w1 * np.sum(_log_chord_to(pts, _SOUTH), axis=-1)
        logw -= 2.0 * w2 * np.sum(_log_chord_to(pts, _ONE), axis=-1)
        logw -= 2.0 * w3 * np.sum(_log_chord_to(pts, _NORTH), axis=-1)
        logw -= np.sum(proposal.log_density(flat).reshape(m, N), axis=-1)
        return logw

    logw_all = _draw_log_weights(seed, workers, n_samples, draw)
    shift = float(np.max(logw_all))
    return _aggregate(np.exp(logw_all - shift), log_const + shift, seed, workers)


def _ratio_estimate(
    num: np.ndarray, den: np.ndarray, seed: int, workers: int, extra_diag: dict
) -> McEstimate:
    n = num.size
    nbar, dbar = float(np.mean(num)), float(np.mean(den))
    ratio = nbar / dbar
    resid = num - ratio * den
    se = float(np.sqrt(np.mean(resid * resid) / n) / abs(dbar))
    nbatch = min(100, max(2, n // 50))
    bm = np.array(
        [b.sum() for b in np.array_split(num, nbatch)]
    ) / np.maximum(np.array([b.sum() for b in np.array_split(den, nbatch)]), 1e-300)
    diagnostics = {
        "batch_means_variance": float(np.var(bm, ddof=1)),
        "batch_means": [float(b) for b in bm],
        "tail_index_estimate": _hill_tail_index(num),
        "warnings": [],
        **extra_diag,
    }
    if diagnostics["tail_index_estimate"] <= 2.0:
        diagnostics["warnings"].append(
            "tail index <= 2: numerator weights look heavy-tailed (infinite "
            "variance); reporting median-of-means of batch ratios"
        )
        g = 32
        gn = np.array([b.mean() for b in np.array_split(num, g)])
        gd = np.maximum(np.array([b.mean() for b in np.array_split(den, g)]), 1e-300)
        ratio = float(np.median(gn / gd))
        se = float(1.2533 * np.std(gn / gd, ddof=1) / math.sqrt(g))
    return McEstimate(ratio, se, n, seed, workers, diagnostics)


def mc_sphere_partition(
    curve: LogFanoCurve,
    beta: float,
    N: int,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Z_N(beta) under the Z_N(0) = 1 pin: self-normalized ratio estimator.

    Both the Gibbs factor e^(-beta N E) and the reference-measure density
    prod_j c(x, p_j)^(-2 w_j) are estimated against the same mixture samples,
    so the beta = 0 value is exactly 1 with zero variance.
    """
    gamma = gamma_threshold(curve.weights, N)
    if beta <= -gamma:
        raise ThresholdError(f"beta = {beta} is at or below -gamma_N = {-gamma}")
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    proposal = ProposalMixture.default_for_curve(curve)
    marked = [(p.vec, w) for p, w in zip(curve.marked_sphere_points(), curve.weights)]
    energy_pref = curve.d_L / (N * (N - 1))

    def draw(rng, m):
        flat = proposal.sample(rng, m * N)
        pts = flat.reshape(m, N, 3)
        # E = -pref * sum_{i != j} log c_ij  =>  -beta N E = 2 beta N pref * sum_{i<j}
        log_gibbs = 2.0 * beta * N * energy_pref * np.sum(pairwise_log_chordal(pts), axis=-1)
        log_ref = np.zeros(m)
        for pvec, wgt in marked:
            log_ref -= 2.0 * wgt * np.sum(_log_chord_to(pts, pvec), axis=-1)
        log_q = np.sum(proposal.log_density(flat).reshape(m, N), axis=-1)
        return np.stack([log_gibbs + log_ref - log_q, log_ref - log_q], axis=-1)

    logw = _draw_log_weights(seed, workers, n_samples, draw)
    ln, ld = logw[:, 0], logw[:, 1]
    shift_n, shift_d = float(np.max(ln)), float(np.max(ld))
    est = _ratio_estimate(
        np.exp(ln - shift_n),
        np.exp(ld - shift_d),
        seed,
        workers,
        {"log_plane_conversion": N * math.log(math.pi) - beta * N * curve.d_L * math.log(2.0)},
    )
    s = math.exp(shift_n - shift_d)
    est.mean *= s
    est.std_error *= s
    est.diagnostics["batch_means"] = [b * s for b in est.diagnostics["batch_means"]]
    return est


def mc_circular(
    N: int, beta: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """Circular ensemble mass: int over [0,2pi)^N of prod |e^it_i - e^it_j|^(2b/(N-1))."""
    if N < 2:
        raise ValidationError("mc_circular needs N >= 2")
    if beta <= -(N - 1) / N:
        raise ThresholdError(f"beta = {beta} at or below -(N-1)/N")
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    expo = 2.0 * beta / (N - 1)
    iu = np.triu_indices(N, k=1)

    def draw(rng, m):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(m, N))
        half = 0.5 * (theta[:, iu[0]] - theta[:, iu[1]])
        # |e^ia - e^ib| = 2 |sin((a-b)/2)|
        logs = np.log(np.maximum(2.0 * np.abs(np.sin(half)), 1e-300))
        return expo * np.sum(logs, axis=-1)

    logw = _draw_log_weights(seed, workers, n_samples, draw)
    shift = float(np.max(logw))
    return _aggregate(np.exp(logw - shift), N * math.log(2.0 * math.pi) + shift, seed, workers)


def _det_log_weights(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """log |det|^2 of `size` standard complex Gaussian (n+1)x(n+1) matrices.
    All real parts are drawn before all imaginary parts, so splitting a
    worker's share into chunks would change the stream: callers draw each
    share in one call."""
    k = n + 1
    re = rng.normal(0.0, math.sqrt(0.5), size=(size, k, k))
    im = rng.normal(0.0, math.sqrt(0.5), size=(size, k, k))
    _, logabs = np.linalg.slogdet(re + 1j * im)
    return 2.0 * logabs  # log |det|^2


def mc_gaussian_det(
    n: int, s: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """pi^(n+1)^2 E |det A|^(2s) for A an (n+1)x(n+1) standard complex Gaussian."""
    if s <= -1:
        raise ThresholdError("moment diverges for s <= -1")
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    k = n + 1
    draw = partial(_det_log_weights, n)
    logw = s * _draw_log_weights(seed, workers, n_samples, draw, chunk=n_samples)
    shift = float(np.max(logw))
    return _aggregate(np.exp(logw - shift), k * k * math.log(math.pi) + shift, seed, workers)


def mc_gaussian_det_ratio(
    n: int, s: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """Z(s+1)/Z(s) on shared samples; the Bernstein polynomial's MC side."""
    if s <= -1:
        raise ThresholdError("moment diverges for s <= -1")
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    draw = partial(_det_log_weights, n)
    logd = _draw_log_weights(seed, workers, n_samples, draw, chunk=n_samples)
    shift = float(np.max(logd)) if s >= 0 else 0.0
    num = np.exp((s + 1.0) * logd - (s + 1.0) * shift)
    den = np.exp(s * logd - s * shift)
    est = _ratio_estimate(num, den, seed, workers, {})
    est.mean *= math.exp(shift)
    est.std_error *= math.exp(shift)
    est.diagnostics["batch_means"] = [b * math.exp(shift) for b in est.diagnostics["batch_means"]]
    return est


def free_energy_curve(
    curve: LogFanoCurve,
    N: int,
    beta_grid: Sequence[float],
    mcmc_budget: int,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """F_N on the grid by thermodynamic integration of the mean energy.

    dF_N/dbeta is the Gibbs mean energy and F_N(0) = 0 under the Z(0) = 1
    pin, so F is the cumulative integral of sampler estimates.  The grid is
    augmented with 0 and midpoints, and each increment uses the local
    quadratic through three consecutive nodes (cumulative Simpson); plain
    trapezoid bias at the desk-scale grid would rival the statistical error.
    Every node is one block of lanes in a single mean_energy_run of `seed`.
    """
    grid = sorted(set(float(b) for b in beta_grid))
    if not grid:
        raise ValidationError("empty beta grid")
    gamma = gamma_threshold(curve.weights, N)
    if grid[0] <= -gamma:
        raise ThresholdError(f"grid reaches beta = {grid[0]} <= -gamma_N = {-gamma}")

    from .sampler import mean_energy_run
    nodes = sorted({0.0, *grid, *((a + b) / 2 for a, b in zip(grid, grid[1:]))})
    if 0.0 < grid[0]:
        nodes = sorted({*nodes, grid[0] / 2})
    if grid[-1] < 0.0:
        nodes = sorted({*nodes, grid[-1] / 2})
    sweeps = max(200, mcmc_budget // max(1, len(nodes)))
    ests = mean_energy_run(curve, nodes, N, sweeps=sweeps, seed=seed)
    energies = [est.mean for est in ests]
    ses = [est.std_error for est in ests]

    # per-interval quadratic increments, then signed sums anchored at beta = 0
    incs, ivars = [], []
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        h = x1 - x0
        if i + 2 < len(nodes) and abs((nodes[i + 2] - x1) - h) < 1e-12:
            cs = (h * 5.0 / 12.0, h * 8.0 / 12.0, -h / 12.0)
            idx = (i, i + 1, i + 2)
        elif i >= 1 and abs((x0 - nodes[i - 1]) - h) < 1e-12:
            cs = (-h / 12.0, h * 8.0 / 12.0, h * 5.0 / 12.0)
            idx = (i - 1, i, i + 1)
        else:
            cs = (h / 2.0, h / 2.0)
            idx = (i, i + 1)
        incs.append(sum(c * energies[j] for c, j in zip(cs, idx)))
        ivars.append(sum((c * ses[j]) ** 2 for c, j in zip(cs, idx)))

    zero_pos = nodes.index(0.0)
    out = []
    for b in grid:
        pos = nodes.index(b)
        lo, hi = min(pos, zero_pos), max(pos, zero_pos)
        total = sum(incs[lo:hi])
        se = math.sqrt(sum(ivars[lo:hi]))
        out.append((b, total if pos >= zero_pos else -total, se))
    return out
