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

The proposal is a defensive mixture of the uniform law and a radial law about
each positively weighted marked point, given by the points and one exponent
each; the mixture weights follow from the number of points.

A draw is component-major: the proposal fills one (3, n) buffer, so the pair
kernel and the marked-point distances read contiguous x, y and z rows, and the
log chord of every point to each marked point is computed once, then read by
both the integrand and the radial components of the proposal density.  Neither
step builds a gathered or stacked copy: the pair kernel fills its output row
block by row block, and the proposal density adds its components' exps one at
a time into one accumulator, in the order a sum over a stack would take.

Streams run concurrently: `workers` independent RNG streams are spread over
min(workers, usable cores) lanes, the calling thread and plain threads, and
each worker writes its rows of one preallocated output (numpy's RNG fills and
ufunc loops release the GIL).  A worker's draws and rows depend only on its
index, so every result is bit for bit the serial loop's and does not depend
on the core count.  Every target's draw makes its RNG calls per chunk of
_CHUNK configurations, then does the rest of its work a block of _BLOCK
configurations at a time, so two lanes never hold two chunks' worth of
temporaries.  The estimators exponentiate the log-weights in place.

Tail safety: every estimate is the plain (or self-normalised) mean and its
SE, with a Hill estimate on the top 1% of the weights; an index <= 2 flags
likely-infinite variance with a warning, since the SE then understates the
error, but does not change the estimate.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .chart import SpherePoint
from .errors import StabilityError, ThresholdError, ValidationError
from .sphere import _D2_FLOOR, _uniform_rows, pairwise_log_chordal, sq_chord
from .stability import LogFanoCurve, classify, require_gibbs_measure

__all__ = [
    "McEstimate",
    "ProposalMixture",
    "mc_selberg",
    "mc_sphere_partition",
    "mc_circular",
    "mc_gaussian_det",
    "mc_gaussian_det_ratio",
    "free_energy_curve",
]

_CHUNK = 20_000
_BLOCK = 4096  # configurations per block of a draw's work after its RNG calls
# Bytes of the per-sample log-weight array, refused above this before any
# array is allocated.  The estimate's own passes over it work in place (the
# Hill index partitions it); mc_gaussian_det_ratio also holds its denominator
# and delta-method residual, so its traced peak is 3.13x these bytes (2 lanes,
# 500,000 samples), the other estimators' at most about 2x plus their chunks.
_MAX_LOG_WEIGHT_BYTES = 512 * 2**20
_MAX_WORKERS = 10_000  # RNG streams of one estimate, refused above this before any is spawned
_RHO = 0.9  # a marked component's radial exponent: 2 w _RHO (cluster_safe: at least that)
_SHARE = 0.1  # mixture weight of each radial component; the uniform one takes the rest
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


def _usable_cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_log_weights(
    seed: int, workers: int, n_samples: int, draw: Callable, row_shape: tuple = ()
) -> np.ndarray:
    """Per-sample log-weights, shape (n_samples,) + row_shape, from `workers`
    independent streams spawned from `seed`.  Worker k draws its share of
    n_samples (the first n_samples % workers take one more) in consecutive
    calls draw(rng, rows), where rows is the next chunk of at most _CHUNK
    rows of the output, in (worker, chunk) order, and draw fills it: no draw
    holds more than one chunk's arrays, whatever a worker's share.

    The workers run on min(workers, usable cores) lanes: the calling thread
    is lane 0, each other lane a thread of its own, and worker k always runs
    on lane k mod lanes.  A worker's draws and rows depend on k alone, so the
    result is bit for bit the serial loop's, whatever the core count.  The
    first exception in any lane stops every lane at its next chunk and is
    raised here, after all lanes have ended.  More than _MAX_LOG_WEIGHT_BYTES
    of output, or more than _MAX_WORKERS workers, is refused before anything
    is allocated or spawned."""
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    if workers < 1:
        raise ValidationError("need at least 1 worker")
    if workers > _MAX_WORKERS:
        raise ValidationError(f"{workers} workers are more than {_MAX_WORKERS}")
    nbytes = 8 * n_samples * math.prod(row_shape)
    if nbytes > _MAX_LOG_WEIGHT_BYTES:
        raise ValidationError(
            f"{n_samples} samples need {nbytes / 2**20:.0f} MiB of log-weights, "
            f"more than {_MAX_LOG_WEIGHT_BYTES // 2**20} MiB"
        )
    streams = np.random.SeedSequence(seed).spawn(workers)
    base, extra = divmod(n_samples, workers)
    starts = [k * base + min(k, extra) for k in range(workers + 1)]
    out = np.empty((n_samples,) + row_shape)
    lanes = min(workers, _usable_cores())
    errors: list = []

    def run(lane):
        try:
            for k in range(lane, workers, lanes):
                rng = np.random.Generator(np.random.PCG64(streams[k]))
                for lo in range(starts[k], starts[k + 1], _CHUNK):
                    if errors:
                        return
                    draw(rng, out[lo:min(lo + _CHUNK, starts[k + 1])])
        except BaseException as exc:  # re-raised by the caller's thread below
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(lane,)) for lane in range(1, lanes)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return out


def _check_pair_block(N: int, n_samples: int) -> None:
    """Refuse a block's pair buffer, 8 N(N-1)/2 min(_BLOCK, n_samples) bytes,
    above _MAX_LOG_WEIGHT_BYTES: no block of _blocks holds more rows."""
    nbytes = 8 * (N * (N - 1) // 2) * min(_BLOCK, n_samples)
    if nbytes > _MAX_LOG_WEIGHT_BYTES:
        raise ValidationError(f"N = {N} needs {nbytes / 2**20:.0f} MiB of pair terms per block, "
                              f"more than {_MAX_LOG_WEIGHT_BYTES // 2**20} MiB")


def _blocks(m: int) -> list:
    """Bounds of ceil(m / _BLOCK) near-equal blocks of range(m).  No block
    holds a single configuration unless m == 1: a one-row pair sum reduces
    its pair axis in another order, so its bits would differ."""
    q = -(-m // _BLOCK)
    return [(m * i // q, m * (i + 1) // q) for i in range(q)]


def _logsumexp(terms: Sequence, shape: tuple) -> np.ndarray:
    """log(sum_k exp(terms[k])) elementwise over arrays (or floats) that
    broadcast to `shape`, with no stacked copy.  The shift is the running
    maximum (0 where it is not finite), and the exps are added in list order:
    the order a sum over axis 0 of the stacked terms takes, so the bits are
    the stacked logsumexp's."""
    top = np.full(shape, -np.inf)
    for t in terms:
        np.maximum(top, t, out=top)
    top[~np.isfinite(top)] = 0.0
    acc, tmp = np.zeros(shape), np.empty(shape)
    for t in terms:
        acc += np.exp(np.subtract(t, top, out=tmp), out=tmp)
    np.log(acc, out=acc)
    acc += top
    return acc


def _hill_tail_index(weights: np.ndarray) -> float:
    """Hill estimate on the top 1% of positive weights (merged, sorted).
    weights is partitioned in place, not copied: _diagnostics calls this
    last, and both estimators (_aggregate, _ratio_estimate) are done with the
    array by then.  The top k of all weights are the top k of the positive
    ones, since k is below their count."""
    positive = np.count_nonzero(weights > 0)
    if positive < 200:
        return float("inf")
    k = max(2, positive // 100)
    weights.partition(weights.size - k)
    top = np.sort(weights[-k:])
    logs = np.log(top[1:] / top[0])
    denom = float(np.mean(logs))
    return float("inf") if denom <= 0 else 1.0 / denom


def _diagnostics(weights: np.ndarray, s: float, den: Optional[np.ndarray] = None) -> dict:
    """Diagnostics of the estimate s * mean(weights), or of the ratio
    s * sum(weights) / sum(den): the same estimate on each of
    min(100, max(2, n // 50)) consecutive batches and their variance, both in
    the estimate's units, and the Hill index of the weights' top 1%, with a
    warning when it is <= 2.  weights is left in another order."""
    nbatch = min(100, max(2, weights.size // 50))
    parts = np.array_split(weights, nbatch)
    batch_means = np.array([b.sum() for b in parts])
    if den is None:
        batch_means /= [b.size for b in parts]
    else:
        batch_means /= np.maximum([b.sum() for b in np.array_split(den, nbatch)], 1e-300)
    batch_means *= s
    hill = _hill_tail_index(weights)
    warnings = []
    if hill <= 2.0:
        warnings.append(
            f"tail index {hill:.3g} <= 2: importance weights look heavy-tailed (likely "
            "infinite variance), so the standard error may understate the error"
        )
    return {
        "batch_means_variance": float(np.var(batch_means, ddof=1)),
        "batch_means": batch_means.tolist(),
        "tail_index_estimate": hill,
        "warnings": warnings,
    }


def _shifted_exp(logw: np.ndarray) -> float:
    """Overwrite logw with e^(logw - max logw) and return that maximum."""
    shift = float(np.max(logw))
    logw -= shift
    np.exp(logw, out=logw)
    return shift


def _aggregate(w: np.ndarray, log_const: float, seed: int, workers: int) -> McEstimate:
    """The plain mean of the importance weights e^(w + log_const), for
    log-weights w, and its SE.  w is overwritten with e^(w - max w), then
    reordered."""
    s = math.exp(log_const + _shifted_exp(w))
    n = w.size
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(n))
    return McEstimate(mean * s, se * s, n, seed, workers, _diagnostics(w, s))


# ---------------------------------------------------------------------------
# proposals

def _orthonormal_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = _NORTH if abs(p[2]) < 0.9 else _ONE
    e1 = np.cross(p, ref)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(p, e1)


@dataclass(frozen=True)
class ProposalMixture:
    """The uniform law with weight 1 - _SHARE M, then for each of the M points,
    weight _SHARE, the law whose chord r to it has density ~ r^(1-a) on [0, 2]."""

    points: tuple[SpherePoint, ...]
    exponents: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.exponents):
            raise ValidationError("proposal mixture needs one exponent per point")
        if not all(0 <= a < 2 for a in self.exponents):
            raise ValidationError("radial exponent must lie in [0, 2) to stay normalizable")
        if _SHARE * len(self.points) >= 1:
            raise ValidationError(f"{len(self.points)} points leave the uniform component no weight")

    @classmethod
    def _at_marked_points(cls, curve: LogFanoCurve, exponent: Callable) -> "ProposalMixture":
        """A radial component at each positively weighted marked point of
        curve, in curve order, with exponent(w) for weight w."""
        marked = [(p, w) for p, w in zip(curve.marked_sphere_points(), curve.weights) if w > 0]
        return cls(tuple(p for p, _ in marked), tuple(exponent(w) for _, w in marked))

    @classmethod
    def default_for_curve(cls, curve: LogFanoCurve) -> "ProposalMixture":
        return cls._at_marked_points(curve, lambda w: 2.0 * w * _RHO)

    @classmethod
    def cluster_safe(cls, weights: Sequence[float]) -> "ProposalMixture":
        """Mixture whose radial exponents also tame multi-point pileups.

        A k-point cluster at marked point j carries weight tail index
        (2-a)/(2 w_j + d'(k-1) - a), worst at k = N where d'(N-1) = d; finite
        variance for the full product needs a_j > 2 + 4 w_j - 2 sum(w), which
        is < 2 exactly when the weight condition holds at p_j.  The naive
        single-point choice a_j = 2 w_j _RHO misses this, so take the max
        (plus margin, capped just under 2).
        """
        total = sum(weights)
        return cls._at_marked_points(
            LogFanoCurve.standard(weights),
            lambda w: min(1.95, max(2.0 * w * _RHO, 2.0 + 4.0 * w - 2.0 * total + 0.3)),
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points of shape (n, 3): the .T view of a component-major (3, n) buffer."""
        m = len(self.points)
        which = rng.choice(m + 1, size=n, p=np.array([1.0 - _SHARE * m] + [_SHARE] * m))
        uniform, *groups = [np.nonzero(which == k)[0] for k in range(m + 1)]
        del which  # the groups hold as many indices; two n-long index arrays need not coexist
        out = np.empty((3, n))
        if uniform.size:
            for row, x in zip(out, _uniform_rows(rng, uniform.size)):
                row[uniform] = x
        for point, a, idx in zip(self.points, self.exponents, groups):
            if idx.size == 0:
                continue
            r = 2.0 * rng.uniform(size=idx.size) ** (1.0 / (2.0 - a))
            phi = rng.uniform(0.0, 2.0 * math.pi, size=idx.size)
            p = point.vec
            e1, e2 = _orthonormal_frame(p)
            s = 1.0 - r * r / 2.0
            trans = r * np.sqrt(np.maximum(0.0, 1.0 - r * r / 4.0))
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            for q, row in enumerate(out):
                row[idx] = s * p[q] + trans * (cos_phi * e1[q] + sin_phi * e2[q])
        return out.T

    def log_density(self, pts: np.ndarray) -> np.ndarray:
        """log of the mixture density with respect to the uniform probability
        measure dsigma at points pts: (..., 3); components: uniform -> 1,
        radial with exponent a -> (2-a) 2^(a-1) r^-a."""
        return self._log_density(np.moveaxis(pts, -1, 0), {})

    def _log_density(self, xyz: np.ndarray, chords: dict) -> np.ndarray:
        """log_density at component-major points xyz: (3, ...).  `chords` maps
        a SpherePoint to its _log_chord_to array that the caller already holds;
        a component at any other point computes its own."""
        logs = [math.log(1.0 - _SHARE * len(self.points))]
        for point, a in zip(self.points, self.exponents):
            logr = chords.get(point)
            if logr is None:
                logr = _log_chord_to(xyz, point)
            logs.append(math.log(_SHARE) + math.log(2.0 - a) + (a - 1.0) * math.log(2.0) - a * logr)
        return _logsumexp(logs, xyz.shape[1:])


# ---------------------------------------------------------------------------
# estimators

def _log_chord_to(xyz: np.ndarray, p: SpherePoint) -> np.ndarray:
    """log ||x - p|| at component-major points xyz: (3, ...), clamped like
    the pair kernel."""
    p_col = p.vec.reshape((3,) + (1,) * (xyz.ndim - 1))
    return 0.5 * np.log(np.maximum(sq_chord(xyz, p_col), _D2_FLOOR))


def _draw_points(proposal: ProposalMixture, rng: np.random.Generator, m: int, N: int, marked):
    """m configurations of N proposal points, drawn in one proposal.sample
    call, then taken a _blocks block at a time: yields the block's row slice,
    its points, component-major (3, b, N), their log pair chords
    (b, N(N-1)/2) and their log chords to each marked point."""
    xyz = proposal.sample(rng, m * N).T.reshape(3, m, N)
    for lo, hi in _blocks(m):
        blk = xyz[:, lo:hi]
        pairs = pairwise_log_chordal(np.moveaxis(blk, 0, -1))
        yield slice(lo, hi), blk, pairs, {p: _log_chord_to(blk, p) for p, _ in marked}


def mc_selberg(
    w: Sequence[float],
    N: int,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Importance-sampling estimate of the three-point plane integral, drawn
    from the cluster-safe mixture of the weights."""
    if N < 2:
        raise ValidationError("mc_selberg needs N >= 2")
    w1, w2, w3 = (float(x) for x in w)
    shown = ", ".join(map(str, w))
    # both walls are decided on w as given: exactly when the weights are rationals
    curve = LogFanoCurve.standard(tuple(w))
    verdict = classify(curve)
    if verdict.kind != "GibbsStable":
        raise StabilityError(f"weights {shown} are {verdict.kind}: the integral is infinite")
    n_dprime = N * (2 - sum(w)) / (N - 1)
    if n_dprime >= 2:
        raise StabilityError(
            f"weights {shown} pass the weight condition but N d' = {float(n_dprime)} >= 2: "
            f"free collisions make the N={N} integral diverge"
        )
    _check_pair_block(N, n_samples)
    d = 2.0 - (w1 + w2 + w3)
    proposal = ProposalMixture.cluster_safe((w1, w2, w3))
    dprime = d / (N - 1)
    log_const = N * math.log(math.pi) + math.log(2.0) * (d * N + 2 * N * w1 + N * w2 + 2 * N * w3)
    marked = tuple(zip(curve.marked_sphere_points(), (w1, w2, w3)))  # 0, 1, INFINITY

    def draw(rng, out):
        for rows, xyz, pairs, chords in _draw_points(proposal, rng, len(out), N, marked):
            logw = out[rows]
            np.multiply(np.sum(pairs, axis=-1), -dprime * 2.0, out=logw)
            for p, wj in marked:
                logw -= 2.0 * wj * np.sum(chords[p], axis=-1)
            logw -= np.sum(proposal._log_density(xyz, chords), axis=-1)

    return _aggregate(_draw_log_weights(seed, workers, n_samples, draw), log_const, seed, workers)


def _ratio_estimate(
    num: np.ndarray, den: np.ndarray, seed: int, workers: int, extra_diag: dict
) -> McEstimate:
    """Self-normalized ratio sum e^num / sum e^den of shared-sample
    log-weights, and its delta-method SE.  num and den are overwritten with
    their weights, each shifted by its own maximum, and num is then
    reordered."""
    scale_log = _shifted_exp(num) - _shifted_exp(den)
    n = num.size
    nbar, dbar = float(np.mean(num)), float(np.mean(den))
    ratio = nbar / dbar
    resid = np.multiply(den, ratio)
    np.subtract(num, resid, out=resid)
    resid *= resid
    se = float(np.sqrt(np.mean(resid) / n) / abs(dbar))
    s = math.exp(scale_log)
    diagnostics = {**_diagnostics(num, s, den), **extra_diag}
    return McEstimate(ratio * s, se * s, n, seed, workers, diagnostics)


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
    require_gibbs_measure(curve, beta, N)
    _check_pair_block(N, n_samples)
    proposal = ProposalMixture.default_for_curve(curve)
    marked = tuple(zip(curve.marked_sphere_points(), curve.weights))
    energy_pref = curve.d_L / (N * (N - 1))

    def draw(rng, out):
        for rows, xyz, pairs, chords in _draw_points(proposal, rng, len(out), N, marked):
            logw = out[rows]
            # E = -pref * sum_{i != j} log c_ij  =>  -beta N E = 2 beta N pref * sum_{i<j}
            log_gibbs = 2.0 * beta * N * energy_pref * np.sum(pairs, axis=-1)
            log_ref = np.zeros(len(logw))
            for p, wgt in marked:
                log_ref -= 2.0 * wgt * np.sum(chords[p], axis=-1)
            log_q = np.sum(proposal._log_density(xyz, chords), axis=-1)
            np.add(log_gibbs, log_ref, out=logw[:, 0])
            logw[:, 0] -= log_q
            np.subtract(log_ref, log_q, out=logw[:, 1])

    w = _draw_log_weights(seed, workers, n_samples, draw, row_shape=(2,))
    conversion = N * math.log(math.pi) - beta * N * curve.d_L * math.log(2.0)
    return _ratio_estimate(w[:, 0], w[:, 1], seed, workers, {"log_plane_conversion": conversion})


def mc_circular(
    N: int, beta: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """Circular ensemble mass: int over [0,2pi)^N of prod |e^it_i - e^it_j|^(2b/(N-1))."""
    if N < 2:
        raise ValidationError("mc_circular needs N >= 2")
    if beta <= -(N - 1) / N:
        raise ThresholdError(f"beta = {beta} at or below -(N-1)/N")
    _check_pair_block(N, n_samples)
    expo = 2.0 * beta / (N - 1)
    iu = np.triu_indices(N, k=1)

    def draw(rng, out):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(len(out), N))
        for lo, hi in _blocks(len(out)):
            t = theta[lo:hi]
            logs = t[:, iu[0]] - t[:, iu[1]]
            logs *= 0.5
            # |e^ia - e^ib| = 2 |sin((a-b)/2)|
            np.sin(logs, out=logs)
            np.abs(logs, out=logs)
            logs *= 2.0
            np.maximum(logs, 1e-300, out=logs)
            np.log(logs, out=logs)
            np.multiply(np.sum(logs, axis=-1), expo, out=out[lo:hi])

    logw = _draw_log_weights(seed, workers, n_samples, draw)
    return _aggregate(logw, N * math.log(2.0 * math.pi), seed, workers)


def _log_abs_det_sq(a: np.ndarray) -> np.ndarray:
    """log |det a|^2 for a batch of complex square matrices a: (b, k, k),
    which is overwritten.  Gaussian elimination with partial pivoting on
    |Re| + |Im| (LAPACK's pivot rule), vectorised over the batch axis: no
    per-matrix LAPACK call.  The log moduli of the pivots are added in order
    and the sum doubled, as np.linalg.slogdet adds them.  A singular matrix
    gives -inf: a zero pivot column is left as it is, not divided by 0."""
    b, k, _ = a.shape
    rows = np.arange(b)
    acc = np.zeros(b)
    with np.errstate(divide="ignore"):
        for j in range(k):
            if j + 1 < k:
                col = a[:, j:, j]
                p = j + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=1)
                top = a[rows, j, j:]
                a[rows, j, j:] = a[rows, p, j:]
                a[rows, p, j:] = top
            piv = a[:, j, j]
            mod = np.abs(piv)
            acc += np.log(mod)
            if j + 1 < k:
                f = a[:, j + 1:, j] / np.where(mod == 0.0, 1.0, piv)[:, None]
                a[:, j + 1:, j + 1:] -= f[:, :, None] * a[:, j, None, j + 1:]
    acc *= 2.0
    return acc


def _det_log_weights(n: int, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out with log |det|^2 of len(out) standard complex Gaussian
    (n+1)x(n+1) matrices: the real parts of the whole chunk are drawn, then
    its imaginary parts, and the complex matrices are built and reduced by
    _log_abs_det_sq a _blocks block at a time."""
    k = n + 1
    re = rng.normal(0.0, math.sqrt(0.5), size=(len(out), k, k))
    im = rng.normal(0.0, math.sqrt(0.5), size=(len(out), k, k))
    for lo, hi in _blocks(len(out)):
        a = np.empty((hi - lo, k, k), dtype=complex)
        a.real, a.imag = re[lo:hi], im[lo:hi]
        out[lo:hi] = _log_abs_det_sq(a)


def _det_log_moduli(n: int, s: float, n_samples: int, seed: int, workers: int) -> np.ndarray:
    """log |det A|^2 per sample.  More than _MAX_LOG_WEIGHT_BYTES of normals
    in one chunk, 16 min(_CHUNK, n_samples) (n+1)^2 bytes, is refused first."""
    if s <= -1:
        raise ThresholdError("moment diverges for s <= -1")
    nbytes = 16 * min(_CHUNK, n_samples) * (n + 1) ** 2
    if nbytes > _MAX_LOG_WEIGHT_BYTES:
        raise ValidationError(f"n = {n} needs {nbytes / 2**20:.0f} MiB of Gaussian entries per chunk, "
                              f"more than {_MAX_LOG_WEIGHT_BYTES // 2**20} MiB")
    return _draw_log_weights(seed, workers, n_samples, partial(_det_log_weights, n))


def mc_gaussian_det(
    n: int, s: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """pi^(n+1)^2 E |det A|^(2s) for A an (n+1)x(n+1) standard complex Gaussian."""
    logw = _det_log_moduli(n, s, n_samples, seed, workers)
    logw *= s
    return _aggregate(logw, (n + 1) ** 2 * math.log(math.pi), seed, workers)


def mc_gaussian_det_ratio(
    n: int, s: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """Z(s+1)/Z(s) on shared samples; the Bernstein polynomial's MC side."""
    num = _det_log_moduli(n, s, n_samples, seed, workers)
    den = num * s
    num *= s + 1.0
    return _ratio_estimate(num, den, seed, workers, {})


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
    require_gibbs_measure(curve, grid[0], N)

    from .sampler import mean_energy_run
    nodes = sorted({0.0, *grid, *((a + b) / 2 for a, b in zip(grid, grid[1:]))})
    if 0.0 < grid[0]:
        nodes = sorted({*nodes, grid[0] / 2})
    if grid[-1] < 0.0:
        nodes = sorted({*nodes, grid[-1] / 2})
    sweeps = max(200, mcmc_budget // max(1, len(nodes)))
    ests = mean_energy_run(curve, nodes, N, sweeps=sweeps, seed=seed)
    energies = [est.mean for est in ests]
    ses = np.array([est.std_error for est in ests])

    # per-interval quadratic increments, then signed sums anchored at beta = 0.
    # Neighbouring increments share nodes, so a grid point's SE sums each
    # node's coefficients over its increments before squaring.  Increment i
    # weighs only nodes i - 1 .. i + 2, so node j's coefficients fit in
    # near[j, k], the coefficient of increment j - 2 + k (0.0 where none).
    n = len(nodes)
    incs = []
    near = np.zeros((n, 4))
    for i in range(n - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        h = x1 - x0
        if i + 2 < n and abs((nodes[i + 2] - x1) - h) < 1e-12:
            cs = (h * 5.0 / 12.0, h * 8.0 / 12.0, -h / 12.0)
            idx = (i, i + 1, i + 2)
        elif i >= 1 and abs((x0 - nodes[i - 1]) - h) < 1e-12:
            cs = (-h / 12.0, h * 8.0 / 12.0, h * 5.0 / 12.0)
            idx = (i - 1, i, i + 1)
        else:
            cs = (h / 2.0, h / 2.0)
            idx = (i, i + 1)
        incs.append(sum(c * energies[j] for c, j in zip(cs, idx)))
        for c, j in zip(cs, idx):
            near[j, i - j + 2] = c
    row_of = np.arange(n)[:, None] + np.arange(-2, 2)  # the increment behind near[j, k]

    zero_pos = nodes.index(0.0)
    out = []
    for b in grid:
        pos = nodes.index(b)
        lo, hi = min(pos, zero_pos), max(pos, zero_pos)
        total = sum(incs[lo:hi])
        # each node's coefficients over increments lo .. hi - 1, added in
        # increment order, then the squares of all n nodes summed as one
        # vector: the bits of the column sums of a dense coefficient matrix
        part = np.where((lo <= row_of) & (row_of < hi), near, 0.0)
        per_node = ((part[:, 0] + part[:, 1]) + part[:, 2]) + part[:, 3]
        se = float(np.sqrt(np.sum((per_node * ses) ** 2)))
        out.append((b, total if pos >= zero_pos else -total, se))
    return out
