"""Gibbs-stability classification of weighted marked curves.

A curve here is the projective line with m marked plane points carrying real
weights w_i.  The anticanonical degree of the pair is d_L = 2 - sum w_i.  The
objects of interest:

  * weight condition:  w_i < sum_{j != i} w_j for every i (strict),
  * integrability threshold:  gamma_N = ((N-1)/N) * 2 (1 - max(w_max, 0)) / d_L,
    with w_max the largest weight (0 over an empty weight list),

and the dictionary: the canonical N-point normalization constant is finite at
inverse temperature beta if beta > -gamma_N, and it is finite at the
canonical value beta = -1 exactly when the weight condition holds (for N large
enough that the (N-1)/N prefactor has saturated past the borderline).
require_gibbs_measure is the one gate that the Metropolis sampler, the sphere
partition estimator and the free-energy ladder pass before they draw.

Borderline equalities (w_i = sum of the others, or beta = -gamma_N) count as
NOT stable / NOT finite: every statement above is strict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .chart import INFINITY, SpherePoint, stereo_to_sphere
from .errors import StabilityError, ThresholdError, ValidationError

__all__ = [
    "LogFanoCurve",
    "StabilityVerdict",
    "weight_condition",
    "gamma_threshold",
    "classify",
    "require_gibbs_measure",
    "lct_point_divisor",
]


@dataclass(frozen=True)
class LogFanoCurve:
    """Marked projective line.  The constructor is permissive about weights
    (classification happens in classify); it only enforces structure.  int
    and Fraction weights stay exact, so classify decides the strict weight
    condition exactly; other weights become floats."""

    marked_points: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        pts = tuple(self.marked_points)
        ws = tuple(w if isinstance(w, (int, Fraction)) else float(w) for w in self.weights)
        object.__setattr__(self, "marked_points", pts)
        object.__setattr__(self, "weights", ws)
        if len(pts) != len(ws):
            raise ValidationError("marked_points and weights must have equal length")
        for w in ws:
            if not math.isfinite(w):
                raise ValidationError(f"weight {w} is not finite")
        seen = []
        for p in pts:
            for q in seen:
                if (p is INFINITY) == (q is INFINITY) and (p is INFINITY or complex(p) == complex(q)):
                    raise ValidationError("marked points must be pairwise distinct")
            seen.append(p)

    @property
    def d_L(self) -> float:
        return float(2 - sum(self.weights))

    def marked_sphere_points(self) -> tuple[SpherePoint, ...]:
        return tuple(stereo_to_sphere(p) for p in self.marked_points)

    @classmethod
    def standard(cls, weights: Sequence[float]) -> "LogFanoCurve":
        """Marked points at the conventional chart locations 0, 1, INFINITY."""
        ws = tuple(weights)
        if len(ws) > 3:
            raise ValidationError("standard placement is defined for at most 3 points")
        slots = {0: (), 1: (INFINITY,), 2: (0j, INFINITY), 3: (0j, 1 + 0j, INFINITY)}
        return cls(slots[len(ws)], ws)


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str  # NotLogFano | GibbsStable | NotGibbsStable
    d_L: float
    gamma_N: Optional[float] = None
    N: Optional[int] = None
    weight_condition_holds: Optional[bool] = None

    def to_json(self) -> dict:
        out = {"verdict": self.kind, "d_L": self.d_L}
        if self.weight_condition_holds is not None:
            out["weight_condition"] = self.weight_condition_holds
        if self.gamma_N is not None:
            out["N"] = self.N
            out["gamma_N"] = self.gamma_N
        return out


def weight_condition(w: Sequence[float]) -> bool:
    """Strict inequality w_i < sum_{j != i} w_j for every i; empty sum is 0."""
    ws = list(w)
    for wi in ws:
        if wi >= 1:
            raise ValidationError(f"weight {wi} >= 1 is outside the klt range")
    total = sum(ws)
    return all(wi < total - wi for wi in ws)


def gamma_threshold(w: Sequence[float], N: int) -> float:
    """Finiteness threshold gamma_N; Z_N(beta) < infinity if beta > -gamma_N.

    A largest weight below 0 is read as 0: N points colliding away from the
    marked points diverge unless |beta| < 2 (N-1) / (N d_L), whatever the
    weights, so gamma_N never exceeds that bound."""
    if N < 2:
        raise ValidationError("gamma_threshold needs N >= 2")
    ws = list(w)
    d = 2 - sum(ws)
    if d <= 0:
        raise ValidationError("not log Fano: degree <= 0")
    wmax = max(max(ws, default=0), 0)
    return float(Fraction(N - 1) / N * 2 * (1 - wmax) / d)


def classify(curve: LogFanoCurve, N: Optional[int] = None) -> StabilityVerdict:
    ws = curve.weights
    if curve.d_L <= 0 or any(wi >= 1 for wi in ws):
        return StabilityVerdict(kind="NotLogFano", d_L=curve.d_L)
    cond = weight_condition(ws)
    gamma = gamma_threshold(ws, N) if N is not None else None
    return StabilityVerdict(
        kind="GibbsStable" if cond else "NotGibbsStable",
        d_L=curve.d_L,
        gamma_N=gamma,
        N=N,
        weight_condition_holds=cond,
    )


def require_gibbs_measure(curve: LogFanoCurve, beta: float, N: int) -> None:
    """Refuse an N-point Gibbs measure at beta that does not exist: a curve
    that is not log Fano has no normalisable reference measure
    (StabilityError), and Z_N diverges at beta <= -gamma_N (ThresholdError)."""
    verdict = classify(curve)
    if verdict.kind == "NotLogFano":
        raise StabilityError(f"verdict {verdict.kind}: the reference measure cannot be normalised")
    gamma = gamma_threshold(curve.weights, N)
    if beta <= -gamma:
        raise ThresholdError(
            f"beta = {beta} at or below -gamma_N = {-gamma}: Z_N diverges, no Gibbs measure"
        )


def lct_point_divisor(coeffs: Sequence[float]) -> float:
    """Integrability index of prod |z - p_i|^(-2 gamma c_i): only the worst
    coefficient matters, so the answer is 1/max(c).  Near the worst point the
    density is r^(1 - 2 gamma c_max) dr d(theta), integrable iff
    gamma c_max < 1."""
    cs = list(coeffs)
    if not cs:
        raise ValidationError("lct_point_divisor needs at least one coefficient")
    if not all(0 < c < math.inf for c in cs):
        raise ValidationError("coefficients must be positive and finite")
    return 1.0 / max(cs)
