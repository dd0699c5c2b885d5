"""Exact engine for finite products of Gamma factors with affine arguments.

A GammaProduct is  c * prod_k Gamma(L_k(params))^{e_k}  where each L_k is an
affine form with exact rational coefficients and e_k is a nonzero integer.
Every closed-form partition function in this package is carried by one of
these objects, so pole/zero bookkeeping lives here and nowhere else.

Numerics: log_gamma is the principal branch, computed by the Stirling series
with Bernoulli-number tail after shifting the argument into |z| >= 20 by the
recurrence  log Gamma(z) = log Gamma(z+1) - Log z.  Both sides of the
recurrence are analytic on the plane cut along (-inf, 0] and agree on the
positive reals, so iterating it preserves the principal branch.  Below
Re z = -64 the reflection formula maps z to 1 - z instead, so the shift never
takes more than about 85 steps, however negative Re z is.

Exact classification: a factor is singular at a parameter point when its
affine argument is a nonpositive integer.  With rational parameters this is
decided in exact arithmetic.  One exact residue product, from
Gamma(z) ~ (-1)^n / (n! (z+n)) near z = -n, serves both the limit at a zero
and the value at a removable point (net order zero); its log is taken from
its integer numerator and denominator, so it never underflows, and nothing
is ever evaluated close to a pole.  A residue that needs n! for n above
_MAX_RESIDUE_N is refused before any factorial is taken.  At a zero of a
one-parameter product the parameter is real, so every regular factor's phase
is a multiple of pi and the limit's sign is their parity: a real product's
limit has an imaginary part of exactly 0.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Union

from .errors import PoleError, ValidationError

__all__ = [
    "AffineArg",
    "GammaFactor",
    "GammaProduct",
    "MeroValue",
    "log_gamma",
    "eval_gamma_product",
    "restrict_to_line",
    "zeros_and_poles_in_strip",
    "gp_to_json",
    "gp_from_json",
]

RationalLike = Union[int, str, Fraction]

# Bernoulli numbers B_2..B_16 as exact rationals; the Stirling tail
# sum_{m} B_{2m} / (2m(2m-1) z^{2m-1}) truncated after B_16 has error
# below 1e-21 for |z| >= 20.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]
_STIRLING_COEF = [
    float(b / (2 * m * (2 * m - 1))) for m, b in enumerate(_BERNOULLI, start=1)
]
_STIRLING_RADIUS = 20.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_NEAR_SINGULAR_TOL = 1e-9
_REFLECT_BELOW = -64.0  # Re z below which log_gamma reflects instead of shifting
# Largest n whose n! enters a residue product.  The exact product's cost grows
# faster than n: circular N = 3 takes 0.2 s at n = 45,000 and 2.3 s at 150,000.
_MAX_RESIDUE_N = 50_000
# Most (factor, m) pairs one pole strip may enumerate: 450,000 took 2.5 s
_MAX_STRIP_POINTS = 100_000


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and float(z.real).is_integer()


def _log_sin_pi(z: complex) -> complex:
    """Log sin(pi z), principal branch, from Re z reduced mod 2 (exactly, by
    fmod) and an Im z of any size:
    log cosh(pi y) + log(sin^2 pi x + cos^2 pi x tanh^2 pi y) / 2
    + i atan2(cos pi x tanh pi y, sin pi x)."""
    x = math.fmod(z.real, 2.0)
    k = round(x)
    r = x - k  # exact and in [-1/2, 1/2], so sin(pi r) keeps its digits near an integer x
    sign = -1.0 if k % 2 else 1.0
    sin_x, cos_x = sign * math.sin(math.pi * r), sign * math.cos(math.pi * r)
    t = math.pi * (z.imag + 0.0)  # -0.0 goes with Im z >= 0
    tanh_y = math.tanh(t)
    log_cosh_y = math.log(math.cosh(t)) if abs(t) < 300.0 else abs(t) - math.log(2.0)
    return complex(
        log_cosh_y + 0.5 * math.log(sin_x * sin_x + cos_x * cos_x * tanh_y * tanh_y),
        math.atan2(cos_x * tanh_y, sin_x),
    )


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma, within 1e-12 relative of mpmath wherever
    criterion 12 and tests/test_gammaprod.py compare them (|z| <= 50, and
    out to Re z = -1e20, |Im z| = 1e6).

    Raises PoleError at the exact nonpositive integers.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"log_gamma argument must be finite, got {z}")
    # Im z = -0.0 becomes +0.0, the side every branch below takes on the
    # negative real axis (the shift loop's first Log would see -0.0)
    z = complex(z.real, z.imag + 0.0)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log Gamma has a pole at z = {z.real:g}")
    if z.real < _REFLECT_BELOW:
        # log Gamma(z) = log pi - Log sin(pi z) - log Gamma(1 - z) + 2 pi i s floor(Re z / 2 + 1/4),
        # s the sign of Im z (+1 at 0): the last term keeps the principal branch
        s = 1.0 if z.imag >= 0.0 else -1.0
        winding = 2j * math.pi * s * math.floor(z.real / 2.0 + 0.25)
        return math.log(math.pi) - _log_sin_pi(z) - log_gamma(1.0 - z) + winding

    # Shift right until the Stirling series applies.  Each Log is principal
    # and analytic off the cut, so the branch survives the recurrence.
    shift = 0.0 + 0.0j
    while abs(z) < _STIRLING_RADIUS or z.real < 0.5:
        shift += cmath.log(z)
        z = z + 1.0

    w = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    for c in reversed(_STIRLING_COEF):
        tail = (tail + c) * w
    tail = tail * z  # sum c_m / z^{2m-1}
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI + tail - shift


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, bool):
        raise ValidationError("bool is not a rational coefficient")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    raise ValidationError(
        f"coefficients must be exact rationals (int, Fraction or 'p/q'), got {x!r}"
    )


@dataclass(frozen=True)
class AffineArg:
    """Affine form  sum_i c_i * param_i + constant  with exact rational data."""

    coeffs: tuple[tuple[str, Fraction], ...]
    constant: Fraction

    @classmethod
    def make(
        cls, coeffs: Mapping[str, RationalLike] | None = None, constant: RationalLike = 0
    ) -> "AffineArg":
        items = []
        for name, c in sorted((coeffs or {}).items()):
            c = _as_fraction(c)
            if c != 0:
                items.append((str(name), c))
        return cls(tuple(items), _as_fraction(constant))

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def gradient(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def evaluate(self, params: Mapping[str, complex]):
        """Value at a parameter point; exact Fraction when every input is rational."""
        exact = all(
            isinstance(params[name], (int, Fraction)) and not isinstance(params[name], bool)
            for name, _ in self.coeffs
        )
        if exact:
            total = self.constant
            for name, c in self.coeffs:
                total += c * Fraction(params[name])
            return total
        total_c = complex(self.constant)
        for name, c in self.coeffs:
            total_c += float(c) * complex(params[name])
        return total_c

    def compose(self, line: Mapping[str, tuple[Fraction, Fraction]]) -> "AffineArg":
        """Substitute param_i = slope_i * t + intercept_i."""
        slope = Fraction(0)
        const = self.constant
        for name, c in self.coeffs:
            s, b = line[name]
            slope += c * _as_fraction(s)
            const += c * _as_fraction(b)
        return AffineArg.make({"t": slope}, const)

    def __str__(self) -> str:
        parts = [f"{c}*{name}" for name, c in self.coeffs]
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


@dataclass(frozen=True)
class GammaFactor:
    arg: AffineArg
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent == 0:
            raise ValidationError("GammaFactor exponent must be a nonzero integer")


@dataclass(frozen=True)
class GammaProduct:
    """c * prod Gamma(arg_k)^{e_k}, with c stored as log_prefactor = Log c."""

    log_prefactor: complex = 0.0 + 0.0j
    factors: tuple[GammaFactor, ...] = ()

    def __post_init__(self):
        lp = complex(self.log_prefactor)
        if not (math.isfinite(lp.real) and math.isfinite(lp.imag)):
            raise ValidationError("prefactor must be nonzero and finite (log form)")
        merged: dict[AffineArg, int] = {}
        for f in self.factors:
            merged[f.arg] = merged.get(f.arg, 0) + f.exponent
        canon = tuple(
            GammaFactor(arg, e)
            for arg, e in sorted(merged.items(), key=lambda kv: (kv[0].coeffs, kv[0].constant))
            if e != 0
        )
        object.__setattr__(self, "log_prefactor", lp)
        object.__setattr__(self, "factors", canon)

    @property
    def params(self) -> tuple[str, ...]:
        names = set()
        for f in self.factors:
            names.update(f.arg.params)
        return tuple(sorted(names))


@dataclass(frozen=True)
class MeroValue:
    """Outcome of evaluating a GammaProduct at a point.

    kind 'regular': log_value = log-modulus + i*phase of the (finite, nonzero)
    value; .value exponentiates it (may overflow to inf for huge products --
    use .log_modulus/.phase then).
    kind 'pole'/'zero': order >= 1.  For single-parameter products a zero also
    carries limit_of_scaled = lim f(t)/(t-t0)^order.
    """

    kind: str
    order: int = 0
    log_value: complex | None = None
    limit_of_scaled: complex | None = None
    warnings: tuple[str, ...] = ()

    @classmethod
    def regular_from_log(cls, logv: complex, warnings=()) -> "MeroValue":
        return cls("regular", 0, complex(logv), None, tuple(warnings))

    @classmethod
    def pole(cls, order: int, warnings=()) -> "MeroValue":
        return cls("pole", int(order), None, None, tuple(warnings))

    @classmethod
    def zero(cls, order: int, limit_of_scaled=None, warnings=()) -> "MeroValue":
        return cls("zero", int(order), None, limit_of_scaled, tuple(warnings))

    @property
    def log_modulus(self) -> float:
        if self.kind == "zero":
            return -math.inf
        if self.kind != "regular":
            raise ValidationError(f"no log-modulus for a {self.kind}")
        return self.log_value.real

    @property
    def phase(self) -> float:
        if self.kind != "regular":
            raise ValidationError(f"no phase for a {self.kind}")
        # wrap into (-pi, pi]
        p = math.remainder(self.log_value.imag, 2.0 * math.pi)
        return p if p != -math.pi else math.pi

    @property
    def value(self) -> complex:
        if self.kind == "zero":
            return 0.0 + 0.0j
        if self.kind == "pole":
            raise PoleError(f"pole of order {self.order}")
        try:
            return cmath.exp(self.log_value)
        except OverflowError:
            return complex(math.inf, math.inf)


def _primitive_direction(grad: dict[str, Fraction]) -> tuple[tuple[tuple[str, Fraction], ...], Fraction]:
    """Scale a nonzero rational gradient to a canonical primitive form.

    Returns (canonical direction, lambda) with  grad = lambda * direction  and
    the direction's first (lexicographically) nonzero entry equal to +1.
    """
    items = sorted((k, v) for k, v in grad.items() if v != 0)
    lead = items[0][1]
    direction = tuple((k, v / lead) for k, v in items)
    return direction, lead


def _residue_log(members: list[tuple[Fraction, int, int]]) -> tuple[float, bool]:
    """log|c| and whether c < 0, for c = prod [(-1)^n / (n! lam)]^e over the
    (lam, n, e): c is exact and its log comes from its integer numerator and
    denominator, so no factorial underflows or overflows a float.  Refuses,
    before any factorial, an n above _MAX_RESIDUE_N."""
    if max(n for _, n, _ in members) > _MAX_RESIDUE_N:
        raise ValidationError(
            f"the residue at this point needs n! for some n > {_MAX_RESIDUE_N}, "
            "beyond what the exact residue product takes"
        )
    c = Fraction(1)
    for lam, n, e in members:
        c *= (Fraction((-1) ** n, math.factorial(n)) / lam) ** e
    return math.log(abs(c.numerator)) - math.log(c.denominator), c < 0


def eval_gamma_product(gp: GammaProduct, params: Mapping[str, complex]) -> MeroValue:
    """Classify and evaluate gp at a parameter point.

    Net order m sums factor exponents over the factors whose argument lands on
    a nonpositive integer: m>0 pole, m<0 zero, m=0 removable (residue pairing).
    Rational parameter values are classified exactly; floats hit a singularity
    only on exact integer arguments, and a 1e-9 proximity otherwise just adds
    a near-singular warning to the regular value.
    """
    missing = [p for p in gp.params if p not in params]
    if missing:
        raise ValidationError(f"missing parameter values for {missing}")

    warnings: list[str] = []
    regular: list[tuple[complex, int]] = []          # (argument value, exponent)
    singular: list[tuple[dict, int, int]] = []       # (gradient, n, exponent) at arg = -n

    for f in gp.factors:
        val = f.arg.evaluate(params)
        if isinstance(val, Fraction):
            hit = val <= 0 and val.denominator == 1
        else:
            hit = _is_nonpositive_integer(val)
            if not hit:
                nearest = round(val.real)
                if nearest <= 0 and abs(val - nearest) <= _NEAR_SINGULAR_TOL:
                    warnings.append(
                        f"argument {f.arg} = {val} within {_NEAR_SINGULAR_TOL:g} of pole at {nearest}"
                    )
        if hit:
            grad = f.arg.gradient()
            if not grad:
                raise ValidationError(
                    f"factor Gamma({f.arg})^{f.exponent} is identically singular (constant argument)"
                )
            singular.append((grad, int(-val.real), f.exponent))
        else:
            regular.append((complex(val), f.exponent))

    net = sum(e for _, _, e in singular)
    if net > 0:
        return MeroValue.pole(net, warnings)

    # Gamma(lam*u - n)^e ~ [(-1)^n/(n! lam)]^e u^{-e} as u -> 0 along its direction
    groups: dict[tuple, list[tuple[Fraction, int, int]]] = {}
    for grad, n, e in singular:
        direction, lam = _primitive_direction(grad)
        groups.setdefault(direction, []).append((lam, n, e))

    # log of the product over the nonsingular factors
    log_reg = complex(gp.log_prefactor)
    logs = [(e, log_gamma(argval)) for argval, e in regular]
    for e, lg in logs:
        log_reg += e * lg

    if net < 0:
        limit = None
        if len(gp.params) == 1:  # lim f(t)/(t-t0)^{|net|}, from the one group
            log_c, negative = _residue_log(*groups.values())
            # the one parameter is real at a zero, so each regular factor's
            # phase is k pi: the sign is the parity of the k (a float sum of
            # the phases would leave a spurious imaginary part)
            turns = sum(e * round(lg.imag / math.pi) for e, lg in logs)
            sign = -1.0 if negative != (turns % 2 == 1) else 1.0
            try:
                limit = sign * cmath.exp(complex(log_reg.real + log_c, gp.log_prefactor.imag))
            except OverflowError:
                pass
        return MeroValue.zero(-net, limit, warnings)

    # removable: each group must cancel on its own, otherwise the limit
    # depends on the approach direction
    for direction, members in groups.items():
        if sum(e for _, _, e in members) != 0:
            raise ValidationError(
                "removable point has direction-dependent limit "
                f"(unbalanced cancellation along {dict(direction)})"
            )
        log_c, negative = _residue_log(members)
        log_reg += log_c + (cmath.pi * 1j if negative else 0.0)

    return MeroValue.regular_from_log(log_reg, warnings)


def restrict_to_line(
    gp: GammaProduct, line: Mapping[str, tuple[RationalLike, RationalLike]]
) -> GammaProduct:
    """Substitute param_i = slope_i * t + intercept_i (exact rationals)."""
    missing = [p for p in gp.params if p not in line]
    if missing:
        raise ValidationError(f"line does not cover parameters {missing}")
    norm = {k: (_as_fraction(s), _as_fraction(b)) for k, (s, b) in line.items()}
    return GammaProduct(
        gp.log_prefactor,
        tuple(GammaFactor(f.arg.compose(norm), f.exponent) for f in gp.factors),
    )


def zeros_and_poles_in_strip(
    gp: GammaProduct, re_min: float, re_max: float
) -> list[tuple[Fraction, int]]:
    """All t with re_min <= Re t <= re_max where the product has a pole or zero.

    Returns (location, net_order) pairs, net_order > 0 for poles, < 0 for
    zeros, sorted right-to-left; removable points (net order 0) are omitted.
    Locations are exact rationals since every factor argument is affine with
    rational data.
    """
    names = gp.params
    if len(names) != 1:
        raise ValidationError(f"strip enumeration needs a single-parameter product, got {names}")
    lo, hi = Fraction(re_min), Fraction(re_max)
    if lo > hi:
        raise ValidationError("re_min must not exceed re_max")

    spans = []  # (factor, slope, first m, last m)
    for f in gp.factors:
        grad = f.arg.gradient()
        if not grad:
            cval = f.arg.constant
            if cval <= 0 and cval.denominator == 1:
                raise ValidationError(
                    f"factor Gamma({cval})^{f.exponent} is identically singular on the strip"
                )
            continue
        s = grad[names[0]]
        c = f.arg.constant
        # arg = s t + c = -m  =>  t = (-m - c)/s; m ranges over integers >= 0
        # with t inside [lo, hi].
        m_bounds = sorted((-c - s * lo, -c - s * hi))
        spans.append((f, s, max(0, math.ceil(m_bounds[0])), math.floor(m_bounds[1])))
    total = sum(max(0, m_last - m_first + 1) for _, _, m_first, m_last in spans)
    if total > _MAX_STRIP_POINTS:
        raise ValidationError(
            f"the strip holds {total} factor singularities, more than "
            f"{_MAX_STRIP_POINTS}; narrow it"
        )

    orders: dict[Fraction, int] = {}
    for f, s, m_first, m_last in spans:
        for m in range(m_first, m_last + 1):
            t_m = (-m - f.arg.constant) / s
            orders[t_m] = orders.get(t_m, 0) + f.exponent

    return sorted(((t, o) for t, o in orders.items() if o != 0), key=lambda kv: -kv[0])


# ---------------------------------------------------------------------------
# JSON round trip: rationals as decimal-free "p/q" strings.

def gp_to_json(gp: GammaProduct) -> str:
    doc = {
        "prefactor_log": [gp.log_prefactor.real, gp.log_prefactor.imag],
        "factors": [
            {
                "coeffs": {name: str(c) for name, c in f.arg.coeffs},
                "constant": str(f.arg.constant),
                "exponent": f.exponent,
            }
            for f in gp.factors
        ],
    }
    return json.dumps(doc, indent=2)


def gp_from_json(text: str) -> GammaProduct:
    doc = json.loads(text)
    try:
        re_, im = doc["prefactor_log"]
        factors = tuple(
            GammaFactor(
                AffineArg.make(f.get("coeffs", {}), f.get("constant", 0)),
                int(f["exponent"]),
            )
            for f in doc["factors"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed GammaProduct document: {exc}") from exc
    return GammaProduct(complex(re_, im), factors)
