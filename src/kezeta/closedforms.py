"""Explicit partition functions as Gamma products, and tube-domain analyses.

Families implemented here (each returns a symbolic GammaProduct):

  * selberg_gamma_product(N): the three-point-weight normalization constant at
    canonical inverse temperature, via the complex Selberg / Dotsenko-Fateev
    evaluation.  With d' = (2 - w1 - w2 - w3)/(N-1) and l(x) = G(x)/G(1-x),

        Z_N = N! (pi / l(-d'/2))^N prod_{j=1}^N l(-(j/2)d')
              / [ l(w1+(j/2)d') l(w2+(j/2)d') l(w3+(j/2)d') ],

    where G is the Gamma function; every l is expanded into its two Gamma
    factors so pole/zero bookkeeping happens in one place (gammaprod).
  * pn_minimal_Z(n): minimal-degree ensemble on n-dimensional projective
    space, Z(beta) = c_n prod_{j=1}^n G(beta(n+1)+j) / G(beta(n+1)+n+1)^n,
    with c_n = G(n+1)^n / prod_j G(j) pinned by Z(0) = 1.
  * p1_three_point_Z(): N = 3 on the line, Z = pi^3 G(2b+2)^-3 G(3b+2) G(b+1)^3.
  * circular_Z(N): circular ensemble, (2pi)^N G(1+b/(N-1))^-N G(1+bN/(N-1)).
  * gaussian_det_Z(n): moments of |det|^2 of an (n+1)x(n+1) standard complex
    Gaussian matrix, Z(s) = c prod_{j=1}^{n+1} G(s+j), c = pi^(n+1)^2/prod G(j).

Tube analysis: a tube is a TubeDomain, an open polytope given as affine
half-spaces form < 0 on the real parts.  Zeros of any Gamma product lie on
affine hyperplane families {arg = -m} coming from negative-exponent factors,
so zero-freeness over the tube reduces to exact linear feasibility checks,
with net-order cancellation against positive-exponent factors that land on
the same hyperplane.  The checks are Fourier-Motzkin elimination over
coprime integer rows: each rational row a.x < b is scaled to integers, rows
are combined with positive integer multipliers and divided by their gcd
(Schrijver, Theory of Linear and Integer Programming, 1986, sec. 12.2), so
every step is plain int arithmetic and a Fraction is formed only for a final
bound or a witness coordinate.  One range solve (a functional's exact open
range over the tube) serves the hyperplane scan, the emptiness check and the
witness point.

A caution that shapes two public helpers: the Gamma-product formula is the
meromorphic continuation of the defining integral.  At weight points where
the integral diverges the formula is usually still finite, so "is Z finite"
questions about the *integral* are answered by locating which side of the
pole walls the point sits on, never by evaluating the continuation:
selberg_integral_finite reads the two walls that bound the convergence cell,
proven in its docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import ValidationError
from .gammaprod import (
    AffineArg,
    GammaFactor,
    GammaProduct,
    eval_gamma_product,
)

__all__ = [
    "selberg_gamma_product",
    "pn_minimal_Z",
    "p1_three_point_Z",
    "circular_Z",
    "gaussian_det_Z",
    "bernstein_product",
    "TubeDomain",
    "ZeroFreeReport",
    "zero_free_in_tube",
    "selberg_tube",
    "selberg_integral_finite",
]


def _l_pair(arg: AffineArg, exponent: int) -> tuple[GammaFactor, GammaFactor]:
    """l(x) = Gamma(x)/Gamma(1-x), contributed with the given exponent."""
    one_minus = AffineArg.make(
        {name: -c for name, c in arg.coeffs}, Fraction(1) - arg.constant
    )
    return GammaFactor(arg, exponent), GammaFactor(one_minus, -exponent)


def selberg_gamma_product(N: int) -> GammaProduct:
    if not isinstance(N, int) or N < 2:
        raise ValidationError("selberg_gamma_product needs integer N >= 2")
    ws = ("w1", "w2", "w3")
    denom = 2 * (N - 1)

    def half_j_dprime(j: int) -> AffineArg:
        # (j/2) d' = (j/2)(2 - w1 - w2 - w3)/(N-1)
        return AffineArg.make({w: Fraction(-j, denom) for w in ws}, Fraction(2 * j, denom))

    factors: list[GammaFactor] = []
    # prefactor (pi / l(-d'/2))^N
    a, b = _l_pair(half_j_dprime(-1), -N)  # -(1/2)d' is half_j_dprime at j = -1
    factors += [a, b]
    # repulsion factors l(-(j/2)d'), j = 1..N
    for j in range(1, N + 1):
        a, b = _l_pair(half_j_dprime(-j), 1)
        factors += [a, b]
    # weight factors 1/l(w_i + (j/2)d'), j = 0..N-1.  The j = N-1 wall
    # w_i + d/2 = 1 is where the integral's marked-point pileup diverges, and
    # the j = N repulsion factor's first pole N d' = 2 is the free-collision
    # wall; shifting the weight range up by one puts both walls in the wrong
    # place and disagrees with quadrature, so the range here is load-bearing.
    for j in range(0, N):
        shift = half_j_dprime(j)
        for w in ws:
            coeffs = {name: c for name, c in shift.coeffs}
            coeffs[w] = coeffs.get(w, Fraction(0)) + 1
            a, b = _l_pair(AffineArg.make(coeffs, shift.constant), -1)
            factors += [a, b]
    log_pref = math.lgamma(N + 1) + N * math.log(math.pi)
    return GammaProduct(log_pref, tuple(factors))


def pn_minimal_Z(n: int) -> GammaProduct:
    if not isinstance(n, int) or n < 1:
        raise ValidationError("pn_minimal_Z needs integer n >= 1")
    log_c = n * math.lgamma(n + 1) - sum(math.lgamma(j) for j in range(1, n + 1))
    factors = [
        GammaFactor(AffineArg.make({"beta": n + 1}, j), 1) for j in range(1, n + 1)
    ]
    factors.append(GammaFactor(AffineArg.make({"beta": n + 1}, n + 1), -n))
    return GammaProduct(log_c, tuple(factors))


def p1_three_point_Z() -> GammaProduct:
    return GammaProduct(
        3 * math.log(math.pi),
        (
            GammaFactor(AffineArg.make({"beta": 2}, 2), -3),
            GammaFactor(AffineArg.make({"beta": 3}, 2), 1),
            GammaFactor(AffineArg.make({"beta": 1}, 1), 3),
        ),
    )


def circular_Z(N: int) -> GammaProduct:
    if not isinstance(N, int) or N < 2:
        raise ValidationError("circular_Z needs integer N >= 2")
    return GammaProduct(
        N * math.log(2 * math.pi),
        (
            GammaFactor(AffineArg.make({"beta": Fraction(1, N - 1)}, 1), -N),
            GammaFactor(AffineArg.make({"beta": Fraction(N, N - 1)}, 1), 1),
        ),
    )


def gaussian_det_Z(n: int) -> GammaProduct:
    if not isinstance(n, int) or n < 0:
        raise ValidationError("gaussian_det_Z needs integer n >= 0")
    k = n + 1
    log_c = k * k * math.log(math.pi) - sum(math.lgamma(j) for j in range(1, k + 1))
    return GammaProduct(
        log_c,
        tuple(GammaFactor(AffineArg.make({"s": 1}, j), 1) for j in range(1, k + 1)),
    )


def bernstein_product(n: int, s) -> Fraction | float:
    """b(s) = prod_{j=1}^{n+1} (s + j), the polynomial in Z(s+1) = b(s) Z(s)."""
    out = s * 0 + 1  # keeps Fractions exact, floats float
    for j in range(1, n + 2):
        out = out * (s + j)
    return out


# ---------------------------------------------------------------------------
# Tube domains and exact linear feasibility (Fourier-Motzkin over integer rows).

@dataclass(frozen=True)
class TubeDomain:
    """Open polytope on real parts: every constraint is an affine form read
    as form < 0."""

    constraints: tuple[AffineArg, ...]

    def __post_init__(self):
        if any(not form.coeffs for form in self.constraints):
            raise ValidationError("constraint needs at least one nonzero coefficient")

    @classmethod
    def from_bounds(cls, bounds: Mapping[str, tuple]) -> "TubeDomain":
        """lo < x is the form lo - x, and x < hi the form x - hi."""
        cons = []
        for name, (lo, hi) in bounds.items():
            if lo is not None:
                cons.append(AffineArg.make({name: -1}, Fraction(lo)))
            if hi is not None:
                cons.append(AffineArg.make({name: 1}, -Fraction(hi)))
        return cls(tuple(cons))

    def contains(self, point: Mapping[str, object]) -> bool:
        x = {name: Fraction(v) for name, v in point.items()}
        return all(
            sum((c * x[name] for name, c in form.coeffs), form.constant) < 0
            for form in self.constraints
        )

    def rows(self, params: Sequence[str]) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """The strict rows a.x < b over the given parameter order."""
        index = {p: i for i, p in enumerate(params)}
        out = []
        for form in self.constraints:
            vec = [Fraction(0)] * len(params)
            for name, co in form.coeffs:
                if name not in index:
                    raise ValidationError(f"constraint mentions unknown parameter {name}")
                vec[index[name]] = co
            out.append((tuple(vec), -form.constant))
        return out


def selberg_tube(kind: str = "canonical") -> TubeDomain:
    """Weight tubes for the three-point family.

    canonical: 0 < Re w_i < 1 -- the hypotheses the zero-free argument
        actually uses (its d = 0 step needs Re w_i > 0).
    display:   Re w_i < 1 with only the sum positive.  This larger tube is
        NOT zero-free: it meets denominator-pole hyperplanes with one weight
        negative, e.g. w = (-1/5, 9/10, 9/10) at N = 2.
    widened:   canonical but with Re w1 < 2, which lets the numerator zero
        family at sum = 2 + 2(N-1)/N through; used as a witness control.
    """
    if kind == "canonical":
        return TubeDomain.from_bounds({w: (0, 1) for w in ("w1", "w2", "w3")})
    if kind == "display":
        cons = [AffineArg.make({w: 1}, -1) for w in ("w1", "w2", "w3")]
        cons.append(AffineArg.make({"w1": -1, "w2": -1, "w3": -1}, 0))
        return TubeDomain(tuple(cons))
    if kind == "widened":
        return TubeDomain.from_bounds(
            {"w1": (0, 2), "w2": (0, 1), "w3": (0, 1)}
        )
    raise ValidationError(f"unknown selberg tube kind {kind!r}")


Row = tuple[tuple[int, ...], int]  # a.x < b over coprime integers


def _primitive(a: Sequence[int], b: int) -> Row:
    """The row divided by the gcd of its entries: a positive multiple, so the
    same inequality.  A row of zeros is returned as it is."""
    g = math.gcd(*a, b)
    if g > 1:
        return tuple(x // g for x in a), b // g
    return tuple(a), b


def _int_row(a: Sequence[Fraction], b: Fraction) -> Row:
    """The rational row a.x < b as its coprime integer multiple."""
    scale = math.lcm(b.denominator, *(x.denominator for x in a))
    return _primitive([x.numerator * (scale // x.denominator) for x in a],
                      b.numerator * (scale // b.denominator))


def _int_rows(rows) -> list[Row]:
    return list(dict.fromkeys(_int_row(a, b) for a, b in rows))


def _fm_eliminate(rows: list[Row], idx: int) -> list[Row]:
    """The rows without x_idx, and every lower bound on x_idx (a[idx] < 0)
    against every upper one: (-c_l)*upper + c_u*lower cancels x_idx with
    positive multipliers, then the gcd goes.  Duplicate rows are dropped."""
    lowers, uppers, out = [], [], []
    for row in rows:
        c = row[0][idx]
        (out if c == 0 else uppers if c > 0 else lowers).append(row)
    for la, lb in lowers:
        cl = -la[idx]
        for ua, ub in uppers:
            cu = ua[idx]
            out.append(_primitive([cl * u + cu * l for u, l in zip(ua, la)], cl * ub + cu * lb))
    return list(dict.fromkeys(out))


def _fm_contradiction(rows: list[Row]) -> bool:
    return any(b <= 0 and not any(a) for a, b in rows)


def _substitute(rows: list[Row], j: int, ell: Sequence[int], value: int) -> list[Row]:
    """Impose the equality ell.x = value by solving for x_j and substituting;
    each row is scaled by |ell_j| so that it stays integer."""
    scale, sign = abs(ell[j]), (1 if ell[j] > 0 else -1)
    out = []
    for a, b in rows:
        k = a[j] * sign
        if k == 0:
            out.append((a, b))
            continue
        # |l_j| x_j = sign*(value - sum_{i != j} l_i x_i)
        out.append(_primitive([scale * x - k * e for x, e in zip(a, ell)], scale * b - k * value))
    return list(dict.fromkeys(out))


def _functional_range(rows: list[Row], ell: Sequence[int]):
    """Exact open range (lo, hi) of ell.x over the open polytope; None side
    means unbounded; returns 'empty' if the polytope is empty."""
    n = len(ell)
    # introduce t as variable n, then substitute the equality t = ell.x away
    wide = [(a + (0,), b) for a, b in rows]
    j = next(i for i in range(n) if ell[i] != 0)
    cur = _substitute(wide, j, tuple(ell) + (-1,), 0)
    for idx in range(n):
        if idx != j:
            cur = _fm_eliminate(cur, idx)
    if _fm_contradiction(cur):
        return "empty"
    lo, hi = None, None
    for a, b in cur:
        c = a[n]
        if c == 0:
            continue
        bound = Fraction(b, c)
        if c > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    if lo is not None and hi is not None and lo >= hi:
        return "empty"
    return lo, hi


def _range_point(rows: list[Row], n: int, skip=(), pick=Fraction(1, 2)):
    """Interior rational point of the open polytope, or None.  The variables
    not in `skip` (those stay None) are fixed last to first inside their open
    ranges; the last check catches a polytope with no variable left free."""
    x: list[Optional[Fraction]] = [None] * n
    for idx in reversed(range(n)):
        if idx in skip:
            continue
        unit = tuple(int(i == idx) for i in range(n))
        rng = _functional_range(rows, unit)
        if rng == "empty":
            return None
        lo, hi = rng
        if lo is None and hi is None:
            x[idx] = Fraction(0)
        elif lo is None:
            x[idx] = hi - 1
        elif hi is None:
            x[idx] = lo + 1
        else:
            x[idx] = lo + (hi - lo) * pick
        rows = _substitute(rows, idx, *_int_row(unit, x[idx]))
    return None if _fm_contradiction(rows) else x


def _singular_hyperplanes(gp: GammaProduct, params: Sequence[str], rows: list[Row]):
    """Net order of every singular hyperplane of the product that meets the
    open polytope `rows` (over `params`).

    Gamma(arg)^e is singular on the family {arg + m = 0}, m = 0, 1, 2, ...;
    the m that meet the polytope follow exactly from the open range of the
    gradient functional.  Orders of all factors landing on the same geometric
    hyperplane are summed.  Returns ({key: net order}, {key: (vec, value)}),
    where key normalizes {vec . x = value} to leading coefficient 1 and
    (vec, value) is the first representative met.

    The range is solved once per primitive integer direction: vec is a
    rational multiple lam of it, so Gamma(x) and Gamma(1 - x) share a solve.
    """
    range_cache: dict[tuple, object] = {}
    net: dict[tuple, int] = {}
    rep: dict[tuple, tuple] = {}
    for f in gp.factors:
        grad = f.arg.gradient()
        if not grad:
            c = f.arg.constant
            if c <= 0 and c.denominator == 1:
                raise ValidationError(
                    f"factor Gamma({c})^{f.exponent} has a zero family with all-zero slope"
                )
            continue
        vec = tuple(grad.get(p, Fraction(0)) for p in params)
        direction, _ = _int_row(vec, Fraction(0))
        k = next(i for i, v in enumerate(direction) if v != 0)
        if direction[k] < 0:
            direction = tuple(-v for v in direction)
        if direction not in range_cache:
            range_cache[direction] = _functional_range(rows, direction)
        rng = range_cache[direction]
        if rng == "empty":
            raise ValidationError("tube domain is empty")
        lam = vec[k] / direction[k]
        ends = [None if e is None else lam * e for e in rng]
        lo, hi = ends if lam > 0 else ends[::-1]
        if lo is None:
            raise ValidationError(
                f"tube is unbounded along the singular family of Gamma({f.arg})"
            )
        c = f.arg.constant
        m_first = 0 if hi is None else max(0, math.floor(-c - hi) + 1)
        m_last = math.ceil(-c - lo) - 1
        lead = vec[k]
        for m in range(m_first, m_last + 1):
            value = -c - m  # hyperplane {vec . x = value} meets the polytope
            key = (tuple(v / lead for v in vec), value / lead)
            net[key] = net.get(key, 0) + f.exponent
            rep.setdefault(key, (vec, value))
    return net, rep


@dataclass(frozen=True)
class ZeroFreeReport:
    zero_free: bool
    witness: Optional[dict] = None
    hyperplane: Optional[str] = None
    families_checked: int = 0

    def to_json(self) -> dict:
        out = {"zero_free": self.zero_free, "families_checked": self.families_checked}
        if not self.zero_free:
            out["hyperplane"] = self.hyperplane
            out["witness"] = {k: str(v) for k, v in self.witness.items()}
        return out


def zero_free_in_tube(gp: GammaProduct, dom: TubeDomain) -> ZeroFreeReport:
    """Decide whether the product has a zero in the open tube.

    Zeros can only come from poles of negative-exponent Gamma factors, i.e.
    from affine hyperplanes {arg + m = 0}, m = 0, 1, 2, ...  For each family
    the feasible m are found exactly (the functional's range over the tube is
    an open rational interval); contributions of all factors landing on the
    same geometric hyperplane are netted, so cancellations like the one at
    d' = 0 in the three-point family are handled.  A surviving hyperplane
    yields a rational witness point, validated by evaluation.
    """
    params = list(gp.params)
    if not params:
        return ZeroFreeReport(zero_free=True)
    n = len(params)
    rows = _int_rows(dom.rows(params))  # raises on a parameter the product lacks
    # an empty tube raises on the first range solve
    net, rep = _singular_hyperplanes(gp, params, rows)
    zero_keys = sorted(k for k, e in net.items() if e < 0)
    if not zero_keys:
        return ZeroFreeReport(zero_free=True, families_checked=len(net))

    vec, value = rep[zero_keys[0]]
    j = next(i for i in range(n) if vec[i] != 0)
    desc = " + ".join(f"{vec[i]}*{params[i]}" for i in range(n) if vec[i] != 0)
    constrained = _substitute(rows, j, *_int_row(vec, value))
    for pick in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(3, 5)):
        x = _range_point(constrained, n, skip={j}, pick=pick)
        if x is None:
            continue
        x[j] = (value - sum(vec[i] * x[i] for i in range(n) if i != j)) / vec[j]
        point = {params[i]: x[i] for i in range(n)}
        try:
            kind = eval_gamma_product(gp, point).kind
        except ValidationError:
            continue  # landed on a crossing with another singular family
        if kind == "zero":
            return ZeroFreeReport(
                zero_free=False,
                witness=point,
                hyperplane=f"{desc} = {value}",
                families_checked=len(net),
            )
    raise ValidationError(
        f"found zero hyperplane {desc} = {value} but could not validate a witness"
    )


# ---------------------------------------------------------------------------
# Integral finiteness for the three-point family.

def selberg_integral_finite(w: Sequence, N: int) -> bool:
    """Whether the defining N-point integral converges at real weights w.

    Valid for 0 < w_i < 1 with positive degree (the range the integral is set
    in).  The Gamma-product formula continues past the divergence walls, so
    this is decided from the walls, in exact Fractions: finite iff

        2 w_i < w_1 + w_2 + w_3 for each i,  and  N (2 - sum w) < 2 (N - 1),

    Selberg's classical conditions (Forrester & Warnaar, Bull. AMS 45 (2008)
    489-534).  Proof from the formula's poles: the convergence cell is the
    component of the complement of the pole hyperplanes that holds a deeply
    stable point.  With d' = (2 - sum w)/(N - 1) > 0 in the box, the only
    pole walls that meet the box 0 < w_i < 1, sum w < 2 are
    w_i + j d'/2 = 1 for j = 1..N-1 (j + 1 points piling up at the marked
    point p_i; 3(N - 1) walls) and N d' = 2 (all N points colliding); every
    family with shift m >= 1 misses the box.  Since d' > 0, the j = N-1 wall,
    w_i + d'(N-1)/2 < 1, i.e. 2 w_i < sum w, implies every smaller j, which
    leaves the two conditions above.
    """
    ws = [Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**9) for x in w]
    if len(ws) != 3:
        raise ValidationError("selberg_integral_finite needs three weights")
    if any(not (0 < x < 1) for x in ws):
        raise ValidationError("weights must lie strictly between 0 and 1")
    total = sum(ws)
    if total >= 2:
        raise ValidationError("degree must be positive (sum of weights < 2)")
    if not isinstance(N, int) or N < 2:
        raise ValidationError("selberg_integral_finite needs integer N >= 2")
    return all(2 * x < total for x in ws) and N * (2 - total) < 2 * (N - 1)
