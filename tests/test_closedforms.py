"""Closed-form partition functions: pins, oracle comparisons, tube analyses."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kezeta import closedforms as cf
from kezeta.closedforms import (
    TubeDomain,
    bernstein_product,
    circular_Z,
    gaussian_det_Z,
    p1_three_point_Z,
    pn_minimal_Z,
    selberg_gamma_product,
    selberg_integral_finite,
    selberg_tube,
    zero_free_in_tube,
)
from kezeta.errors import ValidationError
from kezeta.gammaprod import (
    AffineArg,
    GammaFactor,
    GammaProduct,
    eval_gamma_product,
    gp_from_json,
    gp_to_json,
    zeros_and_poles_in_strip,
)
from kezeta.stability import gamma_threshold

mp = pytest.importorskip("mpmath")


def mp_selberg(w1, w2, w3, N):
    """Direct high-precision evaluation of the three-point formula.

    Weight factors run over shifts j = 0..N-1; the variant with 1..N puts the
    pole walls in the wrong place and disagrees with importance-sampling
    quadrature of the integral by orders of magnitude.
    """
    with mp.workdps(40):
        l = lambda x: mp.gamma(x) / mp.gamma(1 - x)
        dp = (mp.mpf(2) - (w1 + w2 + w3)) / (N - 1)
        val = mp.factorial(N) * (mp.pi / l(-dp / 2)) ** N
        for j in range(1, N + 1):
            val *= l(-j * dp / 2)
        for j in range(0, N):
            val /= l(w1 + j * dp / 2) * l(w2 + j * dp / 2) * l(w3 + j * dp / 2)
        return float(val)


HALF = Fraction(1, 2)


def test_selberg_pole_and_zero_pins():
    # weight-condition equality w1 = w2 + w3 sits exactly on the pileup wall
    # w1 + d/2 = 1, a continuation pole for every N
    border = {"w1": Fraction(3, 5), "w2": Fraction(3, 10), "w3": Fraction(3, 10)}
    for n in (2, 3, 4):
        assert eval_gamma_product(selberg_gamma_product(n), border).kind == "pole"
    # free-collision wall N d' = 2 (here sum w = 1 at N = 2)
    coll = {"w1": HALF, "w2": Fraction(1, 4), "w3": Fraction(1, 4)}
    assert eval_gamma_product(selberg_gamma_product(2), coll).kind == "pole"
    # at w = 0 (so d' = 1) the three j = 0 factors 1/l(0) vanish but the
    # three j = 2 factors 1/l(1) and the repulsion factor l(-1) all blow up:
    # net simple pole of the continuation
    gp3 = selberg_gamma_product(3)
    assert eval_gamma_product(gp3, {"w1": 0, "w2": 0, "w3": 0}).kind == "pole"


def test_selberg_frozen_values():
    cases = [
        ((HALF, HALF, HALF), 3, 5904.80443225),
        ((HALF, HALF, HALF), 4, 98289.0269769),
        ((Fraction(2, 5),) * 3, 4, 64434.952443),
        ((HALF, HALF, HALF), 2, 378.145440258),
    ]
    for (w1, w2, w3), n, frozen in cases:
        got = eval_gamma_product(
            selberg_gamma_product(n), {"w1": w1, "w2": w2, "w3": w3}
        )
        assert got.kind == "regular"
        oracle = mp_selberg(mp.mpf(str(w1)), mp.mpf(str(w2)), mp.mpf(str(w3)), n)
        assert got.value.real == pytest.approx(oracle, rel=1e-10)
        assert abs(got.value.imag) < 1e-9 * abs(got.value.real)
        assert got.value.real == pytest.approx(frozen, rel=1e-9)


def test_selberg_matches_mpmath_at_generic_stable_points():
    pts = [
        ((Fraction(1, 2), Fraction(2, 5), Fraction(11, 20)), 3),
        ((Fraction(3, 5), Fraction(3, 5), Fraction(1, 2)), 4),
        ((Fraction(7, 10), Fraction(3, 5), Fraction(3, 5)), 5),
    ]
    for (w1, w2, w3), n in pts:
        got = eval_gamma_product(
            selberg_gamma_product(n), {"w1": w1, "w2": w2, "w3": w3}
        )
        oracle = mp_selberg(mp.mpf(str(w1)), mp.mpf(str(w2)), mp.mpf(str(w3)), n)
        assert got.kind == "regular"
        assert got.value.real == pytest.approx(oracle, rel=1e-9)


def test_selberg_weight_symmetry():
    gp = selberg_gamma_product(3)
    a = eval_gamma_product(gp, {"w1": Fraction(1, 2), "w2": Fraction(2, 5), "w3": Fraction(3, 5)})
    b = eval_gamma_product(gp, {"w1": Fraction(3, 5), "w2": Fraction(1, 2), "w3": Fraction(2, 5)})
    assert a.value.real == pytest.approx(b.value.real, rel=1e-11)


def test_pn_minimal_normalization_and_n1_closed_form():
    gp = pn_minimal_Z(1)
    assert eval_gamma_product(gp, {"beta": 0}).value.real == pytest.approx(1.0, rel=1e-13)
    for beta in (0.3, 1.7, -0.2):
        got = eval_gamma_product(gp, {"beta": beta}).value.real
        assert got == pytest.approx(1.0 / (2 * beta + 1), rel=1e-12)


def test_pn_minimal_strip_enumeration():
    # first pole at -1/(n+1), nothing else to its right: net orders are exact
    for n in range(1, 7):
        gp = pn_minimal_Z(n)
        entries = zeros_and_poles_in_strip(gp, -Fraction(1, n + 1), 20)
        assert entries == [(-Fraction(1, n + 1), 1)]
    # n=1 has removable points at -1 and -3/2 (pole meets zero); they must
    # net out, leaving only the genuine first pole in a wide strip
    assert zeros_and_poles_in_strip(pn_minimal_Z(1), -2, 1) == [(-HALF, 1)]


def test_p1_three_point_pins():
    gp = p1_three_point_Z()
    assert eval_gamma_product(gp, {"beta": 0}).value.real == pytest.approx(math.pi**3, rel=1e-13)
    assert zeros_and_poles_in_strip(gp, -1, 5) == [(-Fraction(2, 3), 1), (Fraction(-1), 1)]
    v = eval_gamma_product(gp, {"beta": -1})
    assert v.kind == "pole" and v.order == 1


def test_circular_pins():
    gp3 = circular_Z(3)
    assert eval_gamma_product(gp3, {"beta": 0}).value.real == pytest.approx((2 * math.pi) ** 3, rel=1e-13)
    assert eval_gamma_product(gp3, {"beta": 1}).value.real == pytest.approx(48 * math.pi**2, rel=1e-12)
    # N=5, beta=2: Gamma(3/2)^-5 Gamma(7/2) turns (2pi)^5 into 1920 pi^3
    gp5 = circular_Z(5)
    assert eval_gamma_product(gp5, {"beta": 2}).value.real == pytest.approx(1920 * math.pi**3, rel=1e-12)
    for n in (3, 5):
        first = -Fraction(n - 1, n)
        assert zeros_and_poles_in_strip(circular_Z(n), first, 3) == [(first, 1)]


def mp_p1_three(b):
    return mp.pi**3 * mp.gamma(2 * b + 2) ** -3 * mp.gamma(3 * b + 2) * mp.gamma(b + 1) ** 3


def mp_circular3(b):
    return (2 * mp.pi) ** 3 * mp.gamma(1 + b / 2) ** -3 * mp.gamma(1 + 3 * b / 2)


@pytest.mark.parametrize("gp, f, beta, order", [
    (p1_three_point_Z(), mp_p1_three, Fraction(-179, 2), 3),
    (p1_three_point_Z(), mp_p1_three, Fraction(-201, 2), 3),
    (circular_Z(3), mp_circular3, Fraction(-400), 2),
], ids=["p1three--179/2", "p1three--201/2", "circular3--400"])
def test_far_zero_limit_matches_mpmath(gp, f, beta, order):
    # the residue constants here hold 1/177! and smaller, below the smallest
    # normal float; the limit f(b)/(b - beta)^order is taken in mpmath at
    # b = beta + 1e-30 with 80 digits
    v = eval_gamma_product(gp, {"beta": beta})
    assert v.kind == "zero" and v.order == order
    with mp.workdps(80):
        eps = mp.mpf(10) ** -30
        ref = float(f(mp.mpf(beta.numerator) / beta.denominator + eps) / eps**order)
    assert v.limit_of_scaled.real == pytest.approx(ref, rel=1e-12)
    assert v.limit_of_scaled.imag == 0.0  # a real product's limit is real


def test_gaussian_det_pins():
    gp = gaussian_det_Z(1)
    z0 = eval_gamma_product(gp, {"s": 0})
    z1 = eval_gamma_product(gp, {"s": 1})
    assert z0.value.real == pytest.approx(math.pi**4, rel=1e-13)
    assert math.exp(z1.log_modulus - z0.log_modulus) == pytest.approx(2.0, rel=1e-12)
    # functional relation Z(s+1) = b(s) Z(s) at s = 1/2
    zh = eval_gamma_product(gp, {"s": HALF})
    z3h = eval_gamma_product(gp, {"s": Fraction(3, 2)})
    assert math.exp(z3h.log_modulus - zh.log_modulus) == pytest.approx(15.0 / 4.0, rel=1e-12)
    assert bernstein_product(1, Fraction(1, 2)) == Fraction(15, 4)
    assert bernstein_product(1, 0.5) == pytest.approx(3.75)
    assert bernstein_product(2, 0) == 6  # Z(1)/Z(0) = (n+1)! for 3x3


def test_gaussian_json_round_trip():
    gp = selberg_gamma_product(3)
    assert gp_from_json(gp_to_json(gp)) == gp


def _fraction_selberg_factors(N):
    """The three-point product's factors as the Fraction builder made them,
    one Fraction per operation: merged by argument, zero net exponents
    dropped, sorted by (coeffs, constant) on Fractions."""
    ws = ("w1", "w2", "w3")
    denom = 2 * (N - 1)

    def half_j_dprime(j):
        return {w: Fraction(-j, denom) for w in ws}, Fraction(2 * j, denom)

    def l_pair(coeffs, constant, e):
        return [(coeffs, constant, e), ({k: -c for k, c in coeffs.items()}, 1 - constant, -e)]

    raw = l_pair(*half_j_dprime(-1), -N)
    for j in range(1, N + 1):
        raw += l_pair(*half_j_dprime(-j), 1)
    for j in range(0, N):
        for w in ws:
            coeffs, constant = half_j_dprime(j)
            coeffs[w] += 1
            raw += l_pair(coeffs, constant, -1)
    merged = {}
    for coeffs, constant, e in raw:
        key = (tuple(sorted((k, c) for k, c in coeffs.items() if c != 0)), constant)
        merged[key] = merged.get(key, 0) + e
    return sorted((key, e) for key, e in merged.items() if e != 0)


def test_selberg_product_matches_the_fraction_builder():
    for n in range(2, 65):
        gp = selberg_gamma_product(n)
        assert [((f.arg.coeffs, f.arg.constant), f.exponent) for f in gp.factors] == (
            _fraction_selberg_factors(n)), n
        assert gp.log_prefactor == complex(math.lgamma(n + 1) + n * math.log(math.pi))


# ---------------------------------------------------------------------------
# tube analyses

def test_zero_free_canonical_tube():
    dom = selberg_tube("canonical")
    for n in range(2, 9):
        report = zero_free_in_tube(selberg_gamma_product(n), dom)
        assert report.zero_free, f"unexpected zero for N={n}: {report.hyperplane}"


def test_widened_tube_yields_validated_witness():
    # Relaxing just Re w1 < 2 lets several zero families through: denominator
    # families of the *other* weights (w_i = sum of the rest - 2 becomes
    # feasible once w1 may exceed 1) and the numerator family on the
    # hyperplane sum w = 2 + 2(N-1)/N.  Any validated witness will do.
    dom = selberg_tube("widened")
    for n in (2, 3, 5):
        report = zero_free_in_tube(selberg_gamma_product(n), dom)
        assert not report.zero_free
        w = report.witness
        assert dom.contains(w)
        assert eval_gamma_product(selberg_gamma_product(n), w).kind == "zero"
    # pin the numerator family explicitly at N=3: sum w = 10/3
    pin = {"w1": Fraction(8, 5), "w2": Fraction(9, 10), "w3": Fraction(5, 6)}
    assert eval_gamma_product(selberg_gamma_product(3), pin).kind == "zero"


def test_display_tube_is_not_zero_free():
    # With only the sum constrained below, a weight may reach 0 or go
    # negative and the weight-factor family w_i + (j/2)d' = 0 enters.
    dom = selberg_tube("display")
    report = zero_free_in_tube(selberg_gamma_product(2), dom)
    assert not report.zero_free
    assert dom.contains(report.witness)
    assert min(report.witness.values()) <= 0
    probe = {"w1": Fraction(-1, 5), "w2": Fraction(9, 10), "w3": Fraction(9, 10)}
    assert eval_gamma_product(selberg_gamma_product(2), probe).kind == "zero"
    bare = {"w1": 0, "w2": Fraction(9, 10), "w3": Fraction(4, 5)}
    assert eval_gamma_product(selberg_gamma_product(2), bare).kind == "zero"


def test_reciprocal_gamma_half_plane():
    gp = GammaProduct(0.0, (GammaFactor(AffineArg.make({"x": 1}, 0), -1),))
    dom = TubeDomain.from_bounds({"x": (Fraction(1, 2), None)})
    assert zero_free_in_tube(gp, dom).zero_free
    shifted = TubeDomain.from_bounds({"x": (Fraction(-1, 2), None)})
    report = zero_free_in_tube(gp, shifted)
    assert not report.zero_free and report.witness == {"x": 0}


def test_tube_error_cases():
    gp = GammaProduct(0.0, (GammaFactor(AffineArg.make({"x": 1}, 0), -1),))
    with pytest.raises(ValidationError):  # unbounded along the family direction
        zero_free_in_tube(gp, TubeDomain.from_bounds({"x": (None, Fraction(1, 2))}))
    with pytest.raises(ValidationError):  # empty tube
        zero_free_in_tube(gp, TubeDomain.from_bounds({"x": (2, 1)}))
    bad = GammaProduct(
        0.0,
        (
            GammaFactor(AffineArg.make({}, -3), -1),
            GammaFactor(AffineArg.make({"x": 1}, 0), 1),
        ),
    )
    with pytest.raises(ValidationError):  # all-zero slope zero family
        zero_free_in_tube(bad, TubeDomain.from_bounds({"x": (0, 1)}))
    with pytest.raises(ValidationError):  # constraint on a parameter the gp lacks
        zero_free_in_tube(gp, TubeDomain.from_bounds({"x": (0, 1), "y": (0, 1)}))


def test_deformation_segment_zero_free():
    # restrict the N=4 product to a segment from light to heavy weights that
    # stays in the canonical tube, then thicken the parameter interval
    gp = selberg_gamma_product(4)
    line = {
        "w1": (Fraction(2, 5), Fraction(3, 10)),
        "w2": (Fraction(3, 10), Fraction(3, 10)),
        "w3": (Fraction(1, 5), Fraction(3, 10)),
    }
    from kezeta.gammaprod import restrict_to_line

    restricted = restrict_to_line(gp, line)
    dom = TubeDomain.from_bounds({"t": (Fraction(-1, 10), Fraction(11, 10))})
    assert zero_free_in_tube(restricted, dom).zero_free


# Each tube constraint is a form < 0; its row a.x < b is (gradient, -constant),
# in the order the bounds are given.
TUBE_ROWS = {
    "canonical": [((-1, 0, 0), 0), ((1, 0, 0), 1), ((0, -1, 0), 0), ((0, 1, 0), 1),
                  ((0, 0, -1), 0), ((0, 0, 1), 1)],
    "widened": [((-1, 0, 0), 0), ((1, 0, 0), 2), ((0, -1, 0), 0), ((0, 1, 0), 1),
                ((0, 0, -1), 0), ((0, 0, 1), 1)],
    "display": [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 0)],
}


@pytest.mark.parametrize("kind", sorted(TUBE_ROWS))
def test_tube_rows_are_pinned(kind):
    assert selberg_tube(kind).rows(("w1", "w2", "w3")) == [
        (tuple(Fraction(v) for v in a), Fraction(b)) for a, b in TUBE_ROWS[kind]
    ]


def test_tube_is_open_and_refuses_a_constant_constraint():
    dom = selberg_tube("canonical")
    assert dom.contains({"w1": Fraction(99, 100), "w2": HALF, "w3": HALF})
    assert not dom.contains({"w1": 1, "w2": HALF, "w3": HALF})  # on the face w1 = 1
    with pytest.raises(ValidationError):
        TubeDomain((AffineArg.make({}, -1),))


# Pinned reports: the hyperplane and witness strings the FM elimination
# picks on the widened and display tubes.

WIDENED_PINS = {
    2: ("-1/2*w1 + 1/2*w2 + -1/2*w3 = -1", {"w1": "7/4", "w2": "1/4", "w3": "1/2"}),
    3: ("-1/4*w1 + 3/4*w2 + -1/4*w3 = -1/2", {"w1": "7/4", "w2": "1/12", "w3": "1/2"}),
    5: ("-1/8*w1 + 7/8*w2 + -1/8*w3 = -1/4", {"w1": "7/4", "w2": "1/28", "w3": "1/2"}),
}
DISPLAY_FAMILIES = {2: 14, 3: 23, 4: 32, 5: 41, 6: 50, 7: 59, 8: 68}


@pytest.mark.parametrize("n", sorted(WIDENED_PINS))
def test_widened_tube_report_is_pinned(n):
    hyperplane, witness = WIDENED_PINS[n]
    got = zero_free_in_tube(selberg_gamma_product(n), selberg_tube("widened")).to_json()
    assert got["hyperplane"] == hyperplane
    assert got["witness"] == witness


@pytest.mark.parametrize("n", sorted(DISPLAY_FAMILIES))
def test_display_tube_report_is_pinned(n):
    witness = {"w1": "3/4", "w2": "1/2", "w3": "-1"}
    if n == 8:
        witness = {"w1": "7/9", "w2": "1/3", "w3": "-1"}  # pick 1/2 lands on a pole
    got = zero_free_in_tube(selberg_gamma_product(n), selberg_tube("display")).to_json()
    assert got == {
        "zero_free": False,
        "families_checked": DISPLAY_FAMILIES[n],
        "hyperplane": "1*w3 = -1",
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# Fourier-Motzkin over integer rows against an independent reference: the
# textbook elimination over Fractions, each row divided by |a[idx]|, written
# out here rather than imported.

def ref_split(rows, idx):
    lowers, uppers, keep = [], [], []
    for a, b in rows:
        c = a[idx]
        if c == 0:
            keep.append((a, b))
        else:
            (uppers if c > 0 else lowers).append((tuple(x / c for x in a), b / c))
    return lowers, uppers, keep


def ref_combine(lowers, uppers, idx):
    return [
        (tuple(Fraction(0) if i == idx else u - l for i, (u, l) in enumerate(zip(ua, la))), ub - lb)
        for la, lb in lowers
        for ua, ub in uppers
    ]


def ref_contradiction(rows):
    return any(all(x == 0 for x in a) and b <= 0 for a, b in rows)


def ref_substitute(rows, j, ell, value):
    out = []
    for a, b in rows:
        cj = a[j]
        if cj == 0:
            out.append((a, b))
        else:
            new_a = tuple(Fraction(0) if i == j else a[i] - cj * ell[i] / ell[j] for i in range(len(a)))
            out.append((new_a, b - cj * value / ell[j]))
    return out


def ref_functional_range(rows, ell):
    n = len(ell)
    wide = [(tuple(a) + (Fraction(0),), b) for a, b in rows]
    j = next(i for i in range(n) if ell[i] != 0)
    cur = ref_substitute(wide, j, tuple(ell) + (Fraction(-1),), Fraction(0))
    for idx in range(n):
        if idx != j:
            lowers, uppers, keep = ref_split(cur, idx)
            cur = keep + ref_combine(lowers, uppers, idx)
    if ref_contradiction(cur):
        return "empty"
    his = [b / a[n] for a, b in cur if a[n] > 0]
    los = [b / a[n] for a, b in cur if a[n] < 0]
    lo, hi = (max(los) if los else None), (min(his) if his else None)
    if lo is not None and hi is not None and lo >= hi:
        return "empty"
    return lo, hi


def ref_fm_point(rows, n, skip=(), pick=HALF):
    levels, cur = [], rows
    for idx in range(n):
        if idx not in skip:
            lowers, uppers, keep = ref_split(cur, idx)
            levels.append((idx, lowers, uppers))
            cur = keep + ref_combine(lowers, uppers, idx)
    if ref_contradiction(cur):
        return None
    x = [None] * n
    for idx, lowers, uppers in reversed(levels):
        def bound(a, b):
            return b - sum(a[i] * x[i] for i in range(n) if i != idx and a[i] != 0)
        los = [bound(a, b) for a, b in lowers]
        his = [bound(a, b) for a, b in uppers]
        lo, hi = (max(los) if los else None), (min(his) if his else None)
        if lo is None and hi is None:
            x[idx] = Fraction(0)
        elif lo is None:
            x[idx] = hi - 1
        elif hi is None:
            x[idx] = lo + 1
        elif lo >= hi:
            return None
        else:
            x[idx] = lo + (hi - lo) * pick
    return x


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def polytopes(draw):
    """Rational rows a.x < b in 1-3 variables: a box with optional (and
    possibly crossed) sides, a simplex, or a few arbitrary rows, so empty and
    unbounded polytopes both come up."""
    n = draw(st.integers(min_value=1, max_value=3))
    unit = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]
    shape = draw(st.sampled_from(("box", "simplex", "rows")))
    rows = []
    if shape == "box":
        for e in unit:
            lo, hi = draw(st.none() | small_fraction), draw(st.none() | small_fraction)
            if lo is not None:
                rows.append((tuple(-x for x in e), -lo))
            if hi is not None:
                rows.append((e, hi))
    elif shape == "simplex":
        # x_i > c_i and sum s_i x_i < b, s_i > 0: empty once b is small
        for e in unit:
            rows.append((tuple(-x for x in e), -draw(small_fraction)))
        weights = draw(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
                                min_size=n, max_size=n))
        rows.append((tuple(weights), draw(small_fraction)))
    else:
        row = st.tuples(st.lists(small_fraction, min_size=n, max_size=n).map(tuple), small_fraction)
        rows = draw(st.lists(row.filter(lambda r: any(r[0])), min_size=1, max_size=5))
    return n, rows


nonzero_direction = st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3).filter(any)


@settings(max_examples=150, deadline=None)
@given(polytopes(), nonzero_direction)
def test_functional_range_matches_fraction_reference(poly, direction):
    n, rows = poly
    ell = tuple(direction[:n])
    assume(any(ell))
    want = ref_functional_range(rows, [Fraction(v) for v in ell])
    assert cf._functional_range(cf._int_rows(rows), ell) == want


@settings(max_examples=150, deadline=None)
@given(polytopes(), st.sampled_from((HALF, Fraction(1, 3), Fraction(3, 5))))
def test_fm_point_matches_fraction_reference(poly, pick):
    n, rows = poly
    assert cf._range_point(cf._int_rows(rows), n, pick=pick) == ref_fm_point(rows, n, pick=pick)


@settings(max_examples=150, deadline=None)
@given(polytopes(), nonzero_direction, small_fraction)
# x < 0 sliced at x = 0: no variable is left free, and the slice is empty
@example(poly=(1, [((Fraction(1),), Fraction(0))]), direction=[1, 0, 0], value=Fraction(0))
def test_fm_point_on_a_hyperplane_matches_fraction_reference(poly, direction, value):
    # the witness path: impose ell.x = value, then find a point of the rest
    n, rows = poly
    ell = tuple(Fraction(v) for v in direction[:n])
    assume(any(ell))
    j = next(i for i in range(n) if ell[i] != 0)
    got = cf._range_point(cf._substitute(cf._int_rows(rows), j, *cf._int_row(ell, value)), n, skip={j})
    assert got == ref_fm_point(ref_substitute(rows, j, ell, value), n, skip={j})


@pytest.mark.parametrize("bounds, want", [
    ({"x": (2, 1)}, "empty"),
    ({"x": (0, None)}, (Fraction(0), None)),
    ({"x": (None, None), "y": (0, 1)}, (None, None)),
    ({"x": (Fraction(-1, 3), Fraction(5, 2)), "y": (1, 2)}, (Fraction(2, 3), Fraction(9, 2))),
])
def test_functional_range_edge_cases(bounds, want):
    dom = TubeDomain.from_bounds(bounds)
    params = sorted(bounds)
    rows = dom.rows(params)
    ell = (1,) * len(params)
    assert cf._functional_range(cf._int_rows(rows), ell) == want
    assert ref_functional_range(rows, [Fraction(v) for v in ell]) == want


# ---------------------------------------------------------------------------
# integral finiteness vs thresholds

def test_selberg_integral_finite_examples():
    assert selberg_integral_finite((HALF, HALF, HALF), 3) is True
    assert selberg_integral_finite((HALF, HALF, HALF), 2) is True
    assert selberg_integral_finite((Fraction(2, 5),) * 3, 3) is True
    # weight-condition equality: exactly on the marked-point pileup wall
    assert selberg_integral_finite((Fraction(3, 5), Fraction(3, 10), Fraction(3, 10)), 3) is False
    # exactly on the free-collision wall N d' = 2 (weight condition holds)
    assert selberg_integral_finite((Fraction(2, 5), Fraction(3, 10), Fraction(3, 10)), 2) is False
    # and slightly inside it
    assert selberg_integral_finite((Fraction(2, 5), Fraction(2, 5), Fraction(1, 4)), 2) is True
    assert selberg_integral_finite((Fraction(9, 10), Fraction(1, 10), Fraction(1, 10)), 5) is False
    # the collision wall at N = 10^9 is N sum w = 2; just inside it, the
    # margin 2 (N - 1) - N (2 - sum w) = 3/N is below a float's resolution
    big = 10**9
    on_wall = Fraction(2, 3 * big)
    assert selberg_integral_finite((on_wall,) * 3, big) is False
    assert selberg_integral_finite((on_wall + Fraction(1, big * big),) * 3, big) is True
    with pytest.raises(ValidationError):
        selberg_integral_finite((Fraction(3, 2), HALF, HALF), 3)
    with pytest.raises(ValidationError):
        selberg_integral_finite((Fraction(9, 10), Fraction(9, 10), Fraction(9, 10)), 3)
    for n in (1, Fraction(3, 2)):
        with pytest.raises(ValidationError):
            selberg_integral_finite((HALF, HALF, HALF), n)


WEIGHTS = ("w1", "w2", "w3")


@functools.cache
def _convergence_cell(N: int) -> TubeDomain:
    """Reference for selberg_integral_finite, built from the formula's poles:
    the divergence walls {vec . w = value} of the N-point integral in the
    physical box 0 < w_i < 1, sum < 2, each as the half-space holding a
    symmetric reference point deep in the convergence cell."""
    gp = selberg_gamma_product(N)
    params = list(gp.params)
    box = TubeDomain(
        selberg_tube("canonical").constraints + (AffineArg.make({p: 1 for p in params}, -2),)
    )
    net, rep = cf._singular_hyperplanes(gp, params, cf._int_rows(box.rows(params)))
    a_ref = (Fraction(2, N + 2) + Fraction(2, 3)) / 2
    walls = []
    for key, e in net.items():
        if e <= 0:
            continue  # zeros and removable hyperplanes are not divergence walls
        a, a_value, den = rep[key]  # the wall a . w = a_value over integers, each divided by den
        vec, value = [Fraction(v, den) for v in a], Fraction(a_value, den)
        sign = -1 if sum(v * a_ref for v in vec) > value else 1
        walls.append(AffineArg.make({p: sign * v for p, v in zip(params, vec)}, -sign * value))
    return TubeDomain(tuple(walls))


rational_weight = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(rational_weight, rational_weight, rational_weight, st.integers(min_value=2, max_value=12))
def test_wall_reading_matches_convergence_conditions(w1, w2, w3, n):
    # the two walls read by selberg_integral_finite against the reference
    # cell of every pole wall; note gamma_threshold > 1 is strictly stronger
    # than finiteness
    assume(w1 + w2 + w3 < 2)
    ws = (w1, w2, w3)
    assert selberg_integral_finite(ws, n) == _convergence_cell(n).contains(dict(zip(WEIGHTS, ws)))


_K = np.stack(np.meshgrid(*[np.arange(1, 40)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
GRID_K = _K[_K.sum(axis=1) < 80]  # every k/40 triple with positive degree: 49,439
TENTHS = (GRID_K % 4 == 0).all(axis=1)  # the k/10 triples among them


@pytest.mark.parametrize("n", range(2, 65))
def test_convergence_cell_matches_power_counting_on_a_grid(n):
    # the reference cell against 2 w_i < sum w and N (2 - sum w) < 2 (N - 1)
    # at every k/40 triple; each wall a.w < b is the exact integer row
    # a.k < 40 b.  The cell's walls are oriented by the side its symmetric
    # reference point lies on, which moves with N
    rows = cf._int_rows(_convergence_cell(n).rows(WEIGHTS))
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    in_cell = (GRID_K @ a.T < 40 * b).all(axis=1)
    total = GRID_K.sum(axis=1)
    power_counting = (2 * GRID_K < total[:, None]).all(axis=1) & (n * (80 - total) < 80 * (n - 1))
    bad = GRID_K[in_cell != power_counting]
    assert len(bad) == 0, (len(bad), bad[:5].tolist())
    # and selberg_integral_finite itself on the k/10 sub-grid
    for k, want in zip(GRID_K[TENTHS].tolist(), in_cell[TENTHS].tolist()):
        assert selberg_integral_finite([Fraction(x, 40) for x in k], n) is want, (k, n)
