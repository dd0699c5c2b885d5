"""Stability classification unit and property tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kezeta.closedforms import selberg_integral_finite
from kezeta.errors import ValidationError
from kezeta.sphere import INFINITY
from kezeta.stability import (
    LogFanoCurve,
    classify,
    gamma_threshold,
    lct_point_divisor,
    weight_condition,
)


def test_weight_condition_basic_cases():
    assert weight_condition((0.5, 0.5, 0.5)) is True
    assert weight_condition((0.9, 0.1, 0.1)) is False
    assert weight_condition((0.6, 0.6)) is False  # m=2 can never be strict both ways
    assert weight_condition(()) is True
    assert weight_condition((0.5,)) is False  # single point: 0.5 < 0 fails
    # borderline equality counts as failure
    assert weight_condition((0.4, 0.2, 0.2)) is False


def test_weight_condition_rejects_klt_violations():
    with pytest.raises(ValidationError):
        weight_condition((1.0, 0.5))


def test_gamma_threshold_pins():
    for n in range(2, 11):
        assert gamma_threshold((), n) == pytest.approx((n - 1) / n, abs=1e-15)
    assert gamma_threshold((0.5, 0.5, 0.5), 3) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert gamma_threshold((0.5, 0.5, 0.5), 2) == pytest.approx(1.0, abs=1e-15)
    # (0.4,0.4,0.4) at N=3 sits exactly on the borderline gamma_N = 1
    assert gamma_threshold((0.4, 0.4, 0.4), 3) == pytest.approx(1.0, abs=1e-12)


def test_gamma_threshold_never_exceeds_the_free_collision_bound():
    # N points colliding away from the marked points diverge unless
    # |beta| < 2 (N-1) / (N d_L): a negative largest weight is read as 0
    assert gamma_threshold((Fraction(-1, 2),), 2) == 0.4
    assert gamma_threshold((Fraction(-1, 2), Fraction(-1, 4)), 5) == float(Fraction(4, 5) * 2 / Fraction(11, 4))


def test_gamma_above_one_implies_a_finite_selberg_integral():
    # gamma_N > 1 lets beta = -1 through the Gibbs gate, so the Selberg
    # integral must be finite there: every sorted k/10 triple, N = 2..64
    triples = [
        (a, b, c) for a in range(1, 10) for b in range(a, 10) for c in range(b, 10) if a + b + c < 20
    ]
    for n in range(2, 65):
        for ks in triples:
            ws = tuple(Fraction(k, 10) for k in ks)
            if gamma_threshold(ws, n) > 1:
                assert selberg_integral_finite(ws, n), (ws, n)


def test_gamma_threshold_monotone_in_n_with_limit():
    w = (0.5, 0.5, 0.4)
    vals = [gamma_threshold(w, n) for n in range(2, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    limit = 2 * (1 - 0.5) / (2 - 1.4)
    assert limit > 1
    assert vals[-1] < limit
    assert gamma_threshold(w, 10_000) == pytest.approx(limit, rel=1e-3)


def test_classify_examples():
    assert classify(LogFanoCurve.standard((0.5, 0.5, 0.5))).kind == "GibbsStable"
    assert classify(LogFanoCurve.standard((0.9, 0.1, 0.1))).kind == "NotGibbsStable"
    assert classify(LogFanoCurve((0j, 1 + 0j), (1.2, 0.3))).kind == "NotLogFano"
    # degree obstruction alone: weights below 1 but summing past 2
    assert classify(LogFanoCurve((0j, 1j, 1 + 0j), (0.9, 0.9, 0.9))).kind == "NotLogFano"
    v = classify(LogFanoCurve.standard((0.5, 0.5, 0.5)), N=3)
    assert v.gamma_N == pytest.approx(4.0 / 3.0)
    assert v.to_json()["verdict"] == "GibbsStable"
    assert v.to_json()["gamma_N"] == pytest.approx(4.0 / 3.0)


def test_classify_trivial_divisor():
    v = classify(LogFanoCurve(), N=5)
    assert v.kind == "GibbsStable"
    assert v.gamma_N == pytest.approx(0.8)
    assert v.d_L == 2.0


def test_curve_structure_validation():
    with pytest.raises(ValidationError):
        LogFanoCurve((0j, 0j), (0.2, 0.3))
    with pytest.raises(ValidationError):
        LogFanoCurve((INFINITY, INFINITY), (0.2, 0.3))
    with pytest.raises(ValidationError):
        LogFanoCurve((0j,), (0.2, 0.3))
    with pytest.raises(ValidationError):
        LogFanoCurve((0j,), (float("nan"),))
    # INFINITY together with a finite point is fine
    LogFanoCurve((INFINITY, 0j), (0.2, 0.3))


def test_standard_placement():
    c = LogFanoCurve.standard((0.5, 0.5, 0.5))
    assert c.marked_points == (0j, 1 + 0j, INFINITY)
    pts = c.marked_sphere_points()
    assert pts[0].z == -1.0 and pts[2].z == 1.0
    assert LogFanoCurve.standard((0.7,)).marked_points == (INFINITY,)
    with pytest.raises(ValidationError):
        LogFanoCurve.standard((0.1, 0.1, 0.1, 0.1))


def test_lct_point_divisor_pins():
    assert lct_point_divisor((2,)) == pytest.approx(0.5)
    assert lct_point_divisor((1,)) == pytest.approx(1.0)
    assert lct_point_divisor((1, 3)) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValidationError):
        lct_point_divisor(())
    with pytest.raises(ValidationError):
        lct_point_divisor((0.5, -1.0))
    for bad in ((math.inf,), (0.5, math.nan)):
        with pytest.raises(ValidationError):
            lct_point_divisor(bad)


def _radial_probe_is_finite(exponent: float) -> bool:
    """Quadrature probe: does int_0^1 r^exponent dr converge?  Compare tail
    increments over shrinking cutoffs; decreasing increments mean convergence."""
    vals = []
    for delta in (1e-3, 1e-6, 1e-9, 1e-12):
        grid = np.geomspace(delta, 1.0, 4001)
        vals.append(float(np.trapezoid(grid**exponent, grid)))
    inc = np.diff(vals)
    return bool(inc[-1] < inc[0] * 0.5)


@pytest.mark.parametrize("coeffs", [(2,), (1,), (1, 3), (0.7, 0.2)])
def test_lct_point_divisor_matches_radial_quadrature(coeffs):
    # near the worst point the density is r^(-2 gamma c_max) r dr d(theta):
    # integrable just below gamma = lct, not just above it
    lct, cmax = lct_point_divisor(coeffs), max(coeffs)
    assert _radial_probe_is_finite(1.0 - 2.0 * (0.95 * lct) * cmax)
    assert not _radial_probe_is_finite(1.0 - 2.0 * (1.05 * lct) * cmax)


weights_lists = st.lists(
    st.floats(min_value=0.01, max_value=0.95), min_size=0, max_size=5
)


@given(weights_lists, st.permutations(range(5)))
def test_weight_condition_permutation_invariant(ws, perm):
    shuffled = [ws[i] for i in perm if i < len(ws)]
    assert weight_condition(shuffled) == weight_condition(ws)


@given(weights_lists, st.integers(min_value=2, max_value=12))
def test_gamma_threshold_permutation_invariant(ws, n):
    assume(sum(ws) < 2)
    assert gamma_threshold(sorted(ws), n) == pytest.approx(gamma_threshold(ws, n))


@given(
    weights_lists,
    st.lists(st.floats(min_value=-0.95, max_value=0.0), max_size=2),
    st.integers(min_value=2, max_value=64),
)
def test_gamma_threshold_keeps_the_product_when_the_largest_weight_is_nonnegative(ws, low, n):
    # the product formula, with max over an empty list = 0, to the bit
    ws = ws + low
    assume(sum(ws) < 2 and max(ws, default=0) >= 0)
    wmax = max(ws) if ws else 0
    assert gamma_threshold(ws, n) == float(Fraction(n - 1) / n * 2 * (1 - wmax) / (2 - sum(ws)))


@given(weights_lists)
def test_classify_matches_weight_condition_when_log_fano(ws):
    assume(sum(ws) < 2)
    pts = tuple(complex(k, 0) for k in range(len(ws)))
    verdict = classify(LogFanoCurve(pts, tuple(ws)))
    expected = "GibbsStable" if weight_condition(ws) else "NotGibbsStable"
    assert verdict.kind == expected


def test_exact_rational_borderline_is_not_stable():
    # With Fractions the equality w_1 = w_2 + w_3 is exact; strictness must kick in.
    ws = (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5))
    assert weight_condition(ws) is False


def test_classify_decides_on_exact_weights():
    # in floats 1/10 + 1/5 > 3/10, so a curve that rounded its weights would
    # read as stable; d_L is rounded once from the exact sum
    edge = LogFanoCurve.standard((Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)))
    assert edge.weights == (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))
    assert classify(edge).kind == "NotGibbsStable"
    assert LogFanoCurve.standard((Fraction(2, 5),) * 3).d_L == 0.8
