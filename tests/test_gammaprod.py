"""Tests for the exact Gamma-product engine."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kezeta import gammaprod
from kezeta.errors import PoleError, ValidationError
from kezeta.gammaprod import (
    AffineArg,
    GammaFactor,
    GammaProduct,
    eval_gamma_product,
    gp_from_json,
    gp_to_json,
    log_gamma,
    restrict_to_line,
    zeros_and_poles_in_strip,
)

mp.mp.dps = 40


def gamma_pow(coeffs, constant, exponent=1):
    return GammaProduct(0.0, (GammaFactor(AffineArg.make(coeffs, constant), exponent),))


def times(a, b):
    """The product of two Gamma products."""
    return GammaProduct(a.log_prefactor + b.log_prefactor, a.factors + b.factors)


def test_log_gamma_pins():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_raises_at_poles():
    for z in (0.0, -1.0, -7.0, 0j, complex(-3.0, 0.0)):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_against_mpmath_disk():
    # random points in |z| <= 50, away from the nonpositive integers and from
    # the zeros of log Gamma where relative error is ill-conditioned
    rng = random.Random(20260815)
    checked = 0
    while checked < 400:
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z) > 50:
            continue
        if z.imag == 0 or min(abs(z - (-k)) for k in range(0, 55)) < 1e-3:
            continue
        ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        if abs(ref) < 0.3:
            continue
        got = log_gamma(z)
        assert abs(got - ref) / abs(ref) <= 1e-12, (z, got, ref)
        checked += 1


def test_log_gamma_real_negative_matches_mpmath_branch():
    # Im z = -0.0 takes the same branch as +0.0, as mpmath does
    for x in (-0.5, -2.25, -17.333, -49.5):
        ref = complex(mp.loggamma(mp.mpc(x, 0.0)))
        for y in (0.0, -0.0):
            got = log_gamma(complex(x, y))
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), (x, y, got, ref)


def test_complex_step_digamma_matches_mpmath():
    # criterion 10's digamma, psi(x) = Im log_gamma(x + 1e-20 i) / 1e-20, at
    # every argument three_point_mean_energy forms for beta in [-0.6, 3.4)
    from kezeta.verify import _digamma

    with mp.workdps(40):
        for k in range(400):
            beta = -0.6 + 0.01 * k
            for x in (2.0 * beta + 2.0, 3.0 * beta + 2.0, beta + 1.0):
                ref = float(mp.digamma(mp.mpf(x)))
                assert abs(_digamma(x) - ref) <= 1e-14, (x, _digamma(x), ref)


@pytest.mark.parametrize("x", [-64.5, -65.75, -1000.3, -1e6 + 0.25, -1e15 + 0.5, -1e15, -1e20])
def test_log_gamma_reflects_far_left_against_mpmath(x):
    # below Re z = -64 the reflection formula replaces the shift, which would
    # need -x steps (and never ends at -1e20, where z + 1 == z)
    with mp.workdps(60):
        for y in (0.0, 1e-3, -1e-3, 0.5, -0.5, 1.0, -1.0, -7.0, 300.0, -300.0, 1e6, -1e6):
            if y == 0.0 and x.is_integer():
                continue
            ref = complex(mp.loggamma(mp.mpc(x, y)))
            got = log_gamma(complex(x, y))
            assert abs(got - ref) <= 1e-15 * abs(ref), (x, y, got, ref)


def test_eval_simple_pole():
    v = eval_gamma_product(gamma_pow({"x": 1}, 0), {"x": -1})
    assert v.kind == "pole" and v.order == 1


def test_eval_functional_equation_point():
    gp = times(gamma_pow({"x": 1}, 0), gamma_pow({"x": 1}, 1, exponent=-1))
    v = eval_gamma_product(gp, {"x": 3})
    assert v.kind == "regular"
    assert abs(v.value - 1.0 / 3.0) < 1e-13


def test_eval_removable_at_negative_two():
    # Gamma(x)/Gamma(x+1) = 1/x continued through x = -2
    gp = times(gamma_pow({"x": 1}, 0), gamma_pow({"x": 1}, 1, exponent=-1))
    v = eval_gamma_product(gp, {"x": -2})
    assert v.kind == "regular"
    assert abs(v.value - (-0.5)) < 1e-10
    # epsilon-offset oracle kept as an independent check of the residue pairing
    eps = 1e-7
    offset = eval_gamma_product(gp, {"x": -2 + eps}).value
    assert abs(offset - v.value) < 1e-5


def test_eval_far_removable_matches_mpmath():
    # Gamma(2x)/Gamma(x) through x = -200: the residue constant 200!/(2 * 400!)
    # is far below the smallest float, its log is not; a log within 1e-12 is
    # a value within 1e-12 relative
    gp = times(gamma_pow({"x": 2}, 0), gamma_pow({"x": 1}, 0, exponent=-1))
    v = eval_gamma_product(gp, {"x": -200})
    assert v.kind == "regular"
    with mp.workdps(60):
        eps = mp.mpf(10) ** -30
        ref = complex(mp.log(mp.gamma(2 * (eps - 200)) / mp.gamma(eps - 200)))
    assert abs(v.log_value - ref) <= 1e-12


def test_eval_zero_with_scaled_limit():
    # 1/Gamma(t) has a simple zero at t = -3 with limit (t+3) -> residue pairing
    gp = gamma_pow({"t": 1}, 0, exponent=-1)
    v = eval_gamma_product(gp, {"t": -3})
    assert v.kind == "zero" and v.order == 1
    # Gamma(t) ~ (-1)^3/(3! (t+3)) so 1/Gamma(t) ~ -6 (t+3)
    assert v.limit_of_scaled is not None
    assert abs(v.limit_of_scaled - (-6.0)) < 1e-12


def test_real_zero_limit_takes_its_sign_from_the_phase_parity():
    # Gamma(t+1/2)^3 / (Gamma(2t+1/2) Gamma(t)) at t = -40: the regular
    # factors' phases are -120 pi and -80 pi, and their float sum carries a
    # rounding error that must not become an imaginary part of the limit
    gp = GammaProduct(0.0, (
        GammaFactor(AffineArg.make({"t": 1}, Fraction(1, 2)), 3),
        GammaFactor(AffineArg.make({"t": 2}, Fraction(1, 2)), -1),
        GammaFactor(AffineArg.make({"t": 1}, 0), -1),
    ))
    for t0 in (-40, -41):
        v = eval_gamma_product(gp, {"t": t0})
        assert v.kind == "zero" and v.order == 1
        with mp.workdps(60):
            eps = mp.mpf(10) ** -30
            t = mp.mpf(t0) + eps
            ref = float(mp.gamma(t + 0.5) ** 3 / (mp.gamma(2 * t + 0.5) * mp.gamma(t)) / eps)
        assert v.limit_of_scaled.imag == 0.0
        assert v.limit_of_scaled.real == pytest.approx(ref, rel=1e-12)


def test_residue_above_the_cap_is_refused_before_any_factorial(monkeypatch):
    from kezeta import gammaprod

    cap = gammaprod._MAX_RESIDUE_N
    assert eval_gamma_product(gamma_pow({"t": 1}, 0, exponent=-1), {"t": -cap}).kind == "zero"

    def no_factorial(n):
        raise AssertionError(f"computed {n}!")

    monkeypatch.setattr(gammaprod.math, "factorial", no_factorial)
    for exponent in (-1, 1, -3):  # a zero, a pole and a zero of order 3
        gp = gamma_pow({"t": 1}, 0, exponent=exponent)
        if exponent > 0:
            assert eval_gamma_product(gp, {"t": -(cap + 1)}).kind == "pole"  # no residue needed
            continue
        with pytest.raises(ValidationError, match="residue"):
            eval_gamma_product(gp, {"t": -(cap + 1)})
    # a removable point needs the residue product too
    gp = times(gamma_pow({"x": 1}, 0), gamma_pow({"x": 1}, 1, exponent=-1))
    with pytest.raises(ValidationError, match="residue"):
        eval_gamma_product(gp, {"x": -(cap + 1)})


def test_eval_cancellation_everywhere():
    a = AffineArg.make({"x": 1}, 0)
    b = AffineArg.make({"x": 1}, 0)
    gp = GammaProduct(0.0, (GammaFactor(a, 1), GammaFactor(b, -1)))
    assert gp.factors == ()  # canonicalization merges identical arguments
    for x in (2.5, -4, Fraction(-7), 0):
        v = eval_gamma_product(gp, {"x": x})
        assert v.kind == "regular" and abs(v.value - 1.0) < 1e-15


def test_eval_constant_singular_factor_rejected():
    gp = gamma_pow({}, -1)
    with pytest.raises(ValidationError):
        eval_gamma_product(gp, {})


def test_eval_near_singular_warning():
    gp = gamma_pow({"x": 1}, 0)
    v = eval_gamma_product(gp, {"x": -1.0 + 1e-10})
    assert v.kind == "regular" and v.warnings
    v2 = eval_gamma_product(gp, {"x": -1.0 + 1e-3})
    assert v2.kind == "regular" and not v2.warnings


def test_eval_direction_dependent_removable_rejected():
    # Gamma(x) / Gamma(y) at (0, 0): net order 0 but along different directions
    gp = times(gamma_pow({"x": 1}, 0), gamma_pow({"y": 1}, 0, exponent=-1))
    with pytest.raises(ValidationError):
        eval_gamma_product(gp, {"x": 0, "y": 0})


def test_eval_multiparameter_same_hyperplane_cancels():
    # Gamma(x+y) / Gamma(2x+2y) at x+y = 0: both singular on the same line
    gp = times(gamma_pow({"x": 1, "y": 1}, 0), gamma_pow({"x": 2, "y": 2}, 0, exponent=-1))
    v = eval_gamma_product(gp, {"x": Fraction(1, 3), "y": Fraction(-1, 3)})
    # Gamma(s)/Gamma(2s) -> (1/s)/(1/(2s)) = 2 as s -> 0
    assert v.kind == "regular"
    assert abs(v.value - 2.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(min_value=-6, max_value=6, max_denominator=8),
    b=st.fractions(min_value=-6, max_value=6, max_denominator=8).filter(lambda f: f != 0),
    x=st.complex_numbers(min_magnitude=0.1, max_magnitude=8, allow_nan=False, allow_infinity=False),
)
def test_functional_equation_property(a, b, x):
    # eval(Gamma(bx+a+1)) / eval(Gamma(bx+a)) == bx+a wherever both are regular
    arg = complex(b) * x + complex(a)
    if abs(arg.imag) < 1e-6 and abs(arg.real - round(arg.real)) < 1e-6:
        return  # too close to integers for a clean regular/regular ratio
    lo = eval_gamma_product(gamma_pow({"x": b}, a), {"x": x})
    hi = eval_gamma_product(gamma_pow({"x": b}, a + 1), {"x": x})
    if not (lo.kind == "regular" and hi.kind == "regular"):
        return
    ratio = cmath.exp(hi.log_value - lo.log_value)
    assert abs(ratio - arg) <= 1e-10 * max(1.0, abs(arg))


def test_reflection_property():
    rng = random.Random(7)
    gp = times(gamma_pow({"x": 1}, 0), gamma_pow({"x": -1}, 1))
    count = 0
    while count < 100:
        x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(x) > 10 or abs(x.imag) < 1e-3:
            continue
        v = eval_gamma_product(gp, {"x": x})
        ref = cmath.pi / cmath.sin(cmath.pi * x)
        assert abs(v.value - ref) <= 1e-10 * abs(ref)
        count += 1


def test_restrict_to_line_constant_and_identity():
    gp = gamma_pow({"w1": 1, "w2": 1}, 0)
    line = {"w1": (1, 0), "w2": (-1, 1)}  # w1 = t, w2 = 1 - t
    restricted = restrict_to_line(gp, line)
    assert not restricted.factors[0].arg.coeffs
    v = eval_gamma_product(restricted, {})
    assert v.kind == "regular" and abs(v.value - 1.0) < 1e-14

    gp2 = gamma_pow({"beta": 2}, 2)
    same = restrict_to_line(gp2, {"beta": (1, 0)})
    assert same.factors[0].arg == AffineArg.make({"t": 2}, 2)


def test_strip_enumeration_reciprocal_gamma():
    gp = gamma_pow({"x": 1}, 0, exponent=-1)
    out = zeros_and_poles_in_strip(gp, -3, 1)
    assert out == [
        (Fraction(0), -1),
        (Fraction(-1), -1),
        (Fraction(-2), -1),
        (Fraction(-3), -1),
    ]


def test_strip_enumeration_cancellation():
    # Gamma(2t+1)/Gamma(2t+2) = 1/(2t+1): all poles beyond -1/2 are removable
    gp = times(gamma_pow({"t": 2}, 1), gamma_pow({"t": 2}, 2, exponent=-1))
    out = zeros_and_poles_in_strip(gp, -2, 1)
    assert out == [(Fraction(-1, 2), 1)]


def test_strip_identically_singular_error():
    gp = times(gamma_pow({}, -2), gamma_pow({"t": 1}, 0))
    with pytest.raises(ValidationError):
        zeros_and_poles_in_strip(gp, -1, 1)


def test_strip_grid_scan_completeness():
    # brute blow-up scan along the real axis only flags enumerated locations
    gp = times(gamma_pow({"t": 3}, Fraction(1, 2)), gamma_pow({"t": 1}, 1, exponent=-1))
    locations = [float(t) for t, _ in zeros_and_poles_in_strip(gp, -2, 1)]
    t = -2.0
    while t <= 1.0:
        v = eval_gamma_product(gp, {"t": Fraction(round(t * 1000), 1000)})
        if v.kind == "pole" or (v.kind == "regular" and abs(v.log_modulus) > 14):
            assert min(abs(t - loc) for loc in locations) <= 1e-3 + 1e-12, t
        t += 1e-3


def test_log_space_no_overflow():
    gp = gamma_pow({"x": 1}, 0, exponent=3)
    v = eval_gamma_product(gp, {"x": 200.0})
    assert v.kind == "regular" and math.isfinite(v.log_modulus)
    assert v.log_modulus > 2500  # way past float overflow in linear scale
    assert -math.pi < v.phase <= math.pi


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
        ),
        min_size=0,
        max_size=4,
    ),
    lp=st.tuples(
        st.floats(min_value=-5, max_value=5), st.floats(min_value=-3, max_value=3)
    ),
)
def test_json_round_trip(data, lp):
    gp = GammaProduct(
        complex(*lp),
        tuple(GammaFactor(AffineArg.make({"w": s}, c), e) for s, c, e in data),
    )
    back = gp_from_json(gp_to_json(gp))
    assert back == gp


def test_json_schema_shape():
    import json

    gp = gamma_pow({"w1": Fraction(1, 2)}, Fraction(-3, 2), exponent=-2)
    doc = json.loads(gp_to_json(gp))
    assert set(doc) >= {"prefactor_log", "factors"}
    assert doc["factors"][0]["coeffs"] == {"w1": "1/2"}
    assert doc["factors"][0]["constant"] == "-3/2"
    assert doc["factors"][0]["exponent"] == -2
    assert "." not in doc["factors"][0]["constant"]


def test_eval_missing_parameter():
    with pytest.raises(ValidationError):
        eval_gamma_product(gamma_pow({"x": 1}, 0), {})


def test_strip_cap_counts_factor_singularities(monkeypatch):
    # Gamma(t) Gamma(t + 1/2): the poles -m and -1/2 - m, m = 0..4, are the
    # ten in [-9/2, 0]; [-5, 0] adds t = -5
    gp = GammaProduct(0.0, (GammaFactor(AffineArg.make({"t": 1}, 0), 1),
                            GammaFactor(AffineArg.make({"t": 1}, Fraction(1, 2)), 1)))
    monkeypatch.setattr(gammaprod, "_MAX_STRIP_POINTS", 10)
    assert len(zeros_and_poles_in_strip(gp, Fraction(-9, 2), 0)) == 10
    with pytest.raises(ValidationError, match="11 factor singularities, more than 10"):
        zeros_and_poles_in_strip(gp, -5, 0)
