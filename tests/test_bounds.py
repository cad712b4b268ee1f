"""Scalar bound curves: inverse, identities, envelopes, monotonicity.

Reference values below were frozen from closed forms evaluated in
extended precision: the map x = y tanh(y / 2) inverts exactly at y = 2
for x = 2 tanh(1), where the curve values are tanh(1)^2 and
1 / sinh(1)^2; the entropy cost of ratio 0.8 is 1.6 artanh(0.8).
"""

import math
import sys
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fluxbound import (divergence_from_gap, flux_ratio_sq_bound,
                       gap_from_divergence, onsager_like, variance_ratio_floor)
from fluxbound import bounds
from fluxbound.errors import DomainError

X_AT_GAP_2 = 1.5231883119115297      # 2 tanh(1)
BOUND_AT_GAP_2 = 0.5800256583859739  # tanh(1)^2
FLOOR_AT_GAP_2 = 0.7240616609663106  # 1 / sinh(1)^2
COST_AT_08 = 1.7577796618689758      # 1.6 artanh(0.8)


def test_divergence_from_gap_values():
    assert divergence_from_gap(0.0) == 0.0
    assert divergence_from_gap(2.0) == pytest.approx(X_AT_GAP_2, abs=1e-16)
    with pytest.raises(DomainError) as excinfo:
        divergence_from_gap(-0.5)
    assert excinfo.value.offending_value == -0.5


def test_divergence_from_gap_rejects_nan():
    # used to return nan
    with pytest.raises(DomainError) as excinfo:
        divergence_from_gap(math.nan)
    assert math.isnan(excinfo.value.offending_value)
    # an array used to fail inside numpy ("truth value ... is ambiguous")
    with pytest.raises(DomainError) as excinfo:
        divergence_from_gap(np.array([1.0, math.nan]))
    assert math.isnan(excinfo.value.offending_value)


def test_divergence_from_gap_is_strictly_increasing():
    ys = np.linspace(0.0, 30.0, 301)
    xs = [divergence_from_gap(float(y)) for y in ys]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_divergence_never_exceeds_the_gap():
    # y tanh(y/2) <= y since tanh < 1
    for y in np.linspace(0.0, 50.0, 101):
        assert divergence_from_gap(float(y)) <= float(y) + 1e-15


def test_gap_square_root_limit_at_small_argument():
    # g(x) ~ sqrt(2 x) as x -> 0 because h(y) ~ y^2 / 2
    x = 1e-8
    assert abs(gap_from_divergence(x) / math.sqrt(2.0 * x) - 1.0) <= 1e-3


def test_gap_from_divergence_round_trip():
    for x in np.geomspace(1e-8, 1e3, 141):
        y = gap_from_divergence(float(x))
        assert abs(divergence_from_gap(y) - x) <= 1e-10 * max(1.0, float(x))


def test_gap_from_divergence_at_zero_and_known_point():
    assert gap_from_divergence(0.0) == 0.0
    assert gap_from_divergence(X_AT_GAP_2) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainError):
        gap_from_divergence(-1.0)


def test_gap_from_divergence_matches_brentq():
    for x in np.geomspace(1e-6, 100.0, 25):
        x = float(x)
        reference = brentq(lambda y: y * math.tanh(0.5 * y) - x,
                           1e-12, x + 10.0, xtol=1e-14, rtol=1e-15)
        assert gap_from_divergence(x) == pytest.approx(reference, rel=1e-9)


def test_flux_ratio_sq_bound_values_and_domain():
    assert flux_ratio_sq_bound(0.0) == 0.0
    assert flux_ratio_sq_bound(X_AT_GAP_2) == pytest.approx(BOUND_AT_GAP_2, abs=1e-12)
    with pytest.raises(DomainError):
        flux_ratio_sq_bound(-1e-9)


def test_flux_ratio_sq_bound_equals_squared_tanh_of_half_the_gap():
    for x in np.geomspace(1e-6, 60.0, 31):
        y = gap_from_divergence(float(x))
        expected = math.tanh(0.5 * y) ** 2
        assert flux_ratio_sq_bound(float(x)) == pytest.approx(expected, rel=1e-10)


def test_variance_ratio_floor_value_and_domain():
    assert variance_ratio_floor(X_AT_GAP_2) == pytest.approx(FLOOR_AT_GAP_2, rel=1e-10)
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            variance_ratio_floor(bad)


def test_product_identity_on_a_log_grid():
    for x in np.geomspace(1e-4, 50.0, 121):
        b = flux_ratio_sq_bound(float(x))
        f = variance_ratio_floor(float(x))
        assert abs(b * (1.0 + f) - 1.0) <= 1e-10


def test_bound_envelope():
    for x in np.geomspace(1e-6, 200.0, 121):
        b = flux_ratio_sq_bound(float(x))
        assert b <= min(1.0, 0.5 * float(x)) + 1e-12


def test_bound_small_argument_limit():
    # B(x) ~ x / 2 as x -> 0
    assert abs(flux_ratio_sq_bound(1e-8) / 0.5e-8 - 1.0) <= 1e-3


def test_bound_saturates_at_large_argument():
    b = flux_ratio_sq_bound(1e6)
    assert 1.0 - 1e-6 <= b <= 1.0 + 1e-12
    assert variance_ratio_floor(1e6) == 0.0


def test_curves_are_monotone():
    # on verify's grid, and densely where B is within 1e-12 of 1: there
    # adjacent values differ by less than their rounding, a few ulps
    for xs in (np.geomspace(1e-4, 60.0, 61), np.linspace(30.0, 60.0, 3001)):
        bs = flux_ratio_sq_bound(xs).tolist()
        fs = variance_ratio_floor(xs).tolist()
        for a, b in zip(bs, bs[1:]):
            assert b - a >= -4.0 * math.ulp(a)
        for a, b in zip(fs, fs[1:]):
            assert a - b >= -4.0 * math.ulp(a)


def test_onsager_like_values():
    assert onsager_like(0.0) == 0.0
    assert onsager_like(0.8) == pytest.approx(COST_AT_08, abs=1e-15)
    assert onsager_like(-0.8) == pytest.approx(COST_AT_08, abs=1e-15)
    assert onsager_like(1.0) == math.inf
    assert onsager_like(-1.0) == math.inf
    with pytest.raises(DomainError):
        onsager_like(1.0 + 1e-9)


def test_onsager_like_dominates_the_quadratic():
    for r in np.linspace(-0.999, 0.999, 201):
        assert onsager_like(float(r)) >= 2.0 * r * r - 1e-15


def test_onsager_like_matches_divergence_of_twice_artanh():
    # 2 r artanh r = divergence_from_gap(2 artanh |r|), the algebraic
    # equivalence that makes the entropy-cost and curve forms of the
    # bound interchangeable
    for r in np.linspace(0.05, 0.95, 19):
        gap = 2.0 * math.atanh(float(r))
        assert onsager_like(float(r)) == pytest.approx(divergence_from_gap(gap),
                                                       rel=1e-14)


def test_cost_form_meets_curve_form_at_equality():
    # if s = 2 r artanh r then flux_ratio_sq_bound(s) = r^2 exactly
    for r in np.linspace(0.05, 0.99, 20):
        s = onsager_like(float(r))
        assert flux_ratio_sq_bound(s) == pytest.approx(float(r) ** 2, rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("fn", [gap_from_divergence, flux_ratio_sq_bound])
def test_divergence_functions_reject_non_finite_arguments(fn, bad):
    # NaN used to run the root-finder to its iteration cap, and infinity
    # came back from the curve as a silent NaN
    for argument in (bad, np.array([0.5, bad, 2.0])):
        with pytest.raises(DomainError) as excinfo:
            fn(argument)
        offending = excinfo.value.offending_value
        assert offending == bad or (math.isnan(bad) and math.isnan(offending))


def test_onsager_like_rejects_nan():
    for argument in (math.nan, np.array([0.2, math.nan])):
        with pytest.raises(DomainError) as excinfo:
            onsager_like(argument)
        assert math.isnan(excinfo.value.offending_value)


def test_bound_functions_take_arrays_entry_by_entry():
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 200.0, 50)])
    for fn in (divergence_from_gap, gap_from_divergence, flux_ratio_sq_bound):
        values = fn(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        assert values.tolist() == [fn(float(x)) for x in xs]
    ratios = np.linspace(-1.0, 1.0, 21)
    assert onsager_like(ratios).tolist() == [onsager_like(float(r)) for r in ratios]
    assert isinstance(flux_ratio_sq_bound(0.5), float)


# property tests: derandomized and without an example database, so that
# every run tries the same inputs
PROPERTY = settings(derandomize=True, database=None, max_examples=300)
DIVERGENCES = st.floats(min_value=0.0, max_value=sys.float_info.max)


@PROPERTY
@given(DIVERGENCES)
def test_the_gap_inverts_the_divergence(x):
    # a root within an ulp or two moves h(y) by a few ulps of x, and at
    # most by one ulp of the subnormal grid, to which 6 eps x underflows
    y = gap_from_divergence(x)
    assert y >= x
    assert abs(divergence_from_gap(y) - x) <= 6.0 * sys.float_info.epsilon * x \
        + math.ulp(0.0)


@PROPERTY
@given(st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max))
def test_the_bound_lies_under_its_envelope(x):
    # min(1, x / 2), up to the rounding of (x / g)^2: 3 ulps at most over
    # 200,000 log-uniform x.  Below the smallest normal float B is
    # subnormal and has no relative accuracy to check
    b, envelope = flux_ratio_sq_bound(x), min(1.0, 0.5 * x)
    assert 0.0 < b <= envelope + 4.0 * math.ulp(envelope)
    assert b <= 1.0


@PROPERTY
@given(st.floats(min_value=1e-300, max_value=sys.float_info.max))
def test_the_product_identity_holds(x):
    # B (1 + f) = 1; f ~ 2 / x overflows below x ~ 1e-308
    b, f = flux_ratio_sq_bound(x), variance_ratio_floor(x)
    assert abs(b * (1.0 + f) - 1.0) <= 1e-10


@PROPERTY
@given(st.floats(max_value=0.0, exclude_max=True, allow_nan=False))
def test_negative_arguments_raise_with_their_value(x):
    for fn in (divergence_from_gap, gap_from_divergence, flux_ratio_sq_bound,
               variance_ratio_floor):
        with pytest.raises(DomainError) as excinfo:
            fn(x)
        assert excinfo.value.offending_value == x


@PROPERTY
@given(st.floats(allow_nan=False))
def test_the_cost_is_defined_on_the_closed_unit_interval(r):
    if abs(r) > 1.0:
        with pytest.raises(DomainError):
            onsager_like(r)
    elif abs(r) == 1.0:
        assert onsager_like(r) == math.inf
    else:
        assert 0.0 <= onsager_like(r) < math.inf


def test_the_bound_functions_at_the_ends_of_their_domain():
    assert gap_from_divergence(0.0) == flux_ratio_sq_bound(0.0) == 0.0
    with pytest.raises(DomainError):
        variance_ratio_floor(0.0)
    assert divergence_from_gap(math.inf) == math.inf
    # the bracket's 2 x and lo + hi used to overflow: from x ~ 9e307 on the
    # gap came back infinite and B as 0
    for x in (9e307, sys.float_info.max):
        assert gap_from_divergence(x) == x
        assert flux_ratio_sq_bound(x) == 1.0
        assert variance_ratio_floor(x) == 0.0


def _oracle_gap(x: float):
    """The root of y tanh(y / 2) = x at the working precision of mpmath,
    by Newton's method from sqrt(2 x) or x, whichever is larger; the
    stopping rule is relative, so it holds for subnormal x too."""
    x = mpmath.mpf(x)
    y = max(mpmath.sqrt(2 * x), x)
    for _ in range(200):
        t = mpmath.tanh(y / 2)
        step = (y * t - x) / (t + y / 2 * mpmath.sech(y / 2) ** 2)
        y -= step
        if abs(step) <= y * mpmath.mpf(10) ** (-mpmath.mp.dps + 2):
            return y
    raise AssertionError(f"oracle did not converge at x = {x}")


def _within_ulps(got: float, want, ulps: float) -> bool:
    return abs(mpmath.mpf(got) - want) <= ulps * math.ulp(got)


def test_every_root_is_within_three_ulps_of_the_oracle():
    # every branch: zero, the smallest subnormal, tiny x, the series start
    # below x = 2 and the exponential one above it, the flat stretch near
    # x = 31 to 60, the sech-free step past gap 100, and huge x
    xs = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-6, 200.0, 2001),
                         np.linspace(30.0, 60.0, 601), np.geomspace(101.0, 1e4, 201),
                         [1e300]])
    with mpmath.workdps(40):
        for x, y in zip(xs.tolist(), gap_from_divergence(xs).tolist()):
            assert y == 0.0 if x == 0.0 else _within_ulps(y, _oracle_gap(x), 3.0), x


def test_every_root_takes_at_most_three_steps(monkeypatch):
    # one tanh per step; the bracketed Newton loop this replaced took 538
    # steps at x = 5e-324 and up to 36 bisections above x = 37
    calls = []
    counting = types.SimpleNamespace(**vars(math))
    counting.tanh = lambda v: calls.append(v) or math.tanh(v)
    monkeypatch.setattr(bounds, "math", counting)
    xs = np.concatenate([[5e-324, 1e-320, 1e-300], np.geomspace(1e-12, 1e300, 601),
                         np.linspace(0.0, 60.0, 6001)[1:], np.linspace(1.9, 2.1, 201)])
    for x in xs.tolist():
        calls.clear()
        gap_from_divergence(x)
        assert 1 <= len(calls) <= 3, x


def test_the_gap_and_the_bound_against_a_40_digit_oracle():
    # subnormal x included: g to 3 ulps; B = (x / g)^2 to 6 ulps (twice g's
    # error, plus the rounding of the quotient and its square) and 1e-15;
    # the floor 1 / sinh(g / 2)^2, where it is finite, to a few ulps times
    # its condition number in g, 1 + g coth(g / 2), which reaches about 1400
    # before the floor underflows to the 0 that gap > 1400 returns; and
    # 2 r artanh r to a few ulps of libm's atanh
    xs = np.concatenate([[5e-324, 1e-320, 1e-300, 1e-100],
                         np.geomspace(1e-12, 200.0, 121), np.linspace(31.0, 60.0, 291),
                         [150.0, 1e3, 1399.0, 1401.0, 1e4, 1e300]])
    gaps, bounds = gap_from_divergence(xs), flux_ratio_sq_bound(xs)
    normal = xs[xs >= sys.float_info.min]
    rs = np.concatenate([np.linspace(-1.0, 1.0, 81), [1e-300, 1e-8, math.nextafter(1.0, 0.0)]])
    with mpmath.workdps(40):
        oracle = {x: _oracle_gap(x) for x in xs.tolist()}
        for x, y, b in zip(xs.tolist(), gaps.tolist(), bounds.tolist()):
            assert _within_ulps(y, oracle[x], 3.0), x
            assert _within_ulps(b, (x / oracle[x]) ** 2, 6.0), x
            assert abs(b - (x / oracle[x]) ** 2) <= 1e-15, x
        for x, f in zip(normal.tolist(), variance_ratio_floor(normal).tolist()):
            g = oracle[x]
            condition = 1.0 + float(g * mpmath.coth(g / 2))
            assert math.isfinite(f), x
            assert _within_ulps(f, 1 / mpmath.sinh(g / 2) ** 2, 4.0 * condition), x
        for r, cost in zip(rs.tolist(), onsager_like(rs).tolist()):
            if abs(r) == 1.0:
                assert cost == math.inf
            else:
                assert _within_ulps(cost, 2 * r * mpmath.atanh(r), 4.0), r
