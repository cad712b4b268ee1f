"""Scalar bound curves: inverse, identities, envelopes, monotonicity.

Reference values below were frozen from closed forms evaluated in
extended precision: the map x = y tanh(y / 2) inverts exactly at y = 2
for x = 2 tanh(1), where the curve values are tanh(1)^2 and
1 / sinh(1)^2; the entropy cost of ratio 0.8 is 1.6 artanh(0.8).
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fluxbound import (divergence_from_gap, flux_ratio_sq_bound,
                       gap_from_divergence, onsager_like, variance_ratio_floor)
from fluxbound.bounds import MAX_ITERATIONS, ROOT_TOLERANCE
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


@settings(derandomize=True, database=None)
@given(st.floats(min_value=0.0, max_value=1e300))
def test_the_starting_bracket_holds_the_root(x):
    # gap_from_divergence searches [x, max(x + 2, sqrt(2 x) + 2)] and no
    # longer grows the bracket: h(x + 2) - x = 2 - 2 (x + 2) / (e^(x+2) + 1)
    # >= 2 / (x + 3) > 0, and past x = 36.2 tanh rounds to 1, so h(hi) = hi
    assert divergence_from_gap(max(x + 2.0, math.sqrt(2.0 * x) + 2.0)) >= x


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
    xs = np.geomspace(1e-4, 60.0, 61)
    bs = [flux_ratio_sq_bound(float(x)) for x in xs]
    fs = [variance_ratio_floor(float(x)) for x in xs]
    for a, b in zip(bs, bs[1:]):
        # near saturation adjacent values differ below root-finder noise
        assert b - a >= -1e-9
    for a, b in zip(fs, fs[1:]):
        assert a - b >= -1e-9


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
    # down to the smallest subnormal x: below x ~ 1e-118, where Newton takes
    # more than 200 halving steps down to sqrt(2 x), it used to stop with
    # NumericError
    y = gap_from_divergence(x)
    assert y >= x
    assert abs(divergence_from_gap(y) - x) <= 1e-12 * x + math.ulp(0.0)


@PROPERTY
@given(st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max))
def test_the_bound_lies_under_its_envelope(x):
    # min(1, x / 2), up to the curve's own error: B = (x / g)^2 carries
    # twice the root's relative tolerance.  Below the smallest normal
    # float B is subnormal and has no relative accuracy to check
    b = flux_ratio_sq_bound(x)
    assert 0.0 < b <= min(1.0, 0.5 * x) * (1.0 + 2.0 * ROOT_TOLERANCE)
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


def _newton_reference(x: float) -> float:
    """gap_from_divergence as it was when each Newton step evaluated h(y)
    = y tanh(y / 2) and its slope with a tanh each."""
    if x == 0.0:
        return 0.0
    lo = x
    hi = (x if x > 2.0 else math.sqrt(2.0 * x)) + 2.0
    tol = ROOT_TOLERANCE * x
    y = 0.5 * lo + 0.5 * hi
    for _ in range(MAX_ITERATIONS):
        residual = y * math.tanh(0.5 * y) - x
        if abs(residual) <= tol:
            return y
        if residual > 0.0:
            hi = y
        else:
            lo = y
        slope = math.tanh(0.5 * y)
        if y <= 100.0:
            sech = 1.0 / math.cosh(0.5 * y)
            slope = slope + 0.5 * y * sech * sech
        candidate = y - residual / slope
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        if candidate == y or hi - lo <= 4.0 * math.ulp(hi):
            return y
        y = candidate
    raise AssertionError(f"reference did not converge at x = {x!r}")


def test_one_tanh_per_newton_step_keeps_every_root_bit_for_bit():
    # every branch: zero, the smallest subnormal (538 halving steps), tiny
    # x, the working range, the flat stretch near x = 31 to 60, the
    # sech-free slope past gap 100, and huge x
    xs = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-6, 200.0, 2001),
                         np.linspace(30.0, 60.0, 601), np.geomspace(101.0, 1e4, 201),
                         [1e300]])
    got = gap_from_divergence(xs)
    assert [g.hex() for g in got.tolist()] == \
        [_newton_reference(x).hex() for x in xs.tolist()]


def _oracle_gap(x: float):
    """The root of y tanh(y / 2) = x at the working precision of mpmath,
    by Newton's method from sqrt(2 x) or x, whichever is larger."""
    x = mpmath.mpf(x)
    y = max(mpmath.sqrt(2 * x), x)
    for _ in range(200):
        t = mpmath.tanh(y / 2)
        step = (y * t - x) / (t + y / 2 * mpmath.sech(y / 2) ** 2)
        y -= step
        if abs(step) <= y * mpmath.mpf(10) ** (-mpmath.mp.dps + 2):
            return y
    raise AssertionError(f"oracle did not converge at x = {x}")


def _slope(y):
    t = mpmath.tanh(y / 2)
    return t + y / 2 * mpmath.sech(y / 2) ** 2


def test_the_gap_and_the_bound_against_a_40_digit_oracle():
    # the stopping rule |h(y) - x| <= ROOT_TOLERANCE x, plus the rounding
    # of h(y) in doubles (a few ulps of x), bounds |y - g| through the
    # smallest slope of h between y and g; h' rises up to y ~ 2.4 and
    # falls after it (h'' = sech^2(y/2) (1 - (y/2) tanh(y/2))), so that
    # is the smaller of h'(y) and h'(g).  The bracket's last width, 4 ulps
    # of y, covers an exit on an exhausted bracket.  B = (x / g)^2 is
    # bounded over that interval of g, plus its own rounding.  The bounds
    # come from the stopping rule alone: a tighter root finder must pass
    # this test unchanged
    xs = np.concatenate([[5e-324, 1e-300, 1e-100], np.geomspace(1e-12, 200.0, 121),
                         np.linspace(30.0, 60.0, 31), [150.0, 1e3, 1e300]])
    gaps, bounds = gap_from_divergence(xs), flux_ratio_sq_bound(xs)
    with mpmath.workdps(40):
        for x, y, b in zip(xs.tolist(), gaps.tolist(), bounds.tolist()):
            g, xm = _oracle_gap(x), mpmath.mpf(x)
            residual = ROOT_TOLERANCE * x + 4.0 * math.ulp(x)
            gap_error = residual / min(_slope(mpmath.mpf(y)), _slope(g)) \
                + 4.0 * math.ulp(y)
            assert abs(y - g) <= gap_error, x
            if x < sys.float_info.min:
                # a subnormal h(y) leaves g, and so B, no relative accuracy
                continue
            worst = max(abs((xm / (g - gap_error)) ** 2 - (xm / g) ** 2),
                        abs((xm / (g + gap_error)) ** 2 - (xm / g) ** 2))
            assert abs(b - (xm / g) ** 2) <= worst + 4.0 * math.ulp(b), x
