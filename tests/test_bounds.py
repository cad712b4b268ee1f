"""Scalar bound curves: inverse, identities, envelopes, monotonicity.

Reference values below were frozen from closed forms evaluated in
extended precision: the map x = y tanh(y / 2) inverts exactly at y = 2
for x = 2 tanh(1), where the curve values are tanh(1)^2 and
1 / sinh(1)^2; the entropy cost of ratio 0.8 is 1.6 artanh(0.8).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fluxbound import (divergence_from_gap, flux_ratio_sq_bound,
                       gap_from_divergence, onsager_like, variance_ratio_floor)
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
    for fn in (gap_from_divergence, flux_ratio_sq_bound):
        values = fn(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        assert values.tolist() == [fn(float(x)) for x in xs]
    ratios = np.linspace(-1.0, 1.0, 21)
    assert onsager_like(ratios).tolist() == [onsager_like(float(r)) for r in ratios]
    assert isinstance(flux_ratio_sq_bound(0.5), float)
