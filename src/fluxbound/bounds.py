"""Scalar machinery behind the flux bounds.

The central objects are the strictly increasing map

    divergence_from_gap(y) = y * tanh(y / 2)

which sends the log-odds gap of an extremal two-level pair of states to
its symmetric relative entropy, its inverse gap_from_divergence (a few
Halley steps in floats, within a few ulps), and two curves derived from
them:

    flux_ratio_sq_bound(x)  = (x / gap_from_divergence(x))^2
                            = tanh(gap_from_divergence(x) / 2)^2
    variance_ratio_floor(x) = 1 / sinh(gap_from_divergence(x) / 2)^2

flux_ratio_sq_bound is the sharp upper bound on the squared flux ratio
(phi / phi_L)^2 at symmetric relative entropy x; variance_ratio_floor is
the matching lower bound on the variance ratio in the uncertainty
relation.  They satisfy flux_ratio_sq_bound * (1 + variance_ratio_floor)
= 1 identically.  By continuity flux_ratio_sq_bound(0) = 0, and the
curve increases to 1 as x -> inf.

divergence_from_gap, gap_from_divergence, flux_ratio_sq_bound,
variance_ratio_floor and onsager_like take a float or an array (a stack
of values) and answer in kind.  They run entry by entry in Python
floats: at a stack of one, masked numpy arithmetic costs tens of times
more than the scalar iteration, and the per-entry results do not depend
on the stack.  An entry outside the domain, NaN included, raises
DomainError carrying it; only divergence_from_gap takes an infinite one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

# gap_from_divergence's step cap; from its closed-form starts it needs three
HALLEY_STEPS = 8


def divergence_from_gap(gap):
    """x = gap * tanh(gap / 2), the divergence of the extremal two-level
    pair with log-odds gap `gap`.  Strictly increasing on [0, inf)."""
    return entrywise(_divergence_from_gap, gap)


def _divergence_from_gap(gap: float) -> float:
    # written so that a NaN gap fails too
    if not gap >= 0.0:
        raise DomainError("gap must be nonnegative", offending_value=gap)
    return gap * math.tanh(0.5 * gap)


def entrywise(fn, x):
    """fn on a float, or on every entry of an array, in order, as an array
    of x's shape and fn's dtype: the package's one way to take a closed form
    value by value, libm's math or cmath whatever SIMD numpy dispatches."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)
    return fn(float(x))


def _require_divergence(x: float) -> None:
    if not 0.0 <= x < math.inf:
        raise DomainError("divergence must be a nonnegative finite number",
                          offending_value=x)


def gap_from_divergence(x):
    """Inverse of divergence_from_gap, by Halley's method from the series
    sqrt(2 x + x^2 / 3) below x = 2 and x + 2 x e^-x from 2 up.  It stops
    after a step below 1e-9 of the gap: cubic convergence leaves the next
    one far below an ulp."""
    return entrywise(_gap_from_divergence, x)


def _gap_from_divergence(x: float) -> float:
    _require_divergence(x)
    if x == 0.0:
        return 0.0
    # h(y) = y tanh(y / 2) is y^2 / 2 - y^4 / 24 + ... near 0 and
    # y - 2 y e^-y + ... far out; once tanh(x / 2) rounds to 1 (x > 38.1),
    # the start is x and h(x) = x exactly, so the first step is 0
    y = math.sqrt(2.0 * x + x * x / 3.0) if x < 2.0 else x + 2.0 * math.exp(-x) * x
    for _ in range(HALLEY_STEPS):
        t = math.tanh(0.5 * y)
        # h' = t + y s / 2 and h'' = s (1 - y t / 2), s = sech(y / 2)^2 = 1 - t^2,
        # whose rounding moves the slope but not the residual (t = 1 makes it
        # Newton's step); 2 f h' / (2 h'^2 - f h'') as n / (1 - n h'' / (2 h')),
        # n = f / h', squares no subnormal slope
        s = 1.0 - t * t
        slope = t + 0.5 * y * s
        newton = (y * t - x) / slope
        step = newton / (1.0 - 0.5 * newton * s * (1.0 - 0.5 * y * t) / slope)
        y -= step
        if abs(step) < 1e-9 * y:
            return y
    raise NumericError(f"gap_from_divergence did not converge at x = {x!r} "
                       f"within HALLEY_STEPS = {HALLEY_STEPS} steps")


def flux_ratio_sq_bound(x):
    """Sharp upper bound on (phi / phi_L)^2 at symmetric divergence x.

    Equals tanh(gap_from_divergence(x) / 2)^2, evaluated as
    (x / gap_from_divergence(x))^2; 0 at x = 0 by continuity, increasing,
    bounded by min(1, x / 2).
    """
    gap = gap_from_divergence(x)
    # gap is zero exactly where x is
    ratio = x / (gap + (gap == 0.0))
    return ratio * ratio


def variance_ratio_floor(x):
    """Lower bound on the variance ratio of the uncertainty relation,
    1 / sinh(gap_from_divergence(x) / 2)^2.  Diverges as x -> 0+, so
    x = 0 is outside the domain; decreasing in x."""
    return entrywise(_variance_ratio_floor, x)


def _variance_ratio_floor(x: float) -> float:
    if x <= 0.0:
        raise DomainError("variance_ratio_floor requires positive divergence",
                          offending_value=x)
    gap = gap_from_divergence(x)
    if gap > 1400.0:
        # sinh overflows but its reciprocal square has long underflowed
        return 0.0
    s = math.sinh(0.5 * gap)
    return 1.0 / (s * s)


def onsager_like(ratio):
    """2 r artanh(r) for a flux ratio r in [-1, 1].

    This is the tight entropy cost of driving flux ratio r: it matches
    divergence_from_gap(2 artanh |r|), dominates 2 r^2, and diverges at
    |r| = 1 (returned as +inf; callers only compare against it).
    """
    return entrywise(_onsager_like, ratio)


def _onsager_like(ratio: float) -> float:
    if not abs(ratio) <= 1.0:
        raise DomainError("flux ratio must lie in [-1, 1]", offending_value=ratio)
    if abs(ratio) == 1.0:
        return math.inf
    return 2.0 * ratio * math.atanh(ratio)
