"""Scalar machinery behind the flux bounds.

The central objects are the strictly increasing map

    divergence_from_gap(y) = y * tanh(y / 2)

which sends the log-odds gap of an extremal two-level pair of states to
its symmetric relative entropy, its numerical inverse
gap_from_divergence, and two curves derived from them:

    flux_ratio_sq_bound(x)  = (x / gap_from_divergence(x))^2
                            = tanh(gap_from_divergence(x) / 2)^2
    variance_ratio_floor(x) = 1 / sinh(gap_from_divergence(x) / 2)^2

flux_ratio_sq_bound is the sharp upper bound on the squared flux ratio
(phi / phi_L)^2 at symmetric relative entropy x; variance_ratio_floor is
the matching lower bound on the variance ratio in the uncertainty
relation.  They satisfy flux_ratio_sq_bound * (1 + variance_ratio_floor)
= 1 identically.  By continuity flux_ratio_sq_bound(0) = 0, and the
curve increases to 1 as x -> inf.

gap_from_divergence, flux_ratio_sq_bound and onsager_like take a float or
an array (a stack of values) and answer in kind.  The iteration runs
entry by entry in Python floats: at a stack of one, masked numpy
arithmetic costs tens of times more than the scalar iteration, and the
per-entry results do not depend on the stack.  An entry outside the
domain, NaN and infinity included, raises DomainError carrying it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

# gap_from_divergence stops once |divergence_from_gap(y) - x| <=
# ROOT_TOLERANCE * x: a relative criterion keeps the product identity
# accurate at small x and stays reachable at large x, where an absolute one
# drowns in rounding.  It takes at most MAX_ITERATIONS Newton steps inside
# a starting bracket that always contains the root.
ROOT_TOLERANCE = 1e-12
MAX_ITERATIONS = 200


def divergence_from_gap(gap: float) -> float:
    """x = gap * tanh(gap / 2), the divergence of the extremal two-level
    pair with log-odds gap `gap`.  Strictly increasing on [0, inf)."""
    # written so that a NaN gap fails too
    if not gap >= 0.0:
        raise DomainError("gap must be nonnegative", offending_value=gap)
    return gap * math.tanh(0.5 * gap)


def _divergence_slope(gap: float) -> float:
    # d/dy [y tanh(y/2)] = tanh(y/2) + (y/2) sech(y/2)^2
    t = math.tanh(0.5 * gap)
    if gap > 100.0:
        # sech(y/2)^2 underflows; the slope is tanh to machine precision
        return t
    sech = 1.0 / math.cosh(0.5 * gap)
    return t + 0.5 * gap * sech * sech


def _entrywise(fn, x):
    """fn on a float, or on every entry of an array, in order."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.ravel().tolist()],
                        dtype=np.float64).reshape(x.shape)
    return fn(float(x))


def _require_divergence(x: float) -> None:
    if not 0.0 <= x < math.inf:
        raise DomainError("divergence must be a nonnegative finite number",
                          offending_value=x)


def gap_from_divergence(x):
    """Inverse of divergence_from_gap, by bracketed Newton iteration.

    Starts from the bracket [x, max(x + 2, sqrt(2 x) + 2)] (the inverse
    lies above x because tanh < 1, and near sqrt(2 x) for small x), and
    falls back to bisection whenever a Newton step leaves the bracket.
    """
    return _entrywise(_gap_from_divergence, x)


def _gap_from_divergence(x: float) -> float:
    _require_divergence(x)
    if x == 0.0:
        return 0.0
    lo = x
    # the bracket holds the root (h = divergence_from_gap, increasing):
    # h(x + 2) - x = 2 - 2 (x + 2) / (e^(x+2) + 1) >= 2 / (x + 3) > 0, and
    # once tanh((x + 2) / 2) rounds to 1 (x > 36.2), h(hi) = hi >= x exactly
    hi = max(x + 2.0, math.sqrt(2.0 * x) + 2.0)
    tol = ROOT_TOLERANCE * x
    y = 0.5 * (lo + hi)
    for _ in range(MAX_ITERATIONS):
        residual = divergence_from_gap(y) - x
        if abs(residual) <= tol:
            return y
        if residual > 0.0:
            hi = y
        else:
            lo = y
        step = residual / _divergence_slope(y)
        candidate = y - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        if candidate == y or hi - lo <= 4.0 * math.ulp(hi):
            # bracket exhausted at working precision
            return y
        y = candidate
    raise NumericError(
        f"gap_from_divergence did not converge at x = {x!r} "
        f"within {MAX_ITERATIONS} iterations"
    )


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


def variance_ratio_floor(x: float) -> float:
    """Lower bound on the variance ratio of the uncertainty relation,
    1 / sinh(gap_from_divergence(x) / 2)^2.  Diverges as x -> 0+, so
    x = 0 is outside the domain; decreasing in x."""
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
    return _entrywise(_onsager_like, ratio)


def _onsager_like(ratio: float) -> float:
    if not abs(ratio) <= 1.0:
        raise DomainError("flux ratio must lie in [-1, 1]", offending_value=ratio)
    if abs(ratio) == 1.0:
        return math.inf
    return 2.0 * ratio * math.atanh(ratio)
