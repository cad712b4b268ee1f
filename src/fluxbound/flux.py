"""Fluxes of bounded observables and the inequalities that cap them.

For a Hermitian observable theta and states rho, sigma the flux is

    phi = tr(theta (rho - sigma)),

and the capacity phi_L = theta_max - theta_min is the largest flux any
pair of states could drive.  This module evaluates, with explicit slack,
the chain

    (phi / phi_L)^2 <= ||rho - sigma||_1^2 / 4
                    <= (1 - epsilon) * flux_ratio_sq_bound(S)
                    <= flux_ratio_sq_bound(S) <= 1,

where S is the symmetric relative entropy of the pair and epsilon the
shared weight both states place on the kernel of rho - sigma, together
with the entropy-cost form 2 r artanh(r) <= S and the variance
uncertainty relation with floor variance_ratio_floor(S).

make_observable, product_observable, flux, sign_decomposition,
qtur_check, evaluate_bounds and optimal_shift_check take single inputs
or stacks, a single input as a stack of one (linalg.batch_of_one).
evaluate_bounds and sign_decomposition flag a degenerate row, and only a
single coinciding pair raises; qtur_check raises on a degenerate row,
naming it.  clears is the one pass/fail rule of every inequality; a NaN
slack fails it, and lowers makes the first NaN a running minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from .config import DEFAULT_TOLERANCES
from .errors import DegenerateInputError, NumericError, ValidationError
from .linalg import (Spectrum, as_real, batch_of_one, eigh, expectation,
                     first_row, from_spectrum, product_spectrum,
                     require_hermitian, require_shape, row_label, tensor_product)
from .states import (DensityMatrix, RelEntropyValue, directed_entropy_pair,
                     symmetric_average, symmetric_relative_entropy)


def clears(slack, tolerance: float):
    """Whether a slack clears -tolerance, elementwise: the one pass/fail
    rule of every inequality.  Written so that a NaN slack fails."""
    return slack >= -tolerance


def lowers(slack: float, minimum: float) -> bool:
    """Whether a slack replaces a running minimum slack: it is lower, or
    the first NaN, which then stays the minimum."""
    return not (math.isnan(minimum) or slack >= minimum)


@dataclass(frozen=True)
class Verdict:
    """One inequality outcome: its slack (rhs minus lhs), and whether the
    inequality applies; where it does not (an infinite entropy, a
    degenerate capacity, coinciding states) it holds whatever the slack.
    Arrays over the rows for a stack (applies may be one bool), or scalars."""

    slack: float
    applies: bool

    def holds_at(self, tolerance: float):
        """~applies | clears(slack, tolerance), written as applies <= clears
        so that a single row's Python bools give a bool."""
        return self.applies <= clears(self.slack, tolerance)

    holds = property(lambda self: self.holds_at(DEFAULT_TOLERANCES.slack))

    def tally(self, tolerance: float) -> tuple[int, float, int | None]:
        """(violations, worst slack, row) over the rows where the verdict
        applies: how many slacks fail to clear -tolerance, and the lowest
        slack with the first row that attains it, a NaN slack counting as
        the lowest.  No applying row gives (0, inf, None)."""
        rows = np.flatnonzero(np.broadcast_to(self.applies, np.shape(self.slack)))
        if not rows.size:
            return 0, math.inf, None
        slack = np.atleast_1d(self.slack)[rows]
        worst = int(np.argmin(slack))  # numpy's argmin stops at a NaN
        return (int(np.count_nonzero(~clears(slack, tolerance))),
                float(slack[worst]), int(rows[worst]))


def all_hold(verdicts: dict, tolerance: float):
    """Whether every verdict of a dict holds at tolerance, per row for a
    stack; a dict without verdicts holds."""
    holds = True
    for verdict in verdicts.values():
        holds = holds & verdict.holds_at(tolerance)
    return holds


@dataclass(frozen=True)
class Observable:
    """A Hermitian observable with cached spectrum and spread, or a stack
    of B of them (theta_max and theta_min are then arrays over the rows)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    theta_max: float
    theta_min: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def capacity(self) -> float:
        """Largest attainable |flux|: theta_max - theta_min."""
        return self.theta_max - self.theta_min

    @property
    def lambda_star(self) -> float:
        """The shift minimizing ||theta - lambda I||_inf."""
        return 0.5 * (self.theta_max + self.theta_min)


@batch_of_one
def make_observable(matrix) -> Observable:
    """Validate a Hermitian matrix, or a (B, n, n) stack, and cache its
    spectrum."""
    a = require_hermitian(matrix)
    w, v = eigh(a, checked=True)
    return Observable(a, w, v, w[:, -1], w[:, 0])


@batch_of_one
def product_observable(first: Observable, second: Observable) -> Observable:
    """The observable first x second, or row by row for stacks, with its
    spectrum from the factors' (linalg.product_spectrum): no eigensolve."""
    a = require_hermitian(tensor_product(first.matrix, second.matrix))
    w, v = product_spectrum(first, second)
    return Observable(a, w, v, w[:, -1], w[:, 0])


@batch_of_one
def flux(observable: Observable, rho: DensityMatrix, sigma: DensityMatrix):
    """tr(theta (rho - sigma)); always within capacity up to slack.  An
    array over the rows for stacked arguments."""
    require_shape("observable", observable.matrix, rho=rho.matrix, sigma=sigma.matrix)
    value = expectation(observable.matrix, rho.matrix - sigma.matrix)
    bad = np.abs(value) > observable.capacity + DEFAULT_TOLERANCES.slack
    if bad.any():
        k = first_row(bad)
        raise NumericError(f"flux {value[k].item()!r} exceeds capacity "
                           f"{observable.capacity[k].item()!r}{row_label(bad)}")
    return value


@dataclass(frozen=True)
class ShiftCheck:
    """Grid scan of lambda -> ||theta - lambda I||_inf; arrays over the
    rows for a stack.

    The minimum over all shifts is capacity / 2, attained at lambda_star;
    a finite grid can only get within its own resolution of that value.
    """

    grid_min: float
    grid_argmin: float
    value_at_lambda_star: float
    half_capacity: float
    grid_step: float

    @property
    def holds(self):
        """Whether half - slack <= grid_min <= half + grid_step, and the
        value at lambda_star is half within shift_norm, row by row."""
        half, tols = self.half_capacity, DEFAULT_TOLERANCES
        return (clears(self.grid_min - half, tols.slack)
                & clears(half + self.grid_step - self.grid_min, 0.0)
                & clears(-abs(self.value_at_lambda_star - half), tols.shift_norm))


@batch_of_one
def optimal_shift_check(observable: Observable, grid) -> ShiftCheck:
    """Scan ||theta - s I||_inf over a grid of shifts s, for one observable
    or a stack of B: grid is one 1-D grid shared by all rows, or a (B, G)
    grid, one per row, of >= 2 finite shifts (an error names its row)."""
    w = observable.eigenvalues
    shifts = as_real(grid, "shift grid")
    if shifts.shape[:-1] not in ((), w.shape[:1]) or shifts.shape[-1:] < (2,):
        raise ValidationError(f"shift grid must be 1-D or one row per observable, "
                              f"of >= 2 points, got shape {shifts.shape}")
    # a non-finite shift would leave the grid resolution meaningless
    bad = ~np.isfinite(np.atleast_2d(shifts)).all(axis=1)
    if bad.any():
        raise ValidationError(f"shift grid has non-finite entries{row_label(bad)}")
    shifts = np.broadcast_to(shifts, (len(w), shifts.shape[-1]))
    # ||theta - s I||_inf = max_k |w_k - s|, attained at an end of the
    # sorted spectrum: rounding is monotone, so fl(w_k - s) lies between
    # fl(theta_min - s) and fl(theta_max - s), and the two ends give the
    # full scan's value bit for bit
    norms = np.maximum(np.abs(observable.theta_min[:, None] - shifts),
                       np.abs(observable.theta_max[:, None] - shifts))
    return ShiftCheck(
        grid_min=norms.min(axis=1),
        grid_argmin=shifts[np.arange(len(w)), norms.argmin(axis=1)],
        value_at_lambda_star=np.abs(w - observable.lambda_star[:, None]).max(axis=1),
        half_capacity=0.5 * observable.capacity,
        grid_step=np.max(np.diff(np.sort(shifts, axis=1), axis=1), axis=1),
    )


@dataclass(frozen=True)
class SignDecomposition:
    """Sign structure of the difference rho - sigma.

    sign_operator is the unitary-and-Hermitian sum of sign(w_k) projectors
    over the nonzero eigenvalues w_k of rho - sigma; kernel_projector
    collects the (numerically) zero ones.  Their squares add to the
    identity.  epsilon is the weight either state puts on the kernel; the
    two weights agree, which is checked at construction.

    For stacks every field gains a leading row axis, and states_equal
    flags the rows whose states coincide within tolerance (a single pair
    that coincides raises DegenerateInputError instead).
    """

    sign_operator: np.ndarray
    kernel_projector: np.ndarray
    epsilon: float
    difference_spectrum: Spectrum
    states_equal: bool = False


def sign_decomposition(rho: DensityMatrix, sigma: DensityMatrix) -> SignDecomposition:
    """The sign structure of rho - sigma, for a pair of states or two
    stacks; a single pair that coincides raises DegenerateInputError."""
    decomposition = _sign_rows(rho, sigma)
    # a single pair's states_equal is a bool, a stack's an array of flags
    if decomposition.states_equal is True:
        norm = np.abs(decomposition.difference_spectrum.eigenvalues).sum()
        raise DegenerateInputError(
            f"states coincide within tolerance (||rho - sigma||_1 = {norm.item()!r})")
    return decomposition


@batch_of_one
def _sign_rows(rho: DensityMatrix, sigma: DensityMatrix) -> SignDecomposition:
    """sign_decomposition of two stacks, with coinciding rows flagged."""
    require_shape("rho", rho.matrix, sigma=sigma.matrix)
    difference = rho.matrix - sigma.matrix
    w, vecs = eigh(difference, checked=True)
    magnitude = np.abs(w)
    tols = DEFAULT_TOLERANCES
    zero_tolerance = tols.sign_zero_scale * np.maximum(1.0, magnitude.max(axis=1))
    equal = magnitude.sum(axis=1) <= zero_tolerance
    in_kernel = magnitude <= zero_tolerance[:, None]
    signs = np.where(in_kernel, 0.0, np.sign(w))
    omega = from_spectrum(vecs, signs)
    eps_op = from_spectrum(vecs, in_kernel)
    eps_rho = expectation(eps_op, rho.matrix)
    eps_sigma = expectation(eps_op, sigma.matrix)
    bad = ~equal & (np.abs(eps_rho - eps_sigma) > tols.slack)
    if bad.any():
        k = first_row(bad)
        raise NumericError(
            f"kernel weights disagree{row_label(bad)}: "
            f"{eps_rho[k].item()!r} vs {eps_sigma[k].item()!r}"
        )
    # the sign operator recovers the trace norm as a flux
    recovered = expectation(omega, difference)
    bad = ~equal & (np.abs(recovered - np.where(in_kernel, 0.0, magnitude).sum(axis=1))
                    > tols.slack)
    if bad.any():
        raise NumericError(
            f"sign operator does not recover the trace norm{row_label(bad)}")
    return SignDecomposition(
        sign_operator=omega,
        kernel_projector=eps_op,
        epsilon=np.clip(0.5 * (eps_rho + eps_sigma), 0.0, 1.0),
        difference_spectrum=Spectrum(w, vecs),
        states_equal=equal,
    )


@dataclass(frozen=True)
class QturCheck:
    """Variance uncertainty relation for a bounded observable.

    lhs = (Var_rho + Var_sigma) / ((mean gap)^2 / 2) must stay above
    variance_ratio_floor(S) with S the symmetric relative entropy: the
    verdict's slack is lhs - floor.  The relation does not apply where S
    is infinite (the floor tends to zero, and reads 0).
    """

    lhs: float
    s_tilde: RelEntropyValue
    floor: float
    verdict: Verdict


@batch_of_one
def qtur_check(operator, rho: DensityMatrix, sigma: DensityMatrix) -> QturCheck:
    """The uncertainty relation for one observable and pair of states, or
    row by row for stacks (every field is then an array over the rows).
    Raises DegenerateInputError, naming the first such row of a stack,
    where the means coincide or the states do (the floor diverges)."""
    h = require_hermitian(operator)
    require_shape("operator", h, rho=rho.matrix, sigma=sigma.matrix)
    h2 = h @ h
    mean_rho = expectation(h, rho.matrix)
    mean_sigma = expectation(h, sigma.matrix)
    var_rho = expectation(h2, rho.matrix) - mean_rho * mean_rho
    var_sigma = expectation(h2, sigma.matrix) - mean_sigma * mean_sigma
    gap = mean_rho - mean_sigma
    scale = 1.0 + np.abs(mean_rho) + np.abs(mean_sigma)
    bad = np.abs(gap) <= 1e-15 * scale
    if bad.any():
        raise DegenerateInputError(f"observable means coincide{row_label(bad)}; "
                                   f"the ratio is undefined")
    s_tilde = symmetric_relative_entropy(rho, sigma)
    lhs = (var_rho + var_sigma) / (0.5 * gap * gap)
    finite = s_tilde.finite
    bad = finite & (s_tilde.value == 0.0)
    if bad.any():
        raise DegenerateInputError(f"states coincide{row_label(bad)}; "
                                   f"the floor diverges")
    floor = np.zeros(len(lhs))
    if finite.any():
        floor[finite] = _bounds.variance_ratio_floor(s_tilde.value[finite])
    return QturCheck(lhs, s_tilde, floor, Verdict(lhs - floor, finite))


@dataclass(frozen=True)
class BoundReport:
    """Full bound evaluation for one (observable, rho, sigma) triple, or
    for a stack of them (every field is then an array over the rows).

    flux_ratio_sq is (flux / capacity)^2.  pinsker_rhs is half the
    symmetric relative entropy, main_rhs the sharp curve at that entropy,
    strengthened_rhs its kernel-weight refinement (1 - epsilon) * main.
    Verdict keys: capacity, trace_norm, pinsker_sym, pinsker_fwd, main,
    strengthened, onsager.
    """

    flux: float
    capacity: float
    flux_ratio_sq: float
    trace_norm: float
    epsilon: float
    s_forward: RelEntropyValue
    s_tilde: RelEntropyValue
    pinsker_rhs: float
    main_rhs: float
    strengthened_rhs: float
    verdicts: dict = field(default_factory=dict)
    degenerate_capacity: bool = False
    states_equal: bool = False

    def all_hold(self):
        """Whether every verdict holds (per row for a stack)."""
        return all_hold(self.verdicts, DEFAULT_TOLERANCES.slack)


@batch_of_one
def evaluate_bounds(observable: Observable, rho: DensityMatrix,
                    sigma: DensityMatrix) -> BoundReport:
    """Evaluate every flux bound for one triple, or for stacks of B
    triples, and report slacks.

    Degenerate inputs do not raise: an observable proportional to the
    identity or a coinciding pair of states yields a report (a row of the
    report, for a stack) flagged accordingly, where no verdict applies.
    Nor do the entropy steps where the entropy they read is infinite.
    """
    phi = flux(observable, rho, sigma)
    capacity = observable.capacity
    theta_scale = np.maximum(1.0, np.maximum(np.abs(observable.theta_max),
                                             np.abs(observable.theta_min)))
    degenerate = capacity <= DEFAULT_TOLERANCES.capacity_floor * theta_scale
    decomposition = sign_decomposition(rho, sigma)
    equal = decomposition.states_equal & ~degenerate
    live = ~(degenerate | equal)  # the rows the report does not resolve
    forward, backward = directed_entropy_pair(rho, sigma)
    s_tilde = symmetric_average(forward, backward)
    finite = s_tilde.finite

    ratio = np.abs(phi) / np.where(degenerate, 1.0, capacity)
    ratio_sq = ratio * ratio
    trace_norm = np.abs(decomposition.difference_spectrum.eigenvalues).sum(axis=1)
    quarter_tn_sq = 0.25 * trace_norm * trace_norm
    # the curve saturates at 1 for infinite divergence
    main_rhs = np.ones(len(phi))
    if finite.any():
        main_rhs[finite] = _bounds.flux_ratio_sq_bound(s_tilde.value[finite])
    strengthened_rhs = (1.0 - decomposition.epsilon) * main_rhs
    pinsker_rhs = 0.5 * s_tilde.as_float()
    half_forward = 0.5 * forward.as_float()
    # an infinite cost at ratio 1 forces infinite entropy: a finite
    # entropy falls short of it by -inf
    cost = _bounds.onsager_like(np.minimum(ratio, 1.0))
    both_finite = finite & np.isfinite(cost)
    s_value = np.where(both_finite, s_tilde.value, 0.0)
    cost = np.where(both_finite, cost, 0.0)

    entropic = live & finite
    verdicts = {
        "capacity": Verdict(capacity - np.abs(phi), live),
        "trace_norm": Verdict(quarter_tn_sq - ratio_sq, live),
        "pinsker_sym": Verdict(pinsker_rhs - quarter_tn_sq, entropic),
        "pinsker_fwd": Verdict(half_forward - quarter_tn_sq, live & forward.finite),
        "main": Verdict(main_rhs - ratio_sq, entropic),
        "strengthened": Verdict(strengthened_rhs - quarter_tn_sq, entropic),
        "onsager": Verdict(np.where(both_finite, s_value - cost, -math.inf),
                           entropic),
    }
    return BoundReport(
        flux=phi,
        capacity=capacity,
        flux_ratio_sq=np.where(degenerate, 0.0, ratio_sq),
        trace_norm=np.where(live, trace_norm, 0.0),
        epsilon=np.where(live, decomposition.epsilon, 0.0),
        s_forward=_zero_where(forward, degenerate),
        s_tilde=_zero_where(s_tilde, degenerate),
        pinsker_rhs=np.where(degenerate, 0.0, pinsker_rhs),
        main_rhs=np.where(live, main_rhs, 0.0),
        strengthened_rhs=np.where(live, strengthened_rhs, 0.0),
        verdicts=verdicts,
        degenerate_capacity=degenerate,
        states_equal=equal,
    )


def _zero_where(value: RelEntropyValue, rows: np.ndarray) -> RelEntropyValue:
    return RelEntropyValue(np.where(rows, 0.0, value.value))
