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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateInputError, NumericError, ValidationError
from .linalg import (Spectrum, eigh, expectation, first_row, require_hermitian,
                     row_label, take_row)
from .states import (DensityMatrix, RelEntropyValue, directed_entropy_pair,
                     stack_of_one, symmetric_average)


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


def make_observable(matrix, tols: Tolerances = DEFAULT_TOLERANCES) -> Observable:
    """Validate a Hermitian matrix, or a (B, n, n) stack, and cache its
    spectrum."""
    a = require_hermitian(matrix, tols)
    w, v = eigh(a, tols, checked=True)
    if a.ndim == 2:
        return Observable(a, w, v, float(w[-1]), float(w[0]))
    return Observable(a, w, v, w[:, -1], w[:, 0])


def _observable_stack_of_one(observable: Observable) -> Observable:
    return Observable(observable.matrix[None], observable.eigenvalues[None],
                      observable.eigenvectors[None],
                      np.array([observable.theta_max]),
                      np.array([observable.theta_min]))


def flux(observable: Observable, rho: DensityMatrix, sigma: DensityMatrix,
         tols: Tolerances = DEFAULT_TOLERANCES):
    """tr(theta (rho - sigma)); always within capacity up to slack.  An
    array over the rows for stacked arguments."""
    single = observable.matrix.ndim == 2
    if single:
        observable = _observable_stack_of_one(observable)
        rho, sigma = stack_of_one(rho), stack_of_one(sigma)
    value = expectation(observable.matrix, rho.matrix - sigma.matrix, tols)
    bad = np.abs(value) > observable.capacity + tols.slack
    if bad.any():
        k = first_row(bad)
        raise NumericError(
            f"flux {value[k].item()!r} exceeds capacity "
            f"{observable.capacity[k].item()!r}{row_label(bad, single)}"
        )
    return value.item() if single else value


@dataclass(frozen=True)
class ShiftCheck:
    """Grid scan of lambda -> ||theta - lambda I||_inf.

    The minimum over all shifts is capacity / 2, attained at lambda_star;
    a finite grid can only get within its own resolution of that value.
    """

    grid_min: float
    grid_argmin: float
    value_at_lambda_star: float
    half_capacity: float
    grid_step: float
    holds: bool


def optimal_shift_check(observable: Observable, grid,
                        tols: Tolerances = DEFAULT_TOLERANCES) -> ShiftCheck:
    shifts = np.asarray(grid, dtype=np.float64)
    if shifts.ndim != 1 or shifts.size < 2:
        raise ValidationError("shift grid must be a 1-d array with >= 2 points")
    # ||theta - s I||_inf = max_k |w_k - s|, vectorized over the grid
    norms = np.max(np.abs(observable.eigenvalues[None, :] - shifts[:, None]), axis=1)
    k = int(np.argmin(norms))
    half = 0.5 * observable.capacity
    at_star = float(np.max(np.abs(observable.eigenvalues - observable.lambda_star)))
    step = float(np.max(np.diff(np.sort(shifts))))
    holds = (norms[k] >= half - tols.slack
             and norms[k] <= half + step
             and abs(at_star - half) <= tols.shift_norm)
    return ShiftCheck(
        grid_min=float(norms[k]),
        grid_argmin=float(shifts[k]),
        value_at_lambda_star=at_star,
        half_capacity=half,
        grid_step=step,
        holds=bool(holds),
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
    zero_tolerance: float
    difference_spectrum: Spectrum
    states_equal: bool = False


def sign_decomposition(rho: DensityMatrix, sigma: DensityMatrix,
                       zero_tolerance: float | None = None,
                       tols: Tolerances = DEFAULT_TOLERANCES) -> SignDecomposition:
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValidationError(
            f"dimension mismatch {rho.matrix.shape} vs {sigma.matrix.shape}")
    single = rho.matrix.ndim == 2
    if single:
        rho, sigma = stack_of_one(rho), stack_of_one(sigma)
    difference = rho.matrix - sigma.matrix
    w, vecs = eigh(difference, tols, checked=True)
    magnitude = np.abs(w)
    if zero_tolerance is None:
        zero_tolerance = tols.sign_zero_scale * np.maximum(1.0, magnitude.max(axis=1))
    else:
        zero_tolerance = np.full(len(w), float(zero_tolerance))
    equal = magnitude.sum(axis=1) <= zero_tolerance
    if single and equal[0]:
        raise DegenerateInputError(
            f"states coincide within tolerance "
            f"(||rho - sigma||_1 = {magnitude.sum().item()!r})"
        )
    in_kernel = magnitude <= zero_tolerance[:, None]
    signs = np.where(in_kernel, 0.0, np.sign(w))
    vecs_h = vecs.conj().swapaxes(1, 2)
    omega = (vecs * signs[:, None, :]) @ vecs_h
    eps_op = (vecs * in_kernel[:, None, :]) @ vecs_h
    eps_rho = expectation(eps_op, rho.matrix, tols)
    eps_sigma = expectation(eps_op, sigma.matrix, tols)
    bad = ~equal & (np.abs(eps_rho - eps_sigma) > tols.slack)
    if bad.any():
        k = first_row(bad)
        raise NumericError(
            f"kernel weights disagree{row_label(bad, single)}: "
            f"{eps_rho[k].item()!r} vs {eps_sigma[k].item()!r}"
        )
    # the sign operator recovers the trace norm as a flux
    recovered = expectation(omega, difference, tols)
    bad = ~equal & (np.abs(recovered - np.where(in_kernel, 0.0, magnitude).sum(axis=1))
                    > tols.slack)
    if bad.any():
        raise NumericError(
            f"sign operator does not recover the trace norm{row_label(bad, single)}")
    decomposition = SignDecomposition(
        sign_operator=omega,
        kernel_projector=eps_op,
        epsilon=np.clip(0.5 * (eps_rho + eps_sigma), 0.0, 1.0),
        zero_tolerance=zero_tolerance,
        difference_spectrum=Spectrum(w, vecs),
        states_equal=equal,
    )
    return take_row(decomposition, 0) if single else decomposition


@dataclass(frozen=True)
class QturCheck:
    """Variance uncertainty relation for a bounded observable.

    lhs = (Var_rho + Var_sigma) / ((mean gap)^2 / 2) must stay above
    variance_ratio_floor(S) with S the symmetric relative entropy; the
    relation is trivially satisfied when S is infinite (the floor tends
    to zero).
    """

    variance_sum: float
    mean_gap: float
    lhs: float
    s_tilde: RelEntropyValue
    floor: float
    slack: float
    holds: bool
    trivial: bool


def qtur_check(operator, rho: DensityMatrix, sigma: DensityMatrix,
               config: _bounds.BoundFunctionConfig = _bounds.DEFAULT_BOUND_CONFIG,
               tols: Tolerances = DEFAULT_TOLERANCES) -> QturCheck:
    h = require_hermitian(operator, tols)
    h2 = h @ h
    mean_rho = expectation(h, rho.matrix, tols)
    mean_sigma = expectation(h, sigma.matrix, tols)
    var_rho = expectation(h2, rho.matrix, tols) - mean_rho * mean_rho
    var_sigma = expectation(h2, sigma.matrix, tols) - mean_sigma * mean_sigma
    gap = mean_rho - mean_sigma
    scale = 1.0 + abs(mean_rho) + abs(mean_sigma)
    if abs(gap) <= 1e-15 * scale:
        raise DegenerateInputError("observable means coincide; the ratio is undefined")
    forward, backward = directed_entropy_pair(rho, sigma, tols)
    s_tilde = symmetric_average(forward, backward)
    lhs = (var_rho + var_sigma) / (0.5 * gap * gap)
    if not s_tilde.finite:
        return QturCheck(var_rho + var_sigma, gap, lhs, s_tilde,
                         0.0, math.inf, True, True)
    if s_tilde.value == 0.0:
        raise DegenerateInputError("states coincide; the floor diverges")
    floor = _bounds.variance_ratio_floor(s_tilde.value, config)
    slack = lhs - floor
    return QturCheck(var_rho + var_sigma, gap, lhs, s_tilde, floor,
                     slack, slack >= -tols.slack, False)


@dataclass(frozen=True)
class Verdict:
    """One inequality outcome: holds within slack, or holds trivially
    (infinite right-hand side / degenerate input).  Arrays over the rows
    in the report of a stack."""

    holds: bool
    slack: float
    trivial: bool = False


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
    s_backward: RelEntropyValue
    s_tilde: RelEntropyValue
    pinsker_rhs: float
    main_rhs: float
    strengthened_rhs: float
    verdicts: dict = field(default_factory=dict)
    degenerate_capacity: bool = False
    states_equal: bool = False

    def all_hold(self):
        """Whether every verdict holds (per row for a stack)."""
        holds = True
        for verdict in self.verdicts.values():
            holds = holds & verdict.holds
        return holds


def evaluate_bounds(observable: Observable, rho: DensityMatrix,
                    sigma: DensityMatrix,
                    config: _bounds.BoundFunctionConfig = _bounds.DEFAULT_BOUND_CONFIG,
                    tols: Tolerances = DEFAULT_TOLERANCES) -> BoundReport:
    """Evaluate every flux bound for one triple, or for stacks of B
    triples, and report slacks.

    Degenerate inputs do not raise: an observable proportional to the
    identity or a coinciding pair of states yields a report (a row of the
    report, for a stack) flagged accordingly, with all verdicts trivially
    satisfied.
    """
    if not observable.matrix.shape == rho.matrix.shape == sigma.matrix.shape:
        raise ValidationError("observable and states must share one dimension")
    single = observable.matrix.ndim == 2
    if single:
        observable = _observable_stack_of_one(observable)
        rho, sigma = stack_of_one(rho), stack_of_one(sigma)
    phi = flux(observable, rho, sigma, tols)
    capacity = observable.capacity
    theta_scale = np.maximum(1.0, np.maximum(np.abs(observable.theta_max),
                                             np.abs(observable.theta_min)))
    degenerate = capacity <= tols.capacity_floor * theta_scale
    decomposition = sign_decomposition(rho, sigma, None, tols)
    equal = decomposition.states_equal & ~degenerate
    trivial_rows = degenerate | equal
    forward, backward = directed_entropy_pair(rho, sigma, tols)
    s_tilde = symmetric_average(forward, backward)
    finite = s_tilde.finite

    ratio = np.abs(phi) / np.where(degenerate, 1.0, capacity)
    ratio_sq = ratio * ratio
    trace_norm = np.abs(decomposition.difference_spectrum.eigenvalues).sum(axis=1)
    quarter_tn_sq = 0.25 * trace_norm * trace_norm
    # the curve saturates at 1 for infinite divergence
    main_rhs = np.ones(len(phi))
    if finite.any():
        main_rhs[finite] = _bounds.flux_ratio_sq_bound(s_tilde.value[finite], config)
    strengthened_rhs = (1.0 - decomposition.epsilon) * main_rhs
    pinsker_rhs = 0.5 * s_tilde.as_float()
    half_forward = 0.5 * forward.as_float()
    # infinite entropy satisfies any cost; an infinite cost at ratio 1
    # forces infinite entropy, which the finite case cannot represent
    cost = _bounds.onsager_like(np.minimum(ratio, 1.0))
    both_finite = finite & np.isfinite(cost)
    s_value = np.where(both_finite, s_tilde.value, 0.0)
    cost = np.where(both_finite, cost, 0.0)

    slack = tols.slack
    verdicts = {
        "capacity": (np.abs(phi) <= capacity + slack, capacity - np.abs(phi), False),
        "trace_norm": (ratio_sq <= quarter_tn_sq + slack,
                       quarter_tn_sq - ratio_sq, False),
        "pinsker_sym": (quarter_tn_sq <= pinsker_rhs + slack,
                        pinsker_rhs - quarter_tn_sq, ~finite),
        "pinsker_fwd": (quarter_tn_sq <= half_forward + slack,
                        half_forward - quarter_tn_sq, ~forward.finite),
        "main": (ratio_sq <= main_rhs + slack, main_rhs - ratio_sq, ~finite),
        "strengthened": (quarter_tn_sq <= strengthened_rhs + slack,
                         strengthened_rhs - quarter_tn_sq, ~finite),
        "onsager": (np.where(both_finite, cost <= s_value + slack, ~finite),
                    np.where(both_finite, s_value - cost,
                             np.where(finite, -math.inf, math.inf)),
                    ~finite),
    }
    report = BoundReport(
        flux=phi,
        capacity=capacity,
        flux_ratio_sq=np.where(degenerate, 0.0, ratio_sq),
        trace_norm=np.where(trivial_rows, 0.0, trace_norm),
        epsilon=np.where(trivial_rows, 0.0, decomposition.epsilon),
        s_forward=_zero_where(forward, degenerate),
        s_backward=_zero_where(backward, degenerate),
        s_tilde=_zero_where(s_tilde, degenerate),
        pinsker_rhs=np.where(degenerate, 0.0, pinsker_rhs),
        main_rhs=np.where(trivial_rows, 0.0, main_rhs),
        strengthened_rhs=np.where(trivial_rows, 0.0, strengthened_rhs),
        verdicts={name: Verdict(holds | trivial_rows,
                                np.where(trivial_rows, math.inf, gap),
                                trivial | trivial_rows)
                  for name, (holds, gap, trivial) in verdicts.items()},
        degenerate_capacity=degenerate,
        states_equal=equal,
    )
    return take_row(report, 0) if single else report


def _zero_where(value: RelEntropyValue, rows: np.ndarray) -> RelEntropyValue:
    return RelEntropyValue(np.where(rows, 0.0, value.value), value.finite | rows)
