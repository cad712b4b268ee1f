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

make_observable, flux, sign_decomposition and evaluate_bounds take single
inputs or stacks, a single input as a stack of one (linalg.batch_of_one);
a degenerate row is flagged, and only a single coinciding pair raises.
qtur_check and optimal_shift_check take single inputs only.  clears is
the one pass/fail rule of every inequality; a NaN slack fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from .config import DEFAULT_TOLERANCES
from .errors import DegenerateInputError, NumericError, ValidationError
from .linalg import (Spectrum, as_array, batch_of_one, eigh, expectation,
                     first_row, from_spectrum, require_hermitian, row_label)
from .states import (DensityMatrix, RelEntropyValue, check_same_shape,
                     directed_entropy_pair, symmetric_average,
                     symmetric_relative_entropy)


def clears(slack, tolerance: float):
    """Whether a slack clears -tolerance, elementwise: the one pass/fail
    rule of every inequality.  Written so that a NaN slack fails."""
    return slack >= -tolerance


def _require_single(**arguments) -> None:
    """Reject, by name, the first argument that is not one matrix."""
    for name, value in arguments.items():
        shape = np.shape(as_array(value))
        if len(shape) != 2:
            raise ValidationError(f"{name} must be a single matrix, got shape {shape}")


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
def flux(observable: Observable, rho: DensityMatrix, sigma: DensityMatrix):
    """tr(theta (rho - sigma)); always within capacity up to slack.  An
    array over the rows for stacked arguments."""
    value = expectation(observable.matrix, rho.matrix - sigma.matrix)
    bad = np.abs(value) > observable.capacity + DEFAULT_TOLERANCES.slack
    if bad.any():
        k = first_row(bad)
        raise NumericError(
            f"flux {value[k].item()!r} exceeds capacity "
            f"{observable.capacity[k].item()!r}{row_label(bad)}"
        )
    return value


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


def optimal_shift_check(observable: Observable, grid) -> ShiftCheck:
    _require_single(observable=observable)
    shifts = np.asarray(grid, dtype=np.float64)
    # a non-finite shift would leave the grid resolution meaningless
    if shifts.ndim != 1 or shifts.size < 2 or not np.isfinite(shifts).all():
        raise ValidationError(
            "shift grid must be a finite 1-d array with >= 2 points")
    # ||theta - s I||_inf = max_k |w_k - s|, vectorized over the grid
    norms = np.max(np.abs(observable.eigenvalues[None, :] - shifts[:, None]), axis=1)
    k = int(np.argmin(norms))
    half = 0.5 * observable.capacity
    at_star = float(np.max(np.abs(observable.eigenvalues - observable.lambda_star)))
    step = float(np.max(np.diff(np.sort(shifts))))
    holds = (norms[k] >= half - DEFAULT_TOLERANCES.slack
             and norms[k] <= half + step
             and abs(at_star - half) <= DEFAULT_TOLERANCES.shift_norm)
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
    check_same_shape(rho, sigma)
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
        zero_tolerance=zero_tolerance,
        difference_spectrum=Spectrum(w, vecs),
        states_equal=equal,
    )


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
    trivial: bool

    @property
    def holds(self) -> bool:
        """Whether the slack clears -DEFAULT_TOLERANCES.slack."""
        return clears(self.slack, DEFAULT_TOLERANCES.slack)


def qtur_check(operator, rho: DensityMatrix, sigma: DensityMatrix) -> QturCheck:
    _require_single(operator=operator, rho=rho, sigma=sigma)
    h = require_hermitian(operator)
    h2 = h @ h
    mean_rho = expectation(h, rho.matrix)
    mean_sigma = expectation(h, sigma.matrix)
    var_rho = expectation(h2, rho.matrix) - mean_rho * mean_rho
    var_sigma = expectation(h2, sigma.matrix) - mean_sigma * mean_sigma
    gap = mean_rho - mean_sigma
    scale = 1.0 + abs(mean_rho) + abs(mean_sigma)
    if abs(gap) <= 1e-15 * scale:
        raise DegenerateInputError("observable means coincide; the ratio is undefined")
    s_tilde = symmetric_relative_entropy(rho, sigma)
    lhs = (var_rho + var_sigma) / (0.5 * gap * gap)
    if not s_tilde.finite:
        return QturCheck(var_rho + var_sigma, gap, lhs, s_tilde, 0.0, math.inf, True)
    if s_tilde.value == 0.0:
        raise DegenerateInputError("states coincide; the floor diverges")
    floor = _bounds.variance_ratio_floor(s_tilde.value)
    return QturCheck(var_rho + var_sigma, gap, lhs, s_tilde, floor,
                     lhs - floor, False)


@dataclass(frozen=True)
class Verdict:
    """One inequality outcome: its slack (rhs minus lhs), and whether it
    holds trivially (infinite right-hand side / degenerate input, with
    slack +inf).  Arrays over the rows in the report of a stack."""

    slack: float
    trivial: bool = False

    @property
    def holds(self):
        """Whether the slack clears -DEFAULT_TOLERANCES.slack."""
        return clears(self.slack, DEFAULT_TOLERANCES.slack)


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


@batch_of_one
def evaluate_bounds(observable: Observable, rho: DensityMatrix,
                    sigma: DensityMatrix) -> BoundReport:
    """Evaluate every flux bound for one triple, or for stacks of B
    triples, and report slacks.

    Degenerate inputs do not raise: an observable proportional to the
    identity or a coinciding pair of states yields a report (a row of the
    report, for a stack) flagged accordingly, with all verdicts trivially
    satisfied.
    """
    if not observable.matrix.shape == rho.matrix.shape == sigma.matrix.shape:
        raise ValidationError("observable and states must share one dimension")
    phi = flux(observable, rho, sigma)
    capacity = observable.capacity
    theta_scale = np.maximum(1.0, np.maximum(np.abs(observable.theta_max),
                                             np.abs(observable.theta_min)))
    degenerate = capacity <= DEFAULT_TOLERANCES.capacity_floor * theta_scale
    decomposition = sign_decomposition(rho, sigma)
    equal = decomposition.states_equal & ~degenerate
    trivial_rows = degenerate | equal
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
    # infinite entropy satisfies any cost; an infinite cost at ratio 1
    # forces infinite entropy, which the finite case cannot represent
    cost = _bounds.onsager_like(np.minimum(ratio, 1.0))
    both_finite = finite & np.isfinite(cost)
    s_value = np.where(both_finite, s_tilde.value, 0.0)
    cost = np.where(both_finite, cost, 0.0)

    # (slack, trivial) per inequality
    verdicts = {
        "capacity": (capacity - np.abs(phi), False),
        "trace_norm": (quarter_tn_sq - ratio_sq, False),
        "pinsker_sym": (pinsker_rhs - quarter_tn_sq, ~finite),
        "pinsker_fwd": (half_forward - quarter_tn_sq, ~forward.finite),
        "main": (main_rhs - ratio_sq, ~finite),
        "strengthened": (strengthened_rhs - quarter_tn_sq, ~finite),
        "onsager": (np.where(both_finite, s_value - cost,
                             np.where(finite, -math.inf, math.inf)),
                    ~finite),
    }
    return BoundReport(
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
        verdicts={name: Verdict(np.where(trivial_rows, math.inf, gap),
                                trivial | trivial_rows)
                  for name, (gap, trivial) in verdicts.items()},
        degenerate_capacity=degenerate,
        states_equal=equal,
    )


def _zero_where(value: RelEntropyValue, rows: np.ndarray) -> RelEntropyValue:
    return RelEntropyValue(np.where(rows, 0.0, value.value))
