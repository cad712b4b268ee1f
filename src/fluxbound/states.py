"""Density matrices and relative entropy.

A DensityMatrix is a validated quantum state carrying its spectrum, so
that entropies and distances never re-diagonalize.  Relative entropy is
evaluated in the eigenbasis of the second argument,

    S(rho || sigma) = sum_i p_i ln p_i
                      - sum_{i,j} p_i |<p_i|s_j>|^2 ln s_j,

restricted to the supports of rho and sigma.  When rho places weight on
the kernel of sigma the divergence is infinite; that outcome is returned
as a tagged value (RelEntropyValue with finite=False), never as a bare
floating-point infinity fed into arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NumericError, ValidationError
from .linalg import eigh, first_row, require_hermitian, row_label


@dataclass(frozen=True)
class DensityMatrix:
    """A validated state, or a stack of B of them.

    matrix: the (possibly clamped and renormalized) density matrix,
        exactly Hermitian; (n, n), or (B, n, n) for a stack.
    eigenvalues: ascending, clamped to [0, 1] and renormalized to unit sum.
    eigenvectors: columns matching eigenvalues.
    clamped: True when a small negative eigenvalue was rounded up to zero
        (a bool array over the rows of a stack).
    rank_tolerance: eigenvalues <= this are treated as exact zeros.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamped: bool
    rank_tolerance: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def support_dim(self):
        """Number of eigenvalues above rank_tolerance (per row of a stack)."""
        count = np.sum(self.eigenvalues > self.rank_tolerance, axis=-1)
        return int(count) if count.ndim == 0 else count


def stack_of_one(state: DensityMatrix) -> DensityMatrix:
    """A single state as a stack of one."""
    return DensityMatrix(state.matrix[None], state.eigenvalues[None],
                         state.eigenvectors[None], np.array([state.clamped]),
                         state.rank_tolerance)


def validate_state(matrix, tols: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Check finiteness, hermiticity, positivity and unit trace of a matrix
    or a (B, n, n) stack; clamp rounding noise.

    Eigenvalues in [-tols.state_negativity, 0) are clamped to zero and the
    spectrum renormalized; anything more negative is rejected.  The trace
    must be 1 within tols.state_trace.  Errors name the first failing row
    of a stack.
    """
    a = require_hermitian(matrix, tols)
    single = a.ndim == 2
    if single:
        a = a[None]
    trace = a.diagonal(axis1=1, axis2=2).real.sum(axis=1)
    bad = np.abs(trace - 1.0) > tols.state_trace
    if bad.any():
        raise ValidationError(
            f"state trace invariant violated{row_label(bad, single)}: "
            f"tr = {trace[first_row(bad)].item()!r}, "
            f"|tr - 1| > {tols.state_trace:.1e}"
        )
    values, vecs = eigh(a, tols, checked=True)
    smallest = values[:, 0]
    bad = smallest < -tols.state_negativity
    if bad.any():
        raise ValidationError(
            f"state positivity invariant violated{row_label(bad, single)}: "
            f"eigenvalue {smallest[first_row(bad)].item()!r} "
            f"below -{tols.state_negativity:.1e}"
        )
    clamped = smallest < 0.0
    values = np.maximum(values, 0.0)
    values /= values.sum(axis=1, keepdims=True)
    if clamped.any():
        rows = np.flatnonzero(clamped)
        v = vecs[rows]
        rebuilt = (v * values[rows][:, None, :]) @ v.conj().swapaxes(1, 2)
        a[rows] = 0.5 * (rebuilt + rebuilt.conj().swapaxes(1, 2))
    if single:
        return DensityMatrix(a[0], values[0], vecs[0], bool(clamped[0]), tols.rank)
    return DensityMatrix(a, values, vecs, clamped, tols.rank)


@dataclass(frozen=True)
class RelEntropyValue:
    """Nonnegative extended real: a finite value or a tagged infinity.

    For a stack, value and finite are arrays over its rows.  An infinite
    entry always carries value inf.
    """

    value: float
    finite: bool = True

    @classmethod
    def infinite(cls) -> "RelEntropyValue":
        return cls(value=math.inf, finite=False)

    def __post_init__(self):
        if isinstance(self.value, np.ndarray):
            ok = ~self.finite | ((self.value >= 0.0) & np.isfinite(self.value))
            if not ok.all():
                raise ValidationError(
                    f"finite relative entropy must be >= 0, got "
                    f"{self.value[first_row(~ok)]!r}")
        elif self.finite and not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValidationError(f"finite relative entropy must be >= 0, got {self.value!r}")

    def as_float(self):
        """Plain float for display and serialization (inf when infinite)."""
        if isinstance(self.value, np.ndarray):
            return np.where(self.finite, self.value, math.inf)
        return self.value if self.finite else math.inf


def _directed_entropies(p: np.ndarray, s: np.ndarray, overlap: np.ndarray,
                        p_tol: np.ndarray, s_tol: np.ndarray) -> np.ndarray:
    """S(p || s) for each row of a stack, before the rounding floor.

    p, s: (R, n) spectra; overlap[r, i, j] = |<p_i | s_j>|^2; p_tol and
    s_tol: (R, 1) rank tolerances.  Entries whose weight is treated as
    zero are masked out of the sums (they add exact zeros), so each row
    is computed as it would be alone.  inf where p puts more than s_tol
    of its weight on the kernel of s.
    """
    p_live = p > p_tol
    s_dead = s <= s_tol
    weights = np.where(p_live, p, 0.0)
    value = (weights * np.log(np.where(p_live, p, 1.0))).sum(axis=1)
    cross = (overlap * np.log(np.where(s_dead, 1.0, s))[:, None, :]).sum(axis=2)
    value -= (weights * cross).sum(axis=1)
    if s_dead.any():
        kernel_mass = (weights * (overlap * s_dead[:, None, :]).sum(axis=2)).sum(axis=1)
        value[kernel_mass > s_tol[:, 0]] = math.inf
    return value


def _entropy_floor(values: np.ndarray, tols: Tolerances, single: bool) -> np.ndarray:
    """Round values in [-entropy_floor, 0) up to 0; raise on anything lower."""
    bad = values < -tols.entropy_floor
    if bad.any():
        raise NumericError(
            f"relative entropy evaluated to {values[first_row(bad)].item()!r}"
            f"{row_label(bad, single)}")
    return np.maximum(values, 0.0)


def _stacked(state: DensityMatrix) -> tuple[DensityMatrix, bool]:
    return (stack_of_one(state), True) if state.matrix.ndim == 2 else (state, False)


def _check_pair(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValidationError(
            f"dimension mismatch {rho.matrix.shape} vs {sigma.matrix.shape}")


def _entropy_value(values: np.ndarray, single: bool) -> RelEntropyValue:
    if single:
        v = values.item()
        return RelEntropyValue(v, math.isfinite(v))
    return RelEntropyValue(values, np.isfinite(values))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                     tols: Tolerances = DEFAULT_TOLERANCES) -> RelEntropyValue:
    """Quantum relative entropy S(rho || sigma), natural log."""
    _check_pair(rho, sigma)
    (rho, single), (sigma, _) = _stacked(rho), _stacked(sigma)
    overlap = np.abs(rho.eigenvectors.conj().swapaxes(1, 2) @ sigma.eigenvectors) ** 2
    values = _directed_entropies(rho.eigenvalues, sigma.eigenvalues, overlap,
                                 np.full((len(overlap), 1), rho.rank_tolerance),
                                 np.full((len(overlap), 1), sigma.rank_tolerance))
    return _entropy_value(_entropy_floor(values, tols, single), single)


def directed_entropy_pair(rho: DensityMatrix, sigma: DensityMatrix,
                          tols: Tolerances = DEFAULT_TOLERANCES,
                          ) -> tuple[RelEntropyValue, RelEntropyValue]:
    """(S(rho || sigma), S(sigma || rho)), sharing one overlap matrix.

    Takes single states or two stacks of B states; both directions of all
    B pairs are evaluated as one stack of 2 B rows.
    """
    _check_pair(rho, sigma)
    (rho, single), (sigma, _) = _stacked(rho), _stacked(sigma)
    overlap = np.abs(rho.eigenvectors.conj().swapaxes(1, 2) @ sigma.eigenvectors) ** 2
    b = len(overlap)
    tolerances = np.repeat([rho.rank_tolerance, sigma.rank_tolerance], b)[:, None]
    values = _directed_entropies(
        np.concatenate([rho.eigenvalues, sigma.eigenvalues]),
        np.concatenate([sigma.eigenvalues, rho.eigenvalues]),
        np.concatenate([overlap, overlap.swapaxes(1, 2)]),
        tolerances, tolerances[::-1])
    values = _entropy_floor(values, tols, single)
    return _entropy_value(values[:b], single), _entropy_value(values[b:], single)


def symmetric_average(forward: RelEntropyValue,
                      backward: RelEntropyValue) -> RelEntropyValue:
    """(S(rho||sigma) + S(sigma||rho)) / 2 as a tagged value (inf as soon
    as either direction is)."""
    return RelEntropyValue(0.5 * (forward.value + backward.value),
                           forward.finite & backward.finite)


def symmetric_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                               tols: Tolerances = DEFAULT_TOLERANCES) -> RelEntropyValue:
    """Symmetrized relative entropy, the mean of the two directions.

    Infinite as soon as either direction is infinite, i.e. whenever the
    supports of the two states differ.
    """
    forward, backward = directed_entropy_pair(rho, sigma, tols)
    return symmetric_average(forward, backward)


def trace_distance_norm(rho: DensityMatrix, sigma: DensityMatrix,
                        tols: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Trace norm ||rho - sigma||_1 (twice the trace distance)."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    # the difference of two validated states is exactly Hermitian
    w = eigh(rho.matrix - sigma.matrix, tols, checked=True).eigenvalues
    return float(np.sum(np.abs(w)))


@dataclass(frozen=True)
class PinskerCheck:
    """S(rho||sigma) >= ||rho - sigma||_1^2 / 2, with slack."""

    s_forward: RelEntropyValue
    trace_norm: float
    rhs: float
    slack: float
    holds: bool
    trivial: bool


def pinsker_check(rho: DensityMatrix, sigma: DensityMatrix,
                  tols: Tolerances = DEFAULT_TOLERANCES) -> PinskerCheck:
    """Evaluate the classical Pinsker inequality for a pair of states."""
    s_forward = relative_entropy(rho, sigma, tols)
    tn = trace_distance_norm(rho, sigma, tols)
    rhs = 0.5 * tn * tn
    if not s_forward.finite:
        return PinskerCheck(s_forward, tn, rhs, math.inf, True, True)
    slack = s_forward.value - rhs
    return PinskerCheck(s_forward, tn, rhs, slack, slack >= -tols.slack, False)
