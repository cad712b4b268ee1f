"""Density matrices and relative entropy.

A DensityMatrix is a validated quantum state carrying its spectrum, so
that entropies and distances never re-diagonalize.  Relative entropy is
evaluated in the eigenbasis of the second argument,

    S(rho || sigma) = sum_i p_i ln p_i
                      - sum_{i,j} p_i |<p_i|s_j>|^2 ln s_j,

restricted to the supports of rho and sigma.  When rho places weight on
the kernel of sigma the divergence is infinite: a RelEntropyValue then
carries value inf, which sums and averages propagate, and reads its
finite flag from the value.  Every function here takes single states or
stacks; a single state runs as a stack of one (linalg.batch_of_one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import NumericError, ValidationError
from .linalg import (batch_of_one, eigh, first_row, from_spectrum,
                     require_hermitian, row_label, shape_label)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated state, or a stack of B of them.

    matrix: the (possibly clamped and renormalized) density matrix,
        exactly Hermitian; (n, n), or (B, n, n) for a stack.
    eigenvalues: ascending, clamped to [0, 1] and renormalized to unit sum;
        those <= DEFAULT_TOLERANCES.rank are treated as exact zeros.
    eigenvectors: columns matching eigenvalues.
    clamped: True when a small negative eigenvalue was rounded up to zero
        (a bool array over the rows of a stack).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamped: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def support_dim(self):
        """Number of eigenvalues above the rank tolerance, per row of a stack."""
        count = np.sum(self.eigenvalues > DEFAULT_TOLERANCES.rank, axis=-1)
        return int(count) if count.ndim == 0 else count


@batch_of_one
def validate_state(matrix) -> DensityMatrix:
    """Check finiteness, hermiticity, positivity and unit trace of a matrix
    or a (B, n, n) stack; clamp rounding noise.

    Eigenvalues in [-state_negativity, 0) are clamped to zero and the
    spectrum renormalized; anything more negative is rejected.  The trace
    must be 1 within state_trace.  Errors name the first failing row of a
    stack.
    """
    tols = DEFAULT_TOLERANCES
    a = require_hermitian(matrix)
    trace = a.diagonal(axis1=1, axis2=2).real.sum(axis=1)
    bad = np.abs(trace - 1.0) > tols.state_trace
    if bad.any():
        raise ValidationError(
            f"state trace invariant violated{row_label(bad)}: "
            f"tr = {trace[first_row(bad)].item()!r}, "
            f"|tr - 1| > {tols.state_trace:.1e}"
        )
    values, vecs = eigh(a, checked=True)
    smallest = values[:, 0]
    bad = smallest < -tols.state_negativity
    if bad.any():
        raise ValidationError(
            f"state positivity invariant violated{row_label(bad)}: "
            f"eigenvalue {smallest[first_row(bad)].item()!r} "
            f"below -{tols.state_negativity:.1e}"
        )
    clamped = smallest < 0.0
    values = np.maximum(values, 0.0)
    values /= values.sum(axis=1, keepdims=True)
    if clamped.any():
        rows = np.flatnonzero(clamped)
        rebuilt = from_spectrum(vecs[rows], values[rows])
        a[rows] = 0.5 * (rebuilt + rebuilt.conj().swapaxes(1, 2))
    return DensityMatrix(a, values, vecs, clamped)


@dataclass(frozen=True)
class RelEntropyValue:
    """Nonnegative extended real: a relative entropy, inf when infinite.

    For a stack, value is an array over its rows, and so is finite.
    """

    value: float

    @classmethod
    def infinite(cls) -> "RelEntropyValue":
        return cls(math.inf)

    def __post_init__(self):
        ok = np.asarray(self.value) >= 0.0  # False for NaN too
        if not ok.all():
            bad = self.value[first_row(~ok)] if ok.ndim else self.value
            raise ValidationError(f"finite relative entropy must be >= 0, got {bad!r}")

    @property
    def finite(self):
        """isfinite(value): a bool, or a bool array for a stack."""
        if isinstance(self.value, np.ndarray):
            return np.isfinite(self.value)
        return math.isfinite(self.value)

    def as_float(self):
        """The value for display and serialization (inf when infinite)."""
        return self.value


def _directed_entropies(p: np.ndarray, s: np.ndarray,
                        overlap: np.ndarray) -> np.ndarray:
    """S(p || s) for each row of a stack, before the rounding floor.

    p, s: (R, n) spectra; overlap[r, i, j] = |<p_i | s_j>|^2.  Entries at
    or below the rank tolerance are treated as zero and masked out of the
    sums (they add exact zeros), so each row is computed as it would be
    alone.  inf where p puts more than the rank tolerance of its weight
    on the kernel of s.
    """
    rank = DEFAULT_TOLERANCES.rank
    p_live = p > rank
    s_dead = s <= rank
    weights = np.where(p_live, p, 0.0)
    value = (weights * np.log(np.where(p_live, p, 1.0))).sum(axis=1)
    cross = (overlap * np.log(np.where(s_dead, 1.0, s))[:, None, :]).sum(axis=2)
    value -= (weights * cross).sum(axis=1)
    if s_dead.any():
        kernel_mass = (weights * (overlap * s_dead[:, None, :]).sum(axis=2)).sum(axis=1)
        value[kernel_mass > rank] = math.inf
    return value


def check_same_shape(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    """Two states, or two stacks of them, must share one shape."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValidationError(f"dimension mismatch {shape_label(rho.matrix)} "
                              f"vs {shape_label(sigma.matrix)}")


@batch_of_one
def directed_entropy_pair(rho: DensityMatrix, sigma: DensityMatrix,
                          ) -> tuple[RelEntropyValue, RelEntropyValue]:
    """(S(rho || sigma), S(sigma || rho)), sharing one overlap matrix.

    Takes single states or two stacks of B states; both directions of all
    B pairs are evaluated as one stack of 2 B rows.  Values in
    [-entropy_floor, 0) are rounded up to 0; anything lower raises,
    naming the first failing row of the caller's stack.
    """
    check_same_shape(rho, sigma)
    overlap = np.abs(rho.eigenvectors.conj().swapaxes(1, 2) @ sigma.eigenvectors) ** 2
    values = _directed_entropies(
        np.concatenate([rho.eigenvalues, sigma.eigenvalues]),
        np.concatenate([sigma.eigenvalues, rho.eigenvalues]),
        np.concatenate([overlap, overlap.swapaxes(1, 2)])).reshape(2, -1)
    bad = values < -DEFAULT_TOLERANCES.entropy_floor
    if bad.any():
        rows = bad.any(axis=0)
        k = first_row(rows)
        raise NumericError(
            f"relative entropy evaluated to "
            f"{values[first_row(bad[:, k]), k].item()!r}{row_label(rows)}")
    return tuple(RelEntropyValue(v) for v in np.maximum(values, 0.0))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> RelEntropyValue:
    """Quantum relative entropy S(rho || sigma), natural log: the forward
    half of directed_entropy_pair."""
    return directed_entropy_pair(rho, sigma)[0]


def symmetric_average(forward: RelEntropyValue,
                      backward: RelEntropyValue) -> RelEntropyValue:
    """(S(rho||sigma) + S(sigma||rho)) / 2 (inf as soon as either
    direction is)."""
    return RelEntropyValue(0.5 * (forward.value + backward.value))


def symmetric_relative_entropy(rho: DensityMatrix,
                               sigma: DensityMatrix) -> RelEntropyValue:
    """Symmetrized relative entropy, the mean of the two directions.

    Infinite as soon as either direction is infinite, i.e. whenever the
    supports of the two states differ.
    """
    forward, backward = directed_entropy_pair(rho, sigma)
    return symmetric_average(forward, backward)


@batch_of_one
def trace_distance_norm(rho: DensityMatrix, sigma: DensityMatrix):
    """Trace norm ||rho - sigma||_1 (twice the trace distance); an array
    over the rows for two stacks of B states."""
    check_same_shape(rho, sigma)
    # the difference of two validated states is exactly Hermitian
    w = eigh(rho.matrix - sigma.matrix, checked=True).eigenvalues
    return np.abs(w).sum(axis=1)
