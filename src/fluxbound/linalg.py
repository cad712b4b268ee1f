"""Dense complex linear algebra for Hermitian operators of small dimension.

Everything downstream (states, fluxes, scenario runners) is built on the
handful of primitives in this module: a deterministic eigensolver for
Hermitian matrices, spectral application of scalar functions, tensor
products, partial traces, Schatten norms and expectation values.

require_hermitian, eigh, partial_trace and expectation take one (n, n)
matrix or a (B, n, n) stack.  Their bodies, like those of the stacked
functions of states and flux, handle stacks only: batch_of_one runs a
single input as a stack of one and returns its row 0, and errors name the
failing row of a stack of two or more.  unitary_from_generator takes one
time or a 1-D grid of T times and returns exp(-i t G) as (n, n) or
(T, n, n); it is the package's only matrix exponential, and
from_spectrum, V diag(x) V^dag for one matrix or a stack, its only rebuild.

The eigensolver is a Jacobi iteration with complex Givens rotations in
round-robin order (Brent & Luk, 1985): a sweep is a fixed sequence of
rounds, each a set of disjoint (p, q) pairs that are rotated together,
across the whole stack at once.  For the dimensions this library targets
(<= 16) it is simple, accurate to near machine precision and free of
LAPACK.  It is bit-for-bit reproducible: the schedule is fixed, every
step is elementwise, a reduction along one matrix or the product of one
matrix with its own rotation, and a matrix that has converged drops out
of the remaining sweeps, so no matrix's result depends on what else is
in its stack.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError, NumericError, ValidationError


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    eigenvalues: real, ascending along the last axis (ties keep the sweep
        order, the sort is stable).
    eigenvectors: unitary matrix whose k-th column is the eigenvector of
        eigenvalues[..., k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a square complex128 ndarray with finite entries."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def as_complex_stack(matrix) -> np.ndarray:
    """Coerce a stack of square matrices to a (B, n, n) complex128 array."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, "
                              f"got shape {shape_label(a)}")
    return a


def first_row(flags: np.ndarray) -> int:
    """Index of the first True entry of a boolean vector."""
    return int(np.argmax(flags))


def row_label(flags: np.ndarray) -> str:
    """' (row k of the stack)' for the first flagged row, for error
    messages; '' for a stack of one, which reads as a single input."""
    return "" if len(flags) == 1 else f" (row {first_row(flags)} of the stack)"


def shape_label(a: np.ndarray) -> tuple:
    """The shape of a stack for error messages, read as in row_label."""
    return a.shape[1:] if a.ndim == 3 and len(a) == 1 else a.shape


def take_row(record, index: int):
    """Row `index` of a stacked result: arrays lose their leading axis (a
    0-d remainder becomes a Python scalar), records are taken apart field
    by field, and other values, shared by all rows, pass through."""
    if isinstance(record, np.ndarray):
        return record.item(index) if record.ndim == 1 else record[index]
    return _map_fields(take_row, record, index)


def as_stack(record, rows: int = 1):
    """The inverse of take_row, `rows` identical rows: an array gains a
    leading axis (a view for one row), a Python scalar becomes an array,
    and records are lifted field by field."""
    if isinstance(record, np.ndarray):
        return record[None] if rows == 1 else np.repeat(record[None], rows, axis=0)
    if isinstance(record, (int, float)):
        return np.array([record] * rows)
    return _map_fields(as_stack, record, rows)


def _map_fields(function, record, argument):
    """function(value, argument) on every field of a dataclass, tuple or
    dict; other values pass through.  A dataclass is rebuilt without its
    __init__: a row of a checked stack needs no new check, nor a stack of
    a checked row."""
    if isinstance(record, dict):
        return {key: function(value, argument) for key, value in record.items()}
    if isinstance(record, tuple):
        values = [function(value, argument) for value in record]
        return type(record)(*values) if hasattr(record, "_fields") else tuple(values)
    if hasattr(record, "__dataclass_fields__"):
        out = object.__new__(type(record))
        out.__dict__.update({name: function(value, argument)
                             for name, value in vars(record).items()})
        return out
    return record


def as_array(operator) -> np.ndarray:
    """The matrix of an ndarray, of a record carrying one in .matrix, or of
    anything numpy can convert."""
    if isinstance(operator, np.ndarray):
        return operator
    m = getattr(operator, "matrix", None)
    if m is not None:
        return m
    return np.asarray(operator, dtype=np.complex128)


def _lift_argument(argument):
    """One argument of a single call as a stack of one: records field by
    field, other carriers of a matrix as their matrix; dimensions and
    names pass through."""
    if isinstance(argument, np.ndarray):
        return argument[None]
    if hasattr(argument, "__dataclass_fields__"):
        return as_stack(argument)
    if isinstance(argument, (list, tuple)) or hasattr(argument, "matrix"):
        return as_array(argument)[None]
    return argument


def batch_of_one(function):
    """Run a function written for stacks on a single input: a call whose
    first argument is one (n, n) matrix, or a record carrying one in
    .matrix, runs on its arguments lifted to stacks of one and returns
    row 0 of the result.  Any other call passes through."""
    @functools.wraps(function)
    def lifted(first, *args, **kwargs):
        if np.ndim(getattr(first, "matrix", first)) != 2:
            return function(first, *args, **kwargs)
        return take_row(function(_lift_argument(first),
                                 *map(_lift_argument, args), **kwargs), 0)
    return lifted


@batch_of_one
def require_hermitian(matrix) -> np.ndarray:
    """Validate finiteness and hermiticity of a matrix or a stack, and
    return the symmetrized (M + M^dag)/2 in the input's layout.

    One check covers the whole stack; the error names the first failing
    row of a stack.
    """
    a = as_complex_stack(matrix)
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a).all(axis=(1, 2))
        raise ValidationError(f"matrix has non-finite entries{row_label(bad)}")
    ah = a.conj().swapaxes(1, 2)
    defect = np.abs(a - ah)
    tolerance = DEFAULT_TOLERANCES.hermiticity
    if a.size and defect.max() > tolerance:
        defect = defect.max(axis=(1, 2))
        bad = defect > tolerance
        raise ValidationError(
            f"matrix is not Hermitian{row_label(bad)}: "
            f"max |M - M^dag| = {defect[first_row(bad)]:.3e} "
            f"exceeds {tolerance:.3e}"
        )
    # halves first: a + ah overflows for entries near the largest double
    return 0.5 * a + 0.5 * ah


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """The fixed rotation schedule for dimension n.

    Returns (identity, upper, rounds): the n x n identity; the (rows,
    cols) index arrays of the strict upper triangle; and a tuple of
    rounds, each the index arrays (p, q, zero_rows, zero_cols, rot_rows,
    rot_cols) of disjoint pairs p < q, the positions (p, q) and (q, p)
    that their rotations zero, and the positions (p, p), (q, q), (p, q),
    (q, p) of the rotation's entries.  The rounds cover every pair once
    (the circle method; an odd n plays against a dummy index that is
    dropped).  Built on first use of each n and kept.
    """
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted((min(a, b), max(a, b))
                       for a, b in zip(players[:m // 2], players[::-1])
                       if max(a, b) < n)
        players = [players[0], players[-1]] + players[1:-1]
        if not pairs:
            continue  # n = 1
        p, q = zip(*pairs)
        rounds.append(tuple(_frozen(side) for side in (p, q, p + q, q + p,
                                                       p + q + p + q,
                                                       p + q + q + p)))
    upper = tuple(_frozen(side) for side in np.triu_indices(n, 1))
    identity = np.eye(n, dtype=np.complex128)
    identity.setflags(write=False)
    return identity, upper, tuple(rounds)


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.setflags(write=False)
    return out


# relative size below which an off-diagonal entry is not rotated
_NEGLIGIBLE = 1e-290


def _upper_mass(a: np.ndarray, upper: tuple) -> np.ndarray:
    """Squared Frobenius norm of the strict upper triangle of each matrix
    of a stack: half the squared off-diagonal mass of a Hermitian matrix.

    Summed over the off-diagonal entries only; subtracting the diagonal
    mass from the total would cancel catastrophically once the iteration
    is nearly converged.
    """
    entries = np.ascontiguousarray(a[:, upper[0], upper[1]]).view(np.float64)
    return (entries * entries).sum(axis=1)


def _sweep(w: np.ndarray, diagonal: np.ndarray, identity: np.ndarray,
           rounds: tuple) -> None:
    """One sweep of round-robin rotations on a (b, 2n, n) work stack, in
    place.  Rows [:n] hold the matrices, rows [n:] accumulate the
    eigenvectors, and `diagonal` (b, n) holds the real diagonal: the
    entries on the diagonal of w are never read back, since no
    off-diagonal result depends on them.

    A round's rotations form one unitary J per matrix (the identity
    outside its pairs); [A; V] <- [A; V] J and then A <- J^dag A."""
    b, n = diagonal.shape
    a = w[:, :n]
    for p, q, zero_rows, zero_cols, rot_rows, rot_cols in rounds:
        k = len(p)
        apq = a[:, p, q]
        pair_diagonal = diagonal[:, zero_rows]
        app, aqq = pair_diagonal[:, :k], pair_diagonal[:, k:]
        mag = np.hypot(apq.real, apq.imag)
        diff = aqq - app
        # an entry this small next to the diagonal gap takes the identity
        # rotation: theta = diff / (2 mag) would overflow, and the update
        # it would make is below rounding
        live = mag > _NEGLIGIBLE * np.abs(diff)
        safe = np.where(live, mag, 1.0)
        theta = diff / (2.0 * safe)
        # smaller-magnitude root of t^2 + 2 theta t - 1 = 0
        t = live * (np.copysign(1.0, theta)
                    / (np.abs(theta) + np.hypot(theta, 1.0)))
        c = 1.0 / np.hypot(t, 1.0)
        s = (t * c / safe) * apq
        shift = t * mag
        rotation = np.repeat(identity[None], b, axis=0)
        rotation[:, rot_rows, rot_cols] = np.concatenate((c, c, s, -s.conj()), axis=1)
        np.matmul(w, rotation, out=w)
        np.matmul(rotation.conj().swapaxes(1, 2), a, out=a)
        # the rotation zeroes (p,q) exactly in exact arithmetic; enforce it
        a[:, zero_rows, zero_cols] = 0.0
        app -= shift
        aqq += shift
        diagonal[:, zero_rows] = pair_diagonal


def _sorted_spectrum(values: np.ndarray, vectors: np.ndarray) -> Spectrum:
    order = np.argsort(values, axis=1, kind="stable")
    rows = np.arange(len(values))[:, None]
    return Spectrum(values[rows, order],
                    vectors.swapaxes(1, 2)[rows, order].swapaxes(1, 2))


@batch_of_one
def eigh(matrix, *, checked: bool = False) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix or a (B, n, n) stack.

    Rotates the pairs of the round-robin schedule, sweep after sweep,
    until each matrix's off-diagonal Frobenius mass falls below
    jacobi_offdiag * ||H||_F; a matrix that meets the criterion at the
    start of a sweep takes no further rotation.  Raises NumericError,
    naming the first such row of a stack, if a matrix has not converged
    after jacobi_max_sweeps sweeps (it converges in well under ten sweeps
    for dim <= 16 in practice), and ValidationError if ||H||_F^2 overflows
    (entries beyond about 1e154).  checked=True skips the input validation
    for a stack that already went through require_hermitian.
    """
    a = as_complex_stack(matrix) if checked else require_hermitian(matrix)
    b, n = a.shape[0], a.shape[-1]
    diagonal = a.diagonal(axis1=1, axis2=2)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        # no off-diagonal entry anywhere: no work array, no rotation
        order = np.argsort(diagonal.real, axis=1, kind="stable")
        return Spectrum(diagonal.real[np.arange(b)[:, None], order],
                        _round_robin(n)[0][order].swapaxes(1, 2))
    identity, upper, rounds = _round_robin(n)
    diagonal = diagonal.real.copy()
    with np.errstate(over="ignore"):
        mass = _upper_mass(a, upper)
        norm_sq = (diagonal * diagonal).sum(axis=1) + 2.0 * mass
    # an infinite threshold would pass any matrix as converged
    huge = ~np.isfinite(norm_sq)
    if huge.any():
        raise ValidationError(f"matrix entries too large for the eigensolver"
                              f"{row_label(huge)}: ||H||_F^2 overflows")
    # the criterion mass <= jacobi_offdiag * ||H||_F, squared and halved
    threshold = 0.5 * DEFAULT_TOLERANCES.jacobi_offdiag ** 2 * norm_sq
    w = np.empty((b, 2 * n, n), dtype=np.complex128)
    w[:, :n] = a
    w[:, n:] = identity
    for _ in range(DEFAULT_TOLERANCES.jacobi_max_sweeps):
        active = mass > threshold
        count = np.count_nonzero(active)
        if count == 0:
            break
        if count == b:
            _sweep(w, diagonal, identity, rounds)
            mass = _upper_mass(w, upper)
        else:
            rows = np.flatnonzero(active)
            part, part_diagonal = w[rows], diagonal[rows]
            _sweep(part, part_diagonal, identity, rounds)
            w[rows] = part
            diagonal[rows] = part_diagonal
            mass[rows] = _upper_mass(part, upper)
    else:
        failed = mass > threshold
        if failed.any():
            residual = math.sqrt(2.0 * mass[first_row(failed)])
            raise NumericError(
                f"Jacobi eigensolver did not converge in "
                f"{DEFAULT_TOLERANCES.jacobi_max_sweeps} sweeps"
                f"{row_label(failed)} (dim {n}, residual {residual:.3e})"
            )
    return _sorted_spectrum(diagonal, w[:, n:])


def matrix_function(matrix, fn: Callable[[float], complex]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns V diag(fn(w)) V^dag.  Raises DomainError, carrying the
    offending eigenvalue, if fn raises or returns a non-finite value at
    any eigenvalue (for example log at a zero eigenvalue).
    """
    spec = eigh(matrix)
    fvals = np.empty(spec.eigenvalues.shape, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for k, w in enumerate(spec.eigenvalues):
            try:
                y = complex(fn(float(w)))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(
                    f"scalar function undefined at eigenvalue {w!r}: {exc}",
                    offending_value=float(w),
                ) from exc
            if not (math.isfinite(y.real) and math.isfinite(y.imag)):
                raise DomainError(
                    f"scalar function non-finite at eigenvalue {w!r}",
                    offending_value=float(w),
                )
            fvals[k] = y
    return from_spectrum(spec.eigenvectors, fvals)


def from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(x) V^dag from eigenvector columns V and values x, for one
    matrix or a stack; leading axes broadcast."""
    return (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def unitary_from_generator(generator, t=1.0) -> np.ndarray:
    """exp(-i t G) for Hermitian G, through the spectrum of G.

    t is a time or a 1-D array of T times; the result is (n, n) or a
    (T, n, n) stack, from one eigendecomposition of G.  generator may also
    be G's Spectrum, so that a grid taken in blocks decomposes G once.
    Each unitary is V diag(exp(-i t w)) V^dag, elementwise in t, so it
    does not depend on the other times.
    """
    spec = generator if isinstance(generator, Spectrum) else eigh(generator)
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1:
        raise ValidationError(f"times must be a scalar or 1-D, got shape {times.shape}")
    with np.errstate(all="ignore"):
        phases = np.exp(-1j * spec.eigenvalues * times[..., None])
    # a time t with t * w not finite at an eigenvalue w gives a NaN phase
    if not np.isfinite(phases).all():
        raise DomainError("exp(-i t G) needs every t * eigenvalue of G finite")
    return from_spectrum(spec.eigenvectors, phases)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product (first factor varies slowest)."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


@batch_of_one
def partial_trace(matrix, dim_system: int, dim_environment: int,
                  keep: str = "system") -> np.ndarray:
    """Trace out one tensor factor of a (dim_system * dim_environment)
    square matrix, or of each matrix of a (B, n, n) stack.

    keep selects the surviving factor, "system" (first) or "environment"
    (second).  The basis ordering is system-major: joint index
    i = i_system * dim_environment + i_environment.  The result has the
    input's layout, (d, d) or (B, d, d); errors name the first failing row
    of a stack.
    """
    a = as_complex_stack(matrix)
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(f"matrix has non-finite entries{row_label(~finite)}")
    if dim_system < 1 or dim_environment < 1:
        raise ValidationError("tensor factor dimensions must be positive")
    if a.shape[-1] != dim_system * dim_environment:
        raise ValidationError(
            f"matrix of dim {a.shape[-1]} is not compatible with factors "
            f"{dim_system} x {dim_environment}"
        )
    blocks = a.reshape(-1, dim_system, dim_environment, dim_system, dim_environment)
    if keep == "system":
        reduced = np.einsum("bikjk->bij", blocks)
    elif keep == "environment":
        reduced = np.einsum("bkikj->bij", blocks)
    else:
        raise ValidationError(f"keep must be 'system' or 'environment', got {keep!r}")
    defect = np.abs(np.trace(reduced, axis1=1, axis2=2) - np.trace(a, axis1=1, axis2=2))
    bad = defect > DEFAULT_TOLERANCES.trace_preservation
    if bad.any():
        raise NumericError(f"partial trace changed the trace by "
                           f"{defect[first_row(bad)]:.3e}{row_label(bad)}")
    return reduced


def schatten_norm(matrix, k) -> float:
    """Schatten k-norm of a Hermitian matrix, k in {1, 2, inf}.

    Computed from the eigenvalues: sum |w| for k = 1, sqrt(sum w^2) for
    k = 2, max |w| for k = inf.
    """
    w = eigh(matrix).eigenvalues
    if k == 1:
        return float(np.sum(np.abs(w)))
    if k == 2:
        return float(math.sqrt(np.sum(w * w)))
    if k == math.inf:
        return float(np.max(np.abs(w))) if w.size else 0.0
    raise ValidationError(f"Schatten order must be 1, 2 or inf, got {k!r}")


@batch_of_one
def expectation(operator, state):
    """tr(H rho) for Hermitian H, or for each pair of two (B, n, n) stacks
    (an array over the rows); the imaginary part must be rounding noise.
    Each trace is one sum along its own matrix, so it does not depend on
    the stack."""
    h = as_complex_stack(as_array(operator))
    r = as_complex_stack(as_array(state))
    if h.shape != r.shape:
        raise ValidationError(f"shape mismatch {h.shape} vs {r.shape}")
    b, n = h.shape[0], h.shape[-1]
    values = (h * r.swapaxes(1, 2)).reshape(b, n * n).sum(axis=1)
    bad = np.abs(values.imag) > DEFAULT_TOLERANCES.imaginary_part
    if bad.any():
        raise NumericError(
            f"expectation of a Hermitian operator has imaginary part "
            f"{values.imag[first_row(bad)]:.3e}{row_label(bad)}"
        )
    return values.real
