"""Dense complex linear algebra for Hermitian operators of small dimension.

Everything downstream (states, fluxes, scenario runners) is built on the
handful of primitives in this module: a deterministic eigensolver for
Hermitian matrices, spectral rebuilds and exponentials, tensor
products, partial traces and expectation values.

require_hermitian, eigh, partial_trace and expectation take one (n, n)
matrix or a (B, n, n) stack.  Their bodies, like those of the stacked
functions of states, flux and thermo, handle stacks only: batch_of_one
runs a single input as a stack of one and returns its row 0, and errors
name the failing row of a stack of two or more.  as_complex_stack and
as_real are the one coercers of a matrix and of a real operand, and
require_shape the one rule that operands share a shape; their errors
name the operand.  tensor_product, partial_trace and expectation refuse
a result that overflows.  tensor_product takes two matrices or two
stacks, and a single factor broadcasts against a stack; product_spectrum
gives a tensor product's spectrum from its factors', with no eigensolve.
unitary_from_generator takes one generator with one time or a 1-D grid
of T times, or a (B, n, n) stack of generators with one time, and
returns exp(-i t G) as (n, n), (T, n, n) or (B, n, n); it is the
package's only matrix exponential, and from_spectrum, V diag(x) V^dag
for one matrix or a stack, its only rebuild.  take_row is row k, or a
slice of rows, of a stacked result, put_rows writes rows back into one,
and in_blocks fills one from blocks of config.BLOCK_ROWS rows.

The eigensolver is a Jacobi iteration with complex Givens rotations in
round-robin order (Brent & Luk, 1985): a sweep is a fixed sequence of
rounds, each a set of disjoint pairs that are rotated together, across
the whole stack at once.  Each matrix is scaled by a power of two and
held in slot order, a round's pair j in slots 2j and 2j + 1, and each
round's rotation carries the fixed move of the slots to the next round.
The rotation is applied as real products: it is built as its real
embedding, each complex entry x + iy a 2 x 2 block [[x, y], [-y, x]],
which right-multiplies the float64 view of a complex matrix, since numpy's
stacked float64 products cost a fraction of its complex ones.
For the dimensions this library targets (<= 16) it is simple, accurate to
near machine precision and free of LAPACK.  It is bit-for-bit
reproducible: the schedule is fixed, every step is elementwise, a
reduction along one matrix or the product of one matrix with its own
rotation, and a matrix that has converged drops out of the remaining
sweeps, so no matrix's result depends on what else is in its stack.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import BLOCK_ROWS, DEFAULT_TOLERANCES
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


def as_complex_stack(matrix, name: str) -> np.ndarray:
    """Operand `name` (a square matrix, a (B, n, n) stack or a record with
    one in .matrix) as complex128 in its layout; _require_finite checks entries."""
    a = _numbers(getattr(matrix, "matrix", matrix), np.complex128,
                 f"{name} must be a matrix of numbers or a stack of them")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"{name} must be a square matrix or a stack of "
                              f"them, got shape {shape_label(a)}")
    return a


def as_real(value, name: str) -> np.ndarray:
    """Real operand `name` as float64 in its shape; anything else raises, naming it."""
    return _numbers(value, np.float64,
                    f"{name} must be a real number or an array of them")


def _numbers(value, dtype, message: str) -> np.ndarray:
    """value as an array of dtype, if numpy casts its numbers there within
    their kind; a string, a ragged nesting or objects raise ValidationError(message)."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        a = None
    if a is None or not np.can_cast(a.dtype, dtype, "same_kind"):
        raise ValidationError(message)
    return a.astype(dtype, copy=False)


def _require_finite(a: np.ndarray, name: str) -> np.ndarray:
    """One matrix or a (B, n, n) stack, checked for non-finite entries;
    the error names the operand and the first failing row of a stack."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = np.atleast_1d(~finite.all(axis=(-2, -1)))
        raise ValidationError(f"{name} has non-finite entries{row_label(bad)}")
    return a


def require_shape(name: str, matrix: np.ndarray, **operands) -> None:
    """Each keyword operand must have the shape of `matrix`; the error names
    the first that does not, `name` and both shapes, as shape_label reads them."""
    for label, operand in operands.items():
        if operand.shape != matrix.shape:
            raise ValidationError(f"{label} has shape {shape_label(operand)}, "
                                  f"{name} {shape_label(matrix)}")


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


def take_row(record, index):
    """Row `index` of a stacked result, or the rows of a slice: arrays are
    indexed along their leading axis (a row's 0-d remainder becomes a
    Python scalar), records are taken apart field by field, and other
    values, shared by all rows, pass through."""
    if isinstance(record, np.ndarray):
        single = record.ndim == 1 and not isinstance(index, slice)
        return record.item(index) if single else record[index]
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


def in_blocks(evaluate, count: int) -> tuple:
    """Records of `count` rows, BLOCK_ROWS rows at a time: evaluate(first,
    stop), called for each block in order, returns a tuple of dataclasses
    whose fields are arrays over rows first to stop - 1, and each block is
    copied into records allocated from the first block's; a count below 1
    raises ValidationError."""
    if count < 1:
        raise ValidationError(f"in_blocks needs at least one row, "
                              f"got a count of {count}")
    for first in range(0, count, BLOCK_ROWS):
        stop = min(first + BLOCK_ROWS, count)
        block = evaluate(first, stop)
        if first == 0:
            stacks = tuple(_map_fields(lambda rows, n: np.empty(
                (n, *rows.shape[1:]), rows.dtype), part, count) for part in block)
        put_rows(stacks, slice(first, stop), block)
    return stacks


def put_rows(record, index, rows) -> None:
    """Write a stacked result into rows `index` (a slice or an index
    array) of a record of the same structure, in place: arrays row by
    row, records field by field, at any depth; other values, shared by
    all rows, are left as they are."""
    if isinstance(record, np.ndarray):
        record[index] = rows
    elif isinstance(record, dict):
        for key, value in record.items():
            put_rows(value, index, rows[key])
    elif isinstance(record, tuple):
        for value, part in zip(record, rows):
            put_rows(value, index, part)
    elif hasattr(record, "__dataclass_fields__"):
        for name, value in vars(record).items():
            put_rows(value, index, getattr(rows, name))


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


def _is_single(argument) -> bool:
    """Whether an argument is one (n, n) matrix, a record carrying one in
    .matrix, or a record of such records whose first field is single."""
    matrix = getattr(argument, "matrix", None)
    if matrix is None and hasattr(argument, "__dataclass_fields__"):
        return _is_single(next(iter(vars(argument).values()), None))
    try:
        return np.ndim(argument if matrix is None else matrix) == 2
    except ValueError:  # a ragged nesting, which the function refuses by name
        return False


def _lift_argument(argument):
    """One argument of a single call as a stack of one: a single matrix
    (_is_single) gains a leading axis, a record field by field; stacks,
    dimensions and names pass through."""
    if not _is_single(argument):
        return argument
    if hasattr(argument, "__dataclass_fields__"):
        return as_stack(argument)
    return np.asarray(getattr(argument, "matrix", argument))[None]


def batch_of_one(function):
    """Run a function written for stacks on a single input: a call whose
    first argument is single (_is_single: one (n, n) matrix, a record
    carrying one in .matrix, or a scenario of such records) runs on its
    arguments lifted to stacks of one and returns row 0 of the result.
    Any other call passes through."""
    @functools.wraps(function)
    def lifted(first, *args, **kwargs):
        if not _is_single(first):
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
    a = _require_finite(as_complex_stack(matrix, "matrix"), "matrix")
    # halves first: a + ah and a - ah overflow for entries near the largest
    # double, and the halved defect is |M - M^dag| / 2 bit for bit above the
    # subnormals
    half, half_ah = 0.5 * a, 0.5 * a.conj().swapaxes(1, 2)
    half_defect = np.abs(half - half_ah)
    tolerance = DEFAULT_TOLERANCES.hermiticity
    if a.size and half_defect.max() > tolerance / 2:
        half_defect = half_defect.max(axis=(1, 2))
        bad = half_defect > tolerance / 2
        # doubled as a Python float, which overflows to inf without a warning
        defect = 2.0 * float(half_defect[first_row(bad)])
        raise ValidationError(
            f"matrix is not Hermitian{row_label(bad)}: "
            f"max |M - M^dag| = {defect:.3e} exceeds {tolerance:.3e}"
        )
    return half + half_ah


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """The rotation schedule for dimension n in slot order, built once.

    The m = n + n % 2 indices (an odd n adds a zero index, whose rotations
    are the identity) play the circle method: in each of a sweep's m - 1
    rounds slots 2j and 2j + 1 hold pair j, every pair meets once, and the
    index in slot sigma[i] moves to slot i between rounds.  Returns m, the
    slot of each index at a sweep's start, the flat slot-order positions of
    an n x n matrix's entries, sigma, rotation_at and the flat positions of
    the strict upper triangle.  rotation_at gives, for each column of
    (c, c, s, -s) -- c for the even rows and then the odd ones, s and -s as
    float views, real and imaginary part per pair -- the two flat positions
    it takes in the real (2m, 2m) embedding of J P (rotation J, move P), in
    which a complex entry x + iy is the block [[x, y], [-y, x]] and J's
    pair block [[c, s], [-s^*, c]] lands at J P's entries (r, sigma.index(r')).
    """
    m = n + n % 2
    slots = [index for j in range(m // 2) for index in (j, m - 1 - j)]
    after = [0, m - 1] + list(range(1, m - 1))  # the circle turns by one
    sigma = [slots.index(after[index]) for index in slots]
    slot_of = [slots.index(index) for index in range(n)]

    def at(r, flip):  # J's entry (r, r ^ flip) as J P's block, in 2m x 2m
        return 4 * m * r + 2 * sigma.index(r ^ flip)

    # a block [[x, y], [-y, x]] holds x at its flat position p and at
    # p + 2m + 1, y at p + 1 and -y at p + 2m; s sits in the even row of a
    # pair and -s^* = -Re s + i Im s in the odd one
    pairs = [(at(r, 1), at(r + 1, 1)) for r in range(0, m, 2)]
    cosines = [[at(r, 0), at(r, 0) + 2 * m + 1]
               for r in (*range(0, m, 2), *range(1, m, 2))]
    sines = [place for p, q in pairs for place in ([p, p + 2 * m + 1], [p + 1, q + 1])]
    negated = [place for p, q in pairs
               for place in ([q, q + 2 * m + 1], [p + 2 * m, q + 2 * m])]
    return (m, *map(_frozen, (
        slot_of, [i * m + k for i in slot_of for k in slot_of], sigma,
        cosines + sines + negated,
        [i * m + k for i in range(m) for k in range(i + 1, m)])))


def _frozen(values) -> np.ndarray:
    out = np.array(values)
    out.setflags(write=False)
    return out


# the smallest normal double, the floor of a rotation's denominator
_TINY = np.finfo(np.float64).tiny


def _upper_mass(w: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of the strict upper triangle of each matrix
    of a work stack: half the squared off-diagonal mass of a Hermitian
    matrix.

    Summed over the off-diagonal entries only; subtracting the diagonal
    mass from the total would cancel catastrophically once the iteration
    is nearly converged.
    """
    entries = np.take(w.reshape(len(w), -1), upper, axis=1).view(np.float64)
    return (entries * entries).sum(axis=1)


def _sweep(w: np.ndarray, diagonal: np.ndarray, sigma: np.ndarray,
           rotation_at: np.ndarray) -> None:
    """One sweep, in place, on a contiguous (b, 2m, m) work stack in slot
    order: rows [:m] hold the matrices, rows [m:] the eigenvectors and
    `diagonal` (b, m) the real diagonal, since no off-diagonal result reads
    w's own.  A round's rotation J, a 2 x 2 block per slot pair, and the
    move P to the next round's slots act at once, as real products: J P is
    built as its real (2m, 2m) embedding, each complex entry x + iy the
    block [[x, y], [-y, x]], which right-multiplies the float64 view of a
    complex stack.  [A; V] <- [A; V] J P, and then A <- C^dag (J P) with C
    the new A, the Hermitian (J P)^dag A (J P), from a conjugate-transposed
    copy of C.  a_pq is a strided view of w and app, aqq are the even and
    odd slots of the diagonal."""
    b, m = diagonal.shape
    a = w[:, :m]
    apq = w.reshape(b, -1)[:, 1:m * m:2 * m + 2]
    app, aqq = diagonal[:, 0::2], diagonal[:, 1::2]
    # real views of whole contiguous arrays, sliced afterwards
    w_parts = w.view(np.float64)
    a_parts = w_parts[:, :m]
    adjoint = np.empty((b, m, m), dtype=np.complex128)
    adjoint_parts = adjoint.view(np.float64)
    rotation = np.zeros((b, 2 * m, 2 * m))
    entries = rotation.reshape(b, 4 * m * m)
    for _ in range(m - 1):
        mag = np.hypot(apq.real, apq.imag)
        diff = aqq - app
        # t, the smaller-magnitude root of t^2 + 2 theta t - 1 = 0 with
        # theta = diff / (2 mag), as 2 mag sign(diff) / (|diff| +
        # hypot(diff, 2 mag)), which cannot overflow; the floor keeps the
        # pair mag = diff = 0 from dividing 0 by 0
        denominator = np.abs(diff) + np.hypot(diff, mag + mag)
        ratio = np.copysign(2.0, diff) / np.maximum(denominator, _TINY)
        t = ratio * mag
        c = 1.0 / np.hypot(t, 1.0)
        s = ((c * ratio) * apq).view(np.float64)
        shift = t * mag
        entries[:, rotation_at] = np.concatenate(
            (c, c, s, np.negative(s)), axis=1)[:, :, None]
        np.matmul(w_parts, rotation, out=w_parts)
        np.conjugate(a.swapaxes(1, 2), out=adjoint)
        np.matmul(adjoint_parts, rotation, out=a_parts)
        app -= shift
        aqq += shift
        np.take(diagonal, sigma, axis=1, out=diagonal)  # 'raise' mode buffers out


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
    a = as_complex_stack(matrix, "matrix") if checked else require_hermitian(matrix)
    b, n = a.shape[0], a.shape[-1]
    diagonal = a.diagonal(axis1=1, axis2=2)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        # no off-diagonal entry anywhere: no work array, no rotation
        return _sorted_spectrum(diagonal.real, np.repeat(
            np.eye(n, dtype=np.complex128)[None], b, axis=0))
    m, slot_of, place, sigma, rotation_at, upper = _round_robin(n)
    # each matrix times 2^-exponent, which brings its largest real or
    # imaginary part into [0.5, 1): the squares summed below then neither
    # underflow nor overflow (numpy takes the maximum faster along axis 0)
    parts = a.reshape(b, n * n).view(np.float64)
    exponent = np.frexp(np.abs(parts.T, order="C").max(axis=0))[1]
    w = np.zeros((b, 2 * m, m), dtype=np.complex128)
    flat = w.reshape(b, 2 * m * m)
    flat[:, place] = np.ldexp(parts, -exponent[:, None]).view(np.complex128)
    flat[:, m * m::m + 1] = 1.0  # the eigenvectors start as the identity
    diagonal = flat[:, :m * m:m + 1].real.copy()
    mass = _upper_mass(w, upper)
    norm_sq = (diagonal * diagonal).sum(axis=1) + 2.0 * mass
    # reject an infinite ||H||_F^2 = norm_sq 4^exponent, which would pass any
    # matrix as converged (in floats: int32 loops add 0.2 MB of peak memory)
    huge = np.frexp(norm_sq)[1] + 2.0 * exponent > 1024
    if huge.any():
        raise ValidationError(f"matrix entries too large for the eigensolver"
                              f"{row_label(huge)}: ||H||_F^2 overflows")
    # the criterion mass <= jacobi_offdiag * ||H||_F, squared and halved
    threshold = 0.5 * DEFAULT_TOLERANCES.jacobi_offdiag ** 2 * norm_sq
    for _ in range(DEFAULT_TOLERANCES.jacobi_max_sweeps):
        active = mass > threshold
        count = np.count_nonzero(active)
        if count == 0:
            break
        if count == b:
            _sweep(w, diagonal, sigma, rotation_at)
            mass = _upper_mass(w, upper)
        else:
            rows = np.flatnonzero(active)
            part, part_diagonal = w[rows], diagonal[rows]
            _sweep(part, part_diagonal, sigma, rotation_at)
            w[rows] = part
            diagonal[rows] = part_diagonal
            mass[rows] = _upper_mass(part, upper)
    else:
        failed = mass > threshold
        if failed.any():
            row = first_row(failed)
            residual = math.ldexp(math.sqrt(2.0 * mass[row]), int(exponent[row]))
            raise NumericError(
                f"Jacobi eigensolver did not converge in "
                f"{DEFAULT_TOLERANCES.jacobi_max_sweeps} sweeps"
                f"{row_label(failed)} (dim {n}, residual {residual:.3e})"
            )
    # back to index order before the stable sort, without the zero index
    return _sorted_spectrum(np.ldexp(diagonal[:, slot_of], exponent[:, None]),
                            w[:, m + slot_of[:, None], slot_of])


def product_spectrum(first, second) -> Spectrum:
    """The spectrum of the tensor product of two Hermitian matrices, or of
    two stacks row by row, from the factors' (Spectrum records, states or
    observables), with no eigensolve: the products of the eigenvalues,
    stably sorted, so ties keep Kronecker order, and the Kronecker
    products of the eigenvectors."""
    values = first.eigenvalues[..., :, None] * second.eigenvalues[..., None, :]
    values = values.reshape(*values.shape[:-2], -1)
    order = np.argsort(values, axis=-1, kind="stable")
    vectors = tensor_product(first.eigenvectors, second.eigenvectors)
    return Spectrum(np.take_along_axis(values, order, axis=-1),
                    np.take_along_axis(vectors, order[..., None, :], axis=-1))


def from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(x) V^dag from eigenvector columns V and values x, for one
    matrix or a stack; leading axes broadcast."""
    return (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def unitary_from_generator(generator, t=1.0) -> np.ndarray:
    """exp(-i t G) for Hermitian G, through the spectrum of G.

    t is a time or a 1-D array of T times; the result is (n, n) or a
    (T, n, n) stack, from one eigendecomposition of G.  generator may also
    be G's Spectrum, so that a grid taken in blocks decomposes G once, or
    a (B, n, n) stack of generators, all taken at the one time t, which
    gives a (B, n, n) stack.  Each unitary is V diag(exp(-i t w)) V^dag,
    elementwise in t, so it does not depend on the other times or rows.
    """
    spec = generator if isinstance(generator, Spectrum) else eigh(generator)
    times = as_real(t, "times")
    if times.ndim > 1:
        raise ValidationError(f"times must be a scalar or 1-D, got shape {times.shape}")
    if times.ndim == 1 and spec.eigenvalues.ndim > 1:
        raise ValidationError("a stack of generators takes a single time")
    with np.errstate(all="ignore"):
        phases = np.exp(-1j * spec.eigenvalues * times[..., None])
    # a time t with t * w not finite at an eigenvalue w gives a NaN phase
    if not np.isfinite(phases).all():
        raise DomainError("exp(-i t G) needs every t * eigenvalue of G finite")
    return from_spectrum(spec.eigenvectors, phases)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product (first factor varies slowest) of two matrices, or
    row by row of a (B, m, m) and a (B, n, n) stack; a single factor
    broadcasts against a stack.  Each entry is the one product
    a[i, j] * b[k, l], as in np.kron; an entry that overflows raises."""
    a = _require_finite(as_complex_stack(a, "first factor"), "first factor")
    b = _require_finite(as_complex_stack(b, "second factor"), "second factor")
    if a.ndim == b.ndim == 3 and len(a) != len(b):
        raise ValidationError(f"tensor factors are stacks of {len(a)} and "
                              f"{len(b)} matrices")
    m, n = a.shape[-1], b.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        product = a[..., :, None, :, None] * b[..., None, :, None, :]
    product = product.reshape(product.shape[:-4] + (m * n, m * n))
    if not np.isfinite(product).all():
        bad = np.atleast_1d(~np.isfinite(product).all(axis=(-2, -1)))
        raise NumericError(f"tensor product overflows{row_label(bad)}")
    return product


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
    a = _require_finite(as_complex_stack(matrix, "matrix"), "matrix")
    if dim_system < 1 or dim_environment < 1:
        raise ValidationError("tensor factor dimensions must be positive")
    if a.shape[-1] != dim_system * dim_environment:
        raise ValidationError(
            f"matrix of dim {a.shape[-1]} is not compatible with factors "
            f"{dim_system} x {dim_environment}"
        )
    blocks = a.reshape(-1, dim_system, dim_environment, dim_system, dim_environment)
    if keep not in ("system", "environment"):
        raise ValidationError(f"keep must be 'system' or 'environment', got {keep!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = np.einsum("bikjk->bij" if keep == "system" else "bkikj->bij", blocks)
        defect = np.abs(reduced.trace(axis1=1, axis2=2) - a.trace(axis1=1, axis2=2))
    finite = np.isfinite(defect)  # an overflow leaves an inf trace or a NaN defect
    if not (finite.all() and np.isfinite(reduced).all()):
        bad = ~(finite & np.isfinite(reduced).all(axis=(1, 2)))
        raise NumericError(f"partial trace overflows{row_label(bad)}")
    bad = ~(defect <= DEFAULT_TOLERANCES.trace_preservation)  # True for NaN
    if bad.any():
        raise NumericError(f"partial trace changed the trace by "
                           f"{defect[first_row(bad)]:.3e}{row_label(bad)}")
    return reduced


@batch_of_one
def expectation(operator, state):
    """tr(H rho) for Hermitian H, or for each pair of two (B, n, n) stacks
    (an array over the rows); the entries must be finite and the imaginary
    part rounding noise, and a trace that overflows raises.  Each trace is
    one sum along its own matrix, so it does not depend on the stack."""
    h, r = as_complex_stack(operator, "operator"), as_complex_stack(state, "state")
    require_shape("operator", h, state=r)
    b, n = h.shape[0], h.shape[-1]
    # a NaN or inf entry makes its term non-finite (inf * 0 is NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (h * r.swapaxes(1, 2)).reshape(b, n * n).sum(axis=1)
    if not np.isfinite(values).all():
        _require_finite(h, "operator")
        _require_finite(r, "state")
        raise NumericError(f"expectation overflows{row_label(~np.isfinite(values))}")
    ok = np.abs(values.imag) <= DEFAULT_TOLERANCES.imaginary_part
    if not ok.all():
        raise NumericError(f"expectation of a Hermitian operator has imaginary part "
                           f"{values.imag[first_row(~ok)]:.3e}{row_label(~ok)}")
    return values.real
