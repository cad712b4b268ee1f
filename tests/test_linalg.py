"""Eigensolver and matrix utilities against numpy/scipy references."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxbound.linalg as linalg_module
from conftest import (SMALL_BLOCK_ROWS, random_hermitian_np,
                      reference_partial_trace, rng_for)
from fluxbound import (eigh, expectation, make_observable, optimal_shift_check,
                       partial_trace, saturating_family, tensor_product,
                       thermal_environment, unitary_from_generator,
                       validate_state)
from fluxbound.errors import (DomainError, FluxboundError, NumericError,
                              ValidationError)
from fluxbound.linalg import (as_complex_stack, from_spectrum, in_blocks,
                              require_hermitian)
from fluxbound.montecarlo import qubit_matrices


def test_eigh_sorts_a_diagonal_matrix():
    spec = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=0.0)
    # eigenvectors are signed permutation columns
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - np.diag([3.0, 1.0, 2.0]))) == 0.0


def test_eigh_identity_spectrum():
    spec = eigh(np.eye(2))
    assert np.array_equal(spec.eigenvalues, [1.0, 1.0])


def test_eigh_two_level_flip():
    # [[0, 1], [1, 0]] has eigenvalues -1, +1 with (|0> -+ |1>) / sqrt 2
    spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-15)
    minus = spec.eigenvectors[:, 0]
    assert abs(abs(minus[0]) - 1.0 / math.sqrt(2.0)) < 1e-14
    assert abs(minus[0] + minus[1]) < 1e-14


def test_eigh_complex_two_level():
    # [[1, i], [-i, 1]] = I + (second Pauli), eigenvalues 0 and 2
    spec = eigh(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-14)


def test_eigh_dim_one():
    spec = eigh(np.array([[4.2]]))
    assert spec.eigenvalues[0] == 4.2
    assert spec.eigenvectors[0, 0] == 1.0


@pytest.mark.parametrize("dim", range(2, 17))
def test_eigh_matches_lapack_reference(dim):
    matrices, spectra = [], []
    for k in range(10):
        rng = rng_for(100 * dim + k, stream=101)
        h = random_hermitian_np(rng, dim)
        spec = eigh(h)
        scale = max(1.0, float(np.max(np.abs(spec.eigenvalues))))
        # ascending order
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        # reconstruction and unitarity
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        # eigenvalue agreement with the LAPACK route
        reference = np.linalg.eigvalsh(h)
        assert np.max(np.abs(spec.eigenvalues - reference)) <= 1e-10 * scale
        matrices.append(h)
        spectra.append(spec)
    # the same matrices as one stack, with a diagonal one mixed in: every
    # row equals its own solve bit for bit
    matrices.insert(3, np.diag(np.arange(dim, 0, -1.0)))
    spectra.insert(3, eigh(matrices[3]))
    stacked = eigh(np.stack(matrices))
    assert stacked.eigenvalues.shape == (11, dim)
    assert stacked.eigenvectors.shape == (11, dim, dim)
    for row, spec in enumerate(spectra):
        assert np.array_equal(stacked.eigenvalues[row], spec.eigenvalues)
        assert np.array_equal(stacked.eigenvectors[row], spec.eigenvectors)


# the most sweeps any of the ten matrices of test_eigh_matches_lapack_reference
# needs at each dimension, measured on the round-robin kernel; a kernel that
# needs more sweeps converges more slowly
SWEEPS_NEEDED = {2: 1, 3: 4, 4: 4, 5: 4, 6: 5, 7: 6, 8: 5, 9: 6, 10: 6,
                 11: 6, 12: 6, 13: 6, 14: 7, 15: 7, 16: 7}


@pytest.mark.parametrize("dim", range(2, 17))
def test_eigh_converges_within_the_measured_sweeps(dim, monkeypatch):
    monkeypatch.setattr(linalg_module, "DEFAULT_TOLERANCES",
                        replace(linalg_module.DEFAULT_TOLERANCES,
                                jacobi_max_sweeps=SWEEPS_NEEDED[dim]))
    matrices = [random_hermitian_np(rng_for(100 * dim + k, stream=101), dim)
                for k in range(10)]
    for h in matrices:
        eigh(h)
    eigh(np.stack(matrices))


def test_eigh_reconstruction_invariant_sweep():
    # at least a thousand matrices spread over every supported dimension
    count = 0
    for dim in range(2, 17):
        for k in range(67):
            rng = rng_for(1000 * dim + k, stream=107)
            h = random_hermitian_np(rng, dim)
            spec = eigh(h)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - h)) <= 1e-10
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
            count += 1
    assert count >= 1000


def test_eigh_degenerate_spectrum():
    # doubly degenerate eigenvalue 1 plus an isolated 3
    v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    h = np.eye(3) + 2.0 * np.outer(v, v)
    spec = eigh(h)
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 3.0], atol=1e-12)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - h)) <= 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan)])
def test_non_finite_matrices_are_rejected(bad):
    # a NaN compares false against the hermiticity tolerance, so only an
    # explicit check names it, before any sweep runs
    m = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError, match="non-finite"):
        eigh(m)
    with pytest.raises(ValidationError, match="non-finite"):
        require_hermitian(m)
    stack = np.stack([np.eye(2), np.eye(2), m, m]).astype(complex)
    with pytest.raises(ValidationError, match="row 2 of the stack"):
        eigh(stack)


def test_unconverged_stack_names_the_first_failing_row(monkeypatch):
    # one sweep diagonalizes a 2x2 block exactly but not a dense 4x4
    monkeypatch.setattr(linalg_module, "DEFAULT_TOLERANCES",
                        replace(linalg_module.DEFAULT_TOLERANCES,
                                jacobi_max_sweeps=1))
    dense = random_hermitian_np(rng_for(5, stream=108), 4)
    with pytest.raises(NumericError, match="did not converge"):
        eigh(dense)
    stack = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), dense, dense])
    with pytest.raises(NumericError, match="row 1 of the stack"):
        eigh(stack)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e308])
def test_eigh_rejects_entries_whose_norm_overflows(scale):
    # the squared entries used to overflow to an infinite convergence
    # threshold, and [[0, s], [s, 0]] came back with eigenvalues [0, 0]
    m = np.array([[0.0, scale], [scale, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="too large"):
            eigh(m)
        stack = np.stack([np.eye(2), np.eye(2)[::-1], m])
        with pytest.raises(ValidationError, match="row 2 of the stack"):
            eigh(stack)
    # below the overflow the spectrum is still +-s, to rounding
    values = eigh(m / scale * 1e150).eigenvalues
    assert np.allclose(values, [-1e150, 1e150], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dim", range(2, 17))
@pytest.mark.parametrize("phase", [1.0, 1.0 + 1.0j])
def test_eigh_refuses_exactly_the_norms_that_overflow(dim, phase):
    # 2^k on the diagonal and phase 2^k above it: ||H||_F^2 is exactly
    # weight 4^k, so the largest k below the overflow solves and the next
    # raises; with phase 1 + i the weight is near its bound of 2 dim^2
    weight = dim * dim if phase == 1.0 else 2 * dim * dim - dim
    k = max(k for k in range(512) if weight << 2 * k < 1 << 1024)
    for power in (k, k + 1):
        upper = np.triu(np.full((dim, dim), phase * math.ldexp(1.0, power)), 1)
        h = upper + upper.conj().T + np.diag(np.full(dim, math.ldexp(1.0, power)))
        if power == k:
            assert np.isfinite(eigh(h).eigenvalues).all()
        else:
            with pytest.raises(ValidationError, match="too large"):
                eigh(h)


def _assert_decomposes(h, spec, tolerance):
    """Ascending eigenvalues against LAPACK's, and orthonormal eigenvectors
    that rebuild h, each within tolerance times the largest eigenvalue."""
    reference = np.linalg.eigvalsh(h)
    scale = np.max(np.abs(reference))
    assert spec.eigenvalues.shape == (len(h),)
    assert spec.eigenvectors.shape == h.shape
    assert np.max(np.abs(spec.eigenvalues - reference)) <= tolerance * scale
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - h)) <= tolerance * scale
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(len(h)))) <= tolerance


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_eigh_of_tiny_matrices_matches_lapack_reference(scale):
    # the squared off-diagonal entries used to underflow to 0, so the
    # convergence test passed before any rotation and, from 1e-200 on, the
    # diagonal came back as the spectrum
    h = random_hermitian_np(rng_for(9, stream=109), 4)
    tiny = h * scale
    spec = eigh(tiny)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(tiny),
                               rtol=1e-12, atol=0.0)
    _assert_decomposes(tiny, spec, 1e-12)
    # each matrix is scaled on its own, next to a row at normal scale
    stacked = eigh(np.stack([h, tiny]))
    assert np.array_equal(stacked.eigenvalues[1], spec.eigenvalues)
    assert np.array_equal(stacked.eigenvectors[1], spec.eigenvectors)
    np.testing.assert_allclose(stacked.eigenvalues[0], np.linalg.eigvalsh(h),
                               rtol=1e-12, atol=0.0)


def test_eigh_keeps_entries_near_1e150_accurate():
    for dim in (2, 5, 8, 16):
        h = random_hermitian_np(rng_for(dim, stream=110), dim) * 1e150
        _assert_decomposes(h, eigh(h), 1e-12)


@pytest.mark.parametrize("dim", [3, 5, 15])
def test_rank_deficient_odd_dimensions_keep_the_padding_out(dim):
    # an odd dimension is padded with a zero index; exact zero rows and
    # columns, and exact zero eigenvalues, must not mix with it
    rng = rng_for(dim, stream=111)
    rank = dim // 2
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    low_rank = g @ g.conj().T
    spec = eigh(low_rank)
    _assert_decomposes(low_rank, spec, 1e-10)
    assert np.count_nonzero(np.abs(spec.eigenvalues) <= 1e-10) == dim - rank
    embedded = np.zeros((dim, dim), dtype=complex)
    kept = np.sort(rng.permutation(dim)[:rank + 1])
    embedded[np.ix_(kept, kept)] = random_hermitian_np(rng, rank + 1)
    spec = eigh(embedded)
    _assert_decomposes(embedded, spec, 1e-10)
    assert np.count_nonzero(spec.eigenvalues == 0.0) == dim - rank - 1


@pytest.mark.parametrize("tiny", [0.0, 5e-324, 1e-310])
def test_pairs_with_a_negligible_entry_and_equal_diagonal_rotate_finitely(tiny):
    # the first round pairs (0, 3) and (1, 2): both have equal diagonal
    # entries and an off-diagonal one that is zero or subnormal, so the
    # rotation's denominator |diff| + hypot(diff, 2 |a_pq|) is below the
    # smallest normal double; RuntimeWarnings are errors in this suite
    h = np.array([[1.0, 0.5, 0.25j, tiny],
                  [0.5, 1.0, tiny, -0.75],
                  [-0.25j, tiny, 1.0, 0.5],
                  [tiny, -0.75, 0.5, 1.0]])
    spec = eigh(h)
    assert np.isfinite(spec.eigenvalues).all()
    assert np.isfinite(spec.eigenvectors).all()
    _assert_decomposes(h, spec, 1e-12)


@pytest.mark.parametrize("dim", range(1, 17))
def test_rows_converging_after_different_sweeps_equal_each_row_alone(dim):
    rng = rng_for(dim, stream=112)
    dense = random_hermitian_np(rng, dim)
    diagonal = np.diag(rng.standard_normal(dim)).astype(complex)
    rows = [dense, diagonal + 1e-9 * dense, diagonal, 1e-250 * dense,
            np.zeros((dim, dim), dtype=complex), 1e150 * dense,
            diagonal + 1e-3 * dense]
    stacked = eigh(np.stack(rows))
    for row, h in enumerate(rows):
        alone = eigh(h)
        assert np.array_equal(stacked.eigenvalues[row], alone.eigenvalues)
        assert np.array_equal(stacked.eigenvectors[row], alone.eigenvectors)


def test_eigh_keeps_no_state_between_calls():
    # every call makes its own buffers: after calls on other stacks and
    # dimensions, a repeat gives the same bits, and no result shares memory
    # with a later one
    rng = rng_for(0, stream=114)
    stack = np.stack([random_hermitian_np(rng, 8) for _ in range(3)])
    first = eigh(stack)
    results = [first]
    for dim in (2, 3, 8, 16):
        results.append(eigh(random_hermitian_np(rng, dim)))
        results.append(eigh(np.stack([random_hermitian_np(rng, dim) for _ in range(5)])))
    again = eigh(stack)
    results.append(again)
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    assert np.array_equal(again.eigenvectors, first.eigenvectors)
    for k, earlier in enumerate(results):
        for later in results[k + 1:]:
            assert not any(np.shares_memory(x, y) for x in earlier for y in later)


@pytest.mark.parametrize("dim", range(2, 17))
def test_the_embedded_rotation_is_the_schedules_unitary_move(dim):
    # fill the cached positions as a round does, with (c, c, s, -s) for
    # random (c, s), and read the real (2m, 2m) buffer back as complex
    # 2 x 2 blocks [[x, y], [-y, x]]
    m, _, _, sigma, rotation_at, _ = linalg_module._round_robin(dim)
    assert rotation_at.shape == (3 * m, 2)
    assert len(np.unique(rotation_at)) == rotation_at.size
    angle, phase = rng_for(dim, stream=113).uniform(0.0, 2.0 * math.pi, (2, m // 2))
    c, s = np.cos(angle), np.sin(angle) * np.exp(1j * phase)
    embedded = np.zeros(4 * m * m)
    embedded[rotation_at] = np.concatenate(
        (c, c, s.view(np.float64), -s.view(np.float64)))[:, None]
    blocks = embedded.reshape(m, 2, m, 2).swapaxes(1, 2)
    assert np.array_equal(blocks[..., 0, 0], blocks[..., 1, 1])
    assert np.array_equal(blocks[..., 0, 1], -blocks[..., 1, 0])
    rotation = blocks[..., 0, 0] + 1j * blocks[..., 0, 1]
    # J rotates slots 2j, 2j + 1 by [[c, s], [-s^*, c]]; P moves the index
    # in slot sigma[i] to slot i
    turn = np.zeros((m, m), dtype=complex)
    for j in range(m // 2):
        turn[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c[j], s[j]], [-s[j].conj(), c[j]]]
    move = np.zeros((m, m))
    move[sigma, np.arange(m)] = 1.0
    assert np.array_equal(rotation, turn @ move)
    assert np.abs(rotation.conj().T @ rotation - np.eye(m)).max() <= 1e-15


def test_require_hermitian_does_not_overflow_near_the_largest_double():
    m = np.array([[0.0, 1e308], [1e308, 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(require_hermitian(m), m)


def test_require_hermitian_refuses_an_overflowing_defect_without_a_warning():
    # |M - M^dag| = 2e308 overflows; the error reports it as inf
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    stack = np.stack([np.eye(2), m])
    for matrix, row in ((m, ""), (stack, r" \(row 1 of the stack\)")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^matrix is not Hermitian{row}: "
                               r"max \|M - M\^dag\| = inf exceeds 1\.000e-12$"):
                require_hermitian(matrix)


def test_stacked_hermiticity_error_names_the_first_bad_row():
    stack = np.stack([np.eye(2), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValidationError, match="row 2 of the stack"):
        require_hermitian(stack)
    out = require_hermitian(stack[:2])
    assert out.shape == (2, 2, 2)


def test_as_complex_stack_rejects_non_square():
    with pytest.raises(ValidationError, match=r"^unitary must be a square matrix "
                       r"or a stack of them, got shape \(2, 3\)$"):
        as_complex_stack(np.zeros((2, 3)), "unitary")
    with pytest.raises(ValidationError, match=r"^matrix must be .* \(4,\)$"):
        as_complex_stack(np.zeros(4), "matrix")


def test_gate_functions_name_their_operand():
    # both used to read "matrix has non-finite entries" and "expected a
    # square matrix or a stack of them, got shape ..."
    with pytest.raises(ValidationError, match=r"^second factor has non-finite entries$"):
        tensor_product(np.eye(2), np.full((2, 2), np.nan))
    with pytest.raises(ValidationError, match=r"^first factor must be a square matrix "
                       r"or a stack of them, got shape \(2, 3\)$"):
        tensor_product(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(ValidationError, match=r"^operator must be .* \(2, 3\)$"):
        expectation(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(ValidationError, match=r"^state must be .* \(4,\)$"):
        expectation(np.eye(2), np.zeros(4))
    with pytest.raises(ValidationError, match=r"^matrix must be .* \(4, 2\)$"):
        partial_trace(np.zeros((4, 2)), 2, 2)


# real operands that are not real numbers: a complex one used to be
# truncated after numpy's ComplexWarning, and a string or a ragged
# nesting to escape as a bare ValueError (SpinPairParams' times are
# checked in test_thermo)
NOT_REAL = {
    "beta, complex": ("beta", thermal_environment,
                      (np.diag([0.0, 1.0]), np.complex128(1 + 1j))),
    "beta, string": ("beta", thermal_environment, (np.diag([0.0, 1.0]), "x")),
    "times, complex": ("times", unitary_from_generator, (np.eye(2), [0.5, 1j])),
    "times, string": ("times", unitary_from_generator, (np.eye(2), "a")),
    "shift grid, complex": ("shift grid", optimal_shift_check,
                            (make_observable(np.eye(2)), [0.0, 1.0 + 1j])),
    "shift grid, strings": ("shift grid", optimal_shift_check,
                            (make_observable(np.eye(2)), ["a", "b"])),
    "log-odds gaps, complex": ("log-odds gaps", saturating_family, ([1.0 + 1j],)),
    "log-odds gaps, string": ("log-odds gaps", saturating_family, ("x",)),
    "log-odds gaps, ragged": ("log-odds gaps", saturating_family, ([[1.0], [1.0, 2.0]],)),
    "uniforms, complex": ("uniforms", qubit_matrices, (np.full(7, 0.5 + 0.5j),)),
}


@pytest.mark.parametrize("case", sorted(NOT_REAL))
def test_real_operands_refuse_what_is_not_real_by_name(case):
    name, function, args = NOT_REAL[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{name} must be a real number or"):
            function(*args)


# matrix operands that are not matrices of numbers: a string used to
# escape as "complex() arg is a malformed string", a ragged nesting as
# numpy's inhomogeneous-shape ValueError, and a string of digits to be
# parsed as a number
NOT_MATRICES = {
    "operator, string": ("operator", expectation, ("x", np.eye(2))),
    "state, string": ("state", expectation, (np.eye(2), "x")),
    "matrix, string": ("matrix", validate_state, ("ab",)),
    "matrix, strings of digits": ("matrix", make_observable, ([["1", "0"], ["0", "1"]],)),
    "matrix, ragged": ("matrix", make_observable, ([[1.0, 2.0], [3.0]],)),
    "matrix, None entry": ("matrix", validate_state, ([[1.0, 0.0], [0.0, None]],)),
    "second factor, ragged": ("second factor", tensor_product,
                              (np.eye(2), [[1.0, 0.0], [0.0]])),
    "matrix, ragged stack": ("matrix", partial_trace, ([np.eye(4), np.eye(2)], 2, 2)),
}


@pytest.mark.parametrize("case", sorted(NOT_MATRICES))
def test_matrix_operands_refuse_what_is_not_numbers_by_name(case):
    name, function, args = NOT_MATRICES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{name} must be a matrix of numbers"):
            function(*args)


# finite inputs whose results overflow: these used to return nan or inf,
# some of them after numpy's RuntimeWarning
OVERFLOWS = {
    "expectation, inf - inf": (expectation, (np.diag([1e200, -1e200]),
                                             np.diag([1e200, 1e200]))),
    "expectation, inf": (expectation, (np.diag([1e300, 1e300]),
                                       np.diag([1e300, 1e300]))),
    "tensor product": (tensor_product, (np.full((2, 2), 1e200), 1e200 * np.eye(2))),
    "partial trace": (partial_trace, (1e308 * np.eye(4), 2, 2)),
    "partial trace, trace": (partial_trace, (np.diag([1e308, 1e308, 0.0, 0.0]),
                                             2, 2, "environment")),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_gate_functions_refuse_a_result_that_overflows(case):
    function, args = OVERFLOWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"overflows$"):
            function(*args)
        # a stack names the row that overflows
        stacks = [np.stack([np.eye(len(a)), a, a]) if isinstance(a, np.ndarray)
                  else a for a in args]
        with pytest.raises(NumericError, match=r"overflows \(row 1 of the stack\)$"):
            function(*stacks)


def _entry(k: int) -> float:
    """0 for k = 0, else sign(k) 10^(|k| - 301): a finite magnitude from
    1e-300 to 1e300 for 0 < |k| <= 601."""
    return 0.0 if k == 0 else math.copysign(10.0 ** (abs(k) - 301), k)


@st.composite
def _hermitian(draw, n: int) -> np.ndarray:
    """A Hermitian n x n matrix whose entries mix scales: the real parts
    come from the diagonal and upper triangle, the imaginary ones from the
    lower triangle."""
    codes = draw(st.lists(st.integers(-601, 601), min_size=n * n, max_size=n * n))
    parts = np.array([_entry(k) for k in codes]).reshape(n, n)
    upper = np.triu(parts, 1) + 1j * np.tril(parts, -1).T
    return np.diag(parts.diagonal()) + upper + upper.conj().T


def _finite_or_refused(function, *args) -> None:
    try:
        result = function(*args)
    except FluxboundError:
        return
    assert np.isfinite(result).all()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_gate_functions_return_finite_values_or_refuse(data):
    # pytest turns any numpy RuntimeWarning into a failure
    n, m = data.draw(st.sampled_from([2, 4])), data.draw(st.sampled_from([2, 4]))
    a, b, c = (data.draw(_hermitian(k)) for k in (n, n, m))
    _finite_or_refused(expectation, a, b)
    _finite_or_refused(tensor_product, a, c)
    for keep in ("system", "environment"):
        _finite_or_refused(partial_trace, a, 2, n // 2, keep)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_partial_trace_and_tensor_product_reject_non_finite_entries(bad):
    # the partial trace's own check, defect > tolerance, is False for NaN,
    # so a NaN matrix used to come back as a NaN marginal
    m = np.full((4, 4), bad)
    with pytest.raises(ValidationError, match="non-finite"):
        partial_trace(m, 2, 2)
    with pytest.raises(ValidationError, match="non-finite"):
        tensor_product(np.eye(2), m[:2, :2])
    with pytest.raises(ValidationError, match="non-finite"):
        expectation(m, m)


def test_require_hermitian_reports_the_largest_entry_of_the_defect():
    with pytest.raises(ValidationError, match=r"max \|M - M\^dag\| = 1\.000e\+00 "):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(require_hermitian(np.eye(3)), np.eye(3))


def test_require_hermitian_symmetrizes_rounding_noise():
    h = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    out = require_hermitian(h)
    assert np.max(np.abs(out - out.conj().T)) == 0.0
    assert np.max(np.abs(out - np.array([[1.0, 0.5], [0.5, 2.0]]))) < 1e-13


def rebuild(matrix, function):
    """f(H) = V diag(f(w)) V^dag through eigh and from_spectrum."""
    spec = eigh(matrix)
    return from_spectrum(spec.eigenvectors, function(spec.eigenvalues))


def test_from_spectrum_of_the_identity_function_returns_the_input():
    rng = rng_for(7, stream=107)
    h = random_hermitian_np(rng, 5)
    assert np.max(np.abs(rebuild(h, lambda w: w) - h)) <= 1e-12


def test_from_spectrum_exponential_matches_scipy():
    for k in range(5):
        rng = rng_for(k, stream=102)
        h = random_hermitian_np(rng, 4)
        reference = scipy.linalg.expm(h)
        ours = rebuild(h, np.exp)
        assert np.max(np.abs(ours - reference)) <= 1e-10 * float(np.max(np.abs(reference)))


def test_from_spectrum_exponential_of_a_diagonal():
    out = rebuild(np.diag([0.0, math.log(2.0)]), np.exp)
    assert np.max(np.abs(out - np.diag([1.0, 2.0]))) <= 1e-14


def test_from_spectrum_log_exp_round_trip():
    rng = rng_for(8, stream=107)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho = rho / float(np.trace(rho).real)
    back = rebuild(rebuild(rho, np.log), np.exp)
    assert np.max(np.abs(back - rho)) <= 1e-10


def test_from_spectrum_square_root_squares_back():
    rng = rng_for(0, stream=103)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psd = g @ g.conj().T
    root = rebuild(psd, lambda w: np.sqrt(np.maximum(w, 0.0)))
    assert np.max(np.abs(root @ root - psd)) <= 1e-10 * float(np.max(np.abs(psd)))


def test_from_spectrum_of_a_stack_equals_each_alone():
    rng = rng_for(9, stream=102)
    stack = np.stack([random_hermitian_np(rng, 3) for _ in range(4)])
    spec = eigh(stack)
    values = np.exp(spec.eigenvalues)
    rows = from_spectrum(spec.eigenvectors, values)
    assert rows.shape == (4, 3, 3)
    for k in range(4):
        assert np.array_equal(rows[k],
                              from_spectrum(spec.eigenvectors[k], values[k]))


def test_unitary_from_generator_matches_scipy_and_is_unitary():
    rng = rng_for(1, stream=103)
    g = random_hermitian_np(rng, 4)
    for t in (0.3, 1.7):
        u = unitary_from_generator(g, t)
        reference = scipy.linalg.expm(-1j * t * g)
        assert np.max(np.abs(u - reference)) <= 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_tensor_product_entry_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 5.0], [6.0, 7.0]])
    out = tensor_product(a, b)
    # first factor varies slowest: block (i, j) is a[i, j] * b
    assert out.shape == (4, 4)
    assert np.max(np.abs(out[:2, 2:] - 2.0 * b)) == 0.0
    assert np.max(np.abs(out[2:, :2] - 3.0 * b)) == 0.0


def test_tensor_product_identity_and_diagonal_cases():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))
    out = tensor_product(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert np.array_equal(out, np.diag([10.0, 14.0, 15.0, 21.0]).astype(complex))


def test_tensor_product_of_stacks_equals_kron_row_by_row():
    rng = rng_for(4, stream=107)
    a = np.stack([random_hermitian_np(rng, 2) for _ in range(5)])
    b = np.stack([random_hermitian_np(rng, 3) for _ in range(5)])
    out = tensor_product(a, b)
    assert out.shape == (5, 6, 6)
    for k in range(5):
        assert np.array_equal(out[k], np.kron(a[k], b[k]))
    # a single factor broadcasts against a stack
    broadcast = tensor_product(a[0], b)
    for k in range(5):
        assert np.array_equal(broadcast[k], np.kron(a[0], b[k]))


def test_tensor_product_rejects_stacks_of_different_lengths():
    # a bare numpy broadcasting ValueError before
    with pytest.raises(ValidationError, match="stacks of 2 and 3 matrices"):
        tensor_product(np.stack([np.eye(2)] * 2), np.stack([np.eye(2)] * 3))
    # a single factor still broadcasts against either side
    assert tensor_product(np.eye(2), np.stack([np.eye(3)] * 3)).shape == (3, 6, 6)
    assert tensor_product(np.stack([np.eye(3)] * 2), np.eye(2)).shape == (2, 6, 6)


def test_tensor_product_names_a_non_finite_row_of_a_stack():
    a = np.stack([np.eye(2)] * 3)
    a[1, 0, 1] = np.nan
    with pytest.raises(ValidationError,
                       match=r"non-finite entries \(row 1 of the stack\)"):
        tensor_product(a, a)
    with pytest.raises(ValidationError, match=r"^first factor has non-finite entries$"):
        tensor_product(a[1], np.eye(2))


def test_unitary_from_a_stack_of_generators_equals_each_alone():
    rng = rng_for(6, stream=107)
    generators = np.stack([random_hermitian_np(rng, 3) for _ in range(4)])
    stacked = unitary_from_generator(generators, 0.7)
    for k in range(4):
        assert np.array_equal(stacked[k], unitary_from_generator(generators[k], 0.7))
    with pytest.raises(ValidationError, match="single time"):
        unitary_from_generator(generators, [0.1, 0.2])


def test_tensor_product_trace_factorizes():
    rng = rng_for(9, stream=107)
    a = random_hermitian_np(rng, 3)
    b = random_hermitian_np(rng, 2)
    lhs = complex(np.trace(tensor_product(a, b)))
    rhs = complex(np.trace(a)) * complex(np.trace(b))
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("ds,de", [(2, 3), (3, 2), (2, 2)])
def test_partial_trace_against_index_sums(ds, de):
    rng = rng_for(ds * 10 + de, stream=104)
    m = rng.standard_normal((ds * de, ds * de)) + 1j * rng.standard_normal((ds * de, ds * de))
    for keep in ("system", "environment"):
        ours = partial_trace(m, ds, de, keep)
        reference = reference_partial_trace(m, ds, de, keep)
        assert np.max(np.abs(ours - reference)) <= 1e-12


def test_partial_trace_of_a_product_recovers_the_factors():
    rng = rng_for(3, stream=104)
    a = random_hermitian_np(rng, 2)
    b = random_hermitian_np(rng, 3)
    joint = tensor_product(a, b)
    tr_a = complex(np.trace(a)).real
    tr_b = complex(np.trace(b)).real
    assert np.max(np.abs(partial_trace(joint, 2, 3, "system") - tr_b * a)) <= 1e-12
    assert np.max(np.abs(partial_trace(joint, 2, 3, "environment") - tr_a * b)) <= 1e-12


def test_partial_trace_of_the_maximally_mixed_state():
    out = partial_trace(np.eye(4) / 4.0, 2, 2, "system")
    assert np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-15


def test_partial_trace_validates_shapes_and_keep():
    with pytest.raises(ValidationError):
        partial_trace(np.eye(5), 2, 3, "system")
    with pytest.raises(ValidationError):
        partial_trace(np.eye(6), 2, 3, "both")
    with pytest.raises(ValidationError):
        partial_trace(np.eye(6), 0, 6, "system")


def test_expectation_matches_the_double_sum():
    rng = rng_for(0, stream=106)
    h = random_hermitian_np(rng, 4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho = rho / float(np.trace(rho).real)
    by_hand = sum(h[i, j] * rho[j, i] for i in range(4) for j in range(4))
    assert abs(expectation(h, rho) - by_hand.real) <= 1e-12
    assert abs(by_hand.imag) <= 1e-12


def test_expectation_normalization_and_diagonal_cases():
    rho = np.diag([0.3, 0.7])
    assert expectation(np.eye(2), rho) == pytest.approx(1.0, abs=1e-15)
    for p in (0.0, 0.3, 1.0):
        value = expectation(np.diag([1.0, -1.0]), np.diag([p, 1.0 - p]))
        assert value == pytest.approx(2.0 * p - 1.0, abs=1e-15)


def test_expectation_rejects_a_complex_trace():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])  # deliberately not Hermitian
    r = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    with pytest.raises(NumericError):
        expectation(h, r)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_expectation_refuses_non_finite_entries(bad, side):
    # a NaN operand used to give a NaN trace, an infinite one a NaN trace
    # after numpy's RuntimeWarning
    operands = [np.eye(2, dtype=complex), np.diag([0.25, 0.75]).astype(complex)]
    operands[side][0, 1] = bad
    name = ("operator", "state")[side]
    with pytest.raises(ValidationError, match=rf"^{name} has non-finite entries$"):
        expectation(*operands)
    stacks = [np.stack([np.eye(2)] * 3).astype(complex),
              np.stack([np.diag([0.25, 0.75])] * 3).astype(complex)]
    stacks[side][1, 1, 1] = bad
    with pytest.raises(ValidationError,
                       match=rf"^{name} has non-finite entries \(row 1 of the stack\)$"):
        expectation(*stacks)


def test_expectation_names_the_operand_of_another_shape():
    # two single inputs used to print their lifted stack shapes,
    # "shape mismatch (1, 2, 2) vs (1, 3, 3)"
    with pytest.raises(ValidationError,
                       match=r"^state has shape \(3, 3\), operator \(2, 2\)$"):
        expectation(np.eye(2), np.eye(3) / 3.0)
    with pytest.raises(ValidationError,
                       match=r"^state has shape \(2, 2, 2\), operator \(3, 2, 2\)$"):
        expectation(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 2))


def test_expectation_accepts_wrapped_operands():
    class Carrier:
        def __init__(self, m):
            self.matrix = m

    h = np.diag([1.0, -1.0])
    r = np.diag([0.75, 0.25])
    assert expectation(Carrier(h), Carrier(r)) == pytest.approx(0.5, abs=1e-15)


def test_unitary_from_generator_over_a_grid_of_times():
    rng = rng_for(2, stream=103)
    g = random_hermitian_np(rng, 4)
    times = np.array([0.0, 0.3, 1.7, -2.5, 40.0])
    stack = unitary_from_generator(g, times)
    assert stack.shape == (5, 4, 4)
    for t, u in zip(times, stack):
        reference = scipy.linalg.expm(-1j * t * g)
        assert np.max(np.abs(u - reference)) <= 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
        # each row is the unitary at its time alone
        assert np.array_equal(u, unitary_from_generator(g, t))
    assert np.array_equal(unitary_from_generator(eigh(g), times), stack)


@pytest.mark.parametrize("t", [math.inf, math.nan, np.array([0.0, 1e308])])
def test_unitary_from_generator_rejects_times_without_finite_phases(t):
    g = np.diag([1.0, -2.0])
    with pytest.raises(DomainError):
        unitary_from_generator(g, t)
    with pytest.raises(ValidationError):
        unitary_from_generator(g, np.zeros((2, 2)))


@pytest.mark.parametrize("ds,de", [(2, 3), (3, 2), (2, 2)])
def test_stacked_partial_trace_against_index_sums(ds, de):
    rng = rng_for(ds * 10 + de, stream=108)
    n = ds * de
    stack = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    for keep in ("system", "environment"):
        ours = partial_trace(stack, ds, de, keep)
        assert ours.shape == ((5, ds, ds) if keep == "system" else (5, de, de))
        for m, row in zip(stack, ours):
            reference = reference_partial_trace(m, ds, de, keep)
            assert np.max(np.abs(row - reference)) <= 1e-12
            assert np.array_equal(row, partial_trace(m, ds, de, keep))


def test_stacked_partial_trace_errors_name_the_row(monkeypatch):
    stack = np.stack([np.eye(4) / 4.0] * 3).astype(complex)
    bad = stack.copy()
    bad[2, 1, 3] = math.nan
    with pytest.raises(ValidationError, match=r"non-finite entries \(row 2 of"):
        partial_trace(bad, 2, 2)
    # a negative tolerance fails the trace check of every row
    monkeypatch.setattr(linalg_module, "DEFAULT_TOLERANCES",
                        replace(linalg_module.DEFAULT_TOLERANCES,
                                trace_preservation=-1.0))
    with pytest.raises(NumericError, match=r"changed the trace .*\(row 0 of"):
        partial_trace(stack, 2, 2)
    with pytest.raises(NumericError, match=r"changed the trace by [^(]*$"):
        partial_trace(stack[1], 2, 2)


@dataclass(frozen=True)
class _Rows:
    """A flat record for in_blocks: int64, bool and complex (n, n) fields."""

    index: np.ndarray
    even: np.ndarray
    matrix: np.ndarray


def _rows(first: int, stop: int, n: int) -> _Rows:
    index = np.arange(first, stop, dtype=np.int64)
    return _Rows(index, index % 2 == 0,
                 (index + 1j * index)[:, None, None] * np.ones((n, n)))


@pytest.mark.parametrize("count", [1, SMALL_BLOCK_ROWS - 1, SMALL_BLOCK_ROWS,
                                   SMALL_BLOCK_ROWS + 1, 2 * SMALL_BLOCK_ROWS + 3])
def test_in_blocks_copies_each_block_into_records_of_count_rows(small_blocks, count):
    calls = []

    def evaluate(first, stop):
        calls.append((first, stop))
        return _rows(first, stop, 2), _rows(count - stop, count - first, 3)

    stacks = in_blocks(evaluate, count)
    assert calls == [(first, min(first + small_blocks, count))
                     for first in range(0, count, small_blocks)]
    blocks = [(_rows(first, stop, 2), _rows(count - stop, count - first, 3))
              for first, stop in calls]
    assert len(stacks) == 2
    for stack, parts in zip(stacks, zip(*blocks)):
        assert type(stack) is _Rows
        for name, rows in vars(stack).items():
            pieces = [getattr(part, name) for part in parts]
            assert rows.dtype == pieces[0].dtype
            assert rows.shape == (count, *pieces[0].shape[1:])
            assert np.array_equal(rows, np.concatenate(pieces))
    assert stacks[1].matrix.shape[1:] == (3, 3)
    assert stacks[0].even.dtype == bool and stacks[0].index.dtype == np.int64


@pytest.mark.parametrize("count", [0, -3])
def test_in_blocks_refuses_a_count_below_one(count):
    def evaluate(first, stop):
        raise AssertionError("no block to evaluate")
    with pytest.raises(ValidationError, match=rf"got a count of {count}$"):
        in_blocks(evaluate, count)
