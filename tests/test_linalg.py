"""Eigensolver and matrix utilities against numpy/scipy references."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_hermitian_np, reference_partial_trace, rng_for
from fluxbound import (Tolerances, eigh, expectation, matrix_function,
                       partial_trace, schatten_norm, tensor_product,
                       unitary_from_generator)
from fluxbound.errors import DomainError, NumericError, ValidationError
from fluxbound.linalg import (as_complex_matrix, hermiticity_defect,
                              require_hermitian)


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


def test_matrix_function_identity_returns_the_input():
    rng = rng_for(7, stream=107)
    h = random_hermitian_np(rng, 5)
    assert np.max(np.abs(matrix_function(h, lambda w: w) - h)) <= 1e-12


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


def test_unconverged_stack_names_the_first_failing_row():
    # one sweep diagonalizes a 2x2 block exactly but not a dense 4x4
    tols = Tolerances(jacobi_max_sweeps=1)
    dense = random_hermitian_np(rng_for(5, stream=108), 4)
    with pytest.raises(NumericError, match="did not converge"):
        eigh(dense, tols)
    stack = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), dense, dense])
    with pytest.raises(NumericError, match="row 1 of the stack"):
        eigh(stack, tols)


def test_stacked_hermiticity_error_names_the_first_bad_row():
    stack = np.stack([np.eye(2), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValidationError, match="row 2 of the stack"):
        require_hermitian(stack)
    out = require_hermitian(stack[:2])
    assert out.shape == (2, 2, 2)


def test_as_complex_matrix_rejects_non_square():
    with pytest.raises(ValidationError):
        as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        as_complex_matrix(np.zeros(4))


def test_hermiticity_defect_counts_the_largest_entry():
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
    assert hermiticity_defect(np.eye(3)) == 0.0


def test_require_hermitian_symmetrizes_rounding_noise():
    h = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    out = require_hermitian(h)
    assert hermiticity_defect(out) == 0.0
    assert np.max(np.abs(out - np.array([[1.0, 0.5], [0.5, 2.0]]))) < 1e-13


def test_matrix_function_exponential_matches_scipy():
    for k in range(5):
        rng = rng_for(k, stream=102)
        h = random_hermitian_np(rng, 4)
        ours = matrix_function(h, math.exp)
        reference = scipy.linalg.expm(h)
        assert np.max(np.abs(ours - reference)) <= 1e-10 * float(np.max(np.abs(reference)))


def test_matrix_function_log_of_singular_matrix_raises():
    projector = np.diag([1.0, 0.0])
    with pytest.raises(DomainError) as excinfo:
        matrix_function(projector, math.log)
    assert abs(excinfo.value.offending_value) < 1e-12


def test_matrix_function_exponential_of_a_diagonal():
    out = matrix_function(np.diag([0.0, math.log(2.0)]), math.exp)
    assert np.max(np.abs(out - np.diag([1.0, 2.0]))) <= 1e-14


def test_matrix_function_log_exp_round_trip():
    rng = rng_for(8, stream=107)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho = rho / float(np.trace(rho).real)
    back = matrix_function(matrix_function(rho, math.log), math.exp)
    assert np.max(np.abs(back - rho)) <= 1e-10


def test_matrix_function_square_root_squares_back():
    rng = rng_for(0, stream=103)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psd = g @ g.conj().T
    root = matrix_function(psd, math.sqrt)
    assert np.max(np.abs(root @ root - psd)) <= 1e-10 * float(np.max(np.abs(psd)))


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


def test_schatten_norms_on_a_known_spectrum():
    m = np.diag([3.0, -4.0])
    assert schatten_norm(m, 1) == 7.0
    assert schatten_norm(m, 2) == 5.0
    assert schatten_norm(m, math.inf) == 4.0
    with pytest.raises(ValidationError):
        schatten_norm(m, 3)


def test_schatten_norm_sign_diagonal_and_zero():
    assert schatten_norm(np.diag([1.0, -1.0]), 1) == 2.0
    assert schatten_norm(np.diag([1.0, -1.0]), math.inf) == 1.0
    assert schatten_norm(np.zeros((2, 2)), 1) == 0.0


def test_schatten_norm_ordering_and_hoelder():
    for k in range(5):
        rng = rng_for(k, stream=105)
        a = random_hermitian_np(rng, 4)
        b = random_hermitian_np(rng, 4)
        n1, n2, ninf = (schatten_norm(a, 1), schatten_norm(a, 2),
                        schatten_norm(a, math.inf))
        assert ninf <= n2 + 1e-12 <= n1 + 1e-12
        inner = float(np.trace(a @ b).real)
        assert abs(inner) <= schatten_norm(a, math.inf) * schatten_norm(b, 1) + 1e-10


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


def test_expectation_accepts_wrapped_operands():
    class Carrier:
        def __init__(self, m):
            self.matrix = m

    h = np.diag([1.0, -1.0])
    r = np.diag([0.75, 0.25])
    assert expectation(Carrier(h), Carrier(r)) == pytest.approx(0.5, abs=1e-15)
