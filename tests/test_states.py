"""State validation, relative entropy, and the Pinsker inequality."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (differing_fields, random_state_np, random_unitary,
                      reference_relative_entropy, rng_for)
from fluxbound import (DEFAULT_TOLERANCES, DensityMatrix, RelEntropyValue,
                       directed_entropy_pair, evaluate_bounds, make_observable,
                       partial_trace, product_state, relative_entropy,
                       sign_decomposition, symmetric_average,
                       symmetric_relative_entropy, tensor_product,
                       trace_distance_norm, validate_state, validate_states)
from fluxbound.errors import NumericError, ValidationError
from fluxbound.linalg import take_row

# two-level pair with populations (e^{-a/2}, e^{a/2}) / (2 cosh(a/2)) and
# its reverse; both directed entropies equal a tanh(a/2)
TWO_TANH_ONE = 1.5231883119115297  # 2 * tanh(1), the a = 2 value


def support(state) -> int:
    """The number of eigenvalues above the rank tolerance."""
    return int(np.sum(state.eigenvalues > DEFAULT_TOLERANCES.rank))


def two_level_pair(a):
    z = 2.0 * math.cosh(0.5 * a)
    rho = validate_state(np.diag([math.exp(-0.5 * a) / z, math.exp(0.5 * a) / z]))
    sigma = validate_state(np.diag([math.exp(0.5 * a) / z, math.exp(-0.5 * a) / z]))
    return rho, sigma


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3), (2, 3)])
def test_validate_states_equals_each_alone_with_one_eigensolve_per_shape(
        eigensolves, dims):
    rng = rng_for(len(dims), stream=614)
    # a clamped row among full-rank ones
    stacks = [np.stack([random_state_np(rng, d), np.diag([1.0 + 5e-11] + [0.0] * (d - 2)
                                                      + [-5e-11])]) for d in dims]
    alone = [validate_state(stack) for stack in stacks]
    eigensolves.clear()
    states = validate_states(*stacks)
    one_shape = len(set(dims)) == 1
    assert eigensolves == ([(2 * len(dims), dims[0])] if one_shape
                           else [(2, d) for d in dims])
    for state, expected in zip(states, alone, strict=True):
        assert state.clamped.tolist() == [False, True]
        assert not differing_fields(state, expected)


def test_validate_state_keeps_a_clean_input():
    state = validate_state(np.diag([0.25, 0.75]))
    assert state.dim == 2
    assert not state.clamped
    assert np.allclose(state.eigenvalues, [0.25, 0.75], atol=0.0)
    assert support(state) == 2
    assert abs(float(np.trace(state.matrix).real) - 1.0) < 1e-15


def test_validate_state_rejects_wrong_trace():
    with pytest.raises(ValidationError):
        validate_state(np.diag([0.5, 0.6]))


def test_validate_state_rejects_genuine_negativity():
    with pytest.raises(ValidationError):
        validate_state(np.diag([1.5, -0.5]))


def test_validate_state_clamps_rounding_noise():
    noise = 5e-11
    state = validate_state(np.diag([1.0 + noise, -noise]))
    assert state.clamped
    assert float(state.eigenvalues[0]) == 0.0
    assert abs(float(np.sum(state.eigenvalues)) - 1.0) < 1e-15
    assert support(state) == 1


def test_relative_entropy_closed_form_two_level():
    rho, sigma = two_level_pair(2.0)
    forward = relative_entropy(rho, sigma)
    backward = relative_entropy(sigma, rho)
    assert forward.finite and backward.finite
    assert forward.value == pytest.approx(TWO_TANH_ONE, abs=1e-13)
    assert backward.value == pytest.approx(TWO_TANH_ONE, abs=1e-13)
    sym = symmetric_relative_entropy(rho, sigma)
    assert sym.value == pytest.approx(TWO_TANH_ONE, abs=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_relative_entropy_matches_matrix_log_reference(dim):
    for k in range(6):
        rng = rng_for(10 * dim + k, stream=201)
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        ours = relative_entropy(rho, sigma)
        assert ours.finite
        reference = reference_relative_entropy(rho.matrix, sigma.matrix)
        assert ours.value == pytest.approx(reference, abs=1e-9)


def test_relative_entropy_commuting_states_match_classical_form():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    rho = validate_state(np.diag(p))
    sigma = validate_state(np.diag(q))
    classical = float(np.sum(p * np.log(p / q)))
    assert relative_entropy(rho, sigma).value == pytest.approx(classical, abs=1e-14)


def test_relative_entropy_is_unitarily_invariant():
    rng = rng_for(0, stream=202)
    rho = validate_state(random_state_np(rng, 3))
    sigma = validate_state(random_state_np(rng, 3))
    u = random_unitary(rng, 3)
    rotated = relative_entropy(validate_state(u @ rho.matrix @ u.conj().T),
                               validate_state(u @ sigma.matrix @ u.conj().T))
    assert rotated.value == pytest.approx(relative_entropy(rho, sigma).value, abs=1e-10)


def test_relative_entropy_vanishes_on_equal_states_and_is_nonnegative():
    rng = rng_for(1, stream=202)
    rho = validate_state(random_state_np(rng, 4))
    assert relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-12)
    for k in range(10):
        r = rng_for(k, stream=203)
        a = validate_state(random_state_np(r, 3))
        b = validate_state(random_state_np(r, 3))
        assert relative_entropy(a, b).value >= 0.0


def test_relative_entropy_infinite_exactly_on_support_mismatch():
    maximally_mixed = validate_state(0.5 * np.eye(2))
    pure = validate_state(np.diag([1.0, 0.0]))
    forward = relative_entropy(maximally_mixed, pure)
    backward = relative_entropy(pure, maximally_mixed)
    assert not forward.finite
    assert backward.finite
    assert backward.value == pytest.approx(math.log(2.0), abs=1e-14)
    assert not symmetric_relative_entropy(maximally_mixed, pure).finite


def test_directed_pair_agrees_with_two_single_calls():
    rng = rng_for(2, stream=202)
    rho = validate_state(random_state_np(rng, 3))
    sigma = validate_state(random_state_np(rng, 3))
    forward, backward = directed_entropy_pair(rho, sigma)
    assert forward.value == pytest.approx(relative_entropy(rho, sigma).value, abs=1e-13)
    assert backward.value == pytest.approx(relative_entropy(sigma, rho).value, abs=1e-13)


def test_stacked_entropy_error_names_the_callers_row():
    # row 1 of sigma carries unnormalised eigenvalues, so S(sigma || rho)
    # comes out negative there; both directions are evaluated as one
    # stack of six rows internally, but the error names the pair's row
    rho = validate_state(np.stack([np.diag([0.3, 0.7])] * 3))
    good = validate_state(np.stack([np.diag([0.6, 0.4])] * 3))
    eigenvalues = good.eigenvalues.copy()
    eigenvalues[1] = [0.01, 0.01]
    sigma = DensityMatrix(good.matrix, eigenvalues, good.eigenvectors,
                          good.clamped)
    with pytest.raises(NumericError, match=r"\(row 1 of the stack\)"):
        directed_entropy_pair(rho, sigma)
    with pytest.raises(NumericError, match=r"\(row 1 of the stack\)"):
        directed_entropy_pair(sigma, rho)


def test_symmetric_average_propagates_infinity():
    finite = RelEntropyValue(1.0)
    assert symmetric_average(finite, finite).value == 1.0
    assert not symmetric_average(finite, RelEntropyValue(math.inf)).finite
    assert symmetric_average(finite, RelEntropyValue(math.inf)).as_float() == math.inf


def test_rel_entropy_value_rejects_negative_or_nan():
    with pytest.raises(ValidationError):
        RelEntropyValue(-1e-3)
    with pytest.raises(ValidationError):
        RelEntropyValue(math.nan)
    assert RelEntropyValue(math.inf).as_float() == math.inf


def test_rel_entropy_value_reads_finite_from_its_value():
    # value is the one field; finite used to be a second, separately set one
    assert [f.name for f in dataclasses.fields(RelEntropyValue)] == ["value"]
    for value in (0.0, 1.5, math.inf):
        single = RelEntropyValue(value)
        assert single.finite is math.isfinite(value)
        assert single.as_float() == value
    values = np.array([0.0, math.inf, 2.0])
    stack = RelEntropyValue(values)
    assert stack.finite.tolist() == np.isfinite(values).tolist()
    assert stack.as_float() is values
    with pytest.raises(ValidationError, match=r"got np\.float64\(nan\)"):
        RelEntropyValue(np.array([1.0, math.nan]))


def test_symmetric_relative_entropy_is_symmetric_and_zero_on_equal():
    rng = rng_for(5, stream=206)
    rho = validate_state(random_state_np(rng, 3))
    sigma = validate_state(random_state_np(rng, 3))
    ab = symmetric_relative_entropy(rho, sigma)
    ba = symmetric_relative_entropy(sigma, rho)
    assert ab.value == pytest.approx(ba.value, abs=1e-12)
    assert symmetric_relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_extremes():
    up = validate_state(np.diag([1.0, 0.0]))
    down = validate_state(np.diag([0.0, 1.0]))
    assert trace_distance_norm(up, down) == pytest.approx(2.0, abs=1e-14)
    assert trace_distance_norm(up, up) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_norm_diagonal_case():
    rho = validate_state(np.diag([0.2, 0.8]))
    sigma = validate_state(np.diag([0.6, 0.4]))
    assert trace_distance_norm(rho, sigma) == pytest.approx(0.8, abs=1e-14)
    with pytest.raises(ValidationError):
        trace_distance_norm(rho, validate_state(np.eye(3) / 3.0))


def test_trace_norm_dominates_the_other_schatten_norms_and_bounds_fluxes():
    # ||d||_inf <= ||d||_2 <= ||d||_1 for d = rho - sigma, and Hoelder:
    # |tr(a d)| <= ||a||_inf ||d||_1
    for k in range(5):
        rng = rng_for(k, stream=105)
        rho = validate_state(random_state_np(rng, 4))
        sigma = validate_state(random_state_np(rng, 4))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.5 * (a + a.conj().T)
        d = rho.matrix - sigma.matrix
        w = np.linalg.eigvalsh(d)
        n1 = trace_distance_norm(rho, sigma)
        assert n1 == pytest.approx(float(np.abs(w).sum()), abs=1e-12)
        ninf, n2 = float(np.abs(w).max()), float(np.linalg.norm(d))
        assert ninf <= n2 + 1e-12 <= n1 + 1e-12
        inner = float(np.trace(a @ d).real)
        assert abs(inner) <= float(np.abs(np.linalg.eigvalsh(a)).max()) * n1 + 1e-10


def test_trace_norm_of_a_stack_equals_each_pair_alone():
    rng = rng_for(3, stream=105)
    rhos = [random_state_np(rng, 3) for _ in range(3)]
    sigmas = [random_state_np(rng, 3) for _ in range(3)]
    stacked = trace_distance_norm(validate_state(np.stack(rhos)),
                                  validate_state(np.stack(sigmas)))
    assert stacked.shape == (3,)
    for k in range(3):
        alone = trace_distance_norm(validate_state(rhos[k]), validate_state(sigmas[k]))
        assert stacked[k] == alone


def pinsker_check(rho, sigma):
    """The report and its forward Pinsker verdict, S(rho||sigma) / 2 >=
    ||rho - sigma||_1^2 / 4: half the slack of S >= ||rho - sigma||_1^2 / 2."""
    theta = make_observable(np.diag(np.linspace(-1.0, 1.0, rho.dim)))
    report = evaluate_bounds(theta, rho, sigma)
    return report, report.verdicts["pinsker_fwd"]


def test_pinsker_holds_on_random_pairs():
    for k in range(20):
        rng = rng_for(k, stream=204)
        dim = 2 + k % 3
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        report, check = pinsker_check(rho, sigma)
        assert check.holds
        assert 2.0 * check.slack >= -1e-9
        rhs = report.s_forward.value - 2.0 * check.slack
        assert rhs == pytest.approx(0.5 * trace_distance_norm(rho, sigma) ** 2,
                                    abs=1e-13)


def test_pinsker_on_equal_states_is_trivial():
    # a coinciding pair is flagged, and every verdict holds trivially
    rho = validate_state(np.diag([0.4, 0.6]))
    report, check = pinsker_check(rho, rho)
    assert report.states_equal
    assert check.holds and not check.applies
    assert not check.applies


def test_pinsker_small_gap_closed_form():
    # at a = 0.1 the slack is S - tn^2 / 2 with S = 0.1 tanh(0.05) and
    # tn = 2 tanh(0.05)
    rho, sigma = two_level_pair(0.1)
    report, check = pinsker_check(rho, sigma)
    s = 0.1 * math.tanh(0.05)
    tn = 2.0 * math.tanh(0.05)
    assert report.s_forward.value == pytest.approx(s, rel=1e-12)
    assert report.trace_norm == pytest.approx(tn, rel=1e-12)
    assert 2.0 * check.slack == pytest.approx(s - 0.5 * tn * tn, rel=1e-9)
    assert 2.0 * check.slack == pytest.approx(4.159038923739339e-06, rel=1e-9)


def test_pinsker_infinite_divergence_is_trivial():
    maximally_mixed = validate_state(0.5 * np.eye(2))
    pure = validate_state(np.diag([1.0, 0.0]))
    report, check = pinsker_check(maximally_mixed, pure)
    assert not check.applies and check.holds
    assert not check.applies


def test_relative_entropy_contracts_under_partial_trace():
    # discarding a subsystem can only lose distinguishability
    for k in range(8):
        rng = rng_for(k, stream=205)
        rho = validate_state(random_state_np(rng, 4))
        sigma = validate_state(random_state_np(rng, 4))
        joint = relative_entropy(rho, sigma)
        rho_s = validate_state(partial_trace(rho.matrix, 2, 2, "system"))
        sigma_s = validate_state(partial_trace(sigma.matrix, 2, 2, "system"))
        local = relative_entropy(rho_s, sigma_s)
        assert local.value <= joint.value + 1e-9


def test_support_counts_eigenvalues_above_the_rank_tolerance():
    pure = validate_state(np.diag([0.0, 1.0, 0.0]))
    assert support(pure) == 1
    assert pure.dim == 3


@pytest.mark.parametrize("pair_function", [directed_entropy_pair,
                                           trace_distance_norm, sign_decomposition])
def test_pair_functions_name_the_state_of_another_shape(pair_function):
    # used to read "dimension mismatch (2, 2) vs (3, 3)"
    rho = validate_state(np.diag([0.2, 0.8]))
    sigma = validate_state(np.diag([0.1, 0.2, 0.7]))
    with pytest.raises(ValidationError,
                       match=r"^sigma has shape \(3, 3\), rho \(2, 2\)$"):
        pair_function(rho, sigma)


def _product_factors(case, rng):
    """Validated factor states of a product-spectrum case."""
    if case == "pure factor":  # rank deficient: its products hold zeros
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        return validate_state(pure), validate_state(random_state_np(rng, 3))
    if case == "maximally mixed factor":  # every product value is threefold
        return (validate_state(random_state_np(rng, 2)),
                validate_state(np.eye(3) / 3.0))
    dims = (2, 3) if case == "2 x 3" else (2, 2)
    return tuple(validate_state(random_state_np(rng, d)) for d in dims)


PRODUCT_CASES = ("full rank", "pure factor", "maximally mixed factor", "2 x 3")


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_state_takes_its_spectrum_from_its_factors(case, rotated):
    rng = rng_for(PRODUCT_CASES.index(case), stream=612)
    first, second = _product_factors(case, rng)
    d = first.dim * second.dim
    u = random_unitary(rng, d) if rotated else None
    raw = tensor_product(first.matrix, second.matrix)
    if rotated:
        raw = u @ raw @ u.conj().T
    state = product_state(first, second, u)
    assert not state.clamped
    # the matrix is the raw product's, symmetrized as validate_state does
    assert np.array_equal(state.matrix, 0.5 * raw + 0.5 * raw.conj().T)
    w, v = state.eigenvalues, state.eigenvectors
    assert np.all(np.diff(w) >= 0.0) and np.all(w >= 0.0)
    assert abs(float(w.sum()) - 1.0) <= 1e-15
    assert np.max(np.abs(w - np.linalg.eigvalsh(raw))) <= 1e-10
    # eigh's reconstruction and orthogonality bounds
    assert np.max(np.abs((v * w) @ v.conj().T - state.matrix)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
    assert support(state) == support(first) * support(second)
    if case == "maximally mixed factor":
        # exact ties, which the stable sort keeps in Kronecker order
        assert np.all(w.reshape(2, 3) == w.reshape(2, 3)[:, :1])
        if not rotated:
            assert np.array_equal(
                v, np.kron(first.eigenvectors, second.eigenvectors))


def test_a_product_state_of_stacks_is_never_clamped():
    # products of clamped spectra are never negative, whatever the factors
    rng = rng_for(0, stream=613)
    firsts = validate_state(np.stack(
        [np.diag([1.0 + 5e-11, -5e-11]), np.eye(2) / 2.0, random_state_np(rng, 2)]))
    assert firsts.clamped.tolist() == [True, False, False]
    seconds = validate_state(np.stack([random_state_np(rng, 3) for _ in range(3)]))
    states = product_state(firsts, seconds,
                           np.stack([random_unitary(rng, 6) for _ in range(3)]))
    assert states.clamped.tolist() == [False] * 3
    assert support(take_row(states, 0)) == 3


def test_product_state_names_a_unitary_of_another_shape():
    rho = validate_state(np.diag([0.2, 0.8]))
    with pytest.raises(ValidationError,
                       match=r"^unitary has shape \(2, 2\), product state \(4, 4\)$"):
        product_state(rho, rho, np.eye(2))
