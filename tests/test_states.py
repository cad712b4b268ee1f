"""State validation, relative entropy, and the Pinsker inequality."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (random_state_np, reference_relative_entropy, rng_for)
from fluxbound import (DensityMatrix, RelEntropyValue, directed_entropy_pair,
                       evaluate_bounds, make_observable, partial_trace,
                       random_unitary, relative_entropy, symmetric_average,
                       symmetric_relative_entropy, tensor_product,
                       trace_distance_norm, validate_state)
from fluxbound.errors import NumericError, ValidationError

# two-level pair with populations (e^{-a/2}, e^{a/2}) / (2 cosh(a/2)) and
# its reverse; both directed entropies equal a tanh(a/2)
TWO_TANH_ONE = 1.5231883119115297  # 2 * tanh(1), the a = 2 value


def two_level_pair(a):
    z = 2.0 * math.cosh(0.5 * a)
    rho = validate_state(np.diag([math.exp(-0.5 * a) / z, math.exp(0.5 * a) / z]))
    sigma = validate_state(np.diag([math.exp(0.5 * a) / z, math.exp(-0.5 * a) / z]))
    return rho, sigma


def test_validate_state_keeps_a_clean_input():
    state = validate_state(np.diag([0.25, 0.75]))
    assert state.dim == 2
    assert not state.clamped
    assert np.allclose(state.eigenvalues, [0.25, 0.75], atol=0.0)
    assert state.support_dim() == 2
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
    assert state.support_dim() == 1


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
    assert not symmetric_average(finite, RelEntropyValue.infinite()).finite
    assert symmetric_average(finite, RelEntropyValue.infinite()).as_float() == math.inf


def test_rel_entropy_value_rejects_negative_or_nan():
    with pytest.raises(ValidationError):
        RelEntropyValue(-1e-3)
    with pytest.raises(ValidationError):
        RelEntropyValue(math.nan)
    assert RelEntropyValue.infinite().as_float() == math.inf


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
    assert check.holds and check.trivial
    assert check.slack == math.inf


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
    assert check.trivial and check.holds
    assert check.slack == math.inf


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


def test_support_dim_counts_nonzero_eigenvalues():
    pure = validate_state(np.diag([0.0, 1.0, 0.0]))
    assert pure.support_dim() == 1
    assert pure.dim == 3
