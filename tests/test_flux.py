"""Observables, fluxes, sign decomposition, and the bound chain."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_state_np, rng_for
from fluxbound import (DEFAULT_TOLERANCES, QturCheck, Verdict,
                       evaluate_bounds, flux,
                       make_observable, optimal_shift_check, qtur_check,
                       random_observable, sign_decomposition, validate_state)
from fluxbound.errors import (DegenerateInputError, FluxboundError,
                              NumericError, ValidationError)
from fluxbound.linalg import take_row
from fluxbound.thermo import saturating_family

FLOOR_AT_GAP_2 = 0.7240616609663106  # 1 / sinh(1)^2


def diag_state(*populations):
    return validate_state(np.diag(list(populations)))


def test_make_observable_caches_the_spectrum():
    theta = make_observable(np.diag([1.0, -1.0]))
    assert theta.theta_min == -1.0
    assert theta.theta_max == 1.0
    assert theta.capacity == 2.0
    assert theta.lambda_star == 0.0
    assert theta.dim == 2


def test_make_observable_shifted_diagonal():
    theta = make_observable(np.diag([5.0, 1.0]))
    assert theta.capacity == 4.0
    assert theta.lambda_star == 3.0
    check = optimal_shift_check(theta, np.linspace(0.0, 6.0, 601))
    assert check.value_at_lambda_star == pytest.approx(2.0, abs=1e-14)
    assert check.holds


def test_make_observable_capacity_matches_the_spectral_spread():
    rng = rng_for(31, stream=301)
    theta = random_observable(rng, 4)
    w = np.linalg.eigvalsh(theta.matrix)
    assert theta.capacity == pytest.approx(float(w[-1] - w[0]), abs=1e-10)


def test_make_observable_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        make_observable(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_flux_closed_form_two_level():
    theta = make_observable(np.diag([1.0, -1.0]))
    rho = diag_state(0.2, 0.8)
    sigma = diag_state(0.6, 0.4)
    assert flux(theta, rho, sigma) == pytest.approx(-0.8, abs=1e-14)


def test_flux_attains_capacity_between_orthogonal_pure_states():
    theta = make_observable(np.diag([1.0, -1.0]))
    value = flux(theta, diag_state(1.0, 0.0), diag_state(0.0, 1.0))
    assert value == pytest.approx(theta.capacity, abs=1e-14)


def test_flux_is_invariant_under_observable_shifts():
    rng = rng_for(30, stream=301)
    theta = random_observable(rng, 3)
    rho = validate_state(random_state_np(rng, 3))
    sigma = validate_state(random_state_np(rng, 3))
    base = flux(theta, rho, sigma)
    for lam in (-2.5, 0.7):
        shifted = make_observable(theta.matrix - lam * np.eye(3))
        assert flux(shifted, rho, sigma) == pytest.approx(base, abs=1e-10)


def test_flux_never_exceeds_capacity_on_random_draws():
    for k in range(20):
        rng = rng_for(k, stream=301)
        dim = 2 + k % 3
        theta = random_observable(rng, dim)
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        assert abs(flux(theta, rho, sigma)) <= theta.capacity + 1e-12


def test_optimal_shift_grid_scan():
    theta = make_observable(np.diag([0.0, 4.0]))
    check = optimal_shift_check(theta, np.linspace(-2.0, 6.0, 1601))
    assert check.holds
    assert check.half_capacity == 2.0
    assert check.value_at_lambda_star == pytest.approx(2.0, abs=1e-14)
    assert check.grid_min >= 2.0 - 1e-12
    assert check.grid_min <= 2.0 + check.grid_step
    assert check.grid_argmin == pytest.approx(2.0, abs=check.grid_step)


def test_optimal_shift_rejects_a_degenerate_grid():
    theta = make_observable(np.diag([0.0, 4.0]))
    with pytest.raises(ValidationError):
        optimal_shift_check(theta, [1.0])


def test_optimal_shift_rejects_a_non_finite_grid():
    # a NaN shift used to give NaN fields, and an infinite one an infinite
    # grid step that passed the resolution check vacuously
    theta = make_observable(np.diag([0.0, 4.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="shift grid"):
            optimal_shift_check(theta, [0.0, bad])


def test_qtur_check_reads_holds_from_its_slack():
    assert "holds" not in {f.name for f in dataclasses.fields(QturCheck)}
    rho, sigma = diag_state(0.2, 0.8), diag_state(0.6, 0.4)
    check = qtur_check(np.diag([1.0, -1.0]), rho, sigma)
    for slack, holds in ((check.slack, True), (-2e-9, False), (-5e-10, True),
                         (math.inf, True)):
        assert dataclasses.replace(check, slack=slack).holds is holds


def test_sign_decomposition_two_level_closed_form():
    rho = diag_state(0.2, 0.8)
    sigma = diag_state(0.6, 0.4)
    dec = sign_decomposition(rho, sigma)
    # rho - sigma = diag(-0.4, 0.4): sign operator diag(-1, 1), no kernel
    assert np.max(np.abs(dec.sign_operator - np.diag([-1.0, 1.0]))) <= 1e-12
    assert np.max(np.abs(dec.kernel_projector)) <= 1e-12
    assert dec.epsilon == pytest.approx(0.0, abs=1e-12)
    w = dec.difference_spectrum.eigenvalues
    assert float(np.sum(np.abs(w))) == pytest.approx(0.8, abs=1e-13)


def test_sign_decomposition_with_a_shared_kernel_component():
    # both states give weight 0.2 to the third level, so the difference
    # has a one-dimensional kernel carrying epsilon = 0.2
    rho = diag_state(0.5, 0.3, 0.2)
    sigma = diag_state(0.3, 0.5, 0.2)
    dec = sign_decomposition(rho, sigma)
    assert dec.epsilon == pytest.approx(0.2, abs=1e-12)
    assert np.max(np.abs(dec.kernel_projector - np.diag([0.0, 0.0, 1.0]))) <= 1e-10
    unit = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
    assert np.max(np.abs(unit - np.eye(3))) <= 1e-10


def test_sign_decomposition_identities_on_random_pairs():
    for k in range(12):
        rng = rng_for(k, stream=302)
        dim = 2 + k % 3
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        dec = sign_decomposition(rho, sigma)
        unit = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
        assert np.max(np.abs(unit - np.eye(dim))) <= 1e-9
        # the sign operator is Hermitian with eigenvalues in {-1, 0, 1}
        assert np.max(np.abs(dec.sign_operator - dec.sign_operator.conj().T)) <= 1e-12


def test_sign_decomposition_rejects_equal_states():
    rho = diag_state(0.4, 0.6)
    with pytest.raises(DegenerateInputError):
        sign_decomposition(rho, diag_state(0.4, 0.6))
    with pytest.raises(ValidationError):
        sign_decomposition(rho, diag_state(1.0 / 3, 1.0 / 3, 1.0 / 3))


def test_qtur_equality_on_the_extremal_family():
    rho, sigma, _ = saturating_family(2.0)
    dec = sign_decomposition(rho, sigma)
    check = qtur_check(dec.sign_operator, rho, sigma)
    assert not check.trivial
    assert check.holds
    assert check.floor == pytest.approx(FLOOR_AT_GAP_2, rel=1e-10)
    assert check.lhs == pytest.approx(check.floor, rel=1e-10)
    assert abs(check.slack) <= 1e-10


def test_qtur_holds_on_random_pairs():
    for k in range(12):
        rng = rng_for(k, stream=303)
        dim = 2 + k % 3
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        dec = sign_decomposition(rho, sigma)
        check = qtur_check(dec.sign_operator, rho, sigma)
        assert check.holds
        assert check.slack >= -1e-9


def test_single_input_checks_reject_stacks_by_name():
    # both used to fail inside numpy: "the truth value of an array ... is
    # ambiguous" and "operands could not be broadcast together"
    rho = validate_state(np.stack([np.diag([0.2, 0.8])] * 2))
    sigma = validate_state(np.stack([np.diag([0.6, 0.4])] * 2))
    with pytest.raises(FluxboundError, match=r"^operator .*\(2, 2, 2\)"):
        qtur_check(np.stack([np.diag([1.0, -1.0])] * 2), rho, sigma)
    with pytest.raises(FluxboundError, match=r"^rho .*\(2, 2, 2\)"):
        qtur_check(np.diag([1.0, -1.0]), rho, take_row(sigma, 0))
    thetas = make_observable(np.stack([np.diag([1.0, -1.0])] * 3))
    with pytest.raises(FluxboundError, match=r"^observable .*\(3, 2, 2\)"):
        optimal_shift_check(thetas, np.linspace(-2.0, 2.0, 3))


def test_qtur_rejects_coinciding_means():
    rho = diag_state(0.2, 0.8)
    sigma = diag_state(0.6, 0.4)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # zero mean in both states
    with pytest.raises(DegenerateInputError):
        qtur_check(flip, rho, sigma)


def test_qtur_is_trivial_at_infinite_divergence():
    mixed = validate_state(0.5 * np.eye(2))
    pure = diag_state(1.0, 0.0)
    check = qtur_check(np.diag([1.0, -1.0]), mixed, pure)
    assert check.trivial and check.holds
    assert check.floor == 0.0
    assert check.slack == math.inf


def test_evaluate_bounds_orders_the_whole_chain():
    for k in range(15):
        rng = rng_for(k, stream=304)
        dim = 2 + k % 3
        theta = random_observable(rng, dim)
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        report = evaluate_bounds(theta, rho, sigma)
        assert set(report.verdicts) == {"capacity", "trace_norm", "pinsker_sym",
                                        "pinsker_fwd", "main", "strengthened",
                                        "onsager"}
        assert report.all_hold()
        quarter = 0.25 * report.trace_norm ** 2
        assert report.flux_ratio_sq <= quarter + 1e-9
        assert quarter <= report.strengthened_rhs + 1e-9
        assert report.strengthened_rhs <= report.main_rhs + 1e-12
        assert report.main_rhs <= 1.0 + 1e-12
        assert quarter <= report.pinsker_rhs + 1e-9
        assert 0.0 <= report.epsilon <= 1.0


def test_evaluate_bounds_is_tight_at_gap_two():
    rho, sigma, _ = saturating_family(2.0)
    theta = make_observable(np.diag([-1.0, 1.0]))
    report = evaluate_bounds(theta, rho, sigma)
    assert report.flux_ratio_sq == pytest.approx(0.5800256583859739, abs=1e-8)
    assert report.main_rhs == pytest.approx(0.5800256583859739, abs=1e-8)
    assert report.all_hold()


def test_evaluate_bounds_tightness_far_from_equilibrium():
    # the extremal pair at gap 3 sits beyond divergence 2 yet still below
    # saturation, and meets the curve exactly
    rho, sigma, family = saturating_family(3.0)
    theta = make_observable(np.diag([-1.0, 1.0]))
    report = evaluate_bounds(theta, rho, sigma)
    assert report.s_tilde.value == pytest.approx(2.715444760934599, rel=1e-12)
    assert report.main_rhs == pytest.approx(0.8192933610763514, rel=1e-9)
    assert report.main_rhs < 1.0
    assert report.flux_ratio_sq == pytest.approx(report.main_rhs, rel=1e-9)
    assert abs(report.verdicts["main"].slack) <= 1e-9
    assert report.all_hold()


def test_evaluate_bounds_flags_a_degenerate_capacity():
    theta = make_observable(3.0 * np.eye(2))
    report = evaluate_bounds(theta, diag_state(0.2, 0.8), diag_state(0.6, 0.4))
    assert report.degenerate_capacity
    assert report.all_hold()
    assert all(v.trivial for v in report.verdicts.values())


def test_evaluate_bounds_flags_coinciding_states():
    theta = make_observable(np.diag([1.0, -1.0]))
    report = evaluate_bounds(theta, diag_state(0.3, 0.7), diag_state(0.3, 0.7))
    assert report.states_equal
    assert report.flux == pytest.approx(0.0, abs=1e-14)
    assert report.all_hold()


def test_evaluate_bounds_with_infinite_divergence():
    mixed = validate_state(0.5 * np.eye(2))
    pure = diag_state(1.0, 0.0)
    theta = make_observable(np.diag([1.0, -1.0]))
    report = evaluate_bounds(theta, mixed, pure)
    assert not report.s_tilde.finite
    assert report.main_rhs == 1.0
    assert report.verdicts["main"].trivial
    assert report.verdicts["pinsker_sym"].trivial
    assert report.verdicts["onsager"].trivial
    assert report.all_hold()
    assert report.pinsker_rhs == math.inf


def test_evaluate_bounds_rejects_mixed_dimensions():
    theta = make_observable(np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError):
        evaluate_bounds(theta, diag_state(0.2, 0.8),
                        validate_state(np.eye(3) / 3.0))


def test_bound_report_all_hold_reflects_verdicts(monkeypatch):
    # force the curve to zero: the main and strengthened steps must fail
    import fluxbound.bounds as bounds_module

    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x, config=None: 0.0)
    theta = make_observable(np.diag([1.0, -1.0]))
    report = evaluate_bounds(theta, diag_state(0.2, 0.8), diag_state(0.6, 0.4))
    assert not report.verdicts["main"].holds
    assert not report.all_hold()


def test_evaluate_bounds_on_a_stack_matches_row_by_row():
    # degenerate rows become per-row flags inside a stack: zero capacity,
    # coinciding states and an infinite divergence sit among random rows
    rng = rng_for(40, stream=301)
    thetas = [random_observable(rng, 2).matrix for _ in range(3)]
    rhos = [random_state_np(rng, 2) for _ in range(3)]
    sigmas = [random_state_np(rng, 2) for _ in range(3)]
    thetas += [3.0 * np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, -1.0])]
    rhos += [np.diag([0.3, 0.7]), np.diag([0.3, 0.7]), 0.5 * np.eye(2)]
    sigmas += [np.diag([0.6, 0.4]), np.diag([0.3, 0.7]), np.diag([1.0, 0.0])]
    stacked = evaluate_bounds(make_observable(np.stack(thetas)),
                              validate_state(np.stack(rhos)),
                              validate_state(np.stack(sigmas)))
    assert stacked.degenerate_capacity.tolist() == [False] * 3 + [True, False, False]
    assert stacked.states_equal.tolist() == [False] * 4 + [True, False]
    assert stacked.s_tilde.finite.tolist() == [True] * 5 + [False]
    for row, (theta, rho, sigma) in enumerate(zip(thetas, rhos, sigmas)):
        single = evaluate_bounds(make_observable(theta), validate_state(rho),
                                 validate_state(sigma))
        assert take_row(stacked, row) == single
    # the stack's sign decomposition flags what a single pair raises on
    dec = sign_decomposition(validate_state(np.stack(rhos)),
                             validate_state(np.stack(sigmas)))
    assert dec.states_equal.tolist() == [False] * 4 + [True, False]


def test_verdicts_read_holds_from_their_slack(monkeypatch):
    # a verdict stores its slack and whether it is trivial; whether it holds
    # is derived, per row of a stack, with trivial rows at slack +inf
    import fluxbound.bounds as bounds_module

    assert [f.name for f in dataclasses.fields(Verdict)] == ["slack", "trivial"]
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x: 0.0 * np.asarray(x))
    thetas = [np.diag([1.0, -1.0]), 3.0 * np.eye(2), np.diag([1.0, -1.0])]
    rhos = [np.diag([0.2, 0.8]), np.diag([0.2, 0.8]), 0.5 * np.eye(2)]
    sigmas = [np.diag([0.6, 0.4]), np.diag([0.6, 0.4]), np.diag([1.0, 0.0])]
    report = evaluate_bounds(make_observable(np.stack(thetas)),
                             validate_state(np.stack(rhos)),
                             validate_state(np.stack(sigmas)))
    for verdict in report.verdicts.values():
        assert np.array_equal(verdict.holds,
                              verdict.slack >= -DEFAULT_TOLERANCES.slack)
    main = report.verdicts["main"]
    assert main.holds.tolist() == [False, True, True]
    assert main.trivial.tolist() == [False, True, True]
    assert main.slack[1] == math.inf
    assert report.all_hold().tolist() == [False, True, True]


def test_stacked_state_errors_name_the_first_bad_row():
    stack = np.stack([np.eye(2) / 2, np.diag([0.5, 0.6]), np.diag([0.5, 0.7])])
    with pytest.raises(ValidationError, match="row 1 of the stack"):
        validate_state(stack)
    stack = np.stack([np.eye(2) / 2, np.eye(2) / 2, np.diag([1.5, -0.5])])
    with pytest.raises(ValidationError, match="row 2 of the stack"):
        validate_state(stack)
