"""Observables, fluxes, sign decomposition, and the bound chain."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from conftest import random_observable, random_state_np, rng_for
from fluxbound import (DEFAULT_TOLERANCES, QturCheck, ShiftCheck, Verdict,
                       evaluate_bounds, flux, local_system_bound_check,
                       make_observable, optimal_shift_check, product_observable,
                       qtur_check, sign_decomposition, validate_state)
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


def test_shift_check_reads_holds_from_its_margins():
    assert "holds" not in {f.name for f in dataclasses.fields(ShiftCheck)}
    theta = make_observable(np.diag([0.0, 4.0]))
    check = optimal_shift_check(theta, np.linspace(-2.0, 6.0, 1601))
    assert check.holds is True
    slack, step = DEFAULT_TOLERANCES.slack, check.grid_step
    shift_norm = DEFAULT_TOLERANCES.shift_norm
    # the grid minimum must lie in [half - slack, half + step], and the
    # value at lambda_star equal half within shift_norm
    for changes, holds in (({"grid_min": 2.0 - 0.5 * slack}, True),
                           ({"grid_min": 2.0 - 2.0 * slack}, False),
                           ({"grid_min": 2.0 + step}, True),
                           ({"grid_min": 2.0 + 2.0 * step}, False),
                           ({"grid_min": math.nan}, False),
                           ({"value_at_lambda_star": 2.0 + 0.5 * shift_norm}, True),
                           ({"value_at_lambda_star": 2.0 - 2.0 * shift_norm}, False),
                           ({"value_at_lambda_star": math.nan}, False)):
        assert dataclasses.replace(check, **changes).holds is holds


def test_qtur_check_reads_holds_from_its_slack():
    assert "holds" not in {f.name for f in dataclasses.fields(QturCheck)}
    rho, sigma = diag_state(0.2, 0.8), diag_state(0.6, 0.4)
    check = qtur_check(np.diag([1.0, -1.0]), rho, sigma)
    for slack, holds in ((check.verdict.slack, True), (-2e-9, False), (-5e-10, True),
                         (math.inf, True)):
        assert dataclasses.replace(check.verdict, slack=slack).holds is holds


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
    assert check.verdict.applies
    assert check.verdict.holds
    assert check.floor == pytest.approx(FLOOR_AT_GAP_2, rel=1e-10)
    assert check.lhs == pytest.approx(check.floor, rel=1e-10)
    assert abs(check.verdict.slack) <= 1e-10


def test_qtur_holds_on_random_pairs():
    for k in range(12):
        rng = rng_for(k, stream=303)
        dim = 2 + k % 3
        rho = validate_state(random_state_np(rng, dim))
        sigma = validate_state(random_state_np(rng, dim))
        dec = sign_decomposition(rho, sigma)
        check = qtur_check(dec.sign_operator, rho, sigma)
        assert check.verdict.holds
        assert check.verdict.slack >= -1e-9


def test_single_input_checks_reject_stacks_by_name():
    # both used to fail inside numpy: "the truth value of an array ... is
    # ambiguous" and "operands could not be broadcast together"; qtur_check
    # now takes stacks, but its three arguments must share one shape
    rho = validate_state(np.stack([np.diag([0.2, 0.8])] * 2))
    sigma = validate_state(np.stack([np.diag([0.6, 0.4])] * 2))
    with pytest.raises(FluxboundError,
                       match=r"^sigma has shape \(2, 2\), operator \(2, 2, 2\)"):
        qtur_check(np.stack([np.diag([1.0, -1.0])] * 2), rho, take_row(sigma, 0))
    with pytest.raises(FluxboundError, match=r"^rho .*\(2, 2, 2\)"):
        qtur_check(np.diag([1.0, -1.0]), rho, take_row(sigma, 0))


@pytest.mark.parametrize("check", [evaluate_bounds, flux, local_system_bound_check])
def test_bound_checks_name_the_state_of_another_shape(check):
    # used to say only "observable and states must share one dimension";
    # flux escaped as numpy's "operands could not be broadcast together"
    thetas = make_observable(np.stack([np.diag([1.0, -1.0])] * 2))
    rhos = validate_state(np.stack([np.diag([0.2, 0.8])] * 2))
    sigmas = validate_state(np.stack([np.diag([0.6, 0.4])] * 3))
    with pytest.raises(ValidationError,
                       match=r"^sigma has shape \(3, 2, 2\), observable \(2, 2, 2\)$"):
        check(thetas, rhos, sigmas)
    theta = make_observable(np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(ValidationError,
                       match=r"^rho has shape \(2, 2\), observable \(3, 3\)$"):
        check(theta, take_row(rhos, 0), take_row(rhos, 1))


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
    assert not check.verdict.applies and check.verdict.holds
    assert check.floor == 0.0
    assert not check.verdict.applies


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
    assert all(not v.applies for v in report.verdicts.values())


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
    assert not report.verdicts["main"].applies
    assert not report.verdicts["pinsker_sym"].applies
    assert not report.verdicts["onsager"].applies
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
    # a verdict stores its slack and whether it applies; whether it holds
    # is derived, per row of a stack: it holds where it does not apply
    import fluxbound.bounds as bounds_module

    assert [f.name for f in dataclasses.fields(Verdict)] == ["slack", "applies"]
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x: 0.0 * np.asarray(x))
    # an ordinary row, a degenerate capacity, an infinite entropy and
    # coinciding states
    thetas = [np.diag([1.0, -1.0]), 3.0 * np.eye(2), np.diag([1.0, -1.0]),
              np.diag([1.0, -1.0])]
    rhos = [np.diag([0.2, 0.8]), np.diag([0.2, 0.8]), 0.5 * np.eye(2),
            np.diag([0.3, 0.7])]
    sigmas = [np.diag([0.6, 0.4]), np.diag([0.6, 0.4]), np.diag([1.0, 0.0]),
              np.diag([0.3, 0.7])]
    report = evaluate_bounds(make_observable(np.stack(thetas)),
                             validate_state(np.stack(rhos)),
                             validate_state(np.stack(sigmas)))
    for verdict in report.verdicts.values():
        assert np.array_equal(verdict.holds,
                              ~verdict.applies
                              | (verdict.slack >= -DEFAULT_TOLERANCES.slack))
    main = report.verdicts["main"]
    assert main.holds.tolist() == [False, True, True, True]
    assert main.applies.tolist() == [True, False, False, False]
    assert not main.applies[1]
    assert report.all_hold().tolist() == [False, True, True, True]
    # a single row's verdict holds as a bool
    for slack, applies, holds in ((-1.0, True, False), (-1.0, False, True),
                                  (math.nan, True, False), (math.nan, False, True),
                                  (-5e-10, True, True)):
        assert Verdict(slack, applies).holds is holds
    # holds reads the tolerance at call time, as config promises (the
    # package's flux function hides the module of that name)
    flux_module = importlib.import_module("fluxbound.flux")
    monkeypatch.setattr(flux_module, "DEFAULT_TOLERANCES",
                        dataclasses.replace(DEFAULT_TOLERANCES, slack=1.0))
    assert Verdict(-0.5, True).holds is True


def test_a_verdict_tallies_the_rows_where_it_applies():
    # (violations, worst slack, row) at a tolerance
    tally = Verdict(np.array([0.5, -1.0, 0.2, -1.0, -5e-10]), np.full(5, True)).tally
    assert tally(1e-9) == (2, -1.0, 1)  # the first row of the minimum
    assert tally(1e-10) == (3, -1.0, 1)
    # a NaN slack stays the worst, though a lower slack follows it
    failed, worst, row = Verdict(np.array([0.5, math.nan, -2.0, math.nan]),
                                 np.full(4, True)).tally(1e-9)
    assert (failed, row) == (3, 1) and math.isnan(worst)
    # rows that do not apply are never counted, NaN or not
    rows = Verdict(np.array([-5.0, 0.1, math.nan, -1.0]),
                   np.array([False, True, False, True]))
    assert rows.tally(1e-9) == (1, -1.0, 3)
    # no applying row
    assert Verdict(np.array([-1.0, math.nan]), np.full(2, False)).tally(1e-9) == (
        0, math.inf, None)
    # a single row's verdict is a stack of one
    assert Verdict(-1.0, True).tally(1e-9) == (1, -1.0, 0)
    assert Verdict(-1.0, False).tally(1e-9) == (0, math.inf, None)


def test_one_applies_covers_every_row_of_a_stacked_tally():
    # one bool over a stack of slacks used to count only row 0
    verdict = Verdict(np.array([0.5, -1.0, -2.0]), True)
    assert verdict.tally(1e-9) == (2, -2.0, 2)
    assert verdict.tally(1e-9)[0] == np.count_nonzero(~verdict.holds_at(1e-9))


def test_stacked_state_errors_name_the_first_bad_row():
    stack = np.stack([np.eye(2) / 2, np.diag([0.5, 0.6]), np.diag([0.5, 0.7])])
    with pytest.raises(ValidationError, match="row 1 of the stack"):
        validate_state(stack)
    stack = np.stack([np.eye(2) / 2, np.eye(2) / 2, np.diag([1.5, -0.5])])
    with pytest.raises(ValidationError, match="row 2 of the stack"):
        validate_state(stack)


def _full_spectrum_shift_check(observable, grid):
    """optimal_shift_check as it scanned every eigenvalue, max_k |w_k - s|
    over a (B, G, n) array, on a stack of observables."""
    w = observable.eigenvalues
    shifts = np.broadcast_to(np.asarray(grid, dtype=np.float64),
                             (len(w), np.shape(grid)[-1]))
    norms = np.max(np.abs(w[:, None, :] - shifts[:, :, None]), axis=2)
    return ShiftCheck(
        grid_min=norms.min(axis=1),
        grid_argmin=shifts[np.arange(len(w)), norms.argmin(axis=1)],
        value_at_lambda_star=np.abs(w - observable.lambda_star[:, None]).max(axis=1),
        half_capacity=0.5 * observable.capacity,
        grid_step=np.max(np.diff(np.sort(shifts, axis=1), axis=1), axis=1),
    )


def _shift_test_spectra(rng, dim):
    """(B, dim, dim) Hermitian stacks: random ones at scales from 1e-150
    to 1e148, diagonal ones with repeated eigenvalues, multiples of I.  The
    grids below stay under 1e150 in magnitude, so no difference overflows."""
    scales = 10.0 ** np.array([-150.0, -20.0, 0.0, 3.0, 20.0, 148.0])
    a = rng.standard_normal((6, dim, dim)) + 1j * rng.standard_normal((6, dim, dim))
    random = 0.5 * (a + a.conj().swapaxes(1, 2)) * scales[:, None, None]
    values = rng.integers(-2, 3, size=(6, dim)).astype(np.float64)
    repeated = np.einsum("bi,ij->bij", values * scales[:, None], np.eye(dim))
    multiples = np.array([0.0, -1.0, 7.5, 1e-150, -1e148, 2.0])
    identity = np.einsum("b,ij->bij", multiples, np.eye(dim))
    return random, repeated.astype(np.complex128), identity.astype(np.complex128)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_the_two_end_shift_scan_equals_the_full_spectrum_scan(dim):
    # rounding is monotone, so max_k |fl(w_k - s)| is attained at an end of
    # the sorted spectrum: the two-end scan gives every field bit for bit
    rng = rng_for(1600 + dim)
    for matrices in _shift_test_spectra(rng, dim):
        theta = make_observable(matrices)
        scale = np.maximum(np.abs(theta.eigenvalues).max(axis=1), 1e-150)
        span = np.maximum(theta.capacity, scale)
        # per-row grids below, across and above the spectrum, plus shared
        # grids at fixed positions (ties and far shifts included)
        low, high = theta.theta_min, theta.theta_max
        grids = [np.linspace(low - 3.0 * span, low - span, 257, axis=1),
                 np.linspace(low - span, high + span, 1001, axis=1),
                 np.linspace(high + span, high + 3.0 * span, 257, axis=1),
                 np.linspace(-2.0, 2.0, 401), np.linspace(-1e150, 1e150, 301),
                 np.array([-1e-150, 0.0, 1e-150]), rng.uniform(-3.0, 3.0, 64)]
        for grid in grids:
            check = optimal_shift_check(theta, grid)
            expected = _full_spectrum_shift_check(theta, grid)
            for field in dataclasses.fields(ShiftCheck):
                got, want = getattr(check, field.name), getattr(expected, field.name)
                assert got.tobytes() == want.tobytes(), (field.name, grid[:3])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("degenerate", [False, True])
def test_product_observable_takes_its_spectrum_from_its_factors(dims, degenerate):
    rng = rng_for(10 * dims[0] + dims[1], stream=614)
    first, second = (random_observable(rng, d) for d in dims)
    if degenerate:  # a multiple of the identity repeats every value
        second = make_observable(2.5 * np.eye(dims[1]))
    joint = product_observable(first, second)
    raw = np.kron(first.matrix, second.matrix)
    assert np.array_equal(joint.matrix, make_observable(raw).matrix)
    w, v = joint.eigenvalues, joint.eigenvectors
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.all(np.diff(w) >= 0.0)
    assert (joint.theta_min, joint.theta_max) == (w[0], w[-1])
    assert np.max(np.abs(w - np.linalg.eigvalsh(raw))) <= 1e-10 * scale
    # eigh's reconstruction and orthogonality bounds
    assert np.max(np.abs((v * w) @ v.conj().T - raw)) <= 1e-10 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-10
