"""The self-verification suites: clean runs stay clean, broken bounds
are caught and named."""

import math

import numpy as np
import pytest

import fluxbound.bounds as bounds_module
import fluxbound.linalg as linalg_module
import fluxbound.verify as verify_module
from conftest import (random_density, random_observable, random_scenario,
                      rows_of)
from fluxbound import (BATH_RESET, BOTH_RESET, SpinPairParams, correlation,
                       correlation_bound_report, divergence_from_gap,
                       entropy_flux, entropy_flux_chain_check, evaluate_bounds,
                       evolve, expectation, flux_ratio_sq_bound,
                       gap_from_divergence, local_system_bound_check,
                       make_scenario, optimal_shift_check, qtur_check,
                       saturating_family, sign_decomposition,
                       spin_pair_timeseries, substream, thermal_environment,
                       variance_ratio_floor)
from fluxbound.errors import ValidationError
from fluxbound.linalg import take_row
from fluxbound.montecarlo import DrawConfig, qubit_matrices, validate_triple
from fluxbound.verify import (SuiteResult, VerifyConfig, run_verify,
                              suite_bound_chain, suite_bound_functions,
                              suite_capacity, suite_correlation,
                              suite_local_bound, suite_optimal_shift,
                              suite_saturation, suite_sign_identities,
                              suite_thermo_chain, suite_uncertainty)

SUITE_NAMES = ("bound_functions", "capacity", "bound_chain", "sign_identities",
               "uncertainty", "optimal_shift", "thermo_chain", "local_bound",
               "correlation", "saturation")


def test_all_suites_pass_on_a_small_budget():
    report = run_verify(VerifyConfig(draws=24))
    assert report.ok
    assert tuple(s.name for s in report.suites) == SUITE_NAMES
    for suite in report.suites:
        assert suite.violations == 0
        assert suite.checks > 0
        assert math.isfinite(suite.min_slack)


def test_verify_is_deterministic():
    a = run_verify(VerifyConfig(draws=12))
    b = run_verify(VerifyConfig(draws=12))
    for sa, sb in zip(a.suites, b.suites):
        assert sa.checks == sb.checks
        assert sa.min_slack == sb.min_slack
        assert sa.worst == sb.worst


def test_verify_config_validation():
    with pytest.raises(ValidationError):
        VerifyConfig(draws=0)
    # a float draw count used to escape as a bare TypeError from range()
    with pytest.raises(ValidationError, match="draws must be an integer"):
        VerifyConfig(draws=2.5)
    with pytest.raises(ValidationError):
        VerifyConfig(slack_tolerance=-1.0)
    for slack in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="slack_tolerance"):
            VerifyConfig(slack_tolerance=slack)


def test_verify_refuses_draw_counts_beyond_the_key():
    # substream refuses a draw index past 2^48 only once a run reaches it;
    # the config refuses the count up front, as DrawConfig does (no such
    # run is made here)
    assert VerifyConfig(draws=1 << 48).draws == 1 << 48
    with pytest.raises(ValidationError, match="^draws must be at most 2\\^48"):
        VerifyConfig(draws=(1 << 48) + 1)


def test_both_configs_check_the_slack_tolerance_alike():
    for slack in (0.0, -1.0, math.nan, math.inf):
        messages = set()
        for config in (VerifyConfig, DrawConfig):
            with pytest.raises(ValidationError) as excinfo:
                config(slack_tolerance=slack)
            messages.add(str(excinfo.value))
        assert messages == {f"slack_tolerance must be positive and finite, "
                            f"got {slack!r}"}


def test_a_broken_curve_is_caught_and_named(monkeypatch):
    # halving the curve must break the saturation equality and the chain;
    # the curve takes a float or an array of divergences
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x:
                        0.5 * np.tanh(0.5 * bounds_module.gap_from_divergence(x)) ** 2)
    report = run_verify(VerifyConfig(draws=12))
    assert not report.ok
    failing = {s.name for s in report.suites if s.violations > 0}
    assert "saturation" in failing
    assert "bound_functions" in failing  # the product identity breaks too
    worst = next(s for s in report.suites if s.name == "saturation").worst
    assert "a=" in worst  # the violation names the offending input
    assert "np.float64" not in worst


def test_a_nan_curve_is_a_violation(monkeypatch):
    # verify used to score a NaN slack as a pass (slack < -tolerance is
    # False for NaN) and reported ok with no violation in any suite
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x: math.nan * x)
    report = run_verify(VerifyConfig(draws=12))
    assert not report.ok
    failing = {s.name for s in report.suites if s.violations > 0}
    assert {"bound_functions", "bound_chain", "saturation"} <= failing


def test_suite_result_counts_a_nan_slack_as_a_violation():
    result = SuiteResult("probe", 1e-9)
    for slack in (1.0, -5e-10, math.nan, -2e-9):
        result.record(slack, f"slack {slack!r}")
    assert (result.checks, result.violations) == (4, 2)
    # the first NaN is the minimum, and a lower slack after it does not
    # displace it
    assert math.isnan(result.min_slack)
    assert result.worst == "slack nan"


def test_sign_identities_do_not_depend_on_the_scoring_tolerance():
    # the identities hold to rounding, far inside their fixed 1e-9; scoring
    # them against --tolerance 1e-16 used to flag half of them
    report = run_verify(VerifyConfig(draws=12, slack_tolerance=1e-16))
    suite = next(s for s in report.suites if s.name == "sign_identities")
    assert suite.checks == 36
    assert suite.violations == 0


def test_a_broken_floor_is_caught(monkeypatch):
    # doubling the variance floor must break the uncertainty equality and
    # the product identity
    original = bounds_module.variance_ratio_floor
    monkeypatch.setattr(bounds_module, "variance_ratio_floor",
                        lambda x: 2.0 * original(x))
    report = run_verify(VerifyConfig(draws=12))
    assert not report.ok
    failing = {s.name for s in report.suites if s.violations > 0}
    assert "bound_functions" in failing
    assert "uncertainty" in failing


# ---------------------------------------------------------------------------
# the batched suites against a draw-by-draw run of the single-input API


def _reference_draws(config, stream, halved=False):
    count = max(config.draws // 2, 20) if halved else config.draws
    for k in range(count):
        yield k, 2 + k % 3, substream(config.master_seed, k, stream)


def _record_chain(result, chain, k):
    # a step that does not apply to the draw is left out
    for name, step in chain.steps.items():
        if step.applies:
            result.record(step.slack, f"draw {k} {name}")


def _reference_bound_functions(config):
    result = SuiteResult("bound_functions", config.slack_tolerance)
    for x in np.geomspace(1e-6, 50.0, 121).tolist():
        roundtrip = divergence_from_gap(gap_from_divergence(x))
        result.record(1e-10 - abs(roundtrip - x), f"roundtrip at x={x!r}")
    for x in np.geomspace(1e-4, 50.0, 121).tolist():
        product = flux_ratio_sq_bound(x) * (1.0 + variance_ratio_floor(x))
        result.record(1e-10 - abs(product - 1.0), f"product identity at x={x!r}")
    for x in np.geomspace(1e-6, 200.0, 121).tolist():
        result.record(min(1.0, 0.5 * x) - flux_ratio_sq_bound(x),
                      f"envelope at x={x!r}")
    result.record(1e-3 - abs(flux_ratio_sq_bound(1e-8) / 0.5e-8 - 1.0),
                  "small-x limit")
    xs = np.geomspace(1e-4, 60.0, 61).tolist()
    for x, later in zip(xs, xs[1:]):
        result.record(flux_ratio_sq_bound(later) - flux_ratio_sq_bound(x),
                      f"bound monotone at {x!r}")
        result.record(variance_ratio_floor(x) - variance_ratio_floor(later),
                      f"floor monotone at {x!r}")
    return result


def _reference_capacity(config):
    result = SuiteResult("capacity", config.slack_tolerance)
    for k, dim, rng in _reference_draws(config, 2):
        theta = random_observable(rng, dim)
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        phi = expectation(theta.matrix, rho.matrix - sigma.matrix)
        result.record(theta.capacity - abs(phi), f"draw {k} dim {dim}")
    return result


def _reference_bound_chain(config):
    result = SuiteResult("bound_chain", config.slack_tolerance)
    for k, dim, rng in _reference_draws(config, 3):
        if k % 2 == 0:
            theta, rho, sigma = validate_triple(*qubit_matrices(rng.random(7)))
        else:
            theta = random_observable(rng, dim)
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
        report = evaluate_bounds(theta, rho, sigma)
        for name, verdict in report.verdicts.items():
            if verdict.applies:
                result.record(verdict.slack, f"draw {k} {name}")
        if report.s_tilde.finite and not report.degenerate_capacity:
            result.record(1.0 - report.main_rhs, f"draw {k} curve <= 1")
            result.record(report.main_rhs - report.strengthened_rhs,
                          f"draw {k} strengthened <= main")
    return result


def _reference_sign_identities(config):
    result = SuiteResult("sign_identities", config.slack_tolerance)
    for k, dim, rng in _reference_draws(config, 4):
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        dec = sign_decomposition(rho, sigma)
        tn = float(np.abs(dec.difference_spectrum.eigenvalues).sum())
        gap = expectation(dec.sign_operator, rho.matrix - sigma.matrix)
        weights = (expectation(dec.kernel_projector, rho.matrix)
                   - expectation(dec.kernel_projector, sigma.matrix))
        unit = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
        result.record(1e-9 - abs(gap - tn), f"draw {k} trace-norm recovery")
        result.record(1e-9 - abs(weights), f"draw {k} kernel weight")
        result.record(1e-9 - float(np.abs(unit - np.eye(dim)).max()),
                      f"draw {k} squares to identity")
    return result


def _reference_uncertainty(config):
    result = SuiteResult("uncertainty", config.slack_tolerance)
    for k, dim, rng in _reference_draws(config, 5):
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        check = qtur_check(sign_decomposition(rho, sigma).sign_operator, rho, sigma)
        if check.verdict.applies:
            result.record(check.verdict.slack, f"draw {k} dim {dim}")
    grid = np.linspace(0.2, 6.0, 30)
    rhos, sigmas, _ = saturating_family(grid)
    for k, a in enumerate(grid.tolist()):
        rho, sigma = take_row(rhos, k), take_row(sigmas, k)
        check = qtur_check(sign_decomposition(rho, sigma).sign_operator, rho, sigma)
        result.record(1e-8 - abs(check.verdict.slack), f"equality at a={a!r}")
    return result


def _reference_optimal_shift(config):
    result = SuiteResult("optimal_shift", config.slack_tolerance)
    for k, dim, rng in _reference_draws(config, 6, halved=True):
        theta = random_observable(rng, dim)
        span = theta.capacity if theta.capacity > 0 else 1.0
        check = optimal_shift_check(theta, np.linspace(
            theta.theta_min - span, theta.theta_max + span, 10000))
        half = check.half_capacity
        result.record(check.grid_min - half, f"draw {k} grid minimum")
        result.record(half + check.grid_step - check.grid_min,
                      f"draw {k} grid resolution")
        result.record(1e-12 - abs(check.value_at_lambda_star - half),
                      f"draw {k} value at the optimal shift")
    return result


def _reference_thermo_chain(config):
    result = SuiteResult("thermo_chain", config.slack_tolerance)
    for k, _, rng in _reference_draws(config, 7, halved=True):
        scenario = random_scenario(rng, 2, 2)
        _record_chain(result, entropy_flux_chain_check(scenario, evolve(scenario)), k)
        h_env = np.diag(np.sort(rng.random(2) * 3.0)).astype(np.complex128)
        beta = 0.1 + 4.9 * rng.random()
        gibbs = thermal_environment(h_env, beta)
        thermal = make_scenario(scenario.rho_system, gibbs, scenario.unitary)
        thermal_outcome = evolve(thermal)
        ef = entropy_flux(thermal, thermal_outcome)
        heat = expectation(h_env, thermal_outcome.rho_environment.matrix
                           - gibbs.matrix)
        result.record(1e-10 - abs(ef.value - beta * heat), f"draw {k} thermal identity")
    return result


def _reference_local_bound(config):
    result = SuiteResult("local_bound", config.slack_tolerance)
    params = SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 61)))
    for point in rows_of(spin_pair_timeseries(params)):
        if math.isinf(point.onsager):
            continue
        result.record(point.s_tilde - point.onsager, f"exchange model at t={point.t!r}")
        result.record(point.onsager - point.two_phi_sq,
                      f"exchange cost at t={point.t!r}")
    for k, _, rng in _reference_draws(config, 8, halved=True):
        scenario = random_scenario(rng, 2, 2)
        theta = random_observable(rng, 2)
        outcome = evolve(scenario)
        _record_chain(result, local_system_bound_check(
            theta, outcome.rho_system, scenario.rho_system), k)
    return result


def _reference_correlation(config):
    result = SuiteResult("correlation", config.slack_tolerance)
    for k, _, rng in _reference_draws(config, 9, halved=True):
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        theta_s, theta_e = random_observable(rng, 2), random_observable(rng, 2)
        for protocol in (BATH_RESET, BOTH_RESET):
            value = correlation(theta_s, theta_e, scenario, outcome, protocol)
            report = correlation_bound_report(theta_s, theta_e, scenario,
                                              outcome, protocol)
            result.record(1e-9 - abs(value - report.flux),
                          f"draw {k} {protocol} definitional")
            if report.capacity > 0 and report.s_tilde.finite:
                cap = report.main_rhs - (value / report.capacity) ** 2
                result.record(cap, f"draw {k} {protocol} entropy cap")
    return result


def _reference_saturation(config):
    result = SuiteResult("saturation", config.slack_tolerance)
    for row in rows_of(saturating_family(np.linspace(0.1, 10.0, 100))[2]):
        a = row.log_odds_gap
        result.record(1e-8 - row.gap, f"gap at a={a!r}")
        result.record(1e-8 - abs(row.trace_norm - row.trace_norm_closed),
                      f"trace norm at a={a!r}")
        result.record(1e-8 - abs(row.s_tilde - row.s_tilde_closed),
                      f"divergence at a={a!r}")
    return result


REFERENCES = {
    "bound_functions": (suite_bound_functions, _reference_bound_functions),
    "capacity": (suite_capacity, _reference_capacity),
    "bound_chain": (suite_bound_chain, _reference_bound_chain),
    "sign_identities": (suite_sign_identities, _reference_sign_identities),
    "uncertainty": (suite_uncertainty, _reference_uncertainty),
    "optimal_shift": (suite_optimal_shift, _reference_optimal_shift),
    "thermo_chain": (suite_thermo_chain, _reference_thermo_chain),
    "local_bound": (suite_local_bound, _reference_local_bound),
    "correlation": (suite_correlation, _reference_correlation),
    "saturation": (suite_saturation, _reference_saturation),
}


def _run_logged(monkeypatch, suite, config):
    """A suite's result and every check it records, in order, with the
    exact bits of each slack."""
    checks = []
    record = SuiteResult.record

    def logged(self, slack, detail):
        checks.append((detail, float(slack).hex()))
        record(self, slack, detail)
    monkeypatch.setattr(SuiteResult, "record", logged)
    result = suite(config)
    monkeypatch.setattr(SuiteResult, "record", record)
    return result, checks


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("seed,draws", [(42, 24), (7, 13), (42, 1)])
def test_batched_suites_equal_a_draw_by_draw_run(monkeypatch, name, seed, draws):
    # at 13 draws the dimension groups are unequal (5, 4 and 4 draws)
    config = VerifyConfig(master_seed=seed, draws=draws)
    suite, reference = REFERENCES[name]
    batched, batched_checks = _run_logged(monkeypatch, suite, config)
    expected, expected_checks = _run_logged(monkeypatch, reference, config)
    assert batched == expected
    assert batched.min_slack.hex() == expected.min_slack.hex()
    assert batched_checks == expected_checks


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_runs_of_block_rows_draws_equal_a_draw_by_draw_run(monkeypatch, name):
    # runs of 4 draws split each dimension's draws over several stacks,
    # and a halved suite's 20 draws over five runs
    monkeypatch.setattr(verify_module, "VERIFY_RUN_ROWS", 4)
    config = VerifyConfig(master_seed=7, draws=13)
    suite, reference = REFERENCES[name]
    blocked, blocked_checks = _run_logged(monkeypatch, suite, config)
    expected, expected_checks = _run_logged(monkeypatch, reference, config)
    assert blocked == expected
    assert blocked_checks == expected_checks


def test_a_suite_holds_one_run_of_draws_at_a_time(monkeypatch):
    # memory stays flat as the draw count grows: no stack exceeds a run
    rows = []
    original = verify_module.make_observable

    def counted(matrices):
        rows.append(len(matrices))
        return original(matrices)
    monkeypatch.setattr(verify_module, "VERIFY_RUN_ROWS", 6)
    monkeypatch.setattr(verify_module, "make_observable", counted)
    assert suite_capacity(VerifyConfig(draws=40)).checks == 40
    assert sum(rows) == 40 and max(rows) == 2


def test_verify_solves_each_dimension_as_one_stack(monkeypatch):
    # one eigensolve per stack, not per draw: the draw-by-draw run made 981.
    # A stack validates all of a run's same-shape states at once (the
    # exchange model's two initial states too), and product states and
    # observables take their factors' spectra
    calls = []
    original = linalg_module._sorted_spectrum

    def counted(values, vectors):
        calls.append(len(values))
        return original(values, vectors)
    monkeypatch.setattr(linalg_module, "_sorted_spectrum", counted)
    assert run_verify(VerifyConfig(draws=24)).ok
    assert len(calls) == 61
