"""The self-verification suites: clean runs stay clean, broken bounds
are caught and named."""

import math

import numpy as np
import pytest

import fluxbound.bounds as bounds_module
from fluxbound.errors import ValidationError
from fluxbound.montecarlo import DrawConfig
from fluxbound.verify import SuiteResult, VerifyConfig, run_verify

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
    with pytest.raises(ValidationError):
        VerifyConfig(slack_tolerance=-1.0)
    for slack in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="slack_tolerance"):
            VerifyConfig(slack_tolerance=slack)


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
    assert result.min_slack == -2e-9


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
