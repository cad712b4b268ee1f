"""Counter-based sampling, the qubit protocol, and the sweep driver."""

import math

import numpy as np
import pytest

import fluxbound.bounds as bounds_module
import fluxbound.montecarlo as montecarlo_module
from fluxbound import (DrawConfig, POLICY_REDRAW, POLICY_REPORT_INFINITE,
                       evaluate_bounds, make_observable, random_density,
                       random_observable, random_scenario, random_unitary,
                       run_montecarlo, substream, triple_from_uniforms,
                       validate_state)
from fluxbound.config import BLOCK_ROWS
from fluxbound.errors import ValidationError
from fluxbound.montecarlo import (MAX_REDRAWS, qubit_matrices,
                                  sample_qubit_matrices)
from fluxbound.verify import VerifyConfig


def test_substream_is_reproducible_and_independent():
    a = substream(42, 7).random(5)
    b = substream(42, 7).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, substream(42, 8).random(5))
    assert not np.array_equal(a, substream(43, 7).random(5))
    assert not np.array_equal(a, substream(42, 7, stream=1).random(5))


def test_substream_rejects_out_of_range_indices():
    with pytest.raises(ValidationError):
        substream(42, -1)
    with pytest.raises(ValidationError):
        substream(42, 1 << 48)


def test_triple_from_uniforms_midpoint():
    theta, rho, sigma = triple_from_uniforms([0.5] * 7)
    assert np.max(np.abs(rho.matrix - 0.5 * np.eye(2))) <= 1e-15
    c = -math.sqrt(0.125)  # |C|^2 = 0.5 * 0.5 * 0.5, phase pi
    expected_sigma = np.array([[0.5, c], [c, 0.5]])
    assert np.max(np.abs(sigma.matrix - expected_sigma)) <= 1e-15
    d = -math.sqrt(0.5)
    expected_theta = np.array([[-2.0, d], [d, 2.0]])
    assert np.max(np.abs(theta.matrix - expected_theta)) <= 1e-15
    assert theta.capacity == pytest.approx(2.0 * math.sqrt(4.5), rel=1e-14)


def test_triple_from_uniforms_edge_values_stay_valid():
    # u3 = 1 puts sigma on the boundary of positivity (a pure state)
    theta, rho, sigma = triple_from_uniforms([0.3, 0.5, 1.0, 0.0, 0.5, 0.5, 0.0])
    assert min(sigma.eigenvalues) >= 0.0
    assert sigma.support_dim() == 1
    # u values of exactly zero collapse the off-diagonals
    theta, rho, sigma = triple_from_uniforms([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(sigma.matrix - np.diag([1.0, 0.0]))) <= 1e-15
    assert theta.capacity == 0.0


def test_triple_from_uniforms_consumes_exactly_seven():
    with pytest.raises(ValidationError):
        triple_from_uniforms([0.5] * 6)
    with pytest.raises(ValidationError):
        triple_from_uniforms([0.5] * 8)


def test_sample_qubit_matrices_reads_the_stream_in_protocol_order():
    theta_a, rho_a, sigma_a = sample_qubit_matrices(substream(9, 3))
    theta_b, rho_b, sigma_b = qubit_matrices(substream(9, 3).random(7))
    assert np.array_equal(theta_a, theta_b)
    assert np.array_equal(rho_a, rho_b)
    assert np.array_equal(sigma_a, sigma_b)


def test_run_montecarlo_is_deterministic():
    config = DrawConfig(n_draws=40, master_seed=7)
    records_a, summary_a = run_montecarlo(config)
    records_b, summary_b = run_montecarlo(config)
    assert records_a == records_b
    assert summary_a.min_slack_main == summary_b.min_slack_main
    assert summary_a.violations == summary_b.violations


def test_run_montecarlo_records_match_an_independent_replay():
    # the sweep evaluates blocks of draws as one stack; runs that end
    # inside the first block, at its edge and past two of them replay
    # draw by draw, bit for bit
    for n_draws in (1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3):
        config = DrawConfig(n_draws=n_draws, master_seed=42)
        records, _ = run_montecarlo(config)
        assert [r.draw for r in records] == list(range(n_draws))
        for record in records:
            uniforms = substream(42, record.draw).random(7)
            theta, rho, sigma = triple_from_uniforms(uniforms)
            report = evaluate_bounds(theta, rho, sigma)
            assert record.flux_ratio_sq == report.flux_ratio_sq
            assert record.s_tilde == report.s_tilde.as_float()
            assert record.pinsker_rhs == report.pinsker_rhs
            assert record.main_rhs == report.main_rhs
            assert record.strengthened_rhs == report.strengthened_rhs
            assert record.epsilon == report.epsilon
            assert record.holds_all is report.all_hold()
            assert record.holds_main is report.verdicts["main"].holds
            assert record.infinite is (not report.s_tilde.finite)


def test_run_montecarlo_single_draw():
    records, summary = run_montecarlo(DrawConfig(n_draws=1, master_seed=42))
    assert len(records) == 1
    assert summary.n_draws == 1
    record = records[0]
    assert record.draw == 0
    assert record.holds_all
    if not record.infinite:
        for field in ("flux_ratio_sq", "s_tilde", "pinsker_rhs",
                      "main_rhs", "strengthened_rhs", "epsilon"):
            assert math.isfinite(getattr(record, field))


def test_run_montecarlo_finds_no_violations():
    config = DrawConfig(n_draws=200, master_seed=42)
    records, summary = run_montecarlo(config)
    assert summary.violations == {}
    assert all(r.holds_all for r in records)
    assert summary.min_slack_main > -1e-9
    assert math.isfinite(summary.min_slack_main)


def test_a_nan_main_slack_becomes_the_minimum(monkeypatch):
    # min_slack_main used to keep finite slacks only, and reported inf
    # beside 50 main violations
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x: math.nan * x)
    records, summary = run_montecarlo(DrawConfig(n_draws=50))
    assert summary.violations["main"] == sum(not r.infinite for r in records)
    assert math.isnan(summary.min_slack_main)


def test_run_montecarlo_summary_is_consistent_with_the_records():
    config = DrawConfig(n_draws=150, master_seed=5)
    records, summary = run_montecarlo(config)
    assert summary.n_draws == len(records) == 150
    assert summary.draws_s_tilde_ge_2 == sum(1 for r in records if r.s_tilde >= 2.0)
    assert summary.draws_far_from_equilibrium == sum(
        1 for r in records
        if not r.infinite and r.s_tilde >= 2.0 and r.main_rhs < 1.0)
    assert summary.infinite_records == sum(1 for r in records if r.infinite)
    assert summary.total_redraws == sum(r.redraws for r in records)


def _alternating_sampler():
    """The first call on each draw's generator yields an infinite-divergence
    triple, the second a finite one; used to pin down the two rejection
    policies."""
    from fluxbound import make_observable

    mixed = validate_state(0.5 * np.eye(2))
    pure = validate_state(np.diag([1.0, 0.0]))
    z_like = make_observable(np.diag([1.0, -1.0]))
    finite_rho = validate_state(np.diag([0.3, 0.7]))
    finite_sigma = validate_state(np.diag([0.6, 0.4]))
    calls = {"n": 0}
    calls_on = {}  # keyed on the generator, which stays alive as the key

    def sampler(rng):
        calls["n"] += 1
        calls_on[rng] = calls_on.get(rng, 0) + 1
        if calls_on[rng] % 2 == 1:
            return z_like, mixed, pure
        return z_like, finite_rho, finite_sigma

    return sampler, calls


def test_redraw_policy_resamples_infinite_draws():
    sampler, calls = _alternating_sampler()
    config = DrawConfig(n_draws=3, rejection_policy=POLICY_REDRAW)
    records, summary = run_montecarlo(config, sampler=sampler)
    assert calls["n"] == 6
    assert all(r.redraws == 1 for r in records)
    assert all(not r.infinite for r in records)
    assert all(math.isfinite(r.s_tilde) for r in records)
    assert summary.total_redraws == 3
    assert summary.infinite_records == 0


def _sometimes_infinite(rng):
    """A stand-in sampler driven by the draw's own generator: each call is
    an infinite-divergence triple with probability 0.4, otherwise a
    protocol triple, so draws need zero, one or several redraws."""
    u = rng.random(8)
    if u[0] < 0.4:
        return np.diag([1.0, -1.0]), np.eye(2) / 2, np.diag([1.0, 0.0])
    return qubit_matrices(u[1:])


def _evaluate_alone(triple):
    theta, rho, sigma = triple
    return evaluate_bounds(make_observable(theta), validate_state(rho),
                           validate_state(sigma))


@pytest.mark.parametrize("limit", [2, MAX_REDRAWS])
def test_redraw_policy_matches_a_draw_by_draw_replay(monkeypatch, limit):
    # the sweep redraws a block's infinite draws after sampling the whole
    # block; each draw reads only its own substream, so a replay that
    # redraws each draw before sampling the next gives the same records.
    # 300 draws are two full blocks and a partial one; at a limit of 2
    # some draws stay infinite
    monkeypatch.setattr(montecarlo_module, "MAX_REDRAWS", limit)
    config = DrawConfig(n_draws=300, master_seed=3,
                        rejection_policy=POLICY_REDRAW)
    records, summary = run_montecarlo(config, sampler=_sometimes_infinite)
    assert [r.draw for r in records] == list(range(300))
    for record in records:
        rng = substream(3, record.draw)
        report = _evaluate_alone(_sometimes_infinite(rng))
        redraws = 0
        while not report.s_tilde.finite and redraws < limit:
            redraws += 1
            report = _evaluate_alone(_sometimes_infinite(rng))
        assert record.redraws == redraws
        assert record.infinite is (not report.s_tilde.finite)
        assert record.flux_ratio_sq == report.flux_ratio_sq
        assert record.s_tilde == report.s_tilde.as_float()
        assert record.pinsker_rhs == report.pinsker_rhs
        assert record.main_rhs == report.main_rhs
        assert record.strengthened_rhs == report.strengthened_rhs
        assert record.epsilon == report.epsilon
        assert record.holds_all is report.all_hold()
        assert record.holds_main is report.verdicts["main"].holds
    counts = [r.redraws for r in records]
    # redraws of 0, 1 and more than 1 occur in every block
    for first in range(0, 300, BLOCK_ROWS):
        block = counts[first:first + BLOCK_ROWS]
        assert {0, 1} <= set(block) and max(block) > 1
    assert summary.total_redraws == sum(counts)
    assert summary.infinite_records == sum(r.infinite for r in records)
    assert (summary.infinite_records > 0) is (limit == 2)


def test_redraw_policy_gives_up_after_max_redraws():
    mixed = np.eye(2) / 2
    pure = np.diag([1.0, 0.0])
    calls = {"n": 0}

    def sampler(rng):
        calls["n"] += 1
        return np.diag([1.0, -1.0]), mixed, pure

    config = DrawConfig(n_draws=1, rejection_policy=POLICY_REDRAW)
    records, summary = run_montecarlo(config, sampler=sampler)
    assert calls["n"] == MAX_REDRAWS + 1
    (record,) = records
    assert record.redraws == MAX_REDRAWS
    assert record.infinite
    assert record.s_tilde == math.inf
    assert summary.infinite_records == 1
    assert summary.total_redraws == MAX_REDRAWS


def test_report_infinite_policy_keeps_the_markers():
    from fluxbound import make_observable

    mixed = validate_state(0.5 * np.eye(2))
    pure = validate_state(np.diag([1.0, 0.0]))
    z_like = make_observable(np.diag([1.0, -1.0]))
    calls = {"n": 0}

    def sampler(rng):
        calls["n"] += 1
        return z_like, mixed, pure

    config = DrawConfig(n_draws=3, rejection_policy=POLICY_REPORT_INFINITE)
    records, summary = run_montecarlo(config, sampler=sampler)
    assert calls["n"] == 3  # no redraw consumed under this policy
    assert all(r.infinite for r in records)
    assert all(r.s_tilde == math.inf for r in records)
    assert all(r.pinsker_rhs == math.inf for r in records)
    assert all(r.main_rhs == 1.0 for r in records)
    assert all(r.redraws == 0 for r in records)
    assert summary.infinite_records == 3
    # an infinite divergence satisfies every bound trivially
    assert all(r.holds_all for r in records)


def test_draw_config_validation():
    with pytest.raises(ValidationError):
        DrawConfig(n_draws=0)
    with pytest.raises(ValidationError):
        DrawConfig(rejection_policy="drop")
    with pytest.raises(ValidationError):
        DrawConfig(slack_tolerance=0.0)
    for slack in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="slack_tolerance"):
            DrawConfig(slack_tolerance=slack)


def test_seed_and_stream_ranges_are_checked():
    # out-of-range keys used to escape as OverflowError from numpy
    for seed in (-1, 1 << 64):
        with pytest.raises(ValidationError, match="master seed"):
            substream(seed, 0)
        with pytest.raises(ValidationError, match="master seed"):
            DrawConfig(master_seed=seed)
        with pytest.raises(ValidationError, match="master seed"):
            VerifyConfig(master_seed=seed)
    for stream in (-1, 1 << 16):
        with pytest.raises(ValidationError, match="stream"):
            substream(42, 0, stream=stream)
    edge = substream((1 << 64) - 1, (1 << 48) - 1, stream=(1 << 16) - 1)
    assert 0.0 <= edge.random() < 1.0


def test_random_objects_are_well_formed():
    rng = substream(11, 0, stream=60)
    state = random_density(rng, 3)
    assert state.support_dim() == 3
    u = random_unitary(rng, 4)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10
    theta = random_observable(rng, 3)
    assert theta.capacity > 0.0
    scenario = random_scenario(rng, 2, 3)
    assert scenario.dim_system == 2
    assert scenario.dim_environment == 3
    assert scenario.unitary.shape == (6, 6)


def test_qubit_protocol_positivity_over_many_draws():
    for k in range(300):
        theta, rho, sigma = triple_from_uniforms(substream(13, k, stream=61).random(7))
        assert float(min(rho.eigenvalues)) >= 0.0
        assert float(min(sigma.eigenvalues)) >= 0.0
        assert abs(float(np.sum(sigma.eigenvalues)) - 1.0) <= 1e-12
