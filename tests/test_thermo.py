"""System-environment scenarios, entropy flux, the exchange model,
correlations, and the extremal family."""

import dataclasses
import decimal
import math

import numpy as np
import pytest

import fluxbound.linalg as linalg_module
from conftest import (SMALL_BLOCK_ROWS, differing_fields, random_observable,
                      random_scenario, random_state_np, rng_for, rows_of,
                      saturating_point, spin_pair_point_by_point)
from fluxbound import (BATH_RESET, BOTH_RESET, ChainCheck, SpinPairParams,
                       Verdict, correlation, correlation_bound_report,
                       entropy_flux, evaluate_bounds, entropy_flux_chain_check, evolve,
                       exchange_generator, expectation,
                       local_system_bound_check, make_observable,
                       make_scenario, partial_trace, relative_entropy,
                       saturating_family, sign_decomposition, spin_hamiltonian,
                       spin_pair_scenario, spin_pair_timeseries,
                       tensor_product, thermal_environment,
                       unitary_from_generator, validate_state)
from fluxbound.config import BLOCK_ROWS
from fluxbound.errors import DomainError, ValidationError
from fluxbound.linalg import take_row
from fluxbound.thermo import _log_environment

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=float)


def diag_state(*populations):
    return validate_state(np.diag(list(populations)))


def test_make_scenario_rejects_non_unitaries_and_bad_shapes():
    rho = diag_state(0.5, 0.5)
    with pytest.raises(ValidationError):
        make_scenario(rho, rho, np.eye(3))
    with pytest.raises(ValidationError):
        make_scenario(rho, rho, 0.5 * np.eye(4))


def test_make_scenario_names_a_unitary_that_is_not_square():
    # its own coercion used to print "unitary shape (4, 3) does not match
    # joint dim 4"
    rho = diag_state(0.5, 0.5)
    with pytest.raises(ValidationError, match=r"^unitary must be a square matrix "
                       r"or a stack of them, got shape \(4, 3\)$"):
        make_scenario(rho, rho, np.zeros((4, 3)))


def test_make_scenario_rejects_a_nan_unitary():
    # a NaN defect compared false against the unitarity tolerance, and the
    # scenario only failed later, inside evolve
    rho = diag_state(0.5, 0.5)
    with pytest.raises(ValidationError, match="unitarity"):
        make_scenario(rho, rho, np.full((4, 4), np.nan))


def test_evolve_under_the_identity_produces_nothing():
    scenario = make_scenario(diag_state(0.1, 0.9), diag_state(0.75, 0.25),
                             np.eye(4))
    outcome = evolve(scenario)
    assert np.max(np.abs(outcome.rho_system.matrix
                         - scenario.rho_system.matrix)) <= 1e-12
    assert np.max(np.abs(outcome.rho_environment.matrix
                         - scenario.rho_environment.matrix)) <= 1e-12
    assert outcome.entropy_production.value == pytest.approx(0.0, abs=1e-10)
    assert outcome.entropy_production_dual.value == pytest.approx(0.0, abs=1e-10)


def test_evolve_under_a_swap_exchanges_the_marginals():
    rho_s = diag_state(0.1, 0.9)
    rho_e = diag_state(0.75, 0.25)
    outcome = evolve(make_scenario(rho_s, rho_e, SWAP))
    assert np.max(np.abs(outcome.rho_system.matrix - rho_e.matrix)) <= 1e-12
    assert np.max(np.abs(outcome.rho_environment.matrix - rho_s.matrix)) <= 1e-12
    # after a swap the joint state is rho_E x rho_S and the reference is
    # rho_E x rho_E, so the production is the bare divergence S(rho_S || rho_E)
    expected = relative_entropy(rho_s, rho_e).value
    assert outcome.entropy_production.value == pytest.approx(expected, abs=1e-10)


def test_entropy_production_is_nonnegative_on_random_scenarios():
    for k in range(10):
        rng = rng_for(k, stream=401)
        outcome = evolve(random_scenario(rng, 2, 2))
        assert outcome.entropy_production.value >= 0.0
        assert outcome.entropy_production_dual.value >= 0.0


def test_entropy_flux_closed_form_after_a_full_swap():
    # populations (0.9, 0.1): a full swap drives flux 0.8 ln 9 through a
    # channel of capacity ln 9
    scenario = make_scenario(diag_state(0.1, 0.9), diag_state(0.9, 0.1), SWAP)
    outcome = evolve(scenario)
    ef = entropy_flux(scenario, outcome)
    assert ef.value == pytest.approx(0.8 * math.log(9.0), rel=1e-12)
    assert ef.capacity == pytest.approx(math.log(9.0), rel=1e-12)
    assert ef.value == pytest.approx(1.7577796618689754, rel=1e-12)


def test_entropy_flux_vanishes_without_dynamics():
    scenario = make_scenario(diag_state(0.3, 0.7), diag_state(0.6, 0.4),
                             np.eye(4))
    ef = entropy_flux(scenario, evolve(scenario))
    assert ef.value == pytest.approx(0.0, abs=1e-12)
    assert ef.capacity == pytest.approx(math.log(0.6 / 0.4), rel=1e-12)


def test_entropy_flux_requires_a_full_rank_environment():
    scenario = make_scenario(diag_state(0.5, 0.5), diag_state(1.0, 0.0), SWAP)
    outcome = evolve(scenario)
    with pytest.raises(DomainError):
        entropy_flux(scenario, outcome)


def test_evolve_validates_marginals_of_one_shape_as_one_stack(eigensolves):
    scenario = random_scenario(rng_for(0, stream=616), 2, 2)
    eigensolves.clear()
    outcome = evolve(scenario)
    assert eigensolves == [(2, 2)]
    joint = outcome.rho_joint.matrix
    for keep, marginal in (("system", outcome.rho_system),
                           ("environment", outcome.rho_environment)):
        assert not differing_fields(marginal,
                                    validate_state(partial_trace(joint, 2, 2, keep)))


@pytest.mark.parametrize("energies", [[0.0, 1.0, 2.5], [0.3, 0.3, -1.0]])
def test_thermal_environment_takes_no_second_eigensolve(eigensolves, energies):
    # a rotated Hamiltonian, the second with a degenerate level; the state
    # has its eigenvectors and ascending weights
    rng = rng_for(len(energies), stream=617)
    u = unitary_from_generator(random_observable(rng, 3).matrix, 1.0)
    h = u @ np.diag(energies) @ u.conj().T
    eigensolves.clear()
    gibbs = thermal_environment(h, 0.7)
    assert eigensolves == [(1, 3)]
    w, v = gibbs.eigenvalues, gibbs.eigenvectors
    expected = np.exp(-0.7 * np.sort(energies))
    assert np.all(np.diff(w) >= 0.0) and not gibbs.clamped
    assert np.max(np.abs(w - np.sort(expected / expected.sum()))) <= 1e-14
    assert np.max(np.abs(w - np.linalg.eigvalsh(gibbs.matrix))) <= 1e-10
    assert np.max(np.abs((v * w) @ v.conj().T - gibbs.matrix)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) <= 1e-10
    assert np.array_equal(gibbs.matrix, gibbs.matrix.conj().T)


def test_thermal_environment_populations():
    gibbs = thermal_environment(np.diag([0.0, 1.0]), math.log(3.0))
    assert np.allclose(np.sort(gibbs.eigenvalues), [0.25, 0.75], atol=1e-14)
    with pytest.raises(ValidationError):
        thermal_environment(np.diag([0.0, 1.0]), 0.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
def test_thermal_environment_rejects_a_bad_inverse_temperature_by_name(beta):
    # NaN used to pass the positivity check, and inf warned in exp before
    # an unnamed "non-finite entries" error
    with pytest.raises(ValidationError, match="inverse temperature"):
        thermal_environment(np.diag([0.0, 1.0]), beta)


def test_thermal_environment_freezes_out_at_low_temperature():
    gibbs = thermal_environment(np.diag([0.0, 1.0]), 50.0)
    assert np.max(gibbs.eigenvalues) == pytest.approx(1.0, abs=1e-10)


def test_entropy_flux_equals_beta_times_heat_for_gibbs_environments():
    for k in range(8):
        rng = rng_for(k, stream=402)
        h_env = np.diag(np.sort(rng.random(2) * 3.0)).astype(complex)
        beta = 0.5 + 3.0 * rng.random()
        gibbs = thermal_environment(h_env, beta)
        base = random_scenario(rng, 2, 2)
        scenario = make_scenario(base.rho_system, gibbs, base.unitary)
        outcome = evolve(scenario)
        ef = entropy_flux(scenario, outcome)
        heat = expectation(h_env, outcome.rho_environment.matrix - gibbs.matrix)
        assert ef.value == pytest.approx(beta * heat, abs=1e-10)


def test_entropy_flux_chain_holds_on_random_scenarios():
    for k in range(10):
        rng = rng_for(k, stream=403)
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        chain = entropy_flux_chain_check(scenario, outcome)
        assert chain.holds
        assert set(chain.steps) <= {"production_dominates_s_tilde",
                                    "s_tilde_dominates_cost",
                                    "cost_dominates_quadratic"}
        for step in chain.steps.values():
            assert not step.applies or step.slack >= -1e-9


def test_chain_check_reads_holds_from_its_steps():
    assert "holds" not in {f.name for f in dataclasses.fields(ChainCheck)}
    scenario = make_scenario(diag_state(0.3, 0.7), diag_state(0.6, 0.4),
                             SWAP)
    chain = entropy_flux_chain_check(scenario, evolve(scenario))
    assert chain.steps and chain.holds
    failing = dict(chain.steps, s_tilde_dominates_cost=Verdict(-2e-9, True))
    assert not dataclasses.replace(chain, steps=failing).holds
    # a chain without steps holds trivially
    assert dataclasses.replace(chain, steps={}).holds


def test_entropy_flux_chain_is_all_zero_without_dynamics():
    # the environment does not move, so evaluate_bounds flags equal states
    # and the chain is resolved: no step applies
    scenario = make_scenario(diag_state(0.3, 0.7), diag_state(0.6, 0.4),
                             np.eye(4))
    chain = entropy_flux_chain_check(scenario, evolve(scenario))
    assert chain.holds
    assert not chain.steps["s_tilde_dominates_cost"].applies
    assert chain.flux == pytest.approx(0.0, abs=1e-12)
    assert chain.ratio == pytest.approx(0.0, abs=1e-12)
    assert chain.s_tilde.value == pytest.approx(0.0, abs=1e-10)
    assert len(chain.steps) == 3
    assert not any(step.applies for step in chain.steps.values())


def _assert_resolved(chain):
    assert not chain.steps["s_tilde_dominates_cost"].applies and chain.holds
    assert chain.steps and not any(step.applies for step in chain.steps.values())


def test_local_chain_on_a_degenerate_observable_is_resolved():
    # a capacity of 1e-15 is rounding noise: evaluate_bounds resolves the
    # row, and the chain used to score it as broken (cost slack -0.122)
    theta = make_observable(np.diag([1.0, 1.0 + 1e-15]))
    rho, sigma = diag_state(0.2, 0.8), diag_state(0.7, 0.3)
    assert evaluate_bounds(theta, rho, sigma).degenerate_capacity
    chain = local_system_bound_check(theta, rho, sigma)
    _assert_resolved(chain)
    assert chain.ratio == 0.0
    # s_tilde reads 0 on a degenerate row, as the report's does
    assert chain.s_tilde.value == 0.0


def test_entropy_chain_on_a_near_maximally_mixed_environment_is_resolved():
    # log rho_E has a capacity of 4e-15: the chain used to fail on it
    environment = diag_state(0.5 + 1e-15, 0.5 - 1e-15)
    u = unitary_from_generator(exchange_generator(1.0, 0.0), 1.0)
    scenario = make_scenario(diag_state(0.9, 0.1), environment, u)
    chain = entropy_flux_chain_check(scenario, evolve(scenario))
    assert 0.0 < chain.capacity < 1e-14
    _assert_resolved(chain)


def test_chain_cost_step_is_the_onsager_verdict_of_evaluate_bounds():
    rng = rng_for(0, stream=404)
    rows = 12
    thetas = np.stack([random_observable(rng, 2).matrix for _ in range(rows)])
    rhos = np.stack([random_state_np(rng, 2) for _ in range(rows)])
    sigmas = np.stack([random_state_np(rng, 2) for _ in range(rows)])
    thetas[1] = np.diag([2.0, 2.0 + 1e-14])  # degenerate capacity
    thetas[2] = 3.0 * np.eye(2)  # zero capacity
    sigmas[3] = rhos[3]  # equal states
    rhos[4] = np.diag([1.0, 0.0])  # pure: infinite S_tilde
    theta = make_observable(thetas)
    rho, sigma = validate_state(rhos), validate_state(sigmas)
    report = evaluate_bounds(theta, rho, sigma)
    chain = local_system_bound_check(theta, rho, sigma)
    onsager = report.verdicts["onsager"]
    assert np.array_equal(chain.steps["s_tilde_dominates_cost"].slack, onsager.slack)
    assert np.array_equal(chain.steps["s_tilde_dominates_cost"].applies, onsager.applies)
    resolved = report.degenerate_capacity | report.states_equal
    assert resolved.tolist() == [False, True, True, True] + [False] * (rows - 4)
    for step in chain.steps.values():
        assert not step.applies[resolved].any()
    assert np.array_equal(chain.s_tilde.value, report.s_tilde.value)
    assert chain.holds.all()
    # each row is its single call
    for k in range(rows):
        single = local_system_bound_check(take_row(theta, k), take_row(rho, k),
                                          take_row(sigma, k))
        assert single.steps == {name: take_row(step, k) for name, step in chain.steps.items()}


def test_entropy_chain_cost_step_is_the_onsager_verdict_of_evaluate_bounds():
    scenarios = [random_scenario(rng_for(k, stream=405), 2, 2) for k in range(6)]
    stack = make_scenario(*(validate_state(np.stack([getattr(s, name).matrix
                                                     for s in scenarios]))
                            for name in ("rho_system", "rho_environment")),
                          np.stack([s.unitary for s in scenarios]))
    outcome = evolve(stack)
    env = stack.rho_environment
    report = evaluate_bounds(_log_environment(env), env, outcome.rho_environment)
    chain = entropy_flux_chain_check(stack, outcome)
    assert np.array_equal(chain.steps["s_tilde_dominates_cost"].slack,
                          report.verdicts["onsager"].slack)
    assert np.array_equal(chain.flux, entropy_flux(stack, outcome).value)


def test_local_chain_rejects_stacks_of_different_lengths():
    theta = make_observable(np.stack([np.diag([1.0, -1.0])] * 2))
    rho = validate_state(np.stack([np.diag([0.3, 0.7])] * 2))
    sigma = validate_state(np.stack([np.diag([0.4, 0.6])] * 3))
    for observable in (theta, take_row(theta, 0)):
        with pytest.raises(ValidationError):
            local_system_bound_check(observable, rho, sigma)


def test_thermal_environment_rejects_betas_that_do_not_match_the_stack():
    # a bare numpy broadcasting ValueError before
    with pytest.raises(ValidationError, match=r"beta of shape \(2,\)"):
        thermal_environment(np.diag([0.0, 1.0]), np.array([1.0, 2.0]))
    hamiltonians = np.stack([np.diag([0.0, 1.0]), np.diag([0.0, 2.0])])
    for betas in (np.ones((2, 2)), np.ones((2, 1)), np.ones(3)):
        with pytest.raises(ValidationError, match="one per Hamiltonian"):
            thermal_environment(hamiltonians, betas)
    # one beta, or one per row, still works
    for betas in (1.0, np.ones(1), np.array([1.0, 2.0])):
        assert thermal_environment(hamiltonians, betas).matrix.shape == (2, 2, 2)


def test_local_system_bound_matches_the_exchange_series():
    params = SpinPairParams(times=(0.3,))
    point = take_row(spin_pair_timeseries(params), 0)
    scenario = spin_pair_scenario(params, 0.3)
    outcome = evolve(scenario)
    theta = make_observable(spin_hamiltonian(params.level_splitting))
    chain = local_system_bound_check(theta, outcome.rho_system,
                                     scenario.rho_system)
    assert chain.holds
    assert abs(chain.flux) == pytest.approx(point.flux, abs=1e-12)
    assert chain.s_tilde.value == pytest.approx(point.s_tilde, abs=1e-12)
    assert chain.steps["s_tilde_dominates_cost"].slack == pytest.approx(
        point.s_tilde - point.onsager, abs=1e-12)


def test_spin_pair_flux_matches_the_closed_form_over_the_grid():
    params = SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 301)))
    points = rows_of(spin_pair_timeseries(params))
    assert len(points) == 301
    worst = max(abs(pt.flux - pt.flux_analytic) for pt in points)
    assert worst <= 1e-9
    for pt in points:
        if math.isinf(pt.onsager):
            continue
        assert pt.s_tilde >= pt.onsager - 1e-9
        assert pt.onsager >= pt.two_phi_sq - 1e-12


def test_spin_pair_series_starts_at_zero():
    point = take_row(spin_pair_timeseries(SpinPairParams(times=(0.0,))), 0)
    assert point.flux_analytic == 0.0
    assert abs(point.flux) <= 1e-14
    assert abs(point.two_phi_sq) <= 1e-28
    assert abs(point.onsager) <= 1e-28
    assert point.s_tilde == pytest.approx(0.0, abs=1e-10)


def test_spin_pair_slack_is_strict_away_from_the_quarter_period():
    # at g t = 1/2 the swap is partial and the first chain step stays open
    point = take_row(spin_pair_timeseries(SpinPairParams(times=(0.25,))), 0)
    assert point.s_tilde - point.onsager > 1e-3


def test_spin_pair_saturates_at_a_quarter_period():
    # g t = pi / 2 completes the swap: flux |p - q| Omega and the chain's
    # first step closes to a tangency
    params = SpinPairParams(times=(math.pi / 4.0,))
    point = take_row(spin_pair_timeseries(params), 0)
    assert point.flux == pytest.approx(0.8, abs=1e-12)
    assert abs(point.s_tilde - point.onsager) <= 1e-6


def test_spin_pair_scenario_conserves_the_bare_energy():
    # the exchange generator commutes with H_S x I + I x H_E, so the total
    # level population never moves
    params = SpinPairParams()
    h_total = (tensor_product(spin_hamiltonian(1.0), np.eye(2))
               + tensor_product(np.eye(2), spin_hamiltonian(1.0)))
    expected = 0.9 + 0.1
    for t in np.linspace(0.0, 1.5, 11):
        outcome = evolve(spin_pair_scenario(params, float(t)))
        energy = expectation(h_total, outcome.rho_joint.matrix)
        assert abs(energy - expected) <= 1e-10


def test_spin_pair_params_validation():
    with pytest.raises(ValidationError):
        SpinPairParams(excited_population_system=1.5)
    with pytest.raises(ValidationError):
        SpinPairParams(level_splitting=0.0)
    with pytest.raises(ValidationError):
        SpinPairParams(coupling_strength=-1.0)
    with pytest.raises(ValidationError):
        SpinPairParams(times=())
    with pytest.raises(ValidationError):
        SpinPairParams(times=(0.5, 0.1))
    with pytest.raises(ValidationError):
        SpinPairParams(times=(-0.1, 0.5))
    # values of the wrong type used to escape as bare TypeErrors
    for field, value in (("excited_population_system", None),
                         ("excited_population_environment", "0.1"),
                         ("level_splitting", None), ("coupling_phase", 1j)):
        with pytest.raises(ValidationError, match=f"^{field} must be a real number"):
            SpinPairParams(**{field: value})
    for times in ([[0.0, 1.0]], 1.0):
        with pytest.raises(ValidationError, match="^times must be a nonempty list"):
            SpinPairParams(times=times)
    for times in ([0.0, [1.0]], None, ("0.5",), (0.0, 1j)):
        with pytest.raises(ValidationError, match="^times must be a real number or"):
            SpinPairParams(times=times)


@pytest.mark.parametrize("field, value", [
    ("level_splitting", math.nan), ("level_splitting", math.inf),
    ("coupling_strength", math.nan), ("coupling_strength", math.inf),
    ("coupling_phase", math.nan), ("coupling_phase", -math.inf),
    ("times", (0.0, math.inf)), ("times", (math.nan,)),
])
def test_spin_pair_params_reject_non_finite_values_by_name(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        SpinPairParams(**{field: value})


def test_exchange_generator_layout():
    gen = exchange_generator(2.0, 0.25)
    assert gen[1, 2] == pytest.approx(2.0 * np.exp(0.25j), abs=1e-15)
    assert gen[2, 1] == pytest.approx(np.conj(gen[1, 2]), abs=1e-15)
    assert np.count_nonzero(gen) == 2


def test_correlation_vanishes_without_interaction():
    rng = rng_for(0, stream=404)
    scenario = make_scenario(validate_state(random_state_np(rng, 2)),
                             validate_state(random_state_np(rng, 2)),
                             np.eye(4))
    outcome = evolve(scenario)
    theta_s = random_observable(rng, 2)
    theta_e = random_observable(rng, 2)
    for protocol in (BATH_RESET, BOTH_RESET):
        value = correlation(theta_s, theta_e, scenario, outcome, protocol)
        assert abs(value) <= 1e-12


def test_correlation_agrees_with_the_product_flux():
    for k in range(6):
        rng = rng_for(k, stream=405)
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        theta_s = random_observable(rng, 2)
        theta_e = random_observable(rng, 2)
        for protocol in (BATH_RESET, BOTH_RESET):
            value = correlation(theta_s, theta_e, scenario, outcome, protocol)
            report = correlation_bound_report(theta_s, theta_e, scenario,
                                              outcome, protocol)
            assert value == pytest.approx(report.flux, abs=1e-9)
            assert report.all_hold()


def test_correlation_rejects_an_unknown_protocol():
    rng = rng_for(9, stream=405)
    scenario = random_scenario(rng, 2, 2)
    outcome = evolve(scenario)
    theta = random_observable(rng, 2)
    with pytest.raises(ValidationError):
        correlation(theta, theta, scenario, outcome, "fridge_reset")
    with pytest.raises(ValidationError):
        correlation_bound_report(theta, theta, scenario, outcome, "fridge_reset")


def test_saturating_family_closed_forms():
    rho, sigma, family = saturating_family(3.0)
    assert family.trace_norm_closed == pytest.approx(2.0 * math.tanh(1.5), abs=1e-15)
    assert family.s_tilde_closed == pytest.approx(3.0 * math.tanh(1.5), abs=1e-15)
    # the kernel weight vanishes: no eigenvalue of rho - sigma is zero
    assert sign_decomposition(rho, sigma).epsilon == 0.0
    assert family.trace_norm == pytest.approx(family.trace_norm_closed, abs=1e-10)
    assert family.s_tilde == pytest.approx(family.s_tilde_closed, abs=1e-10)
    assert family.gap <= 1e-10
    # the pair itself: reversed populations at log-odds gap 3
    z = 2.0 * math.cosh(1.5)
    assert rho.matrix[1, 1].real == pytest.approx(math.exp(1.5) / z, abs=1e-14)
    assert sigma.matrix[0, 0].real == pytest.approx(math.exp(1.5) / z, abs=1e-14)


def test_saturating_family_is_even_in_the_gap():
    _, _, plus = saturating_family(1.3)
    _, _, minus = saturating_family(-1.3)
    assert minus.trace_norm == pytest.approx(plus.trace_norm, abs=1e-14)
    assert minus.s_tilde == pytest.approx(plus.s_tilde, abs=1e-14)
    assert minus.gap <= 1e-10


def test_saturating_family_at_zero_gap_is_degenerate():
    rho, sigma, family = saturating_family(0.0)
    assert family.trace_norm == pytest.approx(0.0, abs=1e-12)
    assert family.s_tilde == pytest.approx(0.0, abs=1e-12)
    assert family.bound_value == 0.0
    assert family.gap <= 1e-14
    assert np.array_equal(rho.matrix, sigma.matrix)


def test_saturating_family_populations_stay_accurate_at_large_gaps():
    # 1 / (1 + e^a) to 40 digits; the (1 - tanh(a/2)) / 2 form loses a
    # third of it to cancellation at a = 37.5
    decimal.getcontext().prec = 40
    for a in (12.0, 37.5, 700.0):
        rho, sigma, family = saturating_family(a)
        exact = float(1 / (1 + decimal.Decimal(a).exp()))
        assert rho.matrix[0, 0].real == pytest.approx(exact, rel=1e-15)
        assert sigma.matrix[1, 1].real == pytest.approx(exact, rel=1e-15)
        assert math.isfinite(family.bound_value) and family.gap <= 1e-8
    # far past the overflow of e^{a/2}: disjoint supports, B = 1
    for a in (1e6, -1e6, 1e308):
        _, _, family = saturating_family(a)
        assert family.trace_norm == 2.0
        assert family.bound_value == 1.0
        assert family.gap == 0.0


def test_saturating_family_meets_the_bound_over_a_sweep():
    for a in np.linspace(0.1, 10.0, 34):
        _, _, family = saturating_family(float(a))
        assert family.gap <= 1e-8


def test_thermal_environment_rejects_an_overflowing_inverse_temperature():
    # beta times the energy spread used to overflow in np.exp's argument
    # with a RuntimeWarning; the state came out right only because
    # exp(-inf) is 0
    with pytest.raises(ValidationError, match="beta"):
        thermal_environment(np.diag([0.0, 3.0]), 1e308)


# grid lengths inside the first block, at its edge and past two of them,
# in the blocks of the small_blocks fixture
GRID_LENGTHS = (1, SMALL_BLOCK_ROWS - 1, SMALL_BLOCK_ROWS, 2 * SMALL_BLOCK_ROWS + 3)


@pytest.mark.parametrize("length", GRID_LENGTHS)
@pytest.mark.parametrize("p, q, omega, g, phase, t_max", [
    (0.9, 0.1, 1.0, 2.0, 0.0, 1.5),
    (0.7, 0.2, 1.3, 1.1, 2.4, 4.0),
    # pure initial states: the marginal entropies are infinite away from t = 0
    (1.0, 0.0, 0.8, 1.7, 5.0, 2.0),
])
def test_stacked_spin_pair_series_matches_a_point_by_point_reference(
        small_blocks, length, p, q, omega, g, phase, t_max):
    # the quarter period g t = pi / 2 completes the swap, where the ratio
    # reaches 1 and the cost is infinite
    times = np.sort(np.append(np.linspace(0.0, t_max, length)[:-1],
                              math.pi / (2.0 * g)))
    params = SpinPairParams(p, q, omega, g, phase, tuple(times))
    assert rows_of(spin_pair_timeseries(params)) == spin_pair_point_by_point(params)


def _same_state(a, b) -> bool:
    return (np.array_equal(a.matrix, b.matrix)
            and np.array_equal(a.eigenvalues, b.eigenvalues)
            and np.array_equal(a.eigenvectors, b.eigenvectors)
            and a.clamped == b.clamped)


@pytest.mark.parametrize("length", GRID_LENGTHS)
def test_stacked_saturating_family_matches_a_point_by_point_reference(small_blocks,
                                                                     length):
    # negative, zero and positive gaps, a gap of 800 (e^{-a} underflows,
    # disjoint supports) and gaps past the rank tolerance (infinite s_tilde)
    gaps = np.linspace(-35.0, 35.0, length)
    gaps[length // 2] = 0.0
    gaps[-1] = 800.0
    rhos, sigmas, family = saturating_family(gaps)
    assert family.gap.shape == (length,)
    rows = rows_of(family)
    assert len(rows) == length
    for k, a in enumerate(gaps.tolist()):
        rho, sigma, expected = saturating_point(a)
        assert rows[k] == expected and type(rows[k].gap) is float
        assert _same_state(take_row(rhos, k), rho)
        assert _same_state(take_row(sigmas, k), sigma)


def test_grids_are_bit_identical_at_every_block_size(monkeypatch):
    # every row of a stack is computed as it would be alone, so no bit of
    # a grid's records depends on the block size; at the quarter period
    # pi / (2 g) the cost is infinite
    times = np.append(np.linspace(0.0, 4.0, 2 * SMALL_BLOCK_ROWS + 2), math.pi / 2.2)
    params = SpinPairParams(0.7, 0.2, 1.3, 1.1, 2.4, tuple(np.sort(times)))
    gaps = np.linspace(-35.0, 35.0, 2 * SMALL_BLOCK_ROWS + 3)
    gaps[-1] = 800.0
    runs = []
    for rows in (1, 7, 128, BLOCK_ROWS):
        monkeypatch.setattr(linalg_module, "BLOCK_ROWS", rows)
        runs.append((spin_pair_timeseries(params), *saturating_family(gaps)))
    expected, *others = runs
    for records in others:
        for record, expected_record in zip(records, expected):
            assert differing_fields(record, expected_record) == []


@pytest.mark.parametrize("a", [-1.3, 0.0, 3.0, 800.0])
def test_saturating_family_at_one_gap_matches_the_reference(a):
    rho, sigma, family = saturating_family(a)
    expected_rho, expected_sigma, expected = saturating_point(a)
    assert family == expected
    assert type(family.gap) is float
    assert _same_state(rho, expected_rho) and _same_state(sigma, expected_sigma)


def test_saturating_family_rejects_nan_and_grids_of_grids():
    with pytest.raises(ValidationError, match="NaN"):
        saturating_family(np.array([1.0, math.nan]))
    for grid in (np.ones((2, 2)), np.array([])):
        with pytest.raises(ValidationError, match="1-D"):
            saturating_family(grid)


@pytest.mark.parametrize("protocol", [BATH_RESET, BOTH_RESET])
def test_product_states_and_observables_take_no_eigensolve(monkeypatch, protocol):
    # the evolved joint state, the references and the product observable
    # take their spectra from their factors; only the marginals and the
    # difference of the report's two states are diagonalized
    scenario = random_scenario(rng_for(0, stream=615), 2, 3)
    rng = rng_for(1, stream=615)
    theta_s, theta_e = random_observable(rng, 2), random_observable(rng, 3)
    solved = []
    original = linalg_module._sorted_spectrum

    def counted(values, vectors):
        solved.append(values.shape[-1])
        return original(values, vectors)
    monkeypatch.setattr(linalg_module, "_sorted_spectrum", counted)
    outcome = evolve(scenario)
    report = correlation_bound_report(theta_s, theta_e, scenario, outcome, protocol)
    assert solved == [2, 3, 6]
    joint = tensor_product(theta_s.matrix, theta_e.matrix)
    assert report.capacity == pytest.approx(np.ptp(np.linalg.eigvalsh(joint)),
                                            abs=1e-10)
    for state in (outcome.rho_joint, outcome.sigma_reference):
        w, v = state.eigenvalues, state.eigenvectors
        assert not state.clamped
        assert np.max(np.abs(w - np.linalg.eigvalsh(state.matrix))) <= 1e-10
        assert np.max(np.abs((v * w) @ v.conj().T - state.matrix)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10
