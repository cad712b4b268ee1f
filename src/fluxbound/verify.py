"""Self-contained verification suites for every inequality and identity.

Each suite draws its own reproducible inputs (counter-based substreams,
one stream id per suite), checks one family of claims, and reports the
number of checks, the number of violations and the smallest slack seen.
A violation pinpoints the suite, the draw index and the offending
quantity, so a broken bound is named rather than silently averaged away.

A random suite works through its draws in runs of config.VERIFY_RUN_ROWS
(128 draws, fewer than the sweep's blocks of config.BLOCK_ROWS, because a
run's memory grows with its length), in three steps per run
(_check_draws): it samples each draw's raw inputs (Ginibre states,
Hermitian matrices, uniforms) from the draw's own substream, in draw
order; it validates and evaluates the draws whose inputs share their
shapes, one stack per dimension, through the stacked core, with the
run's states of one shape (a draw's rho and sigma, or rho_S and rho_E)
in one states.validate_states call; and it records the checks in draw
order.  Every row of a stack is computed as it would be alone, so the
tallies are those of a draw-by-draw run, bit for bit, draw i of a suite
stays a pure function of (seed, suite stream, i), and memory stays flat
as the draw count grows.

Every suite, random or on a fixed grid, hands back its checks as a dict
{name: flux.Verdict} over the stack's rows, so the core's verdicts pass
through as they are; one helper (_rows) turns it into each row's checks,
recorded as "draw k name" or as "name at x=..." for a grid point.  A
check that does not apply to a row is left out of that row.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import bounds as _bounds
from .config import VERIFY_RUN_ROWS
from .flux import (ShiftCheck, Verdict, clears, evaluate_bounds, lowers,
                   make_observable, optimal_shift_check, qtur_check,
                   sign_decomposition)
from .linalg import expectation, take_row, unitary_from_generator
from .montecarlo import (check_draw_count, check_master_seed,
                         check_slack_tolerance, qubit_matrices, substream)
from .states import validate_states
from .thermo import (BATH_RESET, BOTH_RESET, BipartiteScenario, SpinPairParams,
                     correlation, correlation_bound_report, entropy_flux,
                     entropy_flux_chain_check, evolve,
                     local_system_bound_check, make_scenario, saturating_family,
                     spin_pair_timeseries, thermal_environment)

@dataclass
class SuiteResult:
    """A suite's tally; a check is violated when its slack does not clear
    -tolerance (the run's slack_tolerance), a NaN slack included.  The
    first NaN slack becomes min_slack, and stays it, so worst names it."""

    name: str
    tolerance: float
    checks: int = 0
    violations: int = 0
    min_slack: float = math.inf
    worst: str = ""

    def record(self, slack: float, detail: str) -> None:
        self.checks += 1
        if lowers(slack, self.min_slack):
            self.min_slack = slack
            self.worst = detail
        if not clears(slack, self.tolerance):
            self.violations += 1


@dataclass(frozen=True)
class VerifyConfig:
    master_seed: int = 42
    draws: int = 200
    slack_tolerance: float = 1e-9

    def __post_init__(self):
        check_draw_count("draws", self.draws)
        check_master_seed(self.master_seed)
        check_slack_tolerance(self.slack_tolerance)


@dataclass
class VerifyReport:
    config: VerifyConfig
    suites: list

    @property
    def ok(self) -> bool:
        return all(s.violations == 0 for s in self.suites)


# the raw random inputs of the suites, drawn from a draw's substream

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _state_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank G G^dag / tr from a square Ginibre G, not yet validated."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def _scenario_inputs(rng: np.random.Generator, dim_system: int,
                     dim_environment: int) -> tuple:
    """A scenario's raw inputs (rho_S, rho_E, generator of U), in the
    order they are drawn."""
    return (_state_matrix(rng, dim_system),
            _state_matrix(rng, dim_environment),
            random_hermitian(rng, dim_system * dim_environment))


def _scenario(rho_system, rho_environment, generator) -> BipartiteScenario:
    """The stack of scenarios of raw input stacks whose system and
    environment share a shape."""
    return make_scenario(*validate_states(rho_system, rho_environment),
                         unitary_from_generator(generator, 1.0))


def _rows(verdicts: dict) -> list:
    """Each row's checks, as (slack, name) pairs in the order of a dict
    {name: Verdict} whose slacks are arrays over the rows, leaving out a
    row where its verdict does not apply (applies may be one bool)."""
    columns = [(name, v.slack.tolist(),
                np.broadcast_to(v.applies, v.slack.shape).tolist())
               for name, v in verdicts.items()]
    return [[(slacks[row], name) for name, slacks, applies in columns
             if applies[row]] for row in range(len(columns[0][1]))]


def _check_draws(result: SuiteResult, config: VerifyConfig, sample, evaluate,
                 halved: bool = False) -> SuiteResult:
    """Check the draws in runs of VERIFY_RUN_ROWS, in draw order, so memory
    stays flat as the draw count grows.  In each run, sample each draw's
    raw inputs with sample(k, dim, rng) (a tuple of arrays and floats),
    where rng is draw k's substream of the suite's stream and dim cycles
    2, 3, 4; evaluate the draws whose inputs share their shapes as one
    stack, with evaluate(*stacked inputs), which returns the stack's
    verdicts (_rows); and record the checks in draw order, as "draw k
    name".  Every row of a stack is computed as it would be alone, so the
    grouping changes no check.  A halved suite, whose draws cost more,
    takes max(draws // 2, 20) draws."""
    # suite_<name> draws from Philox stream 1 + its place in _SUITES
    stream = 1 + [suite.__name__ for suite in _SUITES].index(f"suite_{result.name}")
    count = max(config.draws // 2, 20) if halved else config.draws
    for first in range(0, count, VERIFY_RUN_ROWS):
        groups: dict = {}
        for k in range(first, min(first + VERIFY_RUN_ROWS, count)):
            inputs = sample(k, 2 + k % 3, substream(config.master_seed, k, stream))
            groups.setdefault(tuple(map(np.shape, inputs)), []).append((k, inputs))
        checks = {}
        for members in groups.values():
            draws, inputs = zip(*members)
            checks.update(zip(draws, _rows(evaluate(*map(np.stack, zip(*inputs))))))
        for k in sorted(checks):
            for slack, name in checks[k]:
                result.record(slack, f"draw {k} {name}")
    return result


def _record_grid(result: SuiteResult, axis: str, grid: np.ndarray, verdicts) -> None:
    """Record the verdicts (_rows) of a grid evaluated as arrays, in grid
    order, as "name at {axis}{point!r}"; the points are read as Python
    floats, so the details print without numpy reprs."""
    for point, checks in zip(grid.tolist(), _rows(verdicts)):
        for slack, name in checks:
            result.record(slack, f"{name} at {axis}{point!r}")


def _pair_inputs(k, dim, rng):
    # full-rank Ginibre states: an infinite divergence has measure zero,
    # and the suites skip the checks that do not apply to it
    return _state_matrix(rng, dim), _state_matrix(rng, dim)


def _triple_inputs(k, dim, rng):
    return (random_hermitian(rng, dim), *_pair_inputs(k, dim, rng))


def suite_bound_functions(config: VerifyConfig) -> SuiteResult:
    """Round trip, product identity, envelope and small-x behaviour of the
    scalar bound machinery (no randomness)."""
    result = SuiteResult("bound_functions", config.slack_tolerance)
    bound, floor = _bounds.flux_ratio_sq_bound, _bounds.variance_ratio_floor
    x = np.geomspace(1e-6, 50.0, 121)
    roundtrip = _bounds.divergence_from_gap(_bounds.gap_from_divergence(x))
    _record_grid(result, "x=", x,
                 {"roundtrip": Verdict(1e-10 - np.abs(roundtrip - x), True)})
    x = np.geomspace(1e-4, 50.0, 121)
    product = bound(x) * (1.0 + floor(x))
    _record_grid(result, "x=", x,
                 {"product identity": Verdict(1e-10 - np.abs(product - 1.0), True)})
    x = np.geomspace(1e-6, 200.0, 121)
    _record_grid(result, "x=", x,
                 {"envelope": Verdict(np.minimum(1.0, 0.5 * x) - bound(x), True)})
    result.record(1e-3 - abs(bound(1e-8) / 0.5e-8 - 1.0), "small-x limit")
    # monotonicity on a coarse grid
    x = np.geomspace(1e-4, 60.0, 61)
    bs, fs = bound(x), floor(x)
    _record_grid(result, "", x[:-1], {"bound monotone": Verdict(bs[1:] - bs[:-1], True),
                                      "floor monotone": Verdict(fs[:-1] - fs[1:], True)})
    return result


def suite_capacity(config: VerifyConfig, tols=None) -> SuiteResult:
    """|flux| <= capacity for random triples.  tols is ignored; the
    benchmark's set-up still passes config.DEFAULT_TOLERANCES."""
    def evaluate(thetas, rhos, sigmas):
        theta, (rho, sigma) = make_observable(thetas), validate_states(rhos, sigmas)
        phi = expectation(theta.matrix, rho.matrix - sigma.matrix)
        return {f"dim {theta.dim}": Verdict(theta.capacity - np.abs(phi), True)}
    return _check_draws(SuiteResult("capacity", config.slack_tolerance), config,
                        _triple_inputs, evaluate)


def suite_bound_chain(config: VerifyConfig) -> SuiteResult:
    """The full ordered chain on random triples and on protocol draws:
    ratio^2 <= tn^2/4 <= (1 - eps) B <= B <= 1, the entropy-cost form,
    and both Pinsker variants."""
    def sample(k, dim, rng):
        # even draws follow the Monte Carlo protocol, whose uniforms are
        # made into matrices as one (B, 7) stack; odd ones are Ginibre
        if k % 2 == 0:
            return (rng.random(7),)
        return _triple_inputs(k, dim, rng)

    def evaluate(*inputs):
        thetas, rhos, sigmas = qubit_matrices(*inputs) if len(inputs) == 1 else inputs
        report = evaluate_bounds(make_observable(thetas),
                                 *validate_states(rhos, sigmas))
        main, ends = report.main_rhs, report.s_tilde.finite & ~report.degenerate_capacity
        return {**report.verdicts, "curve <= 1": Verdict(1.0 - main, ends),
                "strengthened <= main": Verdict(main - report.strengthened_rhs, ends)}
    return _check_draws(SuiteResult("bound_chain", config.slack_tolerance), config,
                        sample, evaluate)


def suite_sign_identities(config: VerifyConfig) -> SuiteResult:
    """Sign-operator identities: flux of the sign operator recovers the
    trace norm, both states share the kernel weight, squares add to I."""
    tol = 1e-9  # a fixed identity threshold, as in the other suites

    def evaluate(rhos, sigmas):
        rho, sigma = validate_states(rhos, sigmas)
        dec = sign_decomposition(rho, sigma)
        tn = np.abs(dec.difference_spectrum.eigenvalues).sum(axis=1)
        gap = expectation(dec.sign_operator, rho.matrix - sigma.matrix)
        eps_rho = expectation(dec.kernel_projector, rho.matrix)
        eps_sigma = expectation(dec.kernel_projector, sigma.matrix)
        unit = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
        unit_error = np.abs(unit - np.eye(rho.dim)).max(axis=(1, 2))
        return {"trace-norm recovery": Verdict(tol - np.abs(gap - tn), True),
                "kernel weight": Verdict(tol - np.abs(eps_rho - eps_sigma), True),
                "squares to identity": Verdict(tol - unit_error, True)}
    return _check_draws(SuiteResult("sign_identities", config.slack_tolerance),
                        config, _pair_inputs, evaluate)


def suite_uncertainty(config: VerifyConfig) -> SuiteResult:
    """Variance uncertainty relation for the sign operator, plus its
    equality on the extremal two-level family."""
    def evaluate(rhos, sigmas):
        rho, sigma = validate_states(rhos, sigmas)
        check = qtur_check(sign_decomposition(rho, sigma).sign_operator, rho, sigma)
        return {f"dim {rho.dim}": check.verdict}
    result = _check_draws(SuiteResult("uncertainty", config.slack_tolerance),
                          config, _pair_inputs, evaluate)
    grid = np.linspace(0.2, 6.0, 30)
    rhos, sigmas, _ = saturating_family(grid)
    check = qtur_check(sign_decomposition(rhos, sigmas).sign_operator, rhos, sigmas)
    _record_grid(result, "a=", grid,
                 {"equality": Verdict(1e-8 - np.abs(check.verdict.slack), True)})
    return result


def suite_optimal_shift(config: VerifyConfig) -> SuiteResult:
    """min over shifts of ||theta - s I||_inf equals capacity / 2.  The
    observables are made as one stack; each scans its own grid of 10,000
    shifts against the two ends of its spectrum, one row at a time: a
    row's scan holds 80 KB arrays, and a stacked scan's larger
    temporaries cost more time than its fewer calls save."""
    def evaluate(hermitians):
        thetas = make_observable(hermitians)
        scans = []
        for row in range(len(hermitians)):
            theta = take_row(thetas, row)
            span = theta.capacity if theta.capacity > 0 else 1.0
            grid = np.linspace(theta.theta_min - span, theta.theta_max + span, 10000)
            scans.append(astuple(optimal_shift_check(theta, grid)))
        check = ShiftCheck(*np.array(scans).T)
        half = check.half_capacity
        return {"grid minimum": Verdict(check.grid_min - half, True),
                "grid resolution": Verdict(half + check.grid_step - check.grid_min, True),
                "value at the optimal shift": Verdict(
                    1e-12 - np.abs(check.value_at_lambda_star - half), True)}
    return _check_draws(SuiteResult("optimal_shift", config.slack_tolerance), config,
                        lambda k, dim, rng: (random_hermitian(rng, dim),),
                        evaluate, halved=True)


def suite_thermo_chain(config: VerifyConfig) -> SuiteResult:
    """Entropy-production chain on random 2x2 scenarios, and the thermal
    identity Phi = beta * heat for Gibbs environments."""
    def sample(k, dim, rng):
        scenario = _scenario_inputs(rng, 2, 2)
        # the thermal identity runs on an independent Gibbs environment
        h_env = np.diag(np.sort(rng.random(2) * 3.0)).astype(np.complex128)
        return (*scenario, h_env, 0.1 + 4.9 * rng.random())

    def evaluate(rho_s, rho_e, generators, h_env, beta):
        scenario = _scenario(rho_s, rho_e, generators)
        chain = entropy_flux_chain_check(scenario, evolve(scenario))
        gibbs = thermal_environment(h_env, beta)
        thermal = make_scenario(scenario.rho_system, gibbs, scenario.unitary)
        thermal_outcome = evolve(thermal)
        ef = entropy_flux(thermal, thermal_outcome)
        heat = expectation(h_env, thermal_outcome.rho_environment.matrix
                           - gibbs.matrix)
        return {**chain.steps, "thermal identity": Verdict(
            1e-10 - np.abs(ef.value - beta * heat), True)}
    return _check_draws(SuiteResult("thermo_chain", config.slack_tolerance), config,
                        sample, evaluate, halved=True)


def suite_local_bound(config: VerifyConfig) -> SuiteResult:
    """Marginal-flux chain for local observables: the exchange model over
    a time grid and random scenarios with random local observables."""
    result = SuiteResult("local_bound", config.slack_tolerance)
    points = spin_pair_timeseries(SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 61))))
    finite = ~np.isinf(points.onsager)
    _record_grid(result, "t=", points.t,
                 {"exchange model": Verdict(points.s_tilde - points.onsager, finite),
                  "exchange cost": Verdict(points.onsager - points.two_phi_sq, finite)})

    def evaluate(rho_s, rho_e, generators, thetas):
        scenario = _scenario(rho_s, rho_e, generators)
        outcome = evolve(scenario)
        return local_system_bound_check(make_observable(thetas), outcome.rho_system,
                                        scenario.rho_system).steps
    return _check_draws(result, config,
                        lambda k, dim, rng: (*_scenario_inputs(rng, 2, 2),
                                             random_hermitian(rng, 2)),
                        evaluate, halved=True)


def suite_correlation(config: VerifyConfig) -> SuiteResult:
    """Correlation of local product observables: definitional agreement
    with the flux route and the entropy cap, under both reset protocols."""
    def evaluate(rho_s, rho_e, generators, h_system, h_environment):
        scenario = _scenario(rho_s, rho_e, generators)
        outcome = evolve(scenario)
        theta_s, theta_e = make_observable(h_system), make_observable(h_environment)
        checks = {}
        for protocol in (BATH_RESET, BOTH_RESET):
            value = correlation(theta_s, theta_e, scenario, outcome, protocol)
            report = correlation_bound_report(theta_s, theta_e, scenario,
                                              outcome, protocol)
            capped = (report.capacity > 0) & report.s_tilde.finite
            ratio_sq = (value / np.where(capped, report.capacity, 1.0)) ** 2
            checks[f"{protocol} definitional"] = Verdict(
                1e-9 - np.abs(value - report.flux), True)
            checks[f"{protocol} entropy cap"] = Verdict(
                report.main_rhs - ratio_sq, capped)
        return checks
    return _check_draws(SuiteResult("correlation", config.slack_tolerance), config,
                        lambda k, dim, rng: (*_scenario_inputs(rng, 2, 2),
                                             random_hermitian(rng, 2),
                                             random_hermitian(rng, 2)),
                        evaluate, halved=True)


def suite_saturation(config: VerifyConfig) -> SuiteResult:
    """The extremal family meets the bound with equality at every gap."""
    result = SuiteResult("saturation", config.slack_tolerance)
    _, _, family = saturating_family(np.linspace(0.1, 10.0, 100))
    _record_grid(result, "a=", family.log_odds_gap, {
        name: Verdict(1e-8 - error, True) for name, error in (
            ("gap", family.gap),
            ("trace norm", np.abs(family.trace_norm - family.trace_norm_closed)),
            ("divergence", np.abs(family.s_tilde - family.s_tilde_closed)))})
    return result


_SUITES = (
    suite_bound_functions,
    suite_capacity,
    suite_bound_chain,
    suite_sign_identities,
    suite_uncertainty,
    suite_optimal_shift,
    suite_thermo_chain,
    suite_local_bound,
    suite_correlation,
    suite_saturation,
)


def run_verify(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    suites = [suite(config) for suite in _SUITES]
    return VerifyReport(config=config, suites=suites)
