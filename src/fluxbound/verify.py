"""Self-contained verification suites for every inequality and identity.

Each suite draws its own reproducible inputs (counter-based substreams,
one stream id per suite), checks one family of claims, and reports the
number of checks, the number of violations and the smallest slack seen.
A violation pinpoints the suite, the draw index and the offending
quantity, so a broken bound is named rather than silently averaged away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .errors import ValidationError
from .flux import (Observable, clears, evaluate_bounds, make_observable,
                   optimal_shift_check, qtur_check, sign_decomposition)
from .linalg import expectation, take_row, unitary_from_generator
from .montecarlo import (check_master_seed, check_slack_tolerance, substream,
                         triple_from_uniforms)
from .states import DensityMatrix, validate_state
from .thermo import (BATH_RESET, BOTH_RESET, BipartiteScenario, SpinPairParams,
                     correlation, correlation_bound_report, entropy_flux,
                     entropy_flux_chain_check, evolve,
                     local_system_bound_check, make_scenario, saturating_family,
                     spin_pair_timeseries, thermal_environment)

_SUITE_STREAMS = {
    "bound_functions": 1,
    "capacity": 2,
    "bound_chain": 3,
    "sign_identities": 4,
    "uncertainty": 5,
    "optimal_shift": 6,
    "thermo_chain": 7,
    "local_bound": 8,
    "correlation": 9,
    "saturation": 10,
}


@dataclass
class SuiteResult:
    """A suite's tally; a check is violated when its slack does not clear
    -tolerance (the run's slack_tolerance), a NaN slack included."""

    name: str
    tolerance: float
    checks: int = 0
    violations: int = 0
    min_slack: float = math.inf
    worst: str = ""

    def record(self, slack: float, detail: str) -> None:
        self.checks += 1
        if slack < self.min_slack:
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
        if self.draws < 1:
            raise ValidationError("draws must be positive")
        check_master_seed(self.master_seed)
        check_slack_tolerance(self.slack_tolerance)


@dataclass
class VerifyReport:
    config: VerifyConfig
    suites: list

    @property
    def ok(self) -> bool:
        return all(s.violations == 0 for s in self.suites)


# generic random objects, used by the suites and the tests

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank state from a square Ginibre factor, rho = G G^dag / tr."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return validate_state(m / float(np.trace(m).real))


def random_observable(rng: np.random.Generator, dim: int) -> Observable:
    return make_observable(random_hermitian(rng, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return unitary_from_generator(random_hermitian(rng, dim), 1.0)


def random_scenario(rng: np.random.Generator, dim_system: int = 2,
                    dim_environment: int = 2) -> BipartiteScenario:
    rho_s = random_density(rng, dim_system)
    rho_e = random_density(rng, dim_environment)
    u = random_unitary(rng, dim_system * dim_environment)
    return make_scenario(rho_s, rho_e, u)


def _draws(config: VerifyConfig, suite: str, halved: bool = False):
    """(k, dim, rng) per draw of a suite: rng is draw k's substream of the
    suite's stream, and dim cycles 2, 3, 4.  A halved suite, whose draws
    cost more, takes max(draws // 2, 20) draws."""
    count = max(config.draws // 2, 20) if halved else config.draws
    for k in range(count):
        yield k, 2 + k % 3, substream(config.master_seed, k, _SUITE_STREAMS[suite])


def _random_pair(rng, dim):
    # full-rank Ginibre states: an infinite divergence has measure zero,
    # and the suites skip the checks it would make trivial
    return random_density(rng, dim), random_density(rng, dim)


def suite_bound_functions(config: VerifyConfig) -> SuiteResult:
    """Round trip, product identity, envelope and small-x behaviour of the
    scalar bound machinery (no randomness)."""
    result = SuiteResult("bound_functions", config.slack_tolerance)
    # grid values as Python floats, so the details print without numpy reprs
    for x in np.geomspace(1e-6, 50.0, 121).tolist():
        gap = _bounds.gap_from_divergence(x)
        result.record(1e-10 - abs(_bounds.divergence_from_gap(gap) - x),
                      f"roundtrip at x={x!r}")
    for x in np.geomspace(1e-4, 50.0, 121).tolist():
        b = _bounds.flux_ratio_sq_bound(x)
        f = _bounds.variance_ratio_floor(x)
        result.record(1e-10 - abs(b * (1.0 + f) - 1.0), f"product identity at x={x!r}")
    for x in np.geomspace(1e-6, 200.0, 121).tolist():
        b = _bounds.flux_ratio_sq_bound(x)
        result.record(min(1.0, 0.5 * x) - b, f"envelope at x={x!r}")
    small = _bounds.flux_ratio_sq_bound(1e-8)
    result.record(1e-3 - abs(small / 0.5e-8 - 1.0), "small-x limit")
    # monotonicity on a coarse grid
    xs = np.geomspace(1e-4, 60.0, 61).tolist()
    bs = [_bounds.flux_ratio_sq_bound(x) for x in xs]
    fs = [_bounds.variance_ratio_floor(x) for x in xs]
    for k in range(len(xs) - 1):
        result.record(bs[k + 1] - bs[k], f"bound monotone at {xs[k]!r}")
        result.record(fs[k] - fs[k + 1], f"floor monotone at {xs[k]!r}")
    return result


def suite_capacity(config: VerifyConfig, tols=None) -> SuiteResult:
    """|flux| <= capacity for random triples.  tols is ignored; the
    benchmark's set-up still passes config.DEFAULT_TOLERANCES."""
    result = SuiteResult("capacity", config.slack_tolerance)
    for k, dim, rng in _draws(config, result.name):
        theta = random_observable(rng, dim)
        rho, sigma = _random_pair(rng, dim)
        phi = expectation(theta.matrix, rho.matrix - sigma.matrix)
        result.record(theta.capacity - abs(phi), f"draw {k} dim {dim}")
    return result


def suite_bound_chain(config: VerifyConfig) -> SuiteResult:
    """The full ordered chain on random triples and on protocol draws:
    ratio^2 <= tn^2/4 <= (1 - eps) B <= B <= 1, the entropy-cost form,
    and both Pinsker variants."""
    result = SuiteResult("bound_chain", config.slack_tolerance)
    for k, dim, rng in _draws(config, result.name):
        if k % 2 == 0:
            theta, rho, sigma = triple_from_uniforms(rng.random(7))
        else:
            theta = random_observable(rng, dim)
            rho, sigma = _random_pair(rng, dim)
        report = evaluate_bounds(theta, rho, sigma)
        for name, verdict in report.verdicts.items():
            if verdict.trivial:
                continue
            result.record(verdict.slack, f"draw {k} {name}")
        if report.s_tilde.finite and not report.degenerate_capacity:
            result.record(1.0 - report.main_rhs, f"draw {k} curve <= 1")
            result.record(report.main_rhs - report.strengthened_rhs,
                          f"draw {k} strengthened <= main")
    return result


def suite_sign_identities(config: VerifyConfig) -> SuiteResult:
    """Sign-operator identities: flux of the sign operator recovers the
    trace norm, both states share the kernel weight, squares add to I."""
    result = SuiteResult("sign_identities", config.slack_tolerance)
    tol = 1e-9  # a fixed identity threshold, as in the other suites
    for k, dim, rng in _draws(config, result.name):
        rho, sigma = _random_pair(rng, dim)
        dec = sign_decomposition(rho, sigma)
        tn = float(np.sum(np.abs(dec.difference_spectrum.eigenvalues)))
        gap = expectation(dec.sign_operator, rho.matrix - sigma.matrix)
        result.record(tol - abs(gap - tn), f"draw {k} trace-norm recovery")
        eps_rho = expectation(dec.kernel_projector, rho.matrix)
        eps_sigma = expectation(dec.kernel_projector, sigma.matrix)
        result.record(tol - abs(eps_rho - eps_sigma), f"draw {k} kernel weight")
        unit = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
        result.record(tol - float(np.max(np.abs(unit - np.eye(dim)))),
                      f"draw {k} squares to identity")
    return result


def suite_uncertainty(config: VerifyConfig) -> SuiteResult:
    """Variance uncertainty relation for the sign operator, plus its
    equality on the extremal two-level family."""
    result = SuiteResult("uncertainty", config.slack_tolerance)
    for k, dim, rng in _draws(config, result.name):
        rho, sigma = _random_pair(rng, dim)
        dec = sign_decomposition(rho, sigma)
        check = qtur_check(dec.sign_operator, rho, sigma)
        if not check.trivial:
            result.record(check.slack, f"draw {k} dim {dim}")
    grid = np.linspace(0.2, 6.0, 30)
    rhos, sigmas, _ = saturating_family(grid)
    for k, a in enumerate(grid.tolist()):
        rho, sigma = take_row(rhos, k), take_row(sigmas, k)
        dec = sign_decomposition(rho, sigma)
        check = qtur_check(dec.sign_operator, rho, sigma)
        result.record(1e-8 - abs(check.slack), f"equality at a={a!r}")
    return result


def suite_optimal_shift(config: VerifyConfig) -> SuiteResult:
    """min over shifts of ||theta - s I||_inf equals capacity / 2."""
    result = SuiteResult("optimal_shift", config.slack_tolerance)
    for k, dim, rng in _draws(config, result.name, halved=True):
        theta = random_observable(rng, dim)
        span = theta.capacity if theta.capacity > 0 else 1.0
        grid = np.linspace(theta.theta_min - span, theta.theta_max + span, 10000)
        check = optimal_shift_check(theta, grid)
        result.record(check.grid_min - check.half_capacity, f"draw {k} grid minimum")
        result.record(check.half_capacity + check.grid_step - check.grid_min,
                      f"draw {k} grid resolution")
        result.record(1e-12 - abs(check.value_at_lambda_star - check.half_capacity),
                      f"draw {k} value at the optimal shift")
    return result


def suite_thermo_chain(config: VerifyConfig) -> SuiteResult:
    """Entropy-production chain on random 2x2 scenarios, and the thermal
    identity Phi = beta * heat for Gibbs environments."""
    result = SuiteResult("thermo_chain", config.slack_tolerance)
    for k, _, rng in _draws(config, result.name, halved=True):
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        chain = entropy_flux_chain_check(scenario, outcome)
        for name, slack in chain.steps.items():
            result.record(slack, f"draw {k} {name}")
        # thermal identity on an independent Gibbs environment
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


def suite_local_bound(config: VerifyConfig) -> SuiteResult:
    """Marginal-flux chain for local observables: the exchange model over
    a time grid and random scenarios with random local observables."""
    result = SuiteResult("local_bound", config.slack_tolerance)
    params = SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 61)))
    for point in spin_pair_timeseries(params):
        if math.isinf(point.onsager):
            continue
        result.record(point.s_tilde - point.onsager, f"exchange model at t={point.t!r}")
        result.record(point.onsager - point.two_phi_sq,
                      f"exchange cost at t={point.t!r}")
    for k, _, rng in _draws(config, result.name, halved=True):
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        theta = random_observable(rng, 2)
        chain = local_system_bound_check(theta, outcome.rho_system,
                                         scenario.rho_system)
        for name, slack in chain.steps.items():
            result.record(slack, f"draw {k} {name}")
    return result


def suite_correlation(config: VerifyConfig) -> SuiteResult:
    """Correlation of local product observables: definitional agreement
    with the flux route and the entropy cap, under both reset protocols."""
    result = SuiteResult("correlation", config.slack_tolerance)
    for k, _, rng in _draws(config, result.name, halved=True):
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        theta_s = random_observable(rng, 2)
        theta_e = random_observable(rng, 2)
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


def suite_saturation(config: VerifyConfig) -> SuiteResult:
    """The extremal family meets the bound with equality at every gap."""
    result = SuiteResult("saturation", config.slack_tolerance)
    _, _, family = saturating_family(np.linspace(0.1, 10.0, 100))
    for row in family.rows():
        a = row.log_odds_gap
        result.record(1e-8 - row.gap, f"gap at a={a!r}")
        result.record(1e-8 - abs(row.trace_norm - row.trace_norm_closed),
                      f"trace norm at a={a!r}")
        result.record(1e-8 - abs(row.s_tilde - row.s_tilde_closed),
                      f"divergence at a={a!r}")
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
