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
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError
from .flux import (evaluate_bounds, optimal_shift_check, qtur_check,
                   sign_decomposition)
from .linalg import expectation
from .montecarlo import (check_master_seed, random_density, random_observable,
                         random_scenario, sample_qubit_triple, substream)
from .states import symmetric_relative_entropy
from .thermo import (BATH_RESET, BOTH_RESET, SpinPairParams,
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
    name: str
    checks: int = 0
    violations: int = 0
    min_slack: float = math.inf
    worst: str = ""

    def record(self, slack: float, tolerance: float, detail: str) -> None:
        self.checks += 1
        if slack < self.min_slack:
            self.min_slack = slack
            self.worst = detail
        if slack < -tolerance:
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
        if self.slack_tolerance <= 0.0:
            raise ValidationError("slack tolerance must be positive")


@dataclass
class VerifyReport:
    config: VerifyConfig
    suites: list

    @property
    def ok(self) -> bool:
        return all(s.violations == 0 for s in self.suites)


def _mixed_dims(count: int) -> list[int]:
    # cycle 2, 3, 4 so every dimension is exercised
    return [2 + (k % 3) for k in range(count)]


def _random_pair(rng, dim, tols):
    # full-rank Ginibre states; infinite divergences have measure zero,
    # but redraw defensively so the suites always test the finite branch
    for _ in range(8):
        rho = random_density(rng, dim, tols)
        sigma = random_density(rng, dim, tols)
        if symmetric_relative_entropy(rho, sigma, tols).finite:
            return rho, sigma
    raise ValidationError("could not draw a finite-divergence pair")


def suite_bound_functions(config: VerifyConfig,
                          tols: Tolerances) -> SuiteResult:
    """Round trip, product identity, envelope and small-x behaviour of the
    scalar bound machinery (no randomness)."""
    result = SuiteResult("bound_functions")
    tol = config.slack_tolerance
    grid = np.geomspace(1e-6, 50.0, 121)
    for x in grid:
        gap = _bounds.gap_from_divergence(float(x))
        result.record(1e-10 - abs(_bounds.divergence_from_gap(gap) - x), tol,
                      f"roundtrip at x={x!r}")
    for x in np.geomspace(1e-4, 50.0, 121):
        b = _bounds.flux_ratio_sq_bound(float(x))
        f = _bounds.variance_ratio_floor(float(x))
        result.record(1e-10 - abs(b * (1.0 + f) - 1.0), tol,
                      f"product identity at x={x!r}")
    for x in np.geomspace(1e-6, 200.0, 121):
        b = _bounds.flux_ratio_sq_bound(float(x))
        result.record(min(1.0, 0.5 * float(x)) - b, tol, f"envelope at x={x!r}")
    small = _bounds.flux_ratio_sq_bound(1e-8)
    result.record(1e-3 - abs(small / 0.5e-8 - 1.0), tol, "small-x limit")
    # monotonicity on a coarse grid
    xs = np.geomspace(1e-4, 60.0, 61)
    bs = [_bounds.flux_ratio_sq_bound(float(x)) for x in xs]
    fs = [_bounds.variance_ratio_floor(float(x)) for x in xs]
    for k in range(len(xs) - 1):
        result.record(bs[k + 1] - bs[k], tol, f"bound monotone at {xs[k]!r}")
        result.record(fs[k] - fs[k + 1], tol, f"floor monotone at {xs[k]!r}")
    return result


def suite_capacity(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """|flux| <= capacity for random triples."""
    result = SuiteResult("capacity")
    dims = _mixed_dims(config.draws)
    for k, dim in enumerate(dims):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["capacity"])
        theta = random_observable(rng, dim, tols)
        rho, sigma = _random_pair(rng, dim, tols)
        phi = expectation(theta.matrix, rho.matrix - sigma.matrix, tols)
        result.record(theta.capacity - abs(phi), config.slack_tolerance,
                      f"draw {k} dim {dim}")
    return result


def suite_bound_chain(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """The full ordered chain on random triples and on protocol draws:
    ratio^2 <= tn^2/4 <= (1 - eps) B <= B <= 1, the entropy-cost form,
    and both Pinsker variants."""
    result = SuiteResult("bound_chain")
    tol = config.slack_tolerance
    dims = _mixed_dims(config.draws)
    for k, dim in enumerate(dims):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["bound_chain"])
        if k % 2 == 0:
            theta, rho, sigma = sample_qubit_triple(rng, tols)
        else:
            theta = random_observable(rng, dim, tols)
            rho, sigma = _random_pair(rng, dim, tols)
        report = evaluate_bounds(theta, rho, sigma, tols=tols)
        for name, verdict in report.verdicts.items():
            if verdict.trivial:
                continue
            result.record(verdict.slack, tol, f"draw {k} {name}")
        if report.s_tilde.finite and not report.degenerate_capacity:
            result.record(1.0 - report.main_rhs, tol, f"draw {k} curve <= 1")
            result.record(report.main_rhs - report.strengthened_rhs, tol,
                          f"draw {k} strengthened <= main")
    return result


def suite_sign_identities(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """Sign-operator identities: flux of the sign operator recovers the
    trace norm, both states share the kernel weight, squares add to I."""
    result = SuiteResult("sign_identities")
    tol = config.slack_tolerance
    dims = _mixed_dims(config.draws)
    for k, dim in enumerate(dims):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["sign_identities"])
        rho, sigma = _random_pair(rng, dim, tols)
        dec = sign_decomposition(rho, sigma, None, tols)
        tn = float(np.sum(np.abs(dec.difference_spectrum.eigenvalues)))
        gap = expectation(dec.sign_operator, rho.matrix - sigma.matrix, tols)
        result.record(tol - abs(gap - tn), tol, f"draw {k} trace-norm recovery")
        eps_rho = expectation(dec.kernel_projector, rho.matrix, tols)
        eps_sigma = expectation(dec.kernel_projector, sigma.matrix, tols)
        result.record(tol - abs(eps_rho - eps_sigma), tol,
                      f"draw {k} kernel weight")
        unit = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
        result.record(tol - float(np.max(np.abs(unit - np.eye(dim)))), tol,
                      f"draw {k} squares to identity")
    return result


def suite_uncertainty(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """Variance uncertainty relation for the sign operator, plus its
    equality on the extremal two-level family."""
    result = SuiteResult("uncertainty")
    tol = config.slack_tolerance
    dims = _mixed_dims(config.draws)
    for k, dim in enumerate(dims):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["uncertainty"])
        rho, sigma = _random_pair(rng, dim, tols)
        dec = sign_decomposition(rho, sigma, None, tols)
        check = qtur_check(dec.sign_operator, rho, sigma, tols=tols)
        if not check.trivial:
            result.record(check.slack, tol, f"draw {k} dim {dim}")
    for a in np.linspace(0.2, 6.0, 30):
        rho, sigma, _ = saturating_family(float(a), tols=tols)
        dec = sign_decomposition(rho, sigma, None, tols)
        check = qtur_check(dec.sign_operator, rho, sigma, tols=tols)
        result.record(1e-8 - abs(check.slack), tol, f"equality at a={a!r}")
    return result


def suite_optimal_shift(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """min over shifts of ||theta - s I||_inf equals capacity / 2."""
    result = SuiteResult("optimal_shift")
    tol = config.slack_tolerance
    count = max(config.draws // 2, 20)
    dims = _mixed_dims(count)
    for k, dim in enumerate(dims):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["optimal_shift"])
        theta = random_observable(rng, dim, tols)
        span = theta.capacity if theta.capacity > 0 else 1.0
        grid = np.linspace(theta.theta_min - span, theta.theta_max + span, 10000)
        check = optimal_shift_check(theta, grid, tols)
        result.record(check.grid_min - check.half_capacity, tol,
                      f"draw {k} grid minimum")
        result.record(check.half_capacity + check.grid_step - check.grid_min,
                      tol, f"draw {k} grid resolution")
        result.record(1e-12 - abs(check.value_at_lambda_star - check.half_capacity),
                      tol, f"draw {k} value at the optimal shift")
    return result


def suite_thermo_chain(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """Entropy-production chain on random 2x2 scenarios, and the thermal
    identity Phi = beta * heat for Gibbs environments."""
    result = SuiteResult("thermo_chain")
    tol = config.slack_tolerance
    count = max(config.draws // 2, 20)
    for k in range(count):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["thermo_chain"])
        scenario = random_scenario(rng, 2, 2, tols)
        outcome = evolve(scenario, tols)
        chain = entropy_flux_chain_check(scenario, outcome, tols)
        for name, slack in chain.steps.items():
            result.record(slack, tol, f"draw {k} {name}")
        # thermal identity on an independent Gibbs environment
        h_env = np.diag(np.sort(rng.random(2) * 3.0)).astype(np.complex128)
        beta = 0.1 + 4.9 * rng.random()
        gibbs = thermal_environment(h_env, beta, tols)
        thermal = make_scenario(scenario.rho_system, gibbs, scenario.unitary, tols)
        thermal_outcome = evolve(thermal, tols)
        ef = entropy_flux(thermal, thermal_outcome, tols)
        heat = expectation(h_env, thermal_outcome.rho_environment.matrix
                           - gibbs.matrix, tols)
        result.record(1e-10 - abs(ef.value - beta * heat), tol,
                      f"draw {k} thermal identity")
    return result


def suite_local_bound(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """Marginal-flux chain for local observables: the exchange model over
    a time grid and random scenarios with random local observables."""
    result = SuiteResult("local_bound")
    tol = config.slack_tolerance
    params = SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 61)))
    for point in spin_pair_timeseries(params, tols):
        if math.isinf(point.onsager):
            continue
        result.record(point.s_tilde - point.onsager, tol,
                      f"exchange model at t={point.t!r}")
        result.record(point.onsager - point.two_phi_sq, tol,
                      f"exchange cost at t={point.t!r}")
    count = max(config.draws // 2, 20)
    for k in range(count):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["local_bound"])
        scenario = random_scenario(rng, 2, 2, tols)
        outcome = evolve(scenario, tols)
        theta = random_observable(rng, 2, tols)
        chain = local_system_bound_check(theta, outcome.rho_system,
                                         scenario.rho_system, tols)
        for name, slack in chain.steps.items():
            result.record(slack, tol, f"draw {k} {name}")
    return result


def suite_correlation(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """Correlation of local product observables: definitional agreement
    with the flux route and the entropy cap, under both reset protocols."""
    result = SuiteResult("correlation")
    tol = config.slack_tolerance
    count = max(config.draws // 2, 20)
    for k in range(count):
        rng = substream(config.master_seed, k, _SUITE_STREAMS["correlation"])
        scenario = random_scenario(rng, 2, 2, tols)
        outcome = evolve(scenario, tols)
        theta_s = random_observable(rng, 2, tols)
        theta_e = random_observable(rng, 2, tols)
        for protocol in (BATH_RESET, BOTH_RESET):
            value = correlation(theta_s, theta_e, scenario, outcome, protocol, tols)
            report = correlation_bound_report(theta_s, theta_e, scenario,
                                              outcome, protocol, tols)
            result.record(1e-9 - abs(value - report.flux), tol,
                          f"draw {k} {protocol} definitional")
            if report.capacity > 0 and report.s_tilde.finite:
                cap = report.main_rhs - (value / report.capacity) ** 2
                result.record(cap, tol, f"draw {k} {protocol} entropy cap")
    return result


def suite_saturation(config: VerifyConfig, tols: Tolerances) -> SuiteResult:
    """The extremal family meets the bound with equality at every gap."""
    result = SuiteResult("saturation")
    tol = config.slack_tolerance
    for a in np.linspace(0.1, 10.0, 100):
        _, _, family = saturating_family(float(a), tols=tols)
        result.record(1e-8 - family.gap, tol, f"gap at a={a!r}")
        result.record(1e-8 - abs(family.trace_norm - family.trace_norm_closed),
                      tol, f"trace norm at a={a!r}")
        result.record(1e-8 - abs(family.s_tilde - family.s_tilde_closed),
                      tol, f"divergence at a={a!r}")
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


def run_verify(config: VerifyConfig = VerifyConfig(),
               tols: Tolerances | None = None) -> VerifyReport:
    if tols is None:
        tols = DEFAULT_TOLERANCES
    suites = [suite(config, tols) for suite in _SUITES]
    return VerifyReport(config=config, suites=suites)
