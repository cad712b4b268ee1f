"""Bipartite system-environment scenarios and entropy-flux bounds.

A scenario is (rho_S, rho_E, U): uncorrelated initial states evolved by
a joint unitary.  With rho' = U (rho_S x rho_E) U^dag and primed
marginals, the entropy production and its dual are

    Sigma      = S(rho' || rho_S' x rho_E)
    Sigma_dual = S(rho_S' x rho_E || rho')

and the entropy flux is the flux of log rho_E through the environment,

    Phi   = tr((rho_E - rho_E') log rho_E),
    Phi_L = spread of the eigenvalues of log rho_E,

which requires a full-rank environment.  The chain checked here is

    (Sigma + Sigma_dual) / 2 >= S_sym(rho_E, rho_E')
                             >= 2 r artanh(r) >= 2 r^2,   r = Phi / Phi_L,

with a local-observable version for the system marginal, plus the
correlation form: the flux of a product observable theta_S x theta_E
against the uncorrelated reference equals a covariance-like correlation
function, so correlations are capped by the same entropy curve.

The two-spin exchange model used throughout is two levels per side with
splitting Omega, excitation exchange at strength g_coupling and phase
phase0; basis order is |gg>, |ge>, |eg>, |ee> (system factor first).

The evolved joint state U (rho_S x rho_E) U^dag, the references and the
product observable theta_S x theta_E take their spectra from their
factors' (states.product_state, flux.product_observable), so evolve
solves only the two marginals.

The scenario layer (make_scenario, evolve, entropy_flux,
thermal_environment, the two chain checks and the correlations) takes
one scenario or a stack of B of them, whose records then hold B rows; a
single scenario runs as a stack of one (linalg.batch_of_one), and errors
name the failing row of a stack.  The two chain checks are read from
flux.evaluate_bounds, so its rule resolves a row (see ChainCheck).

spin_pair_timeseries and saturating_family evaluate their grids as
(B, n, n) stacks, BLOCK_ROWS points at a time (linalg.in_blocks), into
records of arrays whose row k equals point k evaluated alone.  The closed
forms are taken point by point through bounds.entrywise, so their sin,
exp and tanh do not depend on the CPU's vector units.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds as _bounds
from .config import DEFAULT_TOLERANCES
from .errors import DomainError, ValidationError
from .flux import (BoundReport, Observable, Verdict, all_hold, evaluate_bounds,
                   product_observable)
from .linalg import (as_complex_stack, as_real, as_stack, batch_of_one, eigh,
                     expectation, first_row, from_spectrum, in_blocks,
                     partial_trace, require_hermitian, row_label, shape_label,
                     take_row, tensor_product, unitary_from_generator)
from .states import (DensityMatrix, RelEntropyValue, _settled, directed_entropy_pair,
                     product_state, symmetric_average, symmetric_relative_entropy,
                     trace_distance_norm, validate_state, validate_states)


@dataclass(frozen=True)
class BipartiteScenario:
    """Initial states and joint unitary of one scenario, or of a stack of
    B of them (each field then holds B rows)."""

    rho_system: DensityMatrix
    rho_environment: DensityMatrix
    unitary: np.ndarray

    @property
    def dim_system(self) -> int:
        return self.rho_system.dim

    @property
    def dim_environment(self) -> int:
        return self.rho_environment.dim


@batch_of_one
def make_scenario(rho_system: DensityMatrix, rho_environment: DensityMatrix,
                  unitary) -> BipartiteScenario:
    """Check the unitary of a scenario, or of each row of stacks of B
    states and unitaries; errors name the first failing row."""
    u = as_complex_stack(unitary, "unitary")
    rows, d = len(rho_system.matrix), rho_system.dim * rho_environment.dim
    if u.shape != (rows, d, d) or len(rho_environment.matrix) != rows:
        raise ValidationError(
            f"unitary shape {shape_label(u)} does not match joint dim {d}"
            + (f" and {rows} rows" if rows > 1 else ""))
    defect = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(d)).max(axis=(1, 2))
    # written so that a NaN defect fails too
    bad = ~(defect <= DEFAULT_TOLERANCES.unitarity)
    if bad.any():
        raise ValidationError(
            f"unitarity invariant violated{row_label(bad)}: "
            f"||U^dag U - I||_max = {defect[first_row(bad)]:.3e}"
        )
    return BipartiteScenario(rho_system, rho_environment, u)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Evolved joint state, its marginals, and the two directed
    entropy productions against the uncorrelated reference (stacks of B
    rows for a stack of scenarios)."""

    rho_joint: DensityMatrix
    rho_system: DensityMatrix
    rho_environment: DensityMatrix
    sigma_reference: DensityMatrix
    entropy_production: RelEntropyValue
    entropy_production_dual: RelEntropyValue


@batch_of_one
def evolve(scenario: BipartiteScenario) -> ScenarioOutcome:
    """Evolve a scenario, or each row of a stack of them."""
    joint = product_state(scenario.rho_system, scenario.rho_environment,
                          scenario.unitary)
    ds, de = scenario.dim_system, scenario.dim_environment
    marg_s, marg_e = validate_states(partial_trace(joint.matrix, ds, de, "system"),
                                     partial_trace(joint.matrix, ds, de, "environment"))
    reference = product_state(marg_s, scenario.rho_environment)
    production, dual = directed_entropy_pair(joint, reference)
    return ScenarioOutcome(joint, marg_s, marg_e, reference, production, dual)


@dataclass(frozen=True)
class EntropyFlux:
    value: float
    capacity: float


def _log_environment(environment: DensityMatrix) -> Observable:
    """log rho_E of a stack of environments as an Observable, from their
    own spectra; it is unbounded unless each environment is full rank."""
    smallest = environment.eigenvalues[:, 0]
    bad = smallest <= DEFAULT_TOLERANCES.rank
    if bad.any():
        raise DomainError(f"environment is rank deficient{row_label(bad)}; "
                          f"log rho_E is unbounded",
                          offending_value=smallest[first_row(bad)].item())
    log_eigs = np.log(environment.eigenvalues)
    return Observable(from_spectrum(environment.eigenvectors, log_eigs), log_eigs,
                      environment.eigenvectors, log_eigs[:, -1], log_eigs[:, 0])


@batch_of_one
def entropy_flux(scenario: BipartiteScenario, outcome: ScenarioOutcome) -> EntropyFlux:
    """Phi = tr((rho_E - rho_E') log rho_E) and its capacity, for a
    scenario or each row of a stack (arrays over the rows)."""
    env = scenario.rho_environment
    log_env = _log_environment(env)
    value = expectation(log_env.matrix, env.matrix - outcome.rho_environment.matrix)
    return EntropyFlux(value=value, capacity=log_env.capacity)


@batch_of_one
def thermal_environment(hamiltonian, beta) -> DensityMatrix:
    """Gibbs state exp(-beta H) / Z, for one Hamiltonian or for a stack of
    B of them with one beta or an array of B.

    For a thermal environment the entropy flux reduces to heat times
    inverse temperature, Phi = beta tr((rho_E' - rho_E) H), and the
    capacity to beta * (E_max - E_min).
    """
    betas, rows = as_real(beta, "beta"), len(hamiltonian)
    if betas.ndim > 1 or betas.size not in (1, rows):
        raise ValidationError(f"beta of shape {betas.shape} is neither one value "
                              f"nor one per Hamiltonian ({rows})")
    betas = np.broadcast_to(betas, (rows,))
    bad = ~((0.0 < betas) & (betas < math.inf))
    if bad.any():
        raise ValidationError(
            f"inverse temperature must be positive and finite{row_label(bad)}, "
            f"got {betas[first_row(bad)].item()!r}")
    spec = eigh(hamiltonian)
    spread = spec.eigenvalues[:, -1] - spec.eigenvalues[:, 0]
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(betas * spread)
    if bad.any():
        k = first_row(bad)
        raise ValidationError(
            f"inverse temperature beta = {betas[k].item()!r} times the energy "
            f"spread {spread[k].item()!r} overflows{row_label(bad)}")
    # subtract the ground energy before exponentiating for stability
    weights = np.exp(-betas[:, None] * (spec.eigenvalues - spec.eigenvalues[:, :1]))
    weights = weights / weights.sum(axis=1, keepdims=True)
    # the state has H's eigenvectors, and its weights fall as the energies
    # rise: reversed, they ascend, with no second eigensolve
    matrix = require_hermitian(from_spectrum(spec.eigenvectors, weights))
    return _settled(matrix, weights[:, ::-1],
                    np.ascontiguousarray(spec.eigenvectors[:, :, ::-1]))


@dataclass(frozen=True)
class ChainCheck:
    """Slack accounting for a three-step entropy chain, or for a stack of
    B chains (every field then an array over the rows), read from
    evaluate_bounds' report of the flux.

    steps maps a name to its Verdict; s_tilde_dominates_cost is the
    report's onsager verdict.  No step applies to a row the report
    resolves (degenerate capacity or equal states), nor the production
    step where the production is infinite, nor the quadratic one at ratio
    1, where the cost is; s_tilde reads 0 on a row of degenerate
    capacity, as the report's does.  holds requires every step to hold.
    """

    flux: float
    capacity: float
    ratio: float
    s_tilde: RelEntropyValue
    steps: dict

    @property
    def holds(self):
        """Whether every step holds (per row for a stack)."""
        return all_hold(self.steps, DEFAULT_TOLERANCES.slack)


def _chain_from_report(report: BoundReport,
                       production_mean: RelEntropyValue | None = None) -> ChainCheck:
    """The chain of a stacked report; production_mean is None for the
    local chain, which starts at S_tilde."""
    degenerate = report.degenerate_capacity
    ratio = np.where(degenerate, 0.0, np.minimum(
        np.abs(report.flux) / np.where(degenerate, 1.0, report.capacity), 1.0))
    live, steps = ~(degenerate | report.states_equal), {}
    if production_mean is not None:
        # finite production but infinite marginal entropy cannot occur
        steps["production_dominates_s_tilde"] = Verdict(
            np.where(production_mean.finite, production_mean.value, 0.0)
            - report.s_tilde.value, live & production_mean.finite)
    steps["s_tilde_dominates_cost"] = report.verdicts["onsager"]
    steps["cost_dominates_quadratic"] = Verdict(
        _bounds.onsager_like(ratio) - 2.0 * ratio * ratio, live & (ratio < 1.0))
    return ChainCheck(report.flux, report.capacity, ratio, report.s_tilde, steps)


@batch_of_one
def entropy_flux_chain_check(scenario: BipartiteScenario,
                             outcome: ScenarioOutcome) -> ChainCheck:
    """(Sigma + Sigma_dual)/2 >= S_sym(rho_E, rho_E') >= 2 r artanh r >= 2 r^2,
    read from evaluate_bounds(log rho_E, rho_E, rho_E')."""
    env = scenario.rho_environment
    report = evaluate_bounds(_log_environment(env), env, outcome.rho_environment)
    production_mean = symmetric_average(outcome.entropy_production,
                                        outcome.entropy_production_dual)
    return _chain_from_report(report, production_mean)


@batch_of_one
def local_system_bound_check(observable: Observable, rho_later: DensityMatrix,
                             rho_earlier: DensityMatrix) -> ChainCheck:
    """S_sym(rho_later, rho_earlier) >= 2 r artanh r >= 2 r^2 for the flux
    of any bounded observable between two marginals of one evolution,
    read from evaluate_bounds(observable, rho_later, rho_earlier)."""
    return _chain_from_report(evaluate_bounds(observable, rho_later, rho_earlier))


# ---------------------------------------------------------------------------
# two-spin exchange model


@dataclass(frozen=True)
class SpinPairParams:
    """Two two-level systems exchanging one excitation.

    excited_population_system / _environment are the initial excited-state
    weights p and q; level_splitting is the shared gap Omega (the local
    Hamiltonian is Omega |e><e|); coupling_strength and coupling_phase set
    the exchange term; times is the ordered evaluation grid.
    """

    excited_population_system: float = 0.9
    excited_population_environment: float = 0.1
    level_splitting: float = 1.0
    coupling_strength: float = 2.0
    coupling_phase: float = 0.0
    times: Sequence[float] = (0.0,)

    def __post_init__(self):
        for name in ("excited_population_system", "excited_population_environment",
                     "level_splitting", "coupling_strength", "coupling_phase"):
            if not isinstance(value := getattr(self, name), numbers.Real):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        times = as_real(self.times, "times")
        for name in ("level_splitting", "coupling_strength", "coupling_phase", "times"):
            if not np.isfinite(times if name == "times" else getattr(self, name)).all():
                raise ValidationError(f"{name} must be finite")
        for label, value in (("system", self.excited_population_system),
                             ("environment", self.excited_population_environment)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{label} excited population must lie in [0, 1]")
        # the series divides the flux by it, which a subnormal one rounds away
        if self.level_splitting < np.finfo(np.float64).tiny:
            raise ValidationError(f"level_splitting must be at least the smallest "
                                  f"normal double, {np.finfo(np.float64).tiny:.3e}")
        if self.coupling_strength <= 0.0:
            raise ValidationError("coupling strength must be positive")
        if times.ndim != 1 or not times.size or (times < 0.0).any():
            raise ValidationError("times must be a nonempty list of nonnegative reals")
        if (times[1:] < times[:-1]).any():
            raise ValidationError("times must be nondecreasing")
        if not math.isfinite(float(self.coupling_strength) * float(times[-1])):
            raise ValidationError(
                "times must keep coupling_strength * max(times) finite")


def spin_hamiltonian(level_splitting: float) -> np.ndarray:
    """Local Hamiltonian Omega |e><e| in the (|g>, |e>) basis."""
    return np.diag([0.0, level_splitting]).astype(np.complex128)


def exchange_generator(coupling_strength: float, coupling_phase: float) -> np.ndarray:
    """Hermitian generator g (e^{i phi} |ge><eg| + h.c.) on the joint space."""
    gen = np.zeros((4, 4), dtype=np.complex128)
    gen[1, 2] = coupling_strength * np.exp(1j * coupling_phase)
    gen[2, 1] = np.conj(gen[1, 2])
    return gen


@dataclass(frozen=True)
class SpinPairPoint:
    """The exchange model over a time grid, one array over the times per field.

    flux is |tr(H_S (rho_S(t) - rho_S(0)))|; flux_analytic the closed form
    sin(g t)^2 |p - q| Omega; two_phi_sq and onsager are 2 r^2 and
    2 r artanh r for the ratio r = flux / Omega; s_tilde the symmetric
    relative entropy between the system marginal at t and at 0.
    """

    t: float
    flux: float
    flux_analytic: float
    two_phi_sq: float
    onsager: float
    s_tilde: float


def _spin_pair_initial_states(
        params: SpinPairParams) -> tuple[DensityMatrix, DensityMatrix]:
    """The exchange model's initial states (rho_S0, rho_E0)."""
    p, q = params.excited_population_system, params.excited_population_environment
    return validate_states(np.diag([1.0 - p, p]), np.diag([1.0 - q, q]))


def spin_pair_timeseries(params: SpinPairParams) -> SpinPairPoint:
    """The exchange model at every time of params.times, in blocks of
    BLOCK_ROWS times; the closed form is taken time by time."""
    p = params.excited_population_system
    q = params.excited_population_environment
    omega = params.level_splitting
    g = params.coupling_strength
    rho_s0, rho_e0 = _spin_pair_initial_states(params)
    h_s = spin_hamiltonian(omega)
    joint0 = tensor_product(rho_s0.matrix, rho_e0.matrix)
    generator_spectrum = eigh(exchange_generator(g, params.coupling_phase))
    times = as_real(params.times, "times")

    def block(first: int, stop: int) -> tuple[SpinPairPoint]:
        t = times[first:stop]
        u = unitary_from_generator(generator_spectrum, t)
        joint = u @ joint0 @ u.conj().swapaxes(1, 2)
        rho_s = validate_state(partial_trace(joint, 2, 2, "system"))
        flux = np.abs(expectation(np.broadcast_to(h_s, rho_s.matrix.shape),
                                  rho_s.matrix - rho_s0.matrix))
        ratio = np.minimum(flux / omega, 1.0)
        s_tilde = symmetric_relative_entropy(rho_s, as_stack(rho_s0, len(t)))
        flux_analytic = _bounds.entrywise(
            lambda x: math.sin(g * x) ** 2 * abs(p - q) * omega, t)
        return (SpinPairPoint(t, flux, flux_analytic, 2.0 * ratio * ratio,
                              _bounds.onsager_like(ratio), s_tilde.as_float()),)

    return in_blocks(block, len(times))[0]


def spin_pair_scenario(params: SpinPairParams, t: float) -> BipartiteScenario:
    """The exchange model at a single time, as a generic scenario."""
    rho_s0, rho_e0 = _spin_pair_initial_states(params)
    u = unitary_from_generator(
        exchange_generator(params.coupling_strength, params.coupling_phase), t)
    return make_scenario(rho_s0, rho_e0, u)


# ---------------------------------------------------------------------------
# correlations


BATH_RESET = "bath_reset"
BOTH_RESET = "both_reset"


def _reset_states(scenario: BipartiteScenario, outcome: ScenarioOutcome,
                  protocol: str,
                  ) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix | None]:
    """The system and environment states a protocol resets to, and their
    validated product when evolve() already built it (else None)."""
    if protocol == BATH_RESET:
        return (outcome.rho_system, scenario.rho_environment,
                outcome.sigma_reference)
    if protocol == BOTH_RESET:
        return scenario.rho_system, scenario.rho_environment, None
    raise ValidationError(f"unknown protocol {protocol!r}")


@batch_of_one
def correlation(theta_system: Observable, theta_environment: Observable,
                scenario: BipartiteScenario, outcome: ScenarioOutcome,
                protocol: str = BATH_RESET) -> float:
    """Correlation of local observables in the evolved state.

    bath_reset subtracts <theta_S>_{rho_S'} <theta_E>_{rho_E}: the flux of
    theta_S x theta_E from the evolved state to rho_S' x rho_E.  both_reset
    subtracts <theta_S>_{rho_S0} <theta_E>_{rho_E0}, the flux to the
    initial product state.  An array over the rows for stacked
    arguments.
    """
    system, environment, _ = _reset_states(scenario, outcome, protocol)
    joint_obs = tensor_product(theta_system.matrix, theta_environment.matrix)
    joint_mean = expectation(joint_obs, outcome.rho_joint.matrix)
    mean_s = expectation(theta_system.matrix, system.matrix)
    mean_e = expectation(theta_environment.matrix, environment.matrix)
    return joint_mean - mean_s * mean_e


@batch_of_one
def correlation_bound_report(theta_system: Observable,
                             theta_environment: Observable,
                             scenario: BipartiteScenario, outcome: ScenarioOutcome,
                             protocol: str = BATH_RESET):
    """BoundReport for the product observable against the reference state
    matching the protocol, for one scenario or a stack; its flux equals
    correlation()."""
    system, environment, reference = _reset_states(scenario, outcome, protocol)
    joint_obs = product_observable(theta_system, theta_environment)
    if reference is None:
        reference = product_state(system, environment)
    return evaluate_bounds(joint_obs, outcome.rho_joint, reference)


# ---------------------------------------------------------------------------
# saturating family


@dataclass(frozen=True)
class SaturatingFamily:
    """Closed forms for the extremal two-level pair at log-odds gap a,
    alongside the numerically evaluated bound data; every field is an
    array over the gaps for a grid of them."""

    log_odds_gap: float
    trace_norm_closed: float
    s_tilde_closed: float
    trace_norm: float
    s_tilde: float
    bound_value: float
    gap: float


def saturating_family(
        log_odds_gap) -> tuple[DensityMatrix, DensityMatrix, SaturatingFamily]:
    """The two-level pair saturating the flux bound at every gap a.

    rho has populations (1 / (1 + e^a), 1 / (1 + e^{-a})) on (|0>, |1>),
    sigma is the same with a -> -a; both are computed from e^{-|a|}, so
    no exponential overflows and the small population keeps its relative
    accuracy at any gap.  In closed form the trace norm is
    2 tanh(|a| / 2), the symmetric relative entropy is a tanh(a / 2)
    = divergence_from_gap(|a|), the kernel weight vanishes, and
    ||rho - sigma||_1^2 / 4 equals flux_ratio_sq_bound(s_tilde) exactly.

    Returns (rho, sigma, record): the record carries both the closed forms
    and the values the full numerical pipeline produces for the same
    pair.  log_odds_gap is a float, or a 1-D grid of B gaps, which gives
    two stacks of B states and a record of arrays, evaluated in blocks of
    BLOCK_ROWS gaps.
    """
    gaps = as_real(log_odds_gap, "log-odds gaps")
    if gaps.ndim > 1 or gaps.size == 0:
        raise ValidationError(f"log-odds gaps must be a scalar or a nonempty "
                              f"1-D grid, got shape {gaps.shape}")
    if np.isnan(gaps).any():
        raise ValidationError("log-odds gap must not be NaN")
    if gaps.ndim == 0:
        return take_row(saturating_family(gaps[None]), 0)
    return in_blocks(lambda first, stop: _saturating_block(gaps[first:stop]),
                     len(gaps))


def _saturating_block(gaps: np.ndarray):
    """(rho, sigma, record) of a 1-D block of gaps, as stacks."""
    magnitudes = np.abs(gaps)
    t = _bounds.entrywise(math.exp, -magnitudes)
    small, large = t / (1.0 + t), 1.0 / (1.0 + t)
    positive = gaps >= 0.0
    low, high = np.where(positive, small, large), np.where(positive, large, small)
    populations = np.zeros((len(gaps), 2, 2))
    populations[:, 0, 0], populations[:, 1, 1] = low, high
    rho = validate_state(populations)
    populations[:, 0, 0], populations[:, 1, 1] = high, low
    sigma = validate_state(populations)
    tn = trace_distance_norm(rho, sigma)
    s_tilde = symmetric_relative_entropy(rho, sigma)
    s_value = s_tilde.as_float()
    finite = s_tilde.finite
    bound_value = np.where(
        finite, _bounds.flux_ratio_sq_bound(np.where(finite, s_value, 0.0)), 1.0)
    return rho, sigma, SaturatingFamily(
        log_odds_gap=gaps,
        trace_norm_closed=2.0 * _bounds.entrywise(math.tanh, 0.5 * magnitudes),
        s_tilde_closed=_bounds.divergence_from_gap(magnitudes),
        trace_norm=tn,
        s_tilde=s_value,
        bound_value=bound_value,
        gap=np.abs(0.25 * tn * tn - bound_value),
    )
