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

spin_pair_timeseries and saturating_family evaluate their grids as
(B, n, n) stacks, BLOCK_ROWS points at a time, and every row equals its
point evaluated alone.  The closed forms are taken point by point with
the math module, whose sin, exp and tanh do not depend on the CPU's
vector units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import bounds as _bounds
from .config import BLOCK_ROWS, DEFAULT_TOLERANCES
from .errors import DomainError, ValidationError
from .flux import Observable, clears, evaluate_bounds, make_observable
from .linalg import (as_stack, eigh, expectation, from_spectrum, partial_trace,
                     take_row, tensor_product, unitary_from_generator)
from .states import (DensityMatrix, RelEntropyValue, directed_entropy_pair,
                     symmetric_average, symmetric_relative_entropy,
                     trace_distance_norm, validate_state)


@dataclass(frozen=True)
class BipartiteScenario:
    dim_system: int
    dim_environment: int
    rho_system: DensityMatrix
    rho_environment: DensityMatrix
    unitary: np.ndarray


def make_scenario(rho_system: DensityMatrix, rho_environment: DensityMatrix,
                  unitary) -> BipartiteScenario:
    u = np.asarray(unitary, dtype=np.complex128)
    d = rho_system.dim * rho_environment.dim
    if u.shape != (d, d):
        raise ValidationError(f"unitary shape {u.shape} does not match joint dim {d}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    # written so that a NaN defect fails too
    if not defect <= DEFAULT_TOLERANCES.unitarity:
        raise ValidationError(
            f"unitarity invariant violated: ||U^dag U - I||_max = {defect:.3e}"
        )
    return BipartiteScenario(rho_system.dim, rho_environment.dim,
                             rho_system, rho_environment, u)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Evolved joint state, its marginals, and the two directed
    entropy productions against the uncorrelated reference."""

    rho_joint: DensityMatrix
    rho_system: DensityMatrix
    rho_environment: DensityMatrix
    sigma_reference: DensityMatrix
    entropy_production: RelEntropyValue
    entropy_production_dual: RelEntropyValue


def evolve(scenario: BipartiteScenario) -> ScenarioOutcome:
    u = scenario.unitary
    joint0 = tensor_product(scenario.rho_system.matrix,
                            scenario.rho_environment.matrix)
    joint = validate_state(u @ joint0 @ u.conj().T)
    ds, de = scenario.dim_system, scenario.dim_environment
    marg_s = validate_state(partial_trace(joint.matrix, ds, de, "system"))
    marg_e = validate_state(partial_trace(joint.matrix, ds, de, "environment"))
    reference = validate_state(
        tensor_product(marg_s.matrix, scenario.rho_environment.matrix))
    production, dual = directed_entropy_pair(joint, reference)
    return ScenarioOutcome(joint, marg_s, marg_e, reference, production, dual)


@dataclass(frozen=True)
class EntropyFlux:
    value: float
    capacity: float


def entropy_flux(scenario: BipartiteScenario, outcome: ScenarioOutcome) -> EntropyFlux:
    """Phi = tr((rho_E - rho_E') log rho_E) and its capacity.

    The environment must be full rank, otherwise log rho_E is unbounded
    and the capacity is infinite.
    """
    env = scenario.rho_environment
    smallest = float(env.eigenvalues[0])
    if smallest <= DEFAULT_TOLERANCES.rank:
        raise DomainError(
            "environment is rank deficient; log rho_E is unbounded",
            offending_value=smallest,
        )
    log_eigs = np.log(env.eigenvalues)
    log_env = from_spectrum(env.eigenvectors, log_eigs)
    value = expectation(log_env, env.matrix - outcome.rho_environment.matrix)
    capacity = float(log_eigs[-1] - log_eigs[0])
    return EntropyFlux(value=value, capacity=capacity)


def thermal_environment(hamiltonian, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H) / Z.

    For a thermal environment the entropy flux reduces to heat times
    inverse temperature, Phi = beta tr((rho_E' - rho_E) H), and the
    capacity to beta * (E_max - E_min).
    """
    if not 0.0 < beta < math.inf:
        raise ValidationError(
            f"inverse temperature must be positive and finite, got {beta!r}")
    spec = eigh(hamiltonian)
    spread = float(spec.eigenvalues[-1] - spec.eigenvalues[0])
    if not math.isfinite(beta * spread):
        raise ValidationError(
            f"inverse temperature beta = {beta!r} times the energy spread "
            f"{spread!r} overflows")
    # subtract the ground energy before exponentiating for stability
    weights = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    weights = weights / float(np.sum(weights))
    return validate_state(from_spectrum(spec.eigenvectors, weights))


@dataclass(frozen=True)
class ChainCheck:
    """Slack accounting for a three-step entropy chain.

    steps maps a name to its slack (rhs-to-lhs margin); holds requires
    every step to clear -DEFAULT_TOLERANCES.slack.  trivial marks chains
    resolved by an infinite entropy or a degenerate capacity.
    """

    flux: float
    capacity: float
    ratio: float
    s_tilde: RelEntropyValue
    production_mean: RelEntropyValue
    steps: dict
    trivial: bool

    @property
    def holds(self) -> bool:
        """Whether every step clears -DEFAULT_TOLERANCES.slack."""
        return all(clears(s, DEFAULT_TOLERANCES.slack) for s in self.steps.values())


def _chain_from_parts(phi: float, capacity: float,
                      s_tilde: RelEntropyValue,
                      production_mean: RelEntropyValue | None) -> ChainCheck:
    if capacity <= 0.0:
        return ChainCheck(phi, capacity, 0.0, s_tilde, production_mean, {}, True)
    ratio = min(abs(phi) / capacity, 1.0)
    cost = _bounds.onsager_like(ratio)
    steps: dict = {}
    trivial = False
    if production_mean is not None:
        if production_mean.finite and s_tilde.finite:
            steps["production_dominates_s_tilde"] = production_mean.value - s_tilde.value
        elif not production_mean.finite:
            trivial = True
        else:
            # finite production but infinite marginal entropy cannot occur
            steps["production_dominates_s_tilde"] = -math.inf
    if s_tilde.finite and math.isfinite(cost):
        steps["s_tilde_dominates_cost"] = s_tilde.value - cost
    elif not s_tilde.finite:
        trivial = True
    else:
        steps["s_tilde_dominates_cost"] = -math.inf
    if math.isfinite(cost):
        steps["cost_dominates_quadratic"] = cost - 2.0 * ratio * ratio
    return ChainCheck(phi, capacity, ratio, s_tilde, production_mean,
                      steps, trivial)


def entropy_flux_chain_check(scenario: BipartiteScenario,
                             outcome: ScenarioOutcome) -> ChainCheck:
    """(Sigma + Sigma_dual)/2 >= S_sym(rho_E, rho_E') >= 2 r artanh r >= 2 r^2."""
    ef = entropy_flux(scenario, outcome)
    s_env = symmetric_relative_entropy(scenario.rho_environment,
                                       outcome.rho_environment)
    production_mean = symmetric_average(outcome.entropy_production,
                                        outcome.entropy_production_dual)
    return _chain_from_parts(ef.value, ef.capacity, s_env, production_mean)


def local_system_bound_check(observable: Observable, rho_later: DensityMatrix,
                             rho_earlier: DensityMatrix) -> ChainCheck:
    """S_sym(rho_later, rho_earlier) >= 2 r artanh r >= 2 r^2 for the flux
    of any bounded observable between two marginals of one evolution."""
    phi = expectation(observable.matrix, rho_later.matrix - rho_earlier.matrix)
    s_tilde = symmetric_relative_entropy(rho_later, rho_earlier)
    return _chain_from_parts(phi, observable.capacity, s_tilde, None)


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
        for name in ("level_splitting", "coupling_strength", "coupling_phase", "times"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name} must be finite")
        for label, value in (("system", self.excited_population_system),
                             ("environment", self.excited_population_environment)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{label} excited population must lie in [0, 1]")
        if self.level_splitting <= 0.0:
            raise ValidationError("level splitting must be positive")
        if self.coupling_strength <= 0.0:
            raise ValidationError("coupling strength must be positive")
        times = list(self.times)
        if not times or any(t < 0.0 for t in times):
            raise ValidationError("times must be a nonempty list of nonnegative reals")
        if any(b < a for a, b in zip(times, times[1:])):
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
    """One time sample of the exchange model.

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
    return tuple(validate_state(np.diag([1.0 - x, x]))
                 for x in (params.excited_population_system,
                           params.excited_population_environment))


def spin_pair_timeseries(params: SpinPairParams) -> list[SpinPairPoint]:
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
    times = np.asarray(params.times, dtype=np.float64)
    points = []
    for first in range(0, len(times), BLOCK_ROWS):
        block = times[first:first + BLOCK_ROWS]
        u = unitary_from_generator(generator_spectrum, block)
        joint = u @ joint0 @ u.conj().swapaxes(1, 2)
        rho_s = validate_state(partial_trace(joint, 2, 2, "system"))
        flux = np.abs(expectation(np.broadcast_to(h_s, rho_s.matrix.shape),
                                  rho_s.matrix - rho_s0.matrix))
        ratio = np.minimum(flux / omega, 1.0)
        s_tilde = symmetric_relative_entropy(rho_s, as_stack(rho_s0, len(block)))
        t = block.tolist()
        flux_analytic = [math.sin(g * x) ** 2 * abs(p - q) * omega for x in t]
        points += map(SpinPairPoint, t, flux.tolist(), flux_analytic,
                      (2.0 * ratio * ratio).tolist(),
                      _bounds.onsager_like(ratio).tolist(),
                      s_tilde.as_float().tolist())
    return points


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


def correlation(theta_system: Observable, theta_environment: Observable,
                scenario: BipartiteScenario, outcome: ScenarioOutcome,
                protocol: str = BATH_RESET) -> float:
    """Correlation of local observables in the evolved state.

    bath_reset subtracts <theta_S>_{rho_S'} <theta_E>_{rho_E}: the flux of
    theta_S x theta_E from the evolved state to rho_S' x rho_E.  both_reset
    subtracts <theta_S>_{rho_S0} <theta_E>_{rho_E0}, the flux to the
    initial product state.
    """
    system, environment, _ = _reset_states(scenario, outcome, protocol)
    joint_obs = tensor_product(theta_system.matrix, theta_environment.matrix)
    joint_mean = expectation(joint_obs, outcome.rho_joint.matrix)
    mean_s = expectation(theta_system.matrix, system.matrix)
    mean_e = expectation(theta_environment.matrix, environment.matrix)
    return joint_mean - mean_s * mean_e


def correlation_bound_report(theta_system: Observable,
                             theta_environment: Observable,
                             scenario: BipartiteScenario, outcome: ScenarioOutcome,
                             protocol: str = BATH_RESET):
    """BoundReport for the product observable against the reference state
    matching the protocol; its flux equals correlation()."""
    system, environment, reference = _reset_states(scenario, outcome, protocol)
    joint_obs = make_observable(
        tensor_product(theta_system.matrix, theta_environment.matrix))
    if reference is None:
        reference = validate_state(
            tensor_product(system.matrix, environment.matrix))
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
    epsilon: float
    trace_norm: float
    s_tilde: float
    bound_value: float
    gap: float

    def rows(self) -> Iterator["SaturatingFamily"]:
        """The record at each gap, with float fields, made one at a time."""
        columns = (np.atleast_1d(value).tolist() for value in vars(self).values())
        return (SaturatingFamily(*row) for row in zip(*columns))


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
    gaps = np.asarray(log_odds_gap, dtype=np.float64)
    if gaps.ndim > 1 or gaps.size == 0:
        raise ValidationError(f"log-odds gaps must be a scalar or a nonempty "
                              f"1-D grid, got shape {gaps.shape}")
    if np.isnan(gaps).any():
        raise ValidationError("log-odds gap must not be NaN")
    if gaps.ndim == 0:
        rho, sigma, family = saturating_family(gaps[None])
        return take_row(rho, 0), take_row(sigma, 0), take_row(family, 0)
    stacks = None
    for first in range(0, len(gaps), BLOCK_ROWS):
        block = _saturating_block(gaps[first:first + BLOCK_ROWS])
        if stacks is None:
            stacks = tuple(_unset_rows(part, len(gaps)) for part in block)
        for stack, part in zip(stacks, block):
            for name, rows in vars(part).items():
                getattr(stack, name)[first:first + len(rows)] = rows
    return stacks


def _unset_rows(record, count: int):
    """A record of the same type as a stacked record, with `count` unset
    rows in each field, for the blocks to be copied into."""
    return type(record)(*(np.empty((count,) + rows.shape[1:], rows.dtype)
                          for rows in vars(record).values()))


def _saturating_block(gaps: np.ndarray):
    """(rho, sigma, record) of a 1-D block of gaps, as stacks."""
    magnitudes = np.abs(gaps).tolist()
    t = np.array([math.exp(-m) for m in magnitudes])
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
        trace_norm_closed=np.array([2.0 * math.tanh(0.5 * m) for m in magnitudes]),
        s_tilde_closed=np.array([_bounds.divergence_from_gap(m) for m in magnitudes]),
        epsilon=np.zeros(len(gaps)),
        trace_norm=tn,
        s_tilde=s_value,
        bound_value=bound_value,
        gap=np.abs(0.25 * tn * tn - bound_value),
    )
