"""Reproducible random sampling and the qubit Monte Carlo sweep.

Randomness is counter-based: draw i of stream k under master seed m uses
a Philox generator keyed by (m, k * 2^48 + i), so every record is a pure
function of (seed, stream, index).  Reordering or parallelizing draws
cannot change any of them, and a redraw continues the same substream.

The qubit protocol samples, per draw and in this fixed order of uniform
variates u1..u7:

    rho   = diag(1 - p1, p1)                      p1 = u1
    sigma = [[1 - q1, C], [conj(C), q1]]          q1 = u2,
            |C|^2 = u3 * q1 (1 - q1)  (keeps sigma positive),
            arg C = 2 pi u4
    theta = [[-w, D], [conj(D), w]]               w = 4 u5,
            |D|^2 = u6, arg D = 2 pi u7

All magnitudes are taken as square roots of uniformly drawn squared
magnitudes; phases are uniform on the half-open interval [0, 2 pi).

The sweep samples each draw from its own substream, in draw order, and
validates and evaluates the draws in blocks of BLOCK_DRAWS as one stack.
Every row of a stack is computed as it would be alone, so the records do
not depend on the blocking.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError
from .flux import BoundReport, Observable, evaluate_bounds, make_observable
from .linalg import as_array, unitary_from_generator
from .states import DensityMatrix, validate_state
from .thermo import BipartiteScenario, make_scenario

POLICY_REDRAW = "redraw"
POLICY_REPORT_INFINITE = "report_infinite"

_STREAM_SHIFT = 48  # draw indices live below bit 48 of the Philox key
_STREAM_BITS = 16  # stream ids fill the key word above the draw index
# draws validated and evaluated as one stack: per-draw cost levels off
# from about a hundred draws on, and a block of 128 keeps the sweep's peak
# memory at that of draw-by-draw evaluation
BLOCK_DRAWS = 128


def check_master_seed(master_seed: int) -> None:
    """Master seeds are the first 64-bit word of the Philox key."""
    if not 0 <= master_seed < (1 << 64):
        raise ValidationError(
            f"master seed {master_seed} out of range [0, 2^64)")


def substream(master_seed: int, draw_index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one draw: key = (seed, stream | index)."""
    check_master_seed(master_seed)
    if not 0 <= stream < (1 << _STREAM_BITS):
        raise ValidationError(f"stream {stream} out of range [0, 2^16)")
    if draw_index < 0 or draw_index >= (1 << _STREAM_SHIFT):
        raise ValidationError(f"draw index {draw_index} out of range")
    key = np.array([np.uint64(master_seed),
                    np.uint64((stream << _STREAM_SHIFT) + draw_index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def qubit_matrices(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The protocol's raw (theta, rho, sigma) matrices from seven uniforms
    in [0, 1), not yet validated."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (7,):
        raise ValidationError("the qubit protocol consumes exactly 7 uniforms")
    p1, q1, u3, u4, u5, u6, u7 = u.tolist()
    rho = np.array([[1.0 - p1, 0.0], [0.0, p1]], dtype=np.complex128)
    coherence = math.sqrt(u3 * q1 * (1.0 - q1)) * cmath.exp(2j * math.pi * u4)
    sigma = np.array([[1.0 - q1, coherence], [coherence.conjugate(), q1]])
    w = 4.0 * u5
    offdiag = math.sqrt(u6) * cmath.exp(2j * math.pi * u7)
    theta = np.array([[-w, offdiag], [offdiag.conjugate(), w]])
    return theta, rho, sigma


def validate_triple(theta, rho, sigma, tols: Tolerances = DEFAULT_TOLERANCES,
                    ) -> tuple[Observable, DensityMatrix, DensityMatrix]:
    """make_observable and validate_state on one triple of matrices, or on
    three (B, n, n) stacks."""
    return (make_observable(theta, tols), validate_state(rho, tols),
            validate_state(sigma, tols))


def triple_from_uniforms(u, tols: Tolerances = DEFAULT_TOLERANCES,
                         ) -> tuple[Observable, DensityMatrix, DensityMatrix]:
    """Deterministic (theta, rho, sigma) from seven uniforms in [0, 1)."""
    return validate_triple(*qubit_matrices(u), tols)


def sample_qubit_matrices(rng: np.random.Generator,
                          tols: Tolerances = DEFAULT_TOLERANCES,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's default sampler: one draw's raw matrices, which the
    sweep validates a block at a time."""
    return qubit_matrices(rng.random(7))


def sample_qubit_triple(rng: np.random.Generator,
                        tols: Tolerances = DEFAULT_TOLERANCES,
                        ) -> tuple[Observable, DensityMatrix, DensityMatrix]:
    return triple_from_uniforms(rng.random(7), tols)


# generic random objects, used by the verification suites and tests

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(rng: np.random.Generator, dim: int,
                   tols: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Full-rank state from a square Ginibre factor, rho = G G^dag / tr."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return validate_state(m / float(np.trace(m).real), tols)


def random_observable(rng: np.random.Generator, dim: int,
                      tols: Tolerances = DEFAULT_TOLERANCES) -> Observable:
    return make_observable(random_hermitian(rng, dim), tols)


def random_unitary(rng: np.random.Generator, dim: int,
                   tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    return unitary_from_generator(random_hermitian(rng, dim), 1.0, tols)


def random_scenario(rng: np.random.Generator, dim_system: int = 2,
                    dim_environment: int = 2,
                    tols: Tolerances = DEFAULT_TOLERANCES) -> BipartiteScenario:
    rho_s = random_density(rng, dim_system, tols)
    rho_e = random_density(rng, dim_environment, tols)
    u = random_unitary(rng, dim_system * dim_environment, tols)
    return make_scenario(rho_s, rho_e, u, tols)


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class DrawConfig:
    n_draws: int = 10000
    master_seed: int = 42
    rejection_policy: str = POLICY_REPORT_INFINITE
    slack_tolerance: float = 1e-9
    max_redraws: int = 64

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValidationError("n_draws must be positive")
        check_master_seed(self.master_seed)
        if self.rejection_policy not in (POLICY_REDRAW, POLICY_REPORT_INFINITE):
            raise ValidationError(
                f"unknown rejection policy {self.rejection_policy!r}")
        if self.slack_tolerance <= 0.0:
            raise ValidationError("slack tolerance must be positive")


@dataclass(frozen=True)
class DrawRecord:
    """One draw of the sweep; s_tilde and pinsker_rhs are +inf for a
    reported-infinite draw (only possible under report_infinite)."""

    draw: int
    flux_ratio_sq: float
    s_tilde: float
    pinsker_rhs: float
    main_rhs: float
    strengthened_rhs: float
    epsilon: float
    redraws: int
    holds_all: bool
    holds_main: bool
    infinite: bool


@dataclass
class MonteCarloSummary:
    n_draws: int = 0
    violations: dict = field(default_factory=dict)
    min_slack_main: float = math.inf
    draws_s_tilde_ge_2: int = 0
    draws_far_from_equilibrium: int = 0  # finite s_tilde >= 2 and main_rhs < 1
    infinite_records: int = 0
    total_redraws: int = 0


def _evaluate_block(triples: list, tols: Tolerances) -> BoundReport:
    """Stack the samplers' triples (matrices, or records carrying one in
    .matrix), validate each stack once and evaluate it."""
    stacks = (np.stack([as_array(m) for m in ms]) for ms in zip(*triples))
    return evaluate_bounds(*validate_triple(*stacks, tols), tols=tols)


def _record_block(first: int, report: BoundReport, redraws: int,
                  records: list, summary: MonteCarloSummary) -> None:
    """Append the block's records, as Python scalars, and fold the block
    into the summary."""
    s_tilde = report.s_tilde.as_float()
    infinite = ~report.s_tilde.finite
    main = report.verdicts["main"]
    columns = zip(report.flux_ratio_sq.tolist(), s_tilde.tolist(),
                  report.pinsker_rhs.tolist(), report.main_rhs.tolist(),
                  report.strengthened_rhs.tolist(), report.epsilon.tolist(),
                  report.all_hold().tolist(), main.holds.tolist(),
                  infinite.tolist())
    for offset, row in enumerate(columns):
        records.append(DrawRecord(first + offset, *row[:6], redraws, *row[6:]))
    summary.total_redraws += redraws * len(s_tilde)
    summary.infinite_records += int(np.count_nonzero(infinite))
    far = s_tilde >= 2.0
    summary.draws_s_tilde_ge_2 += int(np.count_nonzero(far))
    summary.draws_far_from_equilibrium += int(np.count_nonzero(
        far & ~infinite & (report.main_rhs < 1.0)))
    for name, verdict in report.verdicts.items():
        failed = int(np.count_nonzero(~verdict.holds))
        if failed:
            summary.violations[name] = summary.violations.get(name, 0) + failed
    counted = ~main.trivial & np.isfinite(main.slack)
    if counted.any():
        summary.min_slack_main = min(summary.min_slack_main,
                                     float(main.slack[counted].min()))


def run_montecarlo(config: DrawConfig = DrawConfig(),
                   sampler=sample_qubit_matrices,
                   tols: Tolerances | None = None,
                   ) -> tuple[list[DrawRecord], MonteCarloSummary]:
    """Run the sweep and evaluate every bound on every draw.

    sampler(rng, tols) returns one draw's (theta, rho, sigma), as matrices
    or as records carrying one in .matrix; it is called once per draw, in
    draw order, on the draw's own substream.  Under report_infinite a
    draw with infinite symmetric relative entropy is emitted with its
    markers, and the draws are evaluated BLOCK_DRAWS at a time.  Under
    redraw such a draw is resampled from the same substream (the redraw
    count is recorded); each draw is then its own block, so that its
    redraws are sampled before the next draw.
    """
    if tols is None:
        tols = DEFAULT_TOLERANCES
    if tols.slack != config.slack_tolerance:
        tols = replace(tols, slack=config.slack_tolerance)
    redraw = config.rejection_policy == POLICY_REDRAW
    block = 1 if redraw else BLOCK_DRAWS
    records: list[DrawRecord] = []
    summary = MonteCarloSummary(n_draws=config.n_draws)
    for first in range(0, config.n_draws, block):
        triples = []
        for index in range(first, min(first + block, config.n_draws)):
            rng = substream(config.master_seed, index)
            triples.append(sampler(rng, tols))
        report = _evaluate_block(triples, tols)
        # under redraw the block is one draw, and rng is its substream
        redraws = 0
        while (redraw and not report.s_tilde.finite[0]
               and redraws < config.max_redraws):
            redraws += 1
            report = _evaluate_block([sampler(rng, tols)], tols)
        _record_block(first, report, redraws, records, summary)
    return records, summary
