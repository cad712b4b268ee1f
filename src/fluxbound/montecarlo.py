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

The sweep validates and evaluates the draws in blocks of BLOCK_ROWS as
one stack, and redraws a block's infinite draws after sampling the whole
block.  Each draw reads only its own substream and every row of a stack
is computed as it would be alone, so the records depend neither on the
blocking nor on the order in which draws are sampled.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .config import BLOCK_ROWS
from .errors import ValidationError
from .flux import BoundReport, Observable, clears, evaluate_bounds, make_observable
from .linalg import as_array
from .states import DensityMatrix, validate_state

POLICY_REDRAW = "redraw"
POLICY_REPORT_INFINITE = "report_infinite"

_STREAM_SHIFT = 48  # draw indices live below bit 48 of the Philox key
_STREAM_BITS = 16  # stream ids fill the key word above the draw index
# redraws of one draw under the redraw policy before its infinite
# divergence is reported after all (0 under report_infinite)
MAX_REDRAWS = 64


def check_master_seed(master_seed: int) -> None:
    """Master seeds are the first 64-bit word of the Philox key."""
    if not 0 <= master_seed < (1 << 64):
        raise ValidationError(
            f"master seed {master_seed} out of range [0, 2^64)")


def check_slack_tolerance(slack_tolerance: float) -> None:
    """The scoring tolerance of a run must be positive and finite; a NaN
    would score every check as violated."""
    if not 0.0 < slack_tolerance < math.inf:
        raise ValidationError(f"slack_tolerance must be positive and finite, "
                              f"got {slack_tolerance!r}")


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


def triple_from_uniforms(u) -> tuple[Observable, DensityMatrix, DensityMatrix]:
    """Deterministic (theta, rho, sigma) from seven uniforms in [0, 1)."""
    theta, rho, sigma = qubit_matrices(u)
    return make_observable(theta), validate_state(rho), validate_state(sigma)


def sample_qubit_matrices(
        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's default sampler: one draw's raw matrices, which the
    sweep validates a block at a time."""
    return qubit_matrices(rng.random(7))


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class DrawConfig:
    n_draws: int = 10000
    master_seed: int = 42
    rejection_policy: str = POLICY_REPORT_INFINITE
    slack_tolerance: float = 1e-9

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValidationError("n_draws must be positive")
        check_master_seed(self.master_seed)
        if self.rejection_policy not in (POLICY_REDRAW, POLICY_REPORT_INFINITE):
            raise ValidationError(
                f"unknown rejection policy {self.rejection_policy!r}")
        check_slack_tolerance(self.slack_tolerance)


@dataclass(frozen=True)
class DrawRecord:
    """One draw of the sweep; s_tilde and pinsker_rhs are +inf for a
    reported-infinite draw (under redraw, only after MAX_REDRAWS)."""

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


def _evaluate_block(triples: list) -> BoundReport:
    """Stack the samplers' triples (matrices, or records carrying one in
    .matrix), validate each stack once and evaluate it."""
    theta, rho, sigma = (np.stack([as_array(m) for m in ms]) for ms in zip(*triples))
    return evaluate_bounds(make_observable(theta), validate_state(rho),
                           validate_state(sigma))


def _record_block(first: int, report: BoundReport, redraws: list, tolerance: float,
                  records: list, summary: MonteCarloSummary) -> None:
    """Append the block's records, as Python scalars, and fold the block
    into the summary.  redraws holds each row's redraw count.  A verdict
    holds when its slack clears -tolerance (flux.clears)."""
    s_tilde = report.s_tilde.as_float()
    infinite = ~report.s_tilde.finite
    main = report.verdicts["main"]
    holds = {name: clears(v.slack, tolerance) for name, v in report.verdicts.items()}
    holds_all = np.logical_and.reduce(list(holds.values()))
    columns = zip(report.flux_ratio_sq.tolist(), s_tilde.tolist(),
                  report.pinsker_rhs.tolist(), report.main_rhs.tolist(),
                  report.strengthened_rhs.tolist(), report.epsilon.tolist(),
                  redraws, holds_all.tolist(), holds["main"].tolist(),
                  infinite.tolist())
    for offset, row in enumerate(columns):
        records.append(DrawRecord(first + offset, *row))
    summary.total_redraws += sum(redraws)
    summary.infinite_records += int(np.count_nonzero(infinite))
    far = s_tilde >= 2.0
    summary.draws_s_tilde_ge_2 += int(np.count_nonzero(far))
    summary.draws_far_from_equilibrium += int(np.count_nonzero(
        far & ~infinite & (report.main_rhs < 1.0)))
    for name, held in holds.items():
        failed = int(np.count_nonzero(~held))
        if failed:
            summary.violations[name] = summary.violations.get(name, 0) + failed
    counted = ~main.trivial & np.isfinite(main.slack)
    if counted.any():
        summary.min_slack_main = min(summary.min_slack_main,
                                     float(main.slack[counted].min()))


def run_montecarlo(config: DrawConfig = DrawConfig(), sampler=sample_qubit_matrices,
                   ) -> tuple[list[DrawRecord], MonteCarloSummary]:
    """Run the sweep and evaluate every bound on every draw.

    sampler(rng) returns one draw's (theta, rho, sigma), as matrices or
    as records carrying one in .matrix.  Each block samples its draws in
    draw order and is evaluated; then, while some draw has infinite
    symmetric relative entropy and fewer redraws than the limit (MAX_REDRAWS
    under redraw, 0 under report_infinite), each such draw is sampled again
    from its own substream and the block is evaluated again.  A draw still
    infinite is emitted with its markers.  Each verdict is scored against
    config.slack_tolerance.
    """
    limit = MAX_REDRAWS if config.rejection_policy == POLICY_REDRAW else 0
    records: list[DrawRecord] = []
    summary = MonteCarloSummary(n_draws=config.n_draws)
    for first in range(0, config.n_draws, BLOCK_ROWS):
        rngs, triples = [], []
        for index in range(first, min(first + BLOCK_ROWS, config.n_draws)):
            rngs.append(substream(config.master_seed, index))
            triples.append(sampler(rngs[-1]))
        redraws = [0] * len(triples)
        report = _evaluate_block(triples)
        while pending := [k for k in np.flatnonzero(~report.s_tilde.finite).tolist()
                          if redraws[k] < limit]:
            for k in pending:
                triples[k] = sampler(rngs[k])
                redraws[k] += 1
            report = _evaluate_block(triples)
        _record_block(first, report, redraws, config.slack_tolerance,
                      records, summary)
    return records, summary
