"""Reproducible random sampling and the qubit Monte Carlo sweep.

Randomness is counter-based: draw i of stream k under master seed m uses
the Philox4x64-10 stream keyed by (m, k * 2^48 + i), so every record is a
pure function of (seed, stream, index).  Reordering or parallelizing draws
cannot change any of them, and a redraw continues the same stream.
substream(m, i, k) is that stream as a numpy Generator; philox_uniforms
computes the same words with numpy array arithmetic for a whole block of
draws at once (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), bit for bit as the Generator's random() gives them.

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
Redraw r of a draw reads words 7r to 7r + 6 of the draw's stream.

The sweep samples a block of config.BLOCK_ROWS draws (1024, chosen by a
measured scan, see config) with one philox_uniforms call and one protocol
call, and validates and evaluates it as one stack; then it redraws the
block's infinite draws, sampling and evaluating only the pending rows
in each round.  Each draw reads only its own stream and every row of a
stack is computed as it would be alone, so the records, one DrawRecord
of arrays over the draws (linalg.in_blocks), depend neither on the block
size nor on the order in which draws are sampled.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .bounds import entrywise
from .errors import ValidationError
from .flux import (BoundReport, Observable, all_hold, evaluate_bounds, lowers,
                   make_observable)
from .linalg import as_real, in_blocks, put_rows
from .states import DensityMatrix, validate_state

POLICY_REDRAW = "redraw"
POLICY_REPORT_INFINITE = "report_infinite"

_STREAM_SHIFT = 48  # draw indices live below bit 48 of the Philox key
_STREAM_BITS = 16  # stream ids fill the key word above the draw index
# redraws of one draw under the redraw policy before its infinite
# divergence is reported after all (0 under report_infinite)
MAX_REDRAWS = 64
UNIFORMS_PER_DRAW = 7  # the qubit protocol's u1..u7
_TWO_PI_I = 2j * math.pi  # the protocol's 2j * math.pi * u, folded once

# Philox4x64-10: round multipliers and key increments (Random123), one
# row per multiplied word, shaped to broadcast over (2, rows, counters)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64).reshape(2, 1, 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_M_HIGH, _M_LOW = _PHILOX_M >> np.uint64(32), _PHILOX_M & _LOW32


def check_integer(name: str, value) -> int:
    """value as a Python int; a float or any other non-integer is an error
    that names the input."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{name} must be an integer, got {value!r}") from None


def check_draw_count(name: str, value) -> None:
    """A run's draw count is a positive integer, at most 2^48: the draw
    index fills the low 48 bits of the Philox key."""
    count = check_integer(name, value)
    if count < 1:
        raise ValidationError(f"{name} must be positive")
    if count > 1 << _STREAM_SHIFT:
        raise ValidationError(f"{name} must be at most 2^48, got {count}")


def check_master_seed(master_seed: int) -> None:
    """Master seeds are the first 64-bit word of the Philox key."""
    if not 0 <= check_integer("master seed", master_seed) < (1 << 64):
        raise ValidationError(
            f"master seed {master_seed} out of range [0, 2^64)")


def check_slack_tolerance(slack_tolerance: float) -> None:
    """The scoring tolerance of a run must be a positive finite real; a
    NaN would score every check as violated."""
    if not (isinstance(slack_tolerance, numbers.Real)
            and 0.0 < slack_tolerance < math.inf):
        raise ValidationError(f"slack_tolerance must be positive and finite, "
                              f"got {slack_tolerance!r}")


def substream(master_seed: int, draw_index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one draw: key = (seed, stream | index)."""
    check_master_seed(master_seed)
    draw = _key_words("draw index", draw_index, _STREAM_SHIFT)
    stream = _key_words("stream", stream, _STREAM_BITS)
    if draw.ndim or stream.ndim:
        raise ValidationError("a substream takes one draw index and one stream")
    key = np.array([master_seed, (int(stream) << _STREAM_SHIFT) + int(draw)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * x, the high
    one assembled from 32-bit halves (uint64 arrays wrap silently)."""
    x_high, x_low = x >> np.uint64(32), x & _LOW32
    low_low = x_low * _M_LOW
    low_high = x_low * _M_HIGH
    high_low = x_high * _M_LOW
    middle = (low_low >> np.uint64(32)) + (low_high & _LOW32) + (high_low & _LOW32)
    high = (x_high * _M_HIGH + (low_high >> np.uint64(32))
            + (high_low >> np.uint64(32)) + (middle >> np.uint64(32)))
    return high, x * _PHILOX_M


def _key_words(name: str, values, bits: int) -> np.ndarray:
    """values as a uint64 array, each an integer in [0, 2^bits)."""
    values = np.asarray(values)
    # the ends as Python numbers: numpy's min and max cost more on few values
    words = values.ravel().tolist()
    if words and (values.dtype.kind not in "iu" or min(words) < 0
                  or max(words) >= 1 << bits):
        raise ValidationError(f"{name} must be integers in [0, 2^{bits})")
    return values.astype(np.uint64)


def philox_uniforms(master_seed: int, draws, first_words, stream: int = 0) -> np.ndarray:
    """(B, 7) uniforms: row b holds words first_words[b] to
    first_words[b] + 6 of draw draws[b]'s stream, as
    substream(master_seed, draws[b], stream) would return them after
    skipping first_words[b] words.

    numpy's Philox increments its 256-bit counter before each block of
    four words, so word w comes from the counter (w // 4 + 1, 0, 0, 0).
    Every row's counters run through the ten rounds together, and a
    uniform is the word's top 53 bits times 2^-53, as Generator.random
    takes it."""
    check_master_seed(master_seed)
    stream = _key_words("stream", stream, _STREAM_BITS)
    draws = _key_words("draw indices", draws, _STREAM_SHIFT)
    first_words = _key_words("word offsets", first_words, 63)
    if stream.ndim:
        raise ValidationError(f"stream must be one integer, got shape {stream.shape}")
    if draws.ndim != 1:
        raise ValidationError(f"draw indices must be 1-D, got shape {draws.shape}")
    if first_words.shape != draws.shape:
        raise ValidationError(f"word offsets must be one per draw index, got shape "
                              f"{first_words.shape}, draw indices {draws.shape}")
    lanes = (first_words % np.uint64(4)).astype(np.intp)
    counters = (int(lanes.max(initial=0)) + UNIFORMS_PER_DRAW - 1) // 4 + 1
    rows = len(draws)
    # the multiplied words (x0, x2) and the xored ones (x1, x3)
    multiplied = np.zeros((2, rows, counters), dtype=np.uint64)
    multiplied[0] = (first_words // np.uint64(4) + np.uint64(1))[:, None] + np.arange(
        counters, dtype=np.uint64)
    xored = np.zeros_like(multiplied)
    key = np.empty((2, rows, 1), dtype=np.uint64)
    key[0] = master_seed
    key[1, :, 0] = draws + np.uint64(int(stream) << _STREAM_SHIFT)
    for round_ in range(10):
        if round_:
            key = key + _PHILOX_W
        high, low = _mulhilo(multiplied)
        multiplied, xored = high[::-1] ^ xored ^ key, low[::-1]
    words = np.stack([multiplied[0], xored[0], multiplied[1], xored[1]],
                     axis=-1).reshape(rows, 4 * counters)
    picked = np.take_along_axis(
        words, lanes[:, None] + np.arange(UNIFORMS_PER_DRAW), axis=1)
    return (picked >> np.uint64(11)) * 2.0 ** -53


def qubit_matrices(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The protocol's raw (theta, rho, sigma) matrices from seven uniforms
    in [0, 1), not yet validated: a (7,) array gives one triple and a
    (B, 7) array a stack of B.  Each row is bit for bit what the
    protocol's formulas give it alone in Python floats."""
    u = as_real(u, "uniforms")
    if u.ndim not in (1, 2) or u.shape[-1] != UNIFORMS_PER_DRAW:
        raise ValidationError("the qubit protocol consumes exactly 7 uniforms "
                              f"per draw, got an array of shape {u.shape}")
    p1, q1, u3, _, u5, u6, _ = u.T  # columns of a stack, or seven floats
    # arg C and arg D from u4 and u7, value by value
    phase_c, phase_d = entrywise(lambda v: cmath.exp(_TWO_PI_I * v), u.T[3::3])
    coherence = np.sqrt(u3 * q1 * (1.0 - q1)) * phase_c
    w = 4.0 * u5
    offdiag = np.sqrt(u6) * phase_d
    theta, rho, sigma = np.zeros((3, *u.shape[:-1], 2, 2), dtype=np.complex128)
    rho[..., 0, 0], rho[..., 1, 1] = 1.0 - p1, p1
    sigma[..., 0, 0], sigma[..., 0, 1] = 1.0 - q1, coherence
    sigma[..., 1, 0], sigma[..., 1, 1] = coherence.conj(), q1
    theta[..., 0, 0], theta[..., 0, 1] = -w, offdiag
    theta[..., 1, 0], theta[..., 1, 1] = offdiag.conj(), w
    return theta, rho, sigma


def validate_triple(theta, rho, sigma) -> tuple[Observable, DensityMatrix, DensityMatrix]:
    """Raw (theta, rho, sigma) matrices, or stacks of them, validated in
    that order."""
    return make_observable(theta), validate_state(rho), validate_state(sigma)


def triple_from_uniforms(u) -> tuple[Observable, DensityMatrix, DensityMatrix]:
    """Deterministic (theta, rho, sigma) from seven uniforms in [0, 1), or
    stacks of them from a (B, 7) array."""
    return validate_triple(*qubit_matrices(u))


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class DrawConfig:
    n_draws: int = 10000
    master_seed: int = 42
    rejection_policy: str = POLICY_REPORT_INFINITE
    slack_tolerance: float = 1e-9

    def __post_init__(self):
        check_draw_count("n_draws", self.n_draws)
        check_master_seed(self.master_seed)
        if self.rejection_policy not in (POLICY_REDRAW, POLICY_REPORT_INFINITE):
            raise ValidationError(
                f"unknown rejection policy {self.rejection_policy!r}")
        check_slack_tolerance(self.slack_tolerance)


@dataclass(frozen=True)
class DrawRecord:
    """The sweep's draws, each field an array over them; s_tilde and
    pinsker_rhs are +inf where a draw is reported infinite."""

    draw: np.ndarray
    flux_ratio_sq: np.ndarray
    s_tilde: np.ndarray
    pinsker_rhs: np.ndarray
    main_rhs: np.ndarray
    strengthened_rhs: np.ndarray
    epsilon: np.ndarray
    redraws: np.ndarray
    holds_all: np.ndarray
    holds_main: np.ndarray
    infinite: np.ndarray


@dataclass
class MonteCarloSummary:
    n_draws: int = 0
    violations: dict = field(default_factory=dict)
    min_slack_main: float = math.inf
    draws_s_tilde_ge_2: int = 0
    draws_far_from_equilibrium: int = 0  # finite s_tilde >= 2 and main_rhs < 1
    infinite_records: int = 0
    total_redraws: int = 0


def _record_block(draws: np.ndarray, report: BoundReport, redraws: np.ndarray,
                  tolerance: float, summary: MonteCarloSummary) -> DrawRecord:
    """The block's records, and the block folded into the summary.
    redraws holds each row's redraw count.  The verdicts are scored at
    tolerance: row by row with flux.all_hold and Verdict.holds_at, and
    over the block with Verdict.tally, whose violations add up and whose
    worst main slack (a NaN one included) can lower min_slack_main."""
    s_tilde = report.s_tilde.as_float()
    infinite = ~report.s_tilde.finite
    verdicts = report.verdicts
    tallies = {name: v.tally(tolerance) for name, v in verdicts.items()}
    summary.total_redraws += int(redraws.sum())
    summary.infinite_records += int(np.count_nonzero(infinite))
    far = s_tilde >= 2.0
    summary.draws_s_tilde_ge_2 += int(np.count_nonzero(far))
    summary.draws_far_from_equilibrium += int(np.count_nonzero(
        far & ~infinite & (report.main_rhs < 1.0)))
    for name, (failed, _, _) in tallies.items():
        if failed:
            summary.violations[name] = summary.violations.get(name, 0) + failed
    lowest = tallies["main"][1]
    if lowers(lowest, summary.min_slack_main):
        summary.min_slack_main = lowest
    return DrawRecord(draws, report.flux_ratio_sq, s_tilde, report.pinsker_rhs,
                      report.main_rhs, report.strengthened_rhs, report.epsilon,
                      redraws, all_hold(verdicts, tolerance),
                      verdicts["main"].holds_at(tolerance), infinite)


def run_montecarlo(config: DrawConfig = DrawConfig(), sampler=qubit_matrices,
                   ) -> tuple[DrawRecord, MonteCarloSummary]:
    """Run the sweep and evaluate every bound on every draw, into one
    DrawRecord of arrays over the draws.

    sampler(u) maps a (B, 7) array of uniforms, one row per draw, to the
    stacked raw (theta, rho, sigma) matrices of those draws.  Each block
    samples its draws with one philox_uniforms call and one sampler call
    and is evaluated; then, while some draw has infinite symmetric
    relative entropy and fewer redraws than the limit (MAX_REDRAWS under
    redraw, 0 under report_infinite), those draws are sampled again, with
    one call over the pending rows that reads each draw's next seven
    words, evaluated, and written back into the block's report
    (linalg.put_rows).  A draw still infinite is emitted with its
    markers.  Each verdict is scored against config.slack_tolerance.
    """
    limit = MAX_REDRAWS if config.rejection_policy == POLICY_REDRAW else 0
    summary = MonteCarloSummary(n_draws=config.n_draws)

    def evaluate(draws: np.ndarray, redraws: np.ndarray) -> BoundReport:
        """The report of the draws, each at its redraw count."""
        uniforms = philox_uniforms(config.master_seed, draws,
                                   UNIFORMS_PER_DRAW * redraws)
        return evaluate_bounds(*validate_triple(*sampler(uniforms)))

    def block(first: int, stop: int) -> tuple[DrawRecord]:
        draws = np.arange(first, stop)
        redraws = np.zeros(len(draws), dtype=np.int64)
        report = evaluate(draws, redraws)
        while (pending := np.flatnonzero(~report.s_tilde.finite
                                         & (redraws < limit))).size:
            redraws[pending] += 1
            put_rows(report, pending, evaluate(draws[pending], redraws[pending]))
        return (_record_block(draws, report, redraws, config.slack_tolerance,
                              summary),)

    (records,) = in_blocks(block, config.n_draws)
    return records, summary
