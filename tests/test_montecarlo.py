"""Counter-based sampling, the qubit protocol, and the sweep driver."""

import cmath
import itertools
import math

import numpy as np
import pytest

import fluxbound.bounds as bounds_module
import fluxbound.linalg as linalg_module
import fluxbound.montecarlo as montecarlo_module
from conftest import (differing_fields, random_density, random_observable,
                      random_scenario, random_unitary, replay_draw, rows_of)
from fluxbound import (DEFAULT_TOLERANCES, DrawConfig, POLICY_REDRAW,
                       POLICY_REPORT_INFINITE, evaluate_bounds, make_observable,
                       run_montecarlo, substream, validate_state)
from fluxbound.config import BLOCK_ROWS
from fluxbound.errors import ValidationError
from fluxbound.linalg import in_blocks
from fluxbound.montecarlo import (MAX_REDRAWS, MonteCarloSummary,
                                  check_master_seed, philox_uniforms,
                                  qubit_matrices, validate_triple)
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
    theta, rho, sigma = validate_triple(*qubit_matrices([0.5] * 7))
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
    theta, rho, sigma = validate_triple(
        *qubit_matrices([0.3, 0.5, 1.0, 0.0, 0.5, 0.5, 0.0]))
    assert min(sigma.eigenvalues) >= 0.0
    assert np.sum(sigma.eigenvalues > DEFAULT_TOLERANCES.rank) == 1
    # u values of exactly zero collapse the off-diagonals
    theta, rho, sigma = validate_triple(*qubit_matrices([0.0] * 7))
    assert np.max(np.abs(sigma.matrix - np.diag([1.0, 0.0]))) <= 1e-15
    assert theta.capacity == 0.0


def test_triple_from_uniforms_consumes_exactly_seven():
    for shape in ((6,), (8,), (3, 6), (2, 3, 7)):
        with pytest.raises(ValidationError, match="7 uniforms"):
            qubit_matrices(np.full(shape, 0.5))


def _substream_words(seed, draw, first_word, stream=0):
    """Seven uniforms of draw's substream after skipping first_word words,
    each read through Generator.random as the stream continues."""
    rng = substream(seed, draw, stream)
    return rng.random(first_word + 7)[first_word:]


def test_philox_uniforms_match_the_substreams_bit_for_bit():
    top = 1 << 48
    cases = [  # (seed, stream, draw indices)
        (0, 0, range(40)),
        ((1 << 64) - 1, 0, range(40)),
        (42, 1, range(100, 140)),
        (1101, (1 << 16) - 1, range(top - 40, top)),
        ((1 << 64) - 1, 3, [0, 1, top // 2, top - 2, top - 1]),
    ]
    for seed, stream, draws in cases:
        draws = list(draws)
        # redraw r reads words 7r to 7r + 6, which for r = 1, 2, 3 start
        # inside a four-word counter block and cross into the next
        for r in range(4):
            u = philox_uniforms(seed, draws, [7 * r] * len(draws), stream)
            expected = [_substream_words(seed, d, 7 * r, stream) for d in draws]
            assert u.shape == (len(draws), 7)
            assert u.tobytes() == np.array(expected).tobytes(), (seed, stream, r)
        # rows at different offsets in one call
        offsets = [(k % 6) * 7 + k % 3 for k in range(len(draws))]
        u = philox_uniforms(seed, draws, offsets, stream)
        expected = [_substream_words(seed, d, w, stream)
                    for d, w in zip(draws, offsets)]
        assert u.tobytes() == np.array(expected).tobytes(), (seed, stream)


def test_philox_uniforms_reject_out_of_range_keys():
    with pytest.raises(ValidationError, match="master seed"):
        philox_uniforms(1 << 64, [0], [0])
    with pytest.raises(ValidationError, match="stream"):
        philox_uniforms(42, [0], [0], stream=1 << 16)
    for draws in ([-1], [1 << 48], [1.5]):
        with pytest.raises(ValidationError, match="draw indices"):
            philox_uniforms(42, draws, [0])
    for offsets in ([-7], [7.0]):
        with pytest.raises(ValidationError, match="word offsets"):
            philox_uniforms(42, [0], offsets)
    # each used to escape as a bare TypeError or numpy broadcasting error
    with pytest.raises(ValidationError, match="^stream must be one integer"):
        philox_uniforms(42, [0], [0], stream=[1, 2])
    for draws in (0, [[0, 1]]):
        with pytest.raises(ValidationError, match="^draw indices must be 1-D"):
            philox_uniforms(42, draws, [0])
    for offsets in ([[0]], [0, 0], 0):
        with pytest.raises(ValidationError, match="^word offsets must be one per draw"):
            philox_uniforms(42, [0], offsets)


def _per_row_matrices(u):
    """The protocol for one draw in Python floats, as the sweep computed
    it draw by draw: math.sqrt magnitudes and cmath.exp phases."""
    p1, q1, u3, u4, u5, u6, u7 = u
    rho = np.array([[1.0 - p1, 0.0], [0.0, p1]], dtype=np.complex128)
    coherence = math.sqrt(u3 * q1 * (1.0 - q1)) * cmath.exp(2j * math.pi * u4)
    sigma = np.array([[1.0 - q1, coherence], [coherence.conjugate(), q1]])
    w = 4.0 * u5
    offdiag = math.sqrt(u6) * cmath.exp(2j * math.pi * u7)
    theta = np.array([[-w, offdiag], [offdiag.conjugate(), w]])
    return theta, rho, sigma


def test_stacked_protocol_matches_the_per_row_form_bit_for_bit():
    # tobytes compares every bit, the signs of zeros included
    top = 1.0 - 2.0 ** -53  # the largest uniform Generator.random returns
    edges = np.array(list(itertools.product((0.0, top), repeat=7)))
    drawn = philox_uniforms(1101, np.arange(10_000), np.zeros(10_000, dtype=int))
    u = np.concatenate([edges, drawn])
    stacks = qubit_matrices(u)
    rows = [_per_row_matrices(row) for row in u.tolist()]
    for stack, per_row in zip(stacks, zip(*rows)):
        assert stack.shape == (len(u), 2, 2)
        assert stack.tobytes() == np.array(per_row).tobytes()
    # a single (7,) row gives single matrices, bit for bit the same
    for single, expected in zip(qubit_matrices(u[5]), rows[5]):
        assert single.tobytes() == expected.tobytes()


def test_the_sweep_samples_each_draw_from_its_substream():
    draws = np.arange(BLOCK_ROWS)
    uniforms = philox_uniforms(9, draws, np.zeros(BLOCK_ROWS, dtype=int))
    for k in (0, 3, BLOCK_ROWS - 1):
        assert uniforms[k].tobytes() == substream(9, k).random(7).tobytes()


def test_run_montecarlo_is_deterministic():
    config = DrawConfig(n_draws=40, master_seed=7)
    records_a, summary_a = run_montecarlo(config)
    records_b, summary_b = run_montecarlo(config)
    assert rows_of(records_a) == rows_of(records_b)
    assert summary_a.min_slack_main == summary_b.min_slack_main
    assert summary_a.violations == summary_b.violations


def test_run_montecarlo_records_match_an_independent_replay(small_blocks):
    # the sweep evaluates blocks of draws as one stack; runs that end
    # inside the first block, at its edge and past two of them replay
    # draw by draw, bit for bit
    for n_draws in (1, small_blocks - 1, small_blocks, 2 * small_blocks + 3):
        config = DrawConfig(n_draws=n_draws, master_seed=42)
        records = rows_of(run_montecarlo(config)[0])
        assert [r.draw for r in records] == list(range(n_draws))
        for record in records:
            expected = replay_draw(42, record.draw)
            assert record == expected
            # Python scalars, as the replay's: ints, floats and bools
            assert [type(v) for v in vars(record).values()] == [
                type(v) for v in vars(expected).values()]


def test_run_montecarlo_single_draw():
    records, summary = run_montecarlo(DrawConfig(n_draws=1, master_seed=42))
    records = rows_of(records)
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
    assert records.holds_all.all()
    assert summary.min_slack_main > -1e-9
    assert math.isfinite(summary.min_slack_main)


def test_a_nan_main_slack_becomes_the_minimum(monkeypatch):
    # min_slack_main used to keep finite slacks only, and reported inf
    # beside 50 main violations
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x: math.nan * x)
    records, summary = run_montecarlo(DrawConfig(n_draws=50))
    assert summary.violations["main"] == np.count_nonzero(~records.infinite)
    assert math.isnan(summary.min_slack_main)


def test_run_montecarlo_summary_is_consistent_with_the_records():
    config = DrawConfig(n_draws=150, master_seed=5)
    records, summary = run_montecarlo(config)
    records = rows_of(records)
    assert summary.n_draws == len(records) == 150
    assert summary.draws_s_tilde_ge_2 == sum(1 for r in records if r.s_tilde >= 2.0)
    assert summary.draws_far_from_equilibrium == sum(
        1 for r in records
        if not r.infinite and r.s_tilde >= 2.0 and r.main_rhs < 1.0)
    assert summary.infinite_records == sum(1 for r in records if r.infinite)
    assert summary.total_redraws == sum(r.redraws for r in records)


def _stacked(u, theta, rho, sigma):
    """One fixed triple for every row of the uniforms u, as stacks."""
    return tuple(np.broadcast_to(m, (len(u), 2, 2)) for m in (theta, rho, sigma))


def _alternating_sampler():
    """Odd calls yield infinite-divergence triples and even calls finite
    ones, so that in a single block every draw's first sample is infinite
    and its first redraw finite; used to pin down the two rejection
    policies.  calls["n"] counts the sampled rows."""
    mixed = 0.5 * np.eye(2)
    pure = np.diag([1.0, 0.0])
    z_like = np.diag([1.0, -1.0])
    finite_rho = np.diag([0.3, 0.7])
    finite_sigma = np.diag([0.6, 0.4])
    calls = {"n": 0, "calls": 0}

    def sampler(u):
        calls["n"] += len(u)
        calls["calls"] += 1
        if calls["calls"] % 2 == 1:
            return _stacked(u, z_like, mixed, pure)
        return _stacked(u, z_like, finite_rho, finite_sigma)

    return sampler, calls


def test_redraw_policy_resamples_infinite_draws():
    sampler, calls = _alternating_sampler()
    config = DrawConfig(n_draws=3, rejection_policy=POLICY_REDRAW)
    records, summary = run_montecarlo(config, sampler=sampler)
    records = rows_of(records)
    assert calls["n"] == 6
    assert calls["calls"] == 2  # one call per block, one per redraw round
    assert all(r.redraws == 1 for r in records)
    assert all(not r.infinite for r in records)
    assert all(math.isfinite(r.s_tilde) for r in records)
    assert summary.total_redraws == 3
    assert summary.infinite_records == 0


def _sometimes_infinite(u):
    """A stand-in stacked sampler: a row whose last uniform is below 0.4
    is an infinite-divergence triple, any other row the protocol triple of
    its uniforms, so draws need zero, one or several redraws."""
    theta, rho, sigma = qubit_matrices(u)
    infinite = u[:, 6] < 0.4
    theta[infinite] = np.diag([1.0, -1.0])
    rho[infinite] = np.eye(2) / 2
    sigma[infinite] = np.diag([1.0, 0.0])
    return theta, rho, sigma


def _evaluate_alone(uniforms):
    """The bound report of one draw, sampled alone from its 7 uniforms."""
    theta, rho, sigma = (m[0] for m in _sometimes_infinite(uniforms[None]))
    return evaluate_bounds(make_observable(theta), validate_state(rho),
                           validate_state(sigma))


@pytest.mark.parametrize("limit", [2, MAX_REDRAWS])
def test_redraw_policy_matches_a_draw_by_draw_replay(monkeypatch, small_blocks,
                                                     limit):
    # the sweep redraws a block's infinite draws after sampling the whole
    # block, over the pending rows only; each draw reads only its own
    # substream, so a replay that redraws each draw from its substream
    # before sampling the next gives the same records.
    # two full blocks and a partial one; at a limit of 2 some draws stay
    # infinite
    monkeypatch.setattr(montecarlo_module, "MAX_REDRAWS", limit)
    n_draws = 2 * small_blocks + 44
    config = DrawConfig(n_draws=n_draws, master_seed=3,
                        rejection_policy=POLICY_REDRAW)
    sampled = []

    def sampler(u):
        sampled.append(len(u))
        return _sometimes_infinite(u)

    records, summary = run_montecarlo(config, sampler=sampler)
    records = rows_of(records)
    assert [r.draw for r in records] == list(range(n_draws))
    # each call samples a whole block or the pending rows of one only
    assert sum(sampled) == n_draws + sum(r.redraws for r in records)
    for record in records:
        rng = substream(3, record.draw)
        report = _evaluate_alone(rng.random(7))
        redraws = 0
        while not report.s_tilde.finite and redraws < limit:
            redraws += 1
            report = _evaluate_alone(rng.random(7))
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
    for first in range(0, n_draws, small_blocks):
        block = counts[first:first + small_blocks]
        assert {0, 1} <= set(block) and max(block) > 1
    assert summary.total_redraws == sum(counts)
    assert summary.infinite_records == sum(r.infinite for r in records)
    assert (summary.infinite_records > 0) is (limit == 2)


def _whole_block_sweep(config, sampler, limit):
    """The redraw sweep with every round evaluating the whole block again,
    with the fresh samples written into the block's raw stacks."""
    summary = MonteCarloSummary(n_draws=config.n_draws)

    def block(first, stop):
        draws = np.arange(first, stop)
        redraws = np.zeros(len(draws), dtype=np.int64)
        stacks = [np.array(m, dtype=np.complex128) for m in
                  sampler(philox_uniforms(config.master_seed, draws, redraws))]
        report = evaluate_bounds(*validate_triple(*stacks))
        while (pending := np.flatnonzero(~report.s_tilde.finite
                                         & (redraws < limit))).size:
            redraws[pending] += 1
            uniforms = philox_uniforms(config.master_seed, draws[pending],
                                       7 * redraws[pending])
            for stack, fresh in zip(stacks, sampler(uniforms)):
                stack[pending] = fresh
            report = evaluate_bounds(*validate_triple(*stacks))
        return (montecarlo_module._record_block(draws, report, redraws,
                                                config.slack_tolerance, summary),)

    return in_blocks(block, config.n_draws)[0], summary


@pytest.mark.parametrize("limit", [2, MAX_REDRAWS])
def test_redraw_rounds_evaluate_only_the_pending_rows(monkeypatch, small_blocks,
                                                      limit):
    # a redraw round samples and evaluates the pending rows alone and
    # writes them back into the block's report; every row of a stack is
    # computed as it would be alone, so the records are those of a sweep
    # that evaluates the whole block in every round, bit for bit
    monkeypatch.setattr(montecarlo_module, "MAX_REDRAWS", limit)
    config = DrawConfig(n_draws=2 * small_blocks + 44, master_seed=11,
                        rejection_policy=POLICY_REDRAW)
    expected, expected_summary = _whole_block_sweep(config, _sometimes_infinite,
                                                    limit)
    evaluated = []

    def counted(theta, rho, sigma):
        evaluated.append(len(theta.matrix))
        return evaluate_bounds(theta, rho, sigma)
    monkeypatch.setattr(montecarlo_module, "evaluate_bounds", counted)
    records, summary = run_montecarlo(config, sampler=_sometimes_infinite)
    assert differing_fields(records, expected) == []
    assert summary == expected_summary
    assert expected.redraws.max() > 1
    assert bool(expected.infinite.any()) is (limit == 2)
    # per block: its first pass over every row, then round r over the
    # draws redrawn at least r times only
    rounds = []
    for first in range(0, config.n_draws, small_blocks):
        counts = records.redraws[first:first + small_blocks]
        rounds += [len(counts), *(int(np.count_nonzero(counts >= r))
                                  for r in range(1, counts.max() + 1))]
    assert evaluated == rounds


@pytest.mark.parametrize("policy", [POLICY_REPORT_INFINITE, POLICY_REDRAW])
def test_records_are_bit_identical_at_every_block_size(monkeypatch, policy):
    # draw i reads only its own stream and each row of a stack is computed
    # as it would be alone, so no bit of a record depends on the block
    # size; the sampler makes draws that need zero, one or more redraws
    config = DrawConfig(n_draws=259, master_seed=5, rejection_policy=policy)
    runs = []
    for rows in (1, 7, 128, BLOCK_ROWS):
        monkeypatch.setattr(linalg_module, "BLOCK_ROWS", rows)
        runs.append(run_montecarlo(config, sampler=_sometimes_infinite))
    (expected, expected_summary), *others = runs
    if policy == POLICY_REDRAW:
        assert expected.redraws.max() > 1
    else:
        assert expected.infinite.any()
    for records, summary in others:
        assert differing_fields(records, expected) == []
        assert summary == expected_summary


def test_redraw_policy_gives_up_after_max_redraws():
    mixed = np.eye(2) / 2
    pure = np.diag([1.0, 0.0])
    calls = {"n": 0}

    def sampler(u):
        calls["n"] += len(u)
        return _stacked(u, np.diag([1.0, -1.0]), mixed, pure)

    config = DrawConfig(n_draws=1, rejection_policy=POLICY_REDRAW)
    records, summary = run_montecarlo(config, sampler=sampler)
    assert calls["n"] == MAX_REDRAWS + 1
    (record,) = rows_of(records)
    assert record.redraws == MAX_REDRAWS
    assert record.infinite
    assert record.s_tilde == math.inf
    assert summary.infinite_records == 1
    assert summary.total_redraws == MAX_REDRAWS


def test_report_infinite_policy_keeps_the_markers():
    mixed = 0.5 * np.eye(2)
    pure = np.diag([1.0, 0.0])
    z_like = np.diag([1.0, -1.0])
    calls = {"n": 0}

    def sampler(u):
        calls["n"] += len(u)
        return _stacked(u, z_like, mixed, pure)

    config = DrawConfig(n_draws=3, rejection_policy=POLICY_REPORT_INFINITE)
    records, summary = run_montecarlo(config, sampler=sampler)
    records = rows_of(records)
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
    # a tolerance that is no number used to escape as a bare TypeError
    for make in (DrawConfig, VerifyConfig):
        for slack in ("1e-9", None):
            with pytest.raises(ValidationError, match="^slack_tolerance"):
                make(slack_tolerance=slack)


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


def test_seeds_and_draw_counts_must_be_integers_in_range():
    # a float seed used to run as its integer part: substream(1.5, 0)
    # gave seed 1's stream, and DrawConfig(master_seed=1.5) ran
    for seed in (1.5, 42.0, "42", None, np.float64(3.0)):
        for make in (check_master_seed, lambda s: substream(s, 0),
                     lambda s: DrawConfig(master_seed=s),
                     lambda s: VerifyConfig(master_seed=s)):
            with pytest.raises(ValidationError, match="master seed"):
                make(seed)
    # integer types other than int are accepted as their value
    assert substream(np.uint64(42), 7).random() == substream(42, 7).random()
    assert (substream(42, np.int64(7), stream=np.uint16(3)).random()
            == substream(42, 7, stream=3).random())
    # a float draw index used to run as its integer part, substream(42, 1.5)
    # as draw 1, and a float stream escaped as a bare TypeError
    for draw_index in (1.5, 7.0, "7", None):
        with pytest.raises(ValidationError, match="draw index"):
            substream(42, draw_index)
    for stream in (1.5, 3.0, "3", None):
        with pytest.raises(ValidationError, match="stream"):
            substream(42, 0, stream=stream)
    for key in ({"draw_index": [1, 2]}, {"draw_index": 0, "stream": [3]}):
        with pytest.raises(ValidationError, match="one draw index and one stream"):
            substream(42, **key)
    # n_draws = 2.5 used to escape as a bare TypeError from range()
    for n_draws in (2.5, 10.0, "10"):
        with pytest.raises(ValidationError, match="n_draws must be an integer"):
            DrawConfig(n_draws=n_draws)
    # the draw index fills 48 bits of the key: 2^48 draws fit, one more not
    assert DrawConfig(n_draws=1 << 48).n_draws == 1 << 48
    with pytest.raises(ValidationError, match="n_draws must be at most 2\\^48"):
        DrawConfig(n_draws=(1 << 48) + 1)


def test_random_objects_are_well_formed():
    rng = substream(11, 0, stream=60)
    state = random_density(rng, 3)
    assert np.sum(state.eigenvalues > DEFAULT_TOLERANCES.rank) == 3
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
        theta, rho, sigma = validate_triple(*qubit_matrices(
            substream(13, k, stream=61).random(7)))
        assert float(min(rho.eigenvalues)) >= 0.0
        assert float(min(sigma.eigenvalues)) >= 0.0
        assert abs(float(np.sum(sigma.eigenvalues)) - 1.0) <= 1e-12
