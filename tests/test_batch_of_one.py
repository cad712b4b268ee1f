"""The single-input path: every function written for stacks takes one input
as a stack of one, through linalg.batch_of_one, and every row of a stack
is the single call on that row."""

import dataclasses

import numpy as np
import pytest

from conftest import random_observable, random_state_np, rng_for
from fluxbound import (BOTH_RESET, correlation, correlation_bound_report,
                       directed_entropy_pair, eigh, entropy_flux,
                       entropy_flux_chain_check, evaluate_bounds, evolve,
                       expectation, flux, make_observable, make_scenario,
                       optimal_shift_check, partial_trace, product_observable,
                       product_state, qtur_check, sign_decomposition,
                       thermal_environment, trace_distance_norm,
                       unitary_from_generator, validate_state, validate_states)
from fluxbound.errors import FluxboundError
from fluxbound.linalg import as_stack, require_hermitian, take_row

ROWS = 3
BAD_ROW = 1


def _matrices(dim, seed):
    rng = rng_for(seed, stream=901)
    thetas = np.stack([random_observable(rng, dim).matrix for _ in range(ROWS)])
    rhos = np.stack([random_state_np(rng, dim) for _ in range(ROWS)])
    sigmas = np.stack([random_state_np(rng, dim) for _ in range(ROWS)])
    return thetas, rhos, sigmas


def _with_bad_row(record, **fields):
    """A copy of a stacked record whose row BAD_ROW takes the given values."""
    changes = {}
    for name, value in fields.items():
        column = np.array(getattr(record, name))
        column[BAD_ROW] = value
        changes[name] = column
    return dataclasses.replace(record, **changes)


def _states():
    _, rhos, sigmas = _matrices(2, 0)
    return validate_state(rhos), validate_state(sigmas)


def _args_require_hermitian(bad):
    thetas, _, _ = _matrices(3, 1)
    if bad:
        thetas[BAD_ROW, 0, 1] += 1.0
    return (thetas,)


def _args_partial_trace(bad):
    _, rhos, _ = _matrices(4, 2)
    if bad:
        rhos[BAD_ROW, 2, 3] = np.nan
    return rhos, 2, 2, "environment"


def _args_expectation(bad):
    thetas, rhos, _ = _matrices(2, 3)
    if bad:
        # an anti-Hermitian part gives the trace an imaginary part
        thetas[BAD_ROW] += 1j * np.eye(2)
    return thetas, rhos


def _args_validate_state(bad):
    _, rhos, _ = _matrices(3, 4)
    if bad:
        rhos[BAD_ROW] *= 1.2
    return (rhos,)


def _args_validate_states(bad):
    # the bad row in the second argument, which the joined stack would
    # name as row ROWS + BAD_ROW
    _, rhos, sigmas = _matrices(3, 4)
    if bad:
        sigmas[BAD_ROW] *= 1.2
    return rhos, sigmas


def _args_entropy_pair(bad):
    rho, sigma = _states()
    if bad:
        # weights summing to 0.2 drive the forward divergence below zero
        rho = _with_bad_row(rho, eigenvalues=[0.1, 0.1])
    return rho, sigma


def _args_huge_pair(bad):
    # ||rho - sigma||_F^2 overflows in the eigensolver
    rho, sigma = _states()
    if bad:
        rho = _with_bad_row(rho, matrix=rho.matrix[BAD_ROW] * 1e200)
    return rho, sigma


def _args_triple(bad):
    thetas, _, _ = _matrices(2, 0)
    theta = make_observable(thetas)
    if bad:
        # a capacity of zero that the flux must exceed
        theta = _with_bad_row(theta, theta_max=0.0, theta_min=0.0)
    return (theta, *_states())


def _args_qtur_check(bad):
    thetas, _, _ = _matrices(2, 5)
    if bad:
        # the identity has the same mean in both states
        thetas[BAD_ROW] = np.eye(2)
    return (thetas, *_states())


def _args_optimal_shift_check(bad):
    thetas, _, _ = _matrices(3, 9)
    theta = make_observable(thetas)
    # one grid per row, around that row's spectrum
    grids = np.linspace(theta.theta_min - 1.0, theta.theta_max + 1.0, 50, axis=1)
    if bad:
        grids[BAD_ROW, 7] = np.inf
    return theta, grids


def _args_make_scenario(bad):
    generators, _, _ = _matrices(4, 6)
    unitaries = unitary_from_generator(generators, 1.0)
    if bad:
        unitaries[BAD_ROW] *= 0.5
    return (*_states(), unitaries)


def _scenario(bad=False):
    scenario = make_scenario(*_args_make_scenario(bad=False))
    if bad:
        # a scaled unitary, past make_scenario, scales the joint trace
        unitaries = scenario.unitary.copy()
        unitaries[BAD_ROW] *= 1.2
        scenario = dataclasses.replace(scenario, unitary=unitaries)
    return scenario


def _args_evolve(bad):
    return (_scenario(bad),)


def _args_scenario_outcome(bad):
    scenario = _scenario()
    outcome = evolve(scenario)
    if bad:
        scenario = dataclasses.replace(scenario, rho_environment=_with_bad_row(
            scenario.rho_environment, eigenvalues=[0.0, 1.0]))
    return scenario, outcome


def _args_thermal_environment(bad):
    thetas, _, _ = _matrices(2, 7)
    betas = np.array([0.5, 1.0, 2.0])
    if bad:
        betas[BAD_ROW] = np.nan
    return thetas, betas


def _observable_pair(bad):
    thetas, others, _ = _matrices(2, 8)
    theta_s, theta_e = make_observable(thetas), make_observable(others)
    if bad:
        # an anti-Hermitian part in one row of the system observable
        theta_s = _with_bad_row(theta_s,
                                matrix=theta_s.matrix[BAD_ROW] + 1j * np.eye(2))
    return theta_s, theta_e


def _args_product_state(bad):
    rho, sigma = _states()
    if bad:
        rho = _with_bad_row(rho, matrix=np.full((2, 2), np.nan))
    return rho, sigma, _args_make_scenario(bad=False)[-1]


def _args_correlation(bad):
    scenario = _scenario()
    return (*_observable_pair(bad), scenario, evolve(scenario), BOTH_RESET)


CASES = {
    "require_hermitian": (require_hermitian, _args_require_hermitian,
                          "not Hermitian"),
    "eigh": (eigh, _args_require_hermitian, "not Hermitian"),
    "make_observable": (make_observable, _args_require_hermitian,
                        "not Hermitian"),
    "partial_trace": (partial_trace, _args_partial_trace, "non-finite"),
    "expectation": (expectation, _args_expectation, "imaginary part"),
    "validate_state": (validate_state, _args_validate_state,
                       "trace invariant"),
    "validate_states": (validate_states, _args_validate_states,
                        "trace invariant"),
    "directed_entropy_pair": (directed_entropy_pair, _args_entropy_pair,
                              "relative entropy evaluated to"),
    "trace_distance_norm": (trace_distance_norm, _args_huge_pair,
                            "too large for the eigensolver"),
    "sign_decomposition": (sign_decomposition, _args_huge_pair,
                           "too large for the eigensolver"),
    "flux": (flux, _args_triple, "exceeds capacity"),
    "evaluate_bounds": (evaluate_bounds, _args_triple, "exceeds capacity"),
    "qtur_check": (qtur_check, _args_qtur_check, "observable means coincide"),
    "optimal_shift_check": (optimal_shift_check, _args_optimal_shift_check,
                            "shift grid"),
    "make_scenario": (make_scenario, _args_make_scenario,
                      "unitarity invariant violated"),
    "evolve": (evolve, _args_evolve, "state trace invariant"),
    "entropy_flux": (entropy_flux, _args_scenario_outcome, "rank deficient"),
    "entropy_flux_chain_check": (entropy_flux_chain_check,
                                 _args_scenario_outcome, "rank deficient"),
    "thermal_environment": (thermal_environment, _args_thermal_environment,
                            "inverse temperature"),
    "correlation": (correlation, _args_correlation, "imaginary part"),
    "correlation_bound_report": (correlation_bound_report, _args_correlation,
                                 "not Hermitian"),
    "product_state": (product_state, _args_product_state,
                      "first factor has non-finite entries"),
    "product_observable": (product_observable, _observable_pair, "not Hermitian"),
}


def _row_slice(value, first):
    """Rows [first, first + 1) of a stacked argument: a stack of one built
    by slicing, not by the lift under test."""
    if isinstance(value, np.ndarray):
        return value[first:first + 1]
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            field.name: _row_slice(getattr(value, field.name), first)
            for field in dataclasses.fields(value)})
    return value


def _identical(a, b):
    """Equal bit for bit, with the same types, field by field."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b, equal_nan=True))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_identical, a, b))
    if dataclasses.is_dataclass(a):
        return all(_identical(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b or (a != a and b != b)


def _leaves(value):
    """Every value of a result that is not a container of fields."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name))
    else:
        yield value


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_single_input_is_row_zero_of_a_stack_of_one(name):
    function, make_args, _ = CASES[name]
    stacked = make_args(bad=False)
    single = function(*take_row(stacked, 0))
    stack_of_one = function(*(_row_slice(arg, 0) for arg in stacked))
    assert _identical(single, take_row(stack_of_one, 0))
    # and row 0 of the full stack, since no row depends on the others
    assert _identical(single, take_row(function(*stacked), 0))
    for leaf in _leaves(single):
        if isinstance(leaf, np.ndarray):
            assert leaf.ndim >= 1
        else:
            assert type(leaf) in (float, bool), (name, type(leaf))


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_row_of_a_stack_is_its_single_call(name):
    function, make_args, _ = CASES[name]
    stacked = make_args(bad=False)
    result = function(*stacked)
    for k in range(ROWS):
        assert _identical(function(*take_row(stacked, k)), take_row(result, k))


@pytest.mark.parametrize("name", sorted(CASES))
def test_errors_name_a_row_of_a_stack_but_not_of_a_single_input(name):
    function, make_args, message = CASES[name]
    stacked = make_args(bad=True)
    with pytest.raises(FluxboundError,
                       match=rf"{message}.*\(row {BAD_ROW} of the stack\)"):
        function(*stacked)
    with pytest.raises(FluxboundError, match=message) as single:
        function(*take_row(stacked, BAD_ROW))
    assert "of the stack" not in str(single.value)
    # a stack of one reads as the single input it holds
    with pytest.raises(FluxboundError, match=message) as one:
        function(*(_row_slice(arg, BAD_ROW) for arg in stacked))
    assert str(one.value) == str(single.value)


def test_as_stack_inverts_take_row():
    rho = validate_state(np.diag([0.25, 0.75]))
    lifted = as_stack(rho)
    assert lifted.matrix.shape == (1, 2, 2)
    assert np.shares_memory(lifted.matrix, rho.matrix)
    assert lifted.clamped.tolist() == [False]
    assert _identical(take_row(lifted, 0), rho)
    three = as_stack(rho, rows=3)
    assert three.matrix.shape == (3, 2, 2)
    assert not np.shares_memory(three.matrix, rho.matrix)
    assert _identical(take_row(three, 2), rho)
    assert _identical(as_stack((1.5, {"k": True})),
                      (np.array([1.5]), {"k": np.array([True])}))
