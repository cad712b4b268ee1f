"""Shared fixtures and independent reference implementations.

The reference routines here deliberately avoid the package's own
primitives wherever an independent route exists: eigendecompositions are
cross-checked against numpy.linalg.eigh, matrix logarithms against
scipy.linalg.logm, the divergence inverse against scipy.optimize.brentq,
and partial traces against explicit index sums.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import fluxbound.linalg as linalg_module
from fluxbound import (DrawRecord, SaturatingFamily, SpinPairPoint,
                       divergence_from_gap, evaluate_bounds, exchange_generator,
                       expectation, flux_ratio_sq_bound, make_observable,
                       make_scenario, onsager_like, partial_trace, random_hermitian,
                       spin_hamiltonian, substream, symmetric_relative_entropy,
                       take_row, tensor_product, trace_distance_norm,
                       unitary_from_generator, validate_state)
from fluxbound.montecarlo import qubit_matrices, validate_triple
from fluxbound.verify import _scenario_inputs, _state_matrix

# the block size of the block-edge tests: small beside config.BLOCK_ROWS,
# so that runs of a few hundred rows cross two block edges or more, and the
# size their lengths (1, 127, 128, 129, 259, ...) were first written for
SMALL_BLOCK_ROWS = 128


@pytest.fixture
def rng():
    """Deterministic generator for a test; independent per test module
    via the caller passing distinct stream ids where it matters."""
    return substream(20260826, 0, stream=77)


@pytest.fixture
def small_blocks(monkeypatch) -> int:
    """linalg.in_blocks takes SMALL_BLOCK_ROWS rows at a time in this test;
    returns that size."""
    monkeypatch.setattr(linalg_module, "BLOCK_ROWS", SMALL_BLOCK_ROWS)
    return SMALL_BLOCK_ROWS


@pytest.fixture
def eigensolves(monkeypatch) -> list:
    """The (rows, n) shape of each eigensolve in this test, in order: a
    list that grows as linalg._sorted_spectrum is called."""
    shapes = []
    original = linalg_module._sorted_spectrum

    def counted(values, vectors):
        shapes.append(values.shape)
        return original(values, vectors)
    monkeypatch.setattr(linalg_module, "_sorted_spectrum", counted)
    return shapes


def rng_for(index: int, stream: int = 77) -> np.random.Generator:
    return substream(20260826, index, stream=stream)


def reference_partial_trace(m: np.ndarray, ds: int, de: int, keep: str) -> np.ndarray:
    """Brute-force partial trace by explicit index summation."""
    if keep == "system":
        out = np.zeros((ds, ds), dtype=complex)
        for i in range(ds):
            for j in range(ds):
                for k in range(de):
                    out[i, j] += m[i * de + k, j * de + k]
    else:
        out = np.zeros((de, de), dtype=complex)
        for i in range(de):
            for j in range(de):
                for k in range(ds):
                    out[i, j] += m[k * de + i, k * de + j]
    return out


def reference_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr(rho (log rho - log sigma)) via scipy's matrix logarithm.

    Only valid for full-rank inputs; used as an oracle on random
    full-rank pairs.
    """
    from scipy.linalg import logm

    value = np.trace(rho @ (logm(rho) - logm(sigma)))
    return float(value.real)


def random_state_np(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix as a plain array (Ginibre construction)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian_np(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


# validated random objects, drawn as the verify suites draw their raw inputs

def random_density(rng: np.random.Generator, dim: int):
    """Full-rank state from a square Ginibre factor, rho = G G^dag / tr."""
    return validate_state(_state_matrix(rng, dim))


def random_observable(rng: np.random.Generator, dim: int):
    return make_observable(random_hermitian(rng, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return unitary_from_generator(random_hermitian(rng, dim), 1.0)


def random_scenario(rng: np.random.Generator, dim_system: int = 2,
                    dim_environment: int = 2):
    rho_s, rho_e, generator = _scenario_inputs(rng, dim_system, dim_environment)
    return make_scenario(validate_state(rho_s), validate_state(rho_e),
                         unitary_from_generator(generator, 1.0))


def rows_of(record) -> list:
    """Every row of a record of arrays, through take_row."""
    return [take_row(record, k) for k in range(len(next(iter(vars(record).values()))))]


def differing_fields(record, expected) -> list:
    """The fields of two records of arrays whose dtype, shape or bytes
    differ; tobytes compares every bit, the signs of zeros included."""
    different = []
    for name, value in vars(record).items():
        value, other = np.asarray(value), np.asarray(vars(expected)[name])
        if (value.dtype, value.shape, value.tobytes()) != (
                other.dtype, other.shape, other.tobytes()):
            different.append(name)
    return different


def replay_draw(seed: int, draw: int) -> DrawRecord:
    """Draw `draw` of the Monte Carlo sweep under report_infinite, sampled
    from its own substream and evaluated alone."""
    theta, rho, sigma = validate_triple(*qubit_matrices(substream(seed, draw).random(7)))
    report = evaluate_bounds(theta, rho, sigma)
    return DrawRecord(draw, report.flux_ratio_sq, report.s_tilde.as_float(),
                      report.pinsker_rhs, report.main_rhs, report.strengthened_rhs,
                      report.epsilon, 0, report.all_hold(),
                      report.verdicts["main"].holds, not report.s_tilde.finite)


def spin_pair_point_by_point(params) -> list:
    """The exchange series time by time, from the single-matrix primitives."""
    p = params.excited_population_system
    q = params.excited_population_environment
    omega, g = params.level_splitting, params.coupling_strength
    rho_s0 = validate_state(np.diag([1.0 - p, p]))
    rho_e0 = validate_state(np.diag([1.0 - q, q]))
    joint0 = tensor_product(rho_s0.matrix, rho_e0.matrix)
    h_s = spin_hamiltonian(omega)
    generator = exchange_generator(g, params.coupling_phase)
    points = []
    for t in params.times:
        u = unitary_from_generator(generator, t)
        rho_s = validate_state(partial_trace(u @ joint0 @ u.conj().T, 2, 2, "system"))
        flux = abs(expectation(h_s, rho_s.matrix - rho_s0.matrix))
        ratio = min(flux / omega, 1.0)
        points.append(SpinPairPoint(
            float(t), flux, math.sin(g * t) ** 2 * abs(p - q) * omega,
            2.0 * ratio * ratio, onsager_like(ratio),
            symmetric_relative_entropy(rho_s, rho_s0).as_float()))
    return points


def saturating_point(a: float):
    """The extremal pair at one gap, from the single-state primitives."""
    t = math.exp(-abs(a))
    small, large = t / (1.0 + t), 1.0 / (1.0 + t)
    low, high = (small, large) if a >= 0.0 else (large, small)
    rho = validate_state(np.diag([low, high]))
    sigma = validate_state(np.diag([high, low]))
    tn = trace_distance_norm(rho, sigma)
    s_tilde = symmetric_relative_entropy(rho, sigma)
    bound = flux_ratio_sq_bound(s_tilde.value) if s_tilde.finite else 1.0
    return rho, sigma, SaturatingFamily(
        a, 2.0 * math.tanh(0.5 * abs(a)), divergence_from_gap(abs(a)), tn,
        s_tilde.as_float(), bound, abs(0.25 * tn * tn - bound))
