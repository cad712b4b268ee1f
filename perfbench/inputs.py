"""Workload sizes and the inputs every pass makes from its seed.

This module needs numpy only.  The worker feeds these inputs to fluxbound
and the oracle recomputes the results from the same inputs, so both
import it and neither depends on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("mc_qubit", "verify_mixed", "curves_fine", "dense_spectra")
# the rows of `fluxbound verify`, in order
VERIFY_SUITES = ("bound_functions", "capacity", "bound_chain",
                 "sign_identities", "uncertainty", "optimal_shift",
                 "thermo_chain", "local_bound", "correlation", "saturation")


@dataclass(frozen=True)
class Sizes:
    """Work done by one pass of each workload."""

    mc_draws: int
    verify_draws: int
    curve_steps: int
    dense: tuple  # (dimension, triples) pairs


# one pass takes about a second on a 2-core Xeon, so a run of ten seconds
# gives a median over ten or more passes
FULL = Sizes(mc_draws=1000, verify_draws=24, curve_steps=1501,
             dense=((8, 12), (16, 4)))
# the smoke test's size: every layer runs, nothing takes long, and every
# Monte Carlo row falls in the oracle's subsample
TINY = Sizes(mc_draws=12, verify_draws=1, curve_steps=11,
             dense=((8, 1), (16, 1)))


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` in a run with seed `seed`.

    Every pass gets its own inputs, so no pass can reuse the results of
    an earlier one.
    """
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)
    return int(state[0])


def items_per_pass(workload: str, sizes: Sizes) -> int:
    """Items one pass produces: draws, suites, curve points or triples."""
    if workload == "mc_qubit":
        return sizes.mc_draws
    if workload == "verify_mixed":
        return len(VERIFY_SUITES)
    if workload == "curves_fine":
        return 2 * sizes.curve_steps
    if workload == "dense_spectra":
        return sum(count for _, count in sizes.dense)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class CurveParams:
    """Parameters of one curves_fine pass.

    The ranges keep both populations away from 0 and 1, so every state is
    full rank and every entropy finite, and no operation fails.
    """

    p: float
    q: float
    omega: float
    g: float
    phase: float
    t_max: float
    a_max: float


def curve_params(seed: int) -> CurveParams:
    rng = np.random.default_rng(seed)
    u = rng.random(7)
    return CurveParams(
        p=float(0.6 + 0.35 * u[0]),
        q=float(0.05 + 0.35 * u[1]),
        omega=float(0.5 + 1.5 * u[2]),
        g=float(1.0 + 2.0 * u[3]),
        phase=float(2.0 * math.pi * u[4]),
        t_max=float(1.0 + u[5]),
        a_max=float(8.0 + 4.0 * u[6]),
    )


def dense_triple(seed: int, dim: int, index: int):
    """Raw (theta, rho, sigma) at dimension `dim`: a Hermitian part of a
    complex Ginibre matrix and two full-rank states G G^dag / tr."""
    rng = np.random.default_rng([seed, dim, index])

    def ginibre():
        return (rng.standard_normal((dim, dim))
                + 1j * rng.standard_normal((dim, dim)))

    a = ginibre()
    theta = 0.5 * (a + a.conj().T)
    states = []
    for _ in range(2):
        g = ginibre()
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    return theta, states[0], states[1]
