"""End-to-end acceptance gate.

Every test here exercises one headline guarantee of the package at its
stated tolerance and prints a single PASS/FAIL line with the measured
numbers.  Run the gate alone with

    pytest tests/test_acceptance.py -v -s

or without pytest:

    python3 tests/test_acceptance.py
"""

import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import random_density, random_observable, random_scenario
from fluxbound import (DrawConfig, SpinPairParams, divergence_from_gap,
                       entropy_flux, entropy_flux_chain_check, evolve,
                       expectation, flux_ratio_sq_bound, gap_from_divergence,
                       local_system_bound_check, make_scenario, optimal_shift_check,
                       qtur_check, run_montecarlo, saturating_family,
                       sign_decomposition, spin_hamiltonian, spin_pair_scenario,
                       spin_pair_timeseries, substream, take_row, tensor_product,
                       thermal_environment, trace_distance_norm,
                       variance_ratio_floor)
from fluxbound.cli import main as cli_main


def _gate(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_montecarlo_at_full_scale():
    # 10^4 seeded qubit draws: the squared flux ratio never exceeds the
    # bound curve (slack 1e-9), and the sample reaches the regime where
    # the quadratic (Pinsker) line is vacuous while the curve is not
    start = time.perf_counter()
    records, summary = run_montecarlo(DrawConfig(n_draws=10_000, master_seed=42))
    elapsed = time.perf_counter() - start
    main_violations = summary.violations.get("main", 0)
    ok = (elapsed < 30.0
          and len(records.draw) == 10_000
          and main_violations == 0
          and summary.min_slack_main > -1e-9
          and summary.draws_far_from_equilibrium >= 1)
    _gate("montecarlo-full-scale", ok,
          f"elapsed={elapsed:.1f}s (<30s) main_violations={main_violations} "
          f"min_slack_main={summary.min_slack_main:.3e} "
          f"s_tilde_ge_2_with_nontrivial_bound={summary.draws_far_from_equilibrium}")


def test_extremal_family_saturates_numerically():
    # trace norm by eigensolver vs bound curve by root-finder, no closed
    # forms on either side, over gaps 0.1, 0.2, ..., 10.0
    worst = 0.0
    for k in range(1, 101):
        _, _, family = saturating_family(0.1 * k)
        worst = max(worst, family.gap)
    _gate("extremal-family-saturation", worst <= 1e-8,
          f"gaps=0.1..10.0 step 0.1, max |tn^2/4 - B(s_tilde)| = {worst:.3e} (<=1e-8)")


def test_two_spin_exchange_series():
    params = SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 301)))
    series = spin_pair_timeseries(params)
    points = [take_row(series, k) for k in range(len(series.t))]
    flux_err = max(abs(pt.flux - math.sin(2.0 * pt.t) ** 2 * 0.8) for pt in points)
    chain_slack = min(min(pt.s_tilde - pt.onsager, pt.onsager - pt.two_phi_sq)
                      for pt in points)
    quarter = take_row(spin_pair_timeseries(SpinPairParams(times=(math.pi / 4.0,))), 0)
    saturation_gap = quarter.s_tilde - quarter.onsager
    # the exchange conserves the total excitation energy along the grid
    h_total = (tensor_product(spin_hamiltonian(1.0), np.eye(2))
               + tensor_product(np.eye(2), spin_hamiltonian(1.0)))
    drift = 0.0
    for t in np.linspace(0.0, 1.5, 301):
        outcome = evolve(spin_pair_scenario(params, float(t)))
        energy = expectation(h_total, outcome.rho_joint.matrix)
        drift = max(drift, abs(energy - 1.0))
    ok = (len(points) == 301
          and flux_err <= 1e-9
          and chain_slack >= -1e-9
          and saturation_gap <= 1e-6
          and drift <= 1e-10)
    _gate("two-spin-exchange", ok,
          f"max|flux - sin(2t)^2 * 0.8|={flux_err:.2e} (<=1e-9) "
          f"min_chain_slack={chain_slack:.2e} (>=-1e-9) "
          f"gap_at_quarter_period={saturation_gap:.2e} (<=1e-6) "
          f"energy_drift={drift:.2e} (<=1e-10)")


def test_bound_function_identities():
    grid = np.geomspace(1e-6, 50.0, 241)
    roundtrip = max(abs(divergence_from_gap(gap_from_divergence(float(x))) - float(x))
                    for x in grid)
    envelope_ok = all(flux_ratio_sq_bound(float(x)) <= min(1.0, 0.5 * float(x))
                      for x in grid)
    product_grid = np.geomspace(1e-4, 50.0, 241)
    product = max(abs(flux_ratio_sq_bound(float(x))
                      * (1.0 + variance_ratio_floor(float(x))) - 1.0)
                  for x in product_grid)
    small = abs(flux_ratio_sq_bound(1e-8) / 0.5e-8 - 1.0)
    ok = (roundtrip <= 1e-10 and product <= 1e-10 and envelope_ok
          and small <= 1e-3)
    _gate("bound-function-identities", ok,
          f"max|h(g(x))-x|={roundtrip:.2e} (<=1e-10) "
          f"max|B(1+f)-1|={product:.2e} (<=1e-10) "
          f"B<=min(1,x/2)={'yes' if envelope_ok else 'NO'} "
          f"|B(1e-8)/(x/2)-1|={small:.2e} (<=1e-3)")


def test_sign_structure_and_variance_floor():
    # the sign operator of rho - sigma recovers the trace norm, both
    # states put equal weight on its kernel, the squares resolve the
    # identity, and the variance ratio clears its floor
    worst_tn = worst_kernel = worst_resolution = worst_qtur = 0.0
    for dim, count, stream in ((2, 1000, 501), (3, 100, 502), (4, 100, 503)):
        eye = np.eye(dim)
        for k in range(count):
            rng = substream(42, k, stream=stream)
            rho = random_density(rng, dim)
            sigma = random_density(rng, dim)
            dec = sign_decomposition(rho, sigma)
            gap = (expectation(dec.sign_operator, rho.matrix)
                   - expectation(dec.sign_operator, sigma.matrix))
            worst_tn = max(worst_tn,
                           abs(gap - trace_distance_norm(rho, sigma)))
            worst_kernel = max(worst_kernel,
                               abs(expectation(dec.kernel_projector, rho.matrix)
                                   - expectation(dec.kernel_projector, sigma.matrix)))
            resolution = dec.sign_operator @ dec.sign_operator + dec.kernel_projector
            worst_resolution = max(worst_resolution,
                                   float(np.max(np.abs(resolution - eye))))
            check = qtur_check(dec.sign_operator, rho, sigma)
            worst_qtur = max(worst_qtur, max(0.0, -check.verdict.slack))
    worst_equality = 0.0
    for a in np.linspace(0.2, 6.0, 30):
        rho, sigma, _ = saturating_family(float(a))
        dec = sign_decomposition(rho, sigma)
        check = qtur_check(dec.sign_operator, rho, sigma)
        worst_equality = max(worst_equality, abs(check.verdict.slack))
    ok = (worst_tn <= 1e-9 and worst_kernel <= 1e-9
          and worst_resolution <= 1e-9 and worst_qtur <= 1e-9
          and worst_equality <= 1e-8)
    _gate("sign-structure-and-variance-floor", ok,
          f"pairs=1200 max|mean_gap - tn|={worst_tn:.2e} "
          f"max|kernel_weight_diff|={worst_kernel:.2e} "
          f"max|sign^2+kernel-I|={worst_resolution:.2e} (all <=1e-9) "
          f"qtur_deficit={worst_qtur:.2e} (<=1e-9) "
          f"extremal_equality={worst_equality:.2e} (<=1e-8)")


def test_optimal_shift_is_half_capacity():
    # grid scan of ||theta - lambda I||_inf can never beat capacity/2 by
    # more than its own resolution; the midpoint shift attains it
    worst_star = 0.0
    beaten = 0
    for k in range(100):
        dim = 2 + k % 3
        rng = substream(42, k, stream=505)
        theta = random_observable(rng, dim)
        lo = float(np.min(theta.eigenvalues))
        hi = float(np.max(theta.eigenvalues))
        check = optimal_shift_check(theta, np.linspace(lo, hi, 10_000))
        if check.grid_min <= check.half_capacity - check.grid_step:
            beaten += 1
        worst_star = max(worst_star,
                         abs(check.value_at_lambda_star - check.half_capacity))
    ok = beaten == 0 and worst_star <= 1e-12
    _gate("optimal-shift", ok,
          f"observables=100 grid_points=10000 grid_beats_half_capacity={beaten} "
          f"max|value_at_midpoint - capacity/2|={worst_star:.2e} (<=1e-12)")


def test_entropy_chains_and_thermal_identity():
    # mean entropy production dominates the environment divergence, which
    # dominates the flux cost; same chain locally on the system marginal;
    # for a Gibbs environment the flux is beta times the heat
    worst_chain = math.inf
    worst_thermal = 0.0
    for k in range(100):
        rng = substream(42, k, stream=504)
        scenario = random_scenario(rng, 2, 2)
        outcome = evolve(scenario)
        chain = entropy_flux_chain_check(scenario, outcome)
        local = local_system_bound_check(random_observable(rng, 2),
                                         outcome.rho_system,
                                         scenario.rho_system)
        for report in (chain, local):
            slacks = [step.slack for step in report.steps.values() if step.applies]
            if slacks:
                worst_chain = min(worst_chain, min(slacks))
        h_env = np.diag(np.sort(rng.random(2) * 3.0)).astype(complex)
        beta = 0.1 + 4.9 * rng.random()
        gibbs = thermal_environment(h_env, beta)
        thermal = make_scenario(scenario.rho_system, gibbs, scenario.unitary)
        thermal_outcome = evolve(thermal)
        ef = entropy_flux(thermal, thermal_outcome)
        heat = expectation(h_env,
                           thermal_outcome.rho_environment.matrix - gibbs.matrix)
        worst_thermal = max(worst_thermal, abs(ef.value - beta * heat))
    ok = worst_chain >= -1e-9 and worst_thermal <= 1e-10
    _gate("entropy-chains-and-thermal-identity", ok,
          f"scenarios=100 min_chain_slack={worst_chain:.2e} (>=-1e-9) "
          f"max|flux - beta*heat|={worst_thermal:.2e} (<=1e-10)")


def test_cli_outputs_are_deterministic():
    # identical subcommand, flags, and seed give byte-identical files;
    # draws are evaluated from per-index substreams and written in order
    cases = (
        ["montecarlo", "--draws", "60", "--seed", "9"],
        ["montecarlo", "--draws", "40", "--seed", "3",
         "--format", "jsonl", "--policy", "redraw"],
        ["spinpair", "--t-steps", "41"],
        ["saturation", "--a-steps", "31"],
        ["verify", "--draws", "8", "--seed", "11"],
    )
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(cases):
            first = Path(tmp) / f"run_{i}_a.out"
            second = Path(tmp) / f"run_{i}_b.out"
            code_a = cli_main(argv + ["--out", str(first)])
            code_b = cli_main(argv + ["--out", str(second)])
            if code_a != 0 or code_b != 0:
                mismatches.append(f"{argv[0]}:exit={code_a}/{code_b}")
            elif first.read_bytes() != second.read_bytes():
                mismatches.append(argv[0])
    _gate("cli-determinism", not mismatches,
          f"subcommands=5 reruns_byte_identical="
          f"{'yes' if not mismatches else ','.join(mismatches)}")


_CRITERIA = (
    test_montecarlo_at_full_scale,
    test_extremal_family_saturates_numerically,
    test_two_spin_exchange_series,
    test_bound_function_identities,
    test_sign_structure_and_variance_floor,
    test_optimal_shift_is_half_capacity,
    test_entropy_chains_and_thermal_identity,
    test_cli_outputs_are_deterministic,
)


def _run_all():
    failures = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(_run_all())
