"""Seeded random-qubit sweep: every draw stays under the bound curve.

Each draw samples a diagonal state rho, a coherent state sigma, and a
bounded observable theta from fixed substreams, then compares the squared
flux ratio (phi / phi_L)^2 against B(S_tilde) and the quadratic line
S_tilde / 2.  Rerunning with the same seed reproduces every record.
"""

import numpy as np

from fluxbound import DrawConfig, run_montecarlo, take_row

draws = 2000
seed = 42

records, summary = run_montecarlo(DrawConfig(n_draws=draws, master_seed=seed))

print(f"draws={summary.n_draws} violations={sum(summary.violations.values())}")
print(f"min slack of the main bound: {summary.min_slack_main:.3e}")
print(f"draws with S_tilde >= 2:     {summary.draws_s_tilde_ge_2}")
print(f"  ... where the quadratic line is vacuous (rhs >= 1) but the curve"
      f" still binds: {summary.draws_far_from_equilibrium}")

# a few records, far-from-equilibrium ones first; the records are one
# DrawRecord of arrays over the draws, and take_row gives draw k's record
finite = ~records.infinite
far = np.flatnonzero(finite & (records.s_tilde >= 2.0))
near = np.flatnonzero(finite & (records.s_tilde < 0.2))
print(f"\n{'draw':>6} {'ratio^2':>10} {'S_tilde':>10} {'S/2':>8} {'B(S)':>8}")
for k in far[:4].tolist() + near[:4].tolist():
    rec = take_row(records, k)
    print(f"{rec.draw:>6} {rec.flux_ratio_sq:>10.6f} {rec.s_tilde:>10.4f}"
          f" {rec.pinsker_rhs:>8.4f} {rec.main_rhs:>8.4f}")

# the gap between the two bounds is what the curve buys: at S_tilde = 2
# the quadratic line hits 1 and stops saying anything
capped = np.count_nonzero(finite & (records.pinsker_rhs >= 1.0))
print(f"\ndraws where S_tilde/2 >= 1: {capped} of {draws}")
