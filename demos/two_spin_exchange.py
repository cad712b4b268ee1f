"""Two spins exchanging one excitation, tracked against the entropy chain.

System starts excited with probability p, environment with q; the
interaction g(|ge><eg| + h.c.) swaps the excitation back and forth.  The
energy flux through the system is sin(gt)^2 |p - q| Omega exactly, and at
gt = pi/2 (the full swap) the divergence cost 2 phi artanh(phi) is paid
with nothing to spare.
"""

import math

import numpy as np

from fluxbound import SpinPairParams, spin_pair_timeseries, take_row

p, q = 0.9, 0.1
g = 2.0

params = SpinPairParams(excited_population_system=p,
                        excited_population_environment=q,
                        coupling_strength=g,
                        times=tuple(np.linspace(0.0, 1.5, 301)))
points = spin_pair_timeseries(params)  # one record of arrays over the times

print(f"{'t':>6} {'flux':>9} {'closed':>9} {'2phi^2':>9} {'cost':>9} {'S_tilde':>9}")
for k in range(0, len(points.t), 30):
    pt = take_row(points, k)
    print(f"{pt.t:>6.3f} {pt.flux:>9.5f} {pt.flux_analytic:>9.5f}"
          f" {pt.two_phi_sq:>9.5f} {pt.onsager:>9.5f} {pt.s_tilde:>9.5f}")

worst = np.max(np.abs(points.flux - points.flux_analytic))
print(f"\nmax |numeric - closed form| over the grid: {worst:.2e}")

# the chain S_tilde >= 2 phi artanh(phi) >= 2 phi^2 point by point
slack = np.min(np.minimum(points.s_tilde - points.onsager,
                          points.onsager - points.two_phi_sq))
print(f"smallest chain slack on the grid:          {slack:.2e}")

# exactly at the quarter period the first step closes
swap = take_row(spin_pair_timeseries(SpinPairParams(times=(math.pi / (2 * g),))), 0)
print(f"\nat gt = pi/2: flux = {swap.flux:.10f} (|p - q| = {abs(p - q)})")
print(f"              S_tilde - cost = {swap.s_tilde - swap.onsager:.2e}")
