"""The two-level family that makes the flux bound an equality.

rho carries populations (e^{-a/2}, e^{a/2}) / 2cosh(a/2) and sigma the
same pair reversed.  For every gap a the squared half trace norm lands
exactly on B(S_tilde), and the variance uncertainty relation is tight for
the sign observable of rho - sigma.
"""

import numpy as np

from fluxbound import qtur_check, saturating_family, sign_decomposition

print(f"{'a':>5} {'tn^2/4':>12} {'B(S_tilde)':>12} {'gap':>10}")
for a in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
    _, _, fam = saturating_family(a)
    print(f"{a:>5.2f} {0.25 * fam.trace_norm ** 2:>12.8f}"
          f" {fam.bound_value:>12.8f} {fam.gap:>10.2e}")

# one pair in detail
rho, sigma, fam = saturating_family(2.0)
with np.printoptions(precision=6, suppress=True):
    print("\nrho  =", rho.matrix.real.diagonal())
    print("sigma =", sigma.matrix.real.diagonal())
print(f"trace norm   numeric {fam.trace_norm:.12f}  closed {fam.trace_norm_closed:.12f}")
print(f"S_tilde      numeric {fam.s_tilde:.12f}  closed {fam.s_tilde_closed:.12f}")

# the sign observable omega of rho - sigma: its mean gap is the trace
# norm, and its variance ratio sits exactly on the floor f(S_tilde)
dec = sign_decomposition(rho, sigma)
check = qtur_check(dec.sign_operator, rho, sigma)
print(f"\nvariance ratio lhs  {check.lhs:.12f}")
print(f"floor f(S_tilde)    {check.floor:.12f}")
print(f"slack               {check.verdict.slack:+.2e}")
