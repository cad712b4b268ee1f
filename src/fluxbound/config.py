"""Centralized numerical tolerances and the stack block size.

Every numerical threshold the library uses lives in one frozen record,
DEFAULT_TOLERANCES, conservative for dense matrices of dimension <= 16.
The thresholds are constants, not parameters: each module reads the
record at call time through its own module-level name DEFAULT_TOLERANCES
(which a test may monkeypatch).

BLOCK_ROWS is the number of rows linalg.in_blocks stacks at a time, for
the Monte Carlo sweep and the grids of the exchange time series and the
extremal family, each returned as one record of arrays.  VERIFY_RUN_ROWS
is the number of draws a verify suite checks in one run.
"""

from __future__ import annotations

from dataclasses import dataclass

# rows evaluated as one stack.  A block carries about 2 ms of fixed cost
# (a few dozen small numpy calls), whatever its rows.  A scan on a 2-core
# VM, in-process with the sizes in alternating order, read the median time
# against 128 rows at 256, 512, 1024, 2048 and 4096 rows as 0.80, 0.70,
# 0.65, 0.64 and 0.66 for montecarlo --draws 1000, 0.83, 0.78, 0.72, 0.64
# and 0.65 for --draws 10000, and 0.92, 0.88, 0.86, 0.85 and 0.85 for a
# 1,501-point spinpair and saturation pair.  Past 1024 rows only the long
# sweep gains, and a block's working memory grows: montecarlo --draws 10000
# peaked at 34.2, 34.3, 35.6 and 37.8 MB at 128, 1024, 2048 and 4096 rows.
# No output bit depends on the size.
BLOCK_ROWS = 1024
# draws a verify suite checks in one run.  It stays at 128: a run holds
# every draw's validated inputs and checks at once, so its memory grows
# with the run (verify --draws 2000 peaked at 38.6 MB with runs of 128 and
# 45.3 MB with runs of 1024), and verify --draws 24, which fits in one run
# at either size, read no gain (a paired median of 1.01)
VERIFY_RUN_ROWS = 128


@dataclass(frozen=True)
class Tolerances:
    # max-entry deviation |M - M^dag| tolerated before a matrix is
    # rejected as non-Hermitian
    hermiticity: float = 1e-12
    # Jacobi eigensolver: stop once the off-diagonal Frobenius mass drops
    # below jacobi_offdiag * ||H||_F, give up after jacobi_max_sweeps
    jacobi_offdiag: float = 1e-14
    jacobi_max_sweeps: int = 100
    # ||U^dag U - I||_max accepted for a unitary
    unitarity: float = 1e-10
    # |tr(pt(M)) - tr(M)| accepted for the partial trace
    trace_preservation: float = 1e-12
    # how negative a density-matrix eigenvalue may be before rejection;
    # eigenvalues in [-state_negativity, 0) are clamped to zero
    state_negativity: float = 1e-10
    # |tr(rho) - 1| accepted for a density matrix
    state_trace: float = 1e-10
    # eigenvalues <= rank are treated as exact zeros (support decisions)
    rank: float = 1e-12
    # relative entropies computed in [-entropy_floor, 0) are rounded to 0;
    # anything more negative raises
    entropy_floor: float = 1e-10
    # largest imaginary part tolerated in tr(H rho) for Hermitian H
    imaginary_part: float = 1e-10
    # additive slack granted when checking the inequalities
    slack: float = 1e-9
    # eigenvalues w of rho - sigma with |w| <= sign_zero_scale * max(1,
    # ||rho - sigma||_inf) are assigned to the kernel of the sign operator
    sign_zero_scale: float = 1e-12
    # |min_shift_norm - capacity/2| accepted for the optimal shift
    shift_norm: float = 1e-10
    # observables with spread <= capacity_floor * max(1, ||theta||_inf)
    # are treated as multiples of the identity (zero capacity)
    capacity_floor: float = 1e-13


DEFAULT_TOLERANCES = Tolerances()
