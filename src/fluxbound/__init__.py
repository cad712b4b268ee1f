"""Sharp bounds on fluxes of bounded observables between quantum states.

The flux of a Hermitian observable theta between states rho and sigma,
phi = tr(theta (rho - sigma)), is limited by the spread of theta and,
much more sharply, by the symmetric relative entropy of the pair:

    (phi / phi_L)^2 <= flux_ratio_sq_bound(S_sym(rho, sigma)) <= 1.

The package provides the linear-algebra core, validated states and
entropies, the scalar bound curves, per-triple bound reports, bipartite
thermodynamic scenarios, reproducible Monte Carlo sweeps and a CLI.
"""

from types import ModuleType as _ModuleType

from .bounds import (divergence_from_gap, flux_ratio_sq_bound,
                     gap_from_divergence, onsager_like, variance_ratio_floor)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (DegenerateInputError, DomainError, FluxboundError,
                     NumericError, ValidationError)
from .flux import (BoundReport, Observable, QturCheck, ShiftCheck,
                   SignDecomposition, Verdict, evaluate_bounds, flux,
                   make_observable, optimal_shift_check, product_observable,
                   qtur_check, sign_decomposition)
from .linalg import (Spectrum, eigh, expectation, partial_trace, take_row,
                     tensor_product, unitary_from_generator)
from .montecarlo import (DrawConfig, DrawRecord, MonteCarloSummary,
                         POLICY_REDRAW, POLICY_REPORT_INFINITE, philox_uniforms,
                         run_montecarlo, substream, triple_from_uniforms)
from .states import (DensityMatrix, RelEntropyValue, directed_entropy_pair,
                     product_state, relative_entropy, symmetric_average,
                     symmetric_relative_entropy, trace_distance_norm,
                     validate_state, validate_states)
from .thermo import (BATH_RESET, BOTH_RESET, BipartiteScenario, ChainCheck,
                     EntropyFlux, SaturatingFamily, ScenarioOutcome,
                     SpinPairParams, SpinPairPoint, correlation,
                     correlation_bound_report, entropy_flux,
                     entropy_flux_chain_check, evolve, exchange_generator,
                     local_system_bound_check, make_scenario,
                     saturating_family, spin_hamiltonian, spin_pair_scenario,
                     spin_pair_timeseries, thermal_environment)
from .verify import VerifyConfig, VerifyReport, random_hermitian, run_verify

__version__ = "0.1.0"

# the submodules are attributes of the package too, but a star import must
# not rebind names such as `config` in the importer's namespace
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
