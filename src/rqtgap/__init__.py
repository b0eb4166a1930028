"""Star-network Bell functionals with a real-versus-complex quantum gap.

The library builds the n-party star network whose conditional Bell
functionals are maximized only by complex-valued quantum strategies,
evaluates the rescaled Mermin witness J_N on both sides, and certifies the
gap ratio n - 1 together with its noise robustness.
"""

from .errors import (
    CapacityError,
    ConfigurationError,
    DegenerateConditioningError,
    InternalConsistencyError,
    ValidationError,
)
from .functionals import (
    build_I_operator,
    classical_bound_I,
    classical_bound_closed_form,
    cqt_strategy,
    eval_I,
    eval_I_from_correlators,
    eval_J,
    ideal_I_value,
)
from .linalg import DenseOperator, StateVector, kron_all, partial_trace
from .network import (
    StarNetwork,
    conditional_state,
    eve_outcome_probability,
    ghz_state,
    ideal_network,
    load_strategy,
    save_strategy,
)
from .pauli import OutcomeLabel, PauliWord, ghz_expectation, ideal_spectrum
from .robustness import (
    apply_noise,
    beta_rqt_upper,
    delta_n,
    epsilon_threshold,
    f_n,
    perturbation_experiment,
    residual_norms,
    verify_sos_identity_A,
    verify_sos_identity_B,
)
from .rqt import (
    SeesawResult,
    TMaximum,
    construct_optimal_real_strategy,
    j_from_t,
    max_j_over_t,
    seesaw_real,
    t_values,
)
from .selftest import CanonicalizationResult, canonicalize_pair, verify_selftest_noiseless

__all__ = [
    "CapacityError",
    "ConfigurationError",
    "DegenerateConditioningError",
    "InternalConsistencyError",
    "ValidationError",
    "build_I_operator",
    "classical_bound_I",
    "classical_bound_closed_form",
    "cqt_strategy",
    "eval_I",
    "eval_I_from_correlators",
    "eval_J",
    "ideal_I_value",
    "DenseOperator",
    "StateVector",
    "kron_all",
    "partial_trace",
    "StarNetwork",
    "conditional_state",
    "eve_outcome_probability",
    "ghz_state",
    "ideal_network",
    "load_strategy",
    "save_strategy",
    "OutcomeLabel",
    "PauliWord",
    "ghz_expectation",
    "ideal_spectrum",
    "apply_noise",
    "beta_rqt_upper",
    "delta_n",
    "epsilon_threshold",
    "f_n",
    "perturbation_experiment",
    "residual_norms",
    "verify_sos_identity_A",
    "verify_sos_identity_B",
    "SeesawResult",
    "TMaximum",
    "construct_optimal_real_strategy",
    "j_from_t",
    "max_j_over_t",
    "seesaw_real",
    "t_values",
    "CanonicalizationResult",
    "canonicalize_pair",
    "verify_selftest_noiseless",
]

__version__ = "0.1.0"
