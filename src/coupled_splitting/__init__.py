"""Splitting solvers and spectral certification for block-separable convex
programs with quadratic coupling and linear constraints.

The package has three layers:

* problem modelling (`ProblemInstance`, the proximal-term catalog, KKT
  oracles and residuals),
* iterative solvers (two-block and multi-block sweeps with proximal and
  linearized subproblem strategies, unconstrained coordinate descent, and
  the randomly permuted scheme with exact expected trajectories),
* spectral certification (averaged-update matrices, eigenvalue band and
  multiplicity verdicts, block-order rate comparisons, and explicit
  non-convergence witnesses).
"""

from .errors import (
    CertificateError,
    ConditionError,
    CoupledSplittingError,
    DomainError,
    EnumerationLimitError,
    InfeasibleError,
    StructuralError,
    SubproblemStructureError,
    UnsupportedOracleError,
    UsageError,
)
from .model import (
    BlockStructure,
    KKTPoint,
    ProblemInstance,
    check_uniqueness_condition,
    kkt_residual,
    load_instance,
    merit_weight_matrices,
    normalize_block_matrices,
    save_instance,
    solve_kkt_oracle,
    validate_instance,
)
from .prox import (
    ProxFn,
    fn_value,
    prox_eval,
    prox_fn_from_dict,
    prox_fn_to_dict,
    subdiff_distance,
)
from .rp import (
    ExpectationTrace,
    PermutationSampler,
    expected_update_operator,
    permutation_at,
    run_expected_iteration,
    run_rp_solver,
)
from .solvers import (
    GAMMA_SUP,
    IterateState,
    SolverConfig,
    Trace,
    VARIANTS,
    linearization_proximal,
    lyapunov_decrease_floor,
    lyapunov_value,
    min_kkt_sq_curve,
    run_solver,
    step,
)
from .spectral import (
    analyze_instance,
    bcd_rate_matrices,
    build_perm_matrices,
    build_Q_M,
    check_eig_QS,
    check_M_spectrum,
    cyclic_update_matrix,
    divergence_witness,
    load_report,
    oscillation_demo,
    rank_identity_check,
    save_report,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "CertificateError",
    "ConditionError",
    "CoupledSplittingError",
    "DomainError",
    "EnumerationLimitError",
    "ExpectationTrace",
    "GAMMA_SUP",
    "InfeasibleError",
    "IterateState",
    "KKTPoint",
    "PermutationSampler",
    "ProblemInstance",
    "ProxFn",
    "SolverConfig",
    "StructuralError",
    "SubproblemStructureError",
    "Trace",
    "UnsupportedOracleError",
    "UsageError",
    "VARIANTS",
    "analyze_instance",
    "bcd_rate_matrices",
    "build_perm_matrices",
    "build_Q_M",
    "check_M_spectrum",
    "check_eig_QS",
    "check_uniqueness_condition",
    "cyclic_update_matrix",
    "divergence_witness",
    "expected_update_operator",
    "fn_value",
    "kkt_residual",
    "linearization_proximal",
    "load_instance",
    "load_report",
    "lyapunov_decrease_floor",
    "lyapunov_value",
    "merit_weight_matrices",
    "min_kkt_sq_curve",
    "normalize_block_matrices",
    "oscillation_demo",
    "permutation_at",
    "prox_eval",
    "prox_fn_from_dict",
    "prox_fn_to_dict",
    "rank_identity_check",
    "run_expected_iteration",
    "run_rp_solver",
    "run_solver",
    "save_instance",
    "save_report",
    "solve_kkt_oracle",
    "step",
    "subdiff_distance",
    "validate_instance",
]
