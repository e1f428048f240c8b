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
    save_instance,
    solve_kkt_oracle,
)
from .prox import ProxFn
from .rp import (
    expected_update_operator,
    run_expected_iteration,
    run_rp_solver,
)
from .solvers import (
    IterateState,
    SolverConfig,
    Trace,
    VARIANTS,
    lyapunov_decrease_floor,
    min_kkt_sq_curve,
    run_solver,
    step,
)
from .spectral import (
    analyze_instance,
    bcd_rate_matrices,
    cyclic_update_matrix,
    divergence_witness,
    oscillation_demo,
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
    "InfeasibleError",
    "IterateState",
    "KKTPoint",
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
    "check_uniqueness_condition",
    "cyclic_update_matrix",
    "divergence_witness",
    "expected_update_operator",
    "kkt_residual",
    "load_instance",
    "lyapunov_decrease_floor",
    "min_kkt_sq_curve",
    "oscillation_demo",
    "run_expected_iteration",
    "run_rp_solver",
    "run_solver",
    "save_instance",
    "save_report",
    "solve_kkt_oracle",
    "step",
]
