"""Optimal control under state, control, and banned-frequency constraints.

Discrete-time trajectory optimization where selected DFT components of each
control channel are required to vanish, in addition to pointwise state and
control constraints.  The package provides the band-stop constraint
construction, exact linear-quadratic solvers, a damped-Newton boundary value
solver for control-affine systems, a numerical certificate for the first-order
optimality conditions, and normal/abnormal extremal classification.
"""

__version__ = "0.1.0"

from .extremal import (
    AbnormalRegimeError,
    ExtremalLift,
    NormalityClass,
    NormalityVerdict,
    PmpCertificate,
    adjoint_backward,
    classify_normality_classic,
    classify_normality_freq,
    evaluate_hamiltonian,
    lift_from_solver,
    verify_pmp,
)
from .lq import (
    LqSolution,
    RiccatiSolution,
    SolveStatus,
    lq_pmp_solve,
    lq_transfer_freq_solve,
    lq_transfer_solve,
    riccati_adjoints,
    riccati_solve,
)
from .problem import (
    Box,
    ControlAffineDynamics,
    Fixed,
    Free,
    FREE,
    GeneralCost,
    GeneralDynamics,
    JacobianCheck,
    LtiDynamics,
    ProblemSpec,
    ProblemValidationError,
    QuadraticCost,
    Trajectory,
    check_jacobians,
    control_affine_spec,
    general_wrap,
    lti_spec,
    rollout,
    trajectory_cost,
    validate,
)
from .shooting import (
    NewtonOptions,
    ShootingResult,
    SingularJacobianError,
    StackedUnknowns,
    assemble_residual,
    default_initialization,
    newton_solve,
    residual_jacobian,
)
from .spectrum import (
    FrequencyConstraint,
    SupportSpec,
    UncertaintyReport,
    build_dft_matrix,
    build_frequency_constraint,
    constraint_residual,
    forward_dft,
    numerical_rank,
    uncertainty_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
