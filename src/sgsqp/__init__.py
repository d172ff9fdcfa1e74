"""Multi-block convex composite quadratic programming via symmetric
Gauss-Seidel style block sweeps.

One sweep cycle over the blocks — backward, a first-block proximal
solve, forward — is an exact proximal-point step in a computable
operator norm.  On top of that single primitive the package provides an
accelerated (and restartable) outer loop with inexact inner solves and
complexity certificates, a Schur-complement factorization view with
verifiable identities, over-relaxation through one ``omega``, a proximal
augmented Lagrangian driver for linearly constrained problems including
quadratic SDP, dense brute-force oracles, and a CLI with a reproducible
instance format.
"""

from .blockla import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    Majorizer,
    sgs_operator,
)
from .errors import (
    DiagonalNotPD,
    DimensionMismatch,
    IdentityViolation,
    InvalidParams,
    NeedsShift,
    NonFinite,
    NotConverged,
    NotPD,
    NotSymmetric,
    OmegaOutOfRange,
    RangeDeficiency,
    SgsQpError,
    ShapeMismatch,
    ShiftNotPSD,
    TauOutOfRange,
    UnboundedObjective,
)
from .proxmap import (
    ProxSpec,
    prox,
    prox_value,
    smat,
    solve_block1,
    subgrad_residual,
    svec,
    svec_dim,
)
from .sgs import (
    CompositeQP,
    CycleResult,
    ExactMode,
    IterativeMode,
    NoisyMode,
    SsorTuning,
    classical_sgs_step,
    sgs_cycle,
    ssor_tuning,
    subproblem_kkt,
)
from .scb import ScbFactors, ScbResult, build_factors, scb_eliminate, verify_identities
from .apg import (
    CertificateReport,
    SolveTrace,
    StepSchedule,
    StopRule,
    ToleranceSchedule,
    complexity_certificates,
    contraction_factor,
    solve,
)
from .palm import (
    LinConQP,
    PalmStop,
    QsdpData,
    assemble_penalized,
    palm_solve,
    qsdp_to_lincon,
)
from .instances import (
    Instance,
    gen,
    gen_lincon,
    gen_qsdp,
    read_instance,
    write_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition", "BlockSymOperator", "BlockVector", "Majorizer",
    "sgs_operator",
    "SgsQpError", "DimensionMismatch", "ShapeMismatch", "NotSymmetric",
    "NotPD", "DiagonalNotPD", "ShiftNotPSD", "OmegaOutOfRange",
    "TauOutOfRange", "NeedsShift",
    "IdentityViolation", "RangeDeficiency", "InvalidParams",
    "UnboundedObjective", "NotConverged", "NonFinite",
    "ProxSpec", "prox", "prox_value", "subgrad_residual", "solve_block1",
    "svec", "smat", "svec_dim",
    "CompositeQP", "CycleResult", "ExactMode", "IterativeMode", "NoisyMode",
    "sgs_cycle", "classical_sgs_step", "subproblem_kkt",
    "SsorTuning", "ssor_tuning",
    "ScbFactors", "ScbResult", "build_factors", "scb_eliminate",
    "verify_identities",
    "SolveTrace", "StepSchedule", "StopRule", "ToleranceSchedule",
    "solve", "contraction_factor", "complexity_certificates",
    "CertificateReport",
    "LinConQP", "PalmStop", "QsdpData", "assemble_penalized", "palm_solve",
    "qsdp_to_lincon",
    "Instance", "gen", "gen_lincon", "gen_qsdp", "read_instance",
    "write_instance",
]
