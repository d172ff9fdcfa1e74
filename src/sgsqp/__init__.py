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

The top level exports what the demos and acceptance criteria use, plus
every error type; everything else lives in ``sgsqp.<module>``.
"""

from .blockla import BlockPartition, BlockSymOperator, BlockVector
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
from .proxmap import ProxSpec, smat, svec, svec_dim
from .sgs import (
    CompositeQP,
    IterativeMode,
    NoisyMode,
    classical_sgs_step,
    sgs_cycle,
    ssor_tuning,
    subproblem_kkt,
)
from .scb import build_factors, scb_eliminate, verify_identities
from .apg import (
    StepSchedule,
    StopRule,
    ToleranceSchedule,
    complexity_certificates,
    contraction_factor,
    solve,
)
from .palm import PalmStop, palm_solve, qsdp_to_lincon

__version__ = "0.1.0"

__all__ = [
    "BlockPartition", "BlockSymOperator", "BlockVector",
    "SgsQpError", "DimensionMismatch", "ShapeMismatch", "NotSymmetric",
    "NotPD", "DiagonalNotPD", "ShiftNotPSD", "OmegaOutOfRange",
    "TauOutOfRange", "NeedsShift",
    "IdentityViolation", "RangeDeficiency", "InvalidParams",
    "UnboundedObjective", "NotConverged", "NonFinite",
    "ProxSpec", "svec", "smat", "svec_dim",
    "CompositeQP", "IterativeMode", "NoisyMode",
    "sgs_cycle", "classical_sgs_step", "subproblem_kkt", "ssor_tuning",
    "build_factors", "scb_eliminate", "verify_identities",
    "StepSchedule", "StopRule", "ToleranceSchedule",
    "solve", "contraction_factor", "complexity_certificates",
    "PalmStop", "palm_solve", "qsdp_to_lincon",
]
