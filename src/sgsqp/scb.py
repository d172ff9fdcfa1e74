"""Schur-complement view of the sweep majorizer.

Eliminating the last block of a symmetric block matrix by its Schur
complement, then the next, and so on down to the first, produces unit
block-triangular factors ``V_j`` and shows that the block diagonal of
the matrix, conjugated by the product of the ``V_j``, reproduces the
matrix *plus* a computable positive semidefinite completion term — and
that completion term is exactly the sweep majorizer weight.  This module
builds the factors densely, verifies the identities to tight tolerances,
and implements the elimination/back-substitution solver that the sweep
cycle secretly performs.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .blockla import BlockVector, block_split
from .errors import IdentityViolation
from .proxmap import solve_block1

__all__ = [
    "ScbFactors",
    "build_factors",
    "IdentityReport",
    "verify_identities",
    "ScbResult",
    "scb_eliminate",
]

_GLOBAL_RTOL = 1e-11
_STAGE_RTOL = 1e-12


@dataclass
class ScbFactors:
    """Dense elimination factors of a block symmetric operator.

    Stage ``j`` (0-based, ``1 <= j <= s-1``) eliminates block ``j``
    against all earlier blocks: ``R[j]`` stacks the cross blocks above
    the pivot, ``Ohat[j] = R_j Q_jj^{-1} R_j^T`` is the completion the
    elimination adds, ``O[j]`` accumulates the completions of stages
    ``1..j`` (embedded in the full space), and ``V[j]`` is the unit
    upper block-triangular stage factor.
    """

    partition: object
    D: np.ndarray
    U: np.ndarray
    R: dict = field(default_factory=dict)
    Ohat: dict = field(default_factory=dict)
    O: dict = field(default_factory=dict)
    Vhat: dict = field(default_factory=dict)
    V: dict = field(default_factory=dict)

    @property
    def completion(self):
        """The accumulated completion of the final stage (the sweep weight)."""
        return self.O[self.partition.s - 1]

    def stage_product(self):
        """``V_s V_{s-1} ... V_2`` as a dense matrix."""
        s = self.partition.s
        P = self.V[s - 1].copy()
        for j in range(s - 2, 0, -1):
            P = P @ self.V[j]
        return P

    def transpose_product(self):
        """``V_2^T V_3^T ... V_s^T`` as a dense matrix."""
        s = self.partition.s
        P = self.V[1].T.copy()
        for j in range(2, s):
            P = P @ self.V[j].T
        return P


def build_factors(Q):
    """Compute the elimination factors of a block symmetric operator."""
    part = Q.partition
    N = part.total
    Qd = Q.dense()
    D, U = block_split(Q)
    f = ScbFactors(partition=part, D=D, U=U)
    acc = np.zeros((N, N))
    for j in range(1, part.s):
        m, nj = part.offsets[j], part.dims[j]
        Rj = Qd[:m, m:m + nj]
        W = la.solve(Qd[m:m + nj, m:m + nj], Rj.T, assume_a="pos").T
        Ohat = Rj @ W.T
        Ohat = 0.5 * (Ohat + Ohat.T)
        acc = acc.copy()
        acc[:m, :m] += Ohat
        Vh = np.eye(m + nj)
        Vh[:m, m:] = W
        Vf = np.eye(N)
        Vf[:m + nj, :m + nj] = Vh
        f.R[j] = Rj
        f.Ohat[j] = Ohat
        f.O[j] = acc
        f.Vhat[j] = Vh
        f.V[j] = Vf
    return f


@dataclass
class IdentityReport:
    """Relative defects of the factorization identities (all must pass)."""

    lemma_rel: float
    factor_rel: float
    weight_rel: float
    schur_rels: list
    corruption: float = 0.0

    @property
    def worst(self):
        return max([self.lemma_rel, self.factor_rel, self.weight_rel]
                   + list(self.schur_rels))


def _rel(diff, ref):
    return np.linalg.norm(diff, "fro") / (1.0 + np.linalg.norm(ref, "fro"))


def verify_identities(Q, corruption=0.0):
    """Check the elimination identities of an operator, hard.

    Three global checks at 1e-11 relative: the transpose stage product
    equals ``D^{-1}(D + U^T)``; conjugating the block diagonal by the
    stage product reproduces the operator plus its completion; the
    completion equals the sweep weight ``U D^{-1} U^T``.  Plus one local
    Schur-complement reconstruction per stage at 1e-12.  Raises
    :class:`IdentityViolation` carrying the worst relative defect;
    returns an :class:`IdentityReport` when everything holds.

    ``corruption`` injects a relative-sized defect into the completion
    term before checking — a hook to demonstrate that the verifier
    actually bites.
    """
    part = Q.partition
    Qd = Q.dense()
    f = build_factors(Q)
    scale = 1.0 + np.linalg.norm(Qd, "fro")

    O_s = f.completion.copy()
    if corruption:
        O_s[0, 0] += corruption * scale

    ref_lemma = la.solve(f.D, f.D + f.U.T, assume_a="pos")
    lemma_rel = _rel(f.transpose_product() - ref_lemma, ref_lemma)

    P = f.stage_product()
    factor_rel = _rel(Qd + O_s - P @ f.D @ P.T, Qd)

    T_ref = f.U @ la.solve(f.D, f.U.T, assume_a="pos")
    weight_rel = _rel(O_s - T_ref, T_ref)

    schur_rels = []
    for j in range(1, part.s):
        m, nj = part.offsets[j], part.dims[j]
        lead = Qd[:m + nj, :m + nj]
        inner = np.zeros((m + nj, m + nj))
        inner[:m, :m] = lead[:m, :m] - f.Ohat[j]
        inner[m:, m:] = lead[m:, m:]
        schur_rels.append(_rel(f.Vhat[j] @ inner @ f.Vhat[j].T - lead, lead))

    rep = IdentityReport(lemma_rel=lemma_rel, factor_rel=factor_rel,
                         weight_rel=weight_rel, schur_rels=schur_rels,
                         corruption=corruption)
    bad = []
    if lemma_rel > _GLOBAL_RTOL:
        bad.append(f"stage-product lemma off by {lemma_rel:.3e}")
    if factor_rel > _GLOBAL_RTOL:
        bad.append(f"factorization off by {factor_rel:.3e}")
    if weight_rel > _GLOBAL_RTOL:
        bad.append(f"completion/weight match off by {weight_rel:.3e}")
    for j, r in zip(range(1, part.s), schur_rels):
        if r > _STAGE_RTOL:
            bad.append(f"stage {j} Schur reconstruction off by {r:.3e}")
    if bad:
        raise IdentityViolation("; ".join(bad), magnitude=rep.worst)
    return rep


@dataclass
class ScbResult:
    """Elimination solve output.

    ``eliminated`` holds the transformed variables ``y = V^T x`` of the
    factorized system (block 1 coincides with the first block of the
    solution; later blocks are the stage pivots, not the backward-sweep
    iterates of the cycle).
    """

    x_plus: BlockVector
    gamma1: np.ndarray
    reduced_rhs: BlockVector
    eliminated: BlockVector


def scb_eliminate(prob, xbar):
    """Solve one majorized subproblem by explicit Schur elimination.

    Independent arithmetic path for the exact sweep cycle: eliminate
    blocks last-to-second against the right hand side, solve the reduced
    composite problem in the first block, then back-substitute.  Must
    agree with the exact cycle output to high accuracy.
    """
    A = prob.shifted_Q
    part = prob.partition
    s = part.s
    xbar = BlockVector(part, xbar)
    xb = xbar.blocks()

    # rhs of the majorized stationarity system: b_eff + (weight) xbar,
    # where the weight contribution is U Dhat^{-1} U^T xbar
    beff = prob.effective_b(xbar)
    w = [np.zeros(part.dims[i]) for i in range(s)]
    for i in range(1, s):
        acc = np.zeros(part.dims[i])
        for j in range(i):
            acc += A.block(i, j) @ xb[j]
        w[i] = la.solve(A.block(i, i), acc, assume_a="pos")
    btilde = []
    for i in range(s):
        r = np.array(beff.block(i))
        for j in range(i + 1, s):
            r += A.block(i, j) @ w[j]
        btilde.append(r)

    y = [None] * s
    for j in range(s - 1, 0, -1):
        z = la.solve(A.block(j, j), btilde[j], assume_a="pos")
        y[j] = z
        for i in range(j):
            btilde[i] = btilde[i] - A.block(i, j) @ z

    x1, gamma1 = solve_block1(prob.prox, np.array(A.block(0, 0)), btilde[0])
    y[0] = x1

    xout = [x1]
    for j in range(1, s):
        r = np.array(btilde[j])
        for i in range(j):
            r -= A.block(j, i) @ xout[i]
        xout.append(la.solve(A.block(j, j), r, assume_a="pos"))

    return ScbResult(
        x_plus=BlockVector.from_blocks(part, xout),
        gamma1=gamma1,
        reduced_rhs=BlockVector.from_blocks(part, btilde),
        eliminated=BlockVector.from_blocks(part, y),
    )
