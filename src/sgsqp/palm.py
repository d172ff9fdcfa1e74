"""Proximal augmented Lagrangian method for linearly constrained
composite QPs, with the x-subproblem solved by one sweep cycle on the
penalized operator ``P + sigma A^T A``.

Quadratic SDP enters as data (:class:`QsdpData`) and is solved through
its linearly constrained form (:func:`qsdp_to_lincon`).
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .apg import SolveTrace, StopRule, TraceRow
from .blockla import (BlockPartition, BlockSymOperator, BlockVector, finite,
                      finite_real, int_at_least, is_real, vec_norm)
from .errors import (DimensionMismatch, InvalidParams, NeedsShift,
                     NotSymmetric, ShapeMismatch, TauOutOfRange)
from .proxmap import ProxSpec, kkt_distance, prox, prox_value, svec, svec_dim
from .sgs import CompositeQP, sgs_cycle

__all__ = [
    "LinConQP",
    "PalmStop",
    "assemble_penalized",
    "palm_solve",
    "QsdpData",
    "qsdp_to_lincon",
]


class LinConQP:
    """min  p(x_1) + (1/2) <x, P x> - <g, x>   s.t.  A x = d.

    ``P`` is block symmetric PSD (diagonal blocks may be singular — they
    are never factored here); ``A`` maps the full variable to the
    constraint space.  All data must be finite (:class:`NonFinite`).
    ``A`` stays dense.  When its first ``m`` columns (``m`` rows) are exactly
    the identity, as a QSDP's ``Z`` block, ``e = m`` (else 0), and products
    read a copy of ``A[:, e:]`` taken here: ``A x - d = A[:, e:] x[e:] + x[:e]
    - d`` and ``A^T y = (y[:e], A[:, e:]^T y)``.
    """

    def __init__(self, P, A, g, d, prox=None):
        if not isinstance(P, BlockSymOperator):
            raise InvalidParams("P must be a BlockSymOperator")
        self.P = P
        part = P.partition
        A = np.atleast_2d(finite(A, "A"))
        if A.shape[1] != part.total:
            raise DimensionMismatch(
                f"A has {A.shape[1]} columns for a variable of size {part.total}"
            )
        self.A = A
        m = A.shape[0]
        self._e = m if np.array_equal(A[:, :m], np.eye(m)) else 0
        self._A_rest = np.ascontiguousarray(A[:, m:]) if self._e else A
        g = finite(g, "g")
        if g.shape != (part.total,):
            raise DimensionMismatch("g length does not match the partition")
        self.g = g
        d = finite(d, "d").ravel()
        if d.shape != (A.shape[0],):
            raise DimensionMismatch("d length does not match the rows of A")
        self.d = d
        self.prox = prox if prox is not None else ProxSpec.zero()
        self.prox.check_head(part.dims[0])

    @property
    def partition(self):
        return self.P.partition

    def objective(self, x, Px=None):
        """``p(x_1) + (1/2) <x, P x> - <g, x>``; ``Px``, when given, is the
        precomputed product ``P x``."""
        xd = np.asarray(x, dtype=float)
        n1 = self.partition.dims[0]
        if Px is None:
            Px = self.P.matvec(xd)
        return prox_value(self.prox, xd[:n1]) + 0.5 * xd @ Px - self.g @ xd

    def constraint_residual(self, x):
        xd = np.asarray(x, dtype=float)
        r = self._A_rest @ xd[self._e:]
        r[:self._e] += xd[:self._e]
        return r - self.d

    def rmatvec(self, y):
        """``A^T y``, with ``y`` itself on the identity block."""
        return np.concatenate((y[:self._e], self._A_rest.T @ y))

    def kkt(self, x, y, Px=None, resid=None, ATy=None):
        """(dual residual, primal infeasibility) at a primal-dual pair.

        The dual part measures the distance of ``g - P x - A^T y`` to
        the subdifferential of the nonsmooth term on block 1 (and to
        zero elsewhere); both parts vanish exactly at KKT points.
        ``Px``, ``resid`` and ``ATy``, when given, are the precomputed
        ``P x``, :meth:`constraint_residual` at ``x`` and ``A^T y``.
        """
        xd = np.asarray(x, dtype=float)
        if Px is None:
            Px = self.P.matvec(xd)
        r = self.g - Px - (self.rmatvec(y) if ATy is None else ATy)
        dual = kkt_distance(self.prox, xd, r, self.partition.dims[0])
        if resid is None:
            resid = self.constraint_residual(xd)
        return dual, vec_norm(resid)


def assemble_penalized(prob, sigma):
    """CompositeQP for the x-subproblem at penalty ``sigma`` (rhs zeroed).

    Blocks are ``P_ij + sigma A_i^T A_j``, ``A_i^T A_j`` read as rows of
    ``A_j`` when ``A_i`` lies in ``A``'s identity block; when the nonsmooth
    term is nontrivial and the first diagonal block is not a multiple of the
    identity, a conservative first-block shift lets the prox step apply.
    """
    sigma = finite_real(sigma, "sigma", positive=True)
    part = prob.partition
    cols = [prob.A[:, part.slice(i)] for i in range(part.s)]
    # ``block`` reads zeros for a block ``P`` does not store; the operator
    # symmetrizes each diagonal block exactly
    Q = BlockSymOperator(part, {
        (i, j): sigma * (cols[j][part.slice(i)] if part.offsets[i + 1] <= prob._e
                         else cols[i].T @ cols[j]) + prob.P.block(i, j)
        for i in range(part.s) for j in range(i, part.s)})
    try:        # tests the head block once, for a nonsmooth term only
        return CompositeQP(Q, BlockVector.zeros(part), prob.prox)
    except NeedsShift:
        Q00 = Q.block(0, 0)
        J1 = np.linalg.norm(Q00, 2) * np.eye(part.dims[0]) - Q00
        return CompositeQP(Q, BlockVector.zeros(part), prob.prox,
                           shifts=[J1] + [None] * (part.s - 1))


@dataclass(frozen=True)
class PalmStop(StopRule):
    """:class:`StopRule` with the multiplier loop's defaults."""

    kkt_tol: float = 1e-6
    max_iter: int = 10000


@np.errstate(over="ignore", invalid="ignore")
def palm_solve(prob, sigma, tau, x0=None, y0=None, stop=None):
    """Run the proximal augmented Lagrangian loop.

    Each iteration takes one exact sweep cycle on the penalized operator
    with right hand side ``g + A^T (sigma d - y)`` and the previous
    iterate as proximal center, then updates the multiplier
    ``y <- y + tau sigma (A x - d)`` at the freshly computed x.

    The loop carries flat arrays.  Each iteration writes ``(g + A^T
    (sigma d)) - A^T y`` into the penalized ``b`` and calls
    :func:`~sgsqp.sgs.sgs_cycle`, :meth:`LinConQP.constraint_residual`,
    :meth:`LinConQP.kkt` and :meth:`LinConQP.objective` once each.  The
    cycle is handed ``Q_sigma x = P x + A^T (sigma (A x - d + d))`` (zeros
    at a zero start) and the next ``A^T y`` is the certificate's: one
    ``A``, two ``A^T`` and one ``P`` product.  Those with ``A`` and ``A^T``
    read only the columns past a leading identity block (a QSDP's ``Z``,
    :class:`LinConQP`).  A PSD head's certificate reuses the cycle's
    eigenpairs: one eigendecomposition per iteration.

    Returns ``(x, y, trace)``, ``x`` a :class:`BlockVector` and ``trace``
    a :class:`~sgsqp.apg.SolveTrace` with ``x0`` and ``x_final`` set;
    termination is ``"tol"`` once both the primal infeasibility and the
    dual KKT residual fall below ``stop.kkt_tol``, and ``"nonfinite"`` at
    the first iterate whose KKT residual is not finite: that iterate gets
    no row, and the pair before it is returned, warning-free.
    """
    if not is_real(tau):
        raise InvalidParams(f"tau must be a real number, got {tau!r}")
    if not (0.0 < tau < 2.0):
        raise TauOutOfRange(f"tau must lie in (0, 2), got {tau}")
    stop = stop if stop is not None else PalmStop()
    part = prob.partition
    inner = assemble_penalized(prob, sigma)

    if x0 is None:
        x0 = np.zeros(part.total)
        x0[:part.dims[0]] = prox(prob.prox, 1.0, x0[:part.dims[0]])
    x = finite(BlockVector(part, np.array(x0, dtype=float)).data, "x0")
    y = np.zeros(prob.A.shape[0]) if y0 is None else np.array(finite(y0, "y0")).ravel()
    if y.shape != (prob.A.shape[0],):
        raise DimensionMismatch(
            f"y0 has length {y.size} for {prob.A.shape[0]} constraints")

    rmatvec, d, b = prob.rmatvec, prob.d, inner.b.data
    gd = prob.g + rmatvec(sigma * d)
    ATy = rmatvec(y)
    Qx = None if x.any() else np.zeros(part.total)
    trace = SolveTrace(x0=BlockVector(part, x))     # no iterate is written in place
    t0 = time.perf_counter()
    for k in range(1, stop.max_iter + 1):
        # Step 1: one cycle of the T-weighted subproblem at the current x
        np.subtract(gd, ATy, out=b)
        x_new = sgs_cycle(inner, x, mode="exact", Qxbar=Qx).x_plus.data
        # Step 2: multiplier ascent; kkt and the next centre reuse resid
        resid = prob.constraint_residual(x_new)
        y_new = y + tau * sigma * resid
        # a diverging run overflows here first; the stop below names it
        Px = prob.P.matvec(x_new)
        ATy_new = rmatvec(y_new)
        dual, primal = prob.kkt(x_new, y_new, Px, resid, ATy_new)
        F = prob.objective(x_new, Px)
        if not (math.isfinite(dual) and math.isfinite(primal)):
            trace.termination = "nonfinite"     # diverged: keep the last pair
            break
        y_norm = vec_norm(y_new)
        if math.isinf(y_norm) and np.isfinite(y_new).all():
            top = np.abs(y_new).max()       # the squares overflowed
            y_norm = top * vec_norm(y_new / top)
        x, y, ATy = x_new, y_new, ATy_new
        # positional, which is cheaper; no momentum, exact cycles
        trace.rows.append(TraceRow(k, F, dual, primal, y_norm, 0.0, 0.0, 1.0, 0.0,
                                   np.nan, time.perf_counter() - t0))
        if max(dual, primal) <= stop.kkt_tol:
            trace.termination = "tol"
            break
        Qx = Px + rmatvec(sigma * (resid + d))
    x = trace.x_final = BlockVector(part, x)
    return x, y, trace


# ---------------------------------------------------------------------------
# quadratic SDP: three blocks (Z, xi, W), the W variable only through H W


def _check_sym(M, name):
    if np.linalg.norm(M - M.T) > 1e-12 * max(1.0, np.linalg.norm(M)):
        raise NotSymmetric(f"{name} must be symmetric")


class QsdpData:
    """min  delta_PSD(Z) + (1/2)<W, H W> - <h, xi>
    s.t.  Z + B^T xi + H W = C   (all matrices in packed symmetric
    coordinates; ``H`` acts on that space, ``B`` maps it to R^p).
    All data must be finite (:class:`NonFinite`), ``n`` an int ``>= 1``
    (:class:`InvalidParams`) and ``H`` and ``C`` symmetric
    (:class:`NotSymmetric`, relative tolerance 1e-12).
    """

    def __init__(self, n, H, B, h, C):
        self.n = int_at_least(n, "n", 1)
        dim = svec_dim(self.n)
        H = finite(H, "H")
        if H.shape != (dim, dim):
            raise ShapeMismatch(f"H must be {dim}x{dim} for n={n}")
        _check_sym(H, "H")
        self.H = 0.5 * (H + H.T)
        B = np.atleast_2d(finite(B, "B"))
        if B.shape[1] != dim:
            raise DimensionMismatch(f"B must have {dim} columns")
        self.B = B
        self.p = B.shape[0]
        h = finite(h, "h").ravel()
        if h.shape != (self.p,):
            raise DimensionMismatch("h length must match the rows of B")
        self.h = h
        C = finite(C, "C")
        if C.shape != (self.n, self.n):
            raise ShapeMismatch("C must be n x n")
        _check_sym(C, "C")
        self.C = 0.5 * (C + C.T)

    @property
    def dim(self):
        return svec_dim(self.n)

    def range_coords(self):
        """Orthonormal basis of Range(H) in packed coordinates: the
        eigenvectors of ``H`` (exactly symmetric here) whose eigenvalues
        exceed ``1e-12`` times the largest magnitude."""
        w, V = eigh(self.H)
        scale = max(abs(w).max() if w.size else 0.0, np.finfo(float).tiny)
        return V[:, w > 1e-12 * scale]


def qsdp_to_lincon(q):
    """The QSDP as a linearly constrained composite QP (W in Range(H)), with
    ``A = [I, B^T, H V]`` dense; :class:`LinConQP`'s products skip its ``I``."""
    V = q.range_coords()
    r, d = V.shape[1], q.dim
    part = BlockPartition((d, q.p, r) if r else (d, q.p))     # no empty W block
    P = BlockSymOperator(part, {(2, 2): V.T @ q.H @ V} if r else {}, factor_diag=False)
    A = np.hstack([np.eye(d), q.B.T, q.H @ V])
    g = np.concatenate([np.zeros(d), q.h, np.zeros(r)])
    return LinConQP(P, A, g, svec(q.C), prox=ProxSpec.psd_cone(q.n))
