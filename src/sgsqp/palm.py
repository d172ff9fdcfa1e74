"""Proximal augmented Lagrangian method for linearly constrained
composite QPs, with the x-subproblem solved by one sweep cycle on the
penalized operator ``P + sigma A^T A``.

Quadratic SDP enters as data (:class:`QsdpData`) and is solved through
its linearly constrained form (:func:`qsdp_to_lincon`).
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .apg import StopRule, write_csv
from .blockla import (BlockPartition, BlockSymOperator, BlockVector, finite,
                      finite_real, is_real)
from .errors import (DimensionMismatch, InvalidParams, ShapeMismatch,
                     TauOutOfRange)
from .proxmap import (ProxSpec, _identity_multiple, kkt_distance, prox,
                      prox_value, svec, svec_dim)
from .sgs import CompositeQP, sgs_cycle

__all__ = [
    "LinConQP",
    "PalmStop",
    "PalmRow",
    "PalmTrace",
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
        g = finite(g, "g")
        if g.shape != (part.total,):
            raise DimensionMismatch("g length does not match the partition")
        self.g = g
        d = finite(d, "d").ravel()
        if d.shape != (A.shape[0],):
            raise DimensionMismatch("d length does not match the rows of A")
        self.d = d
        self.prox = prox if prox is not None else ProxSpec.zero()
        bd = self.prox.block_dim()
        if bd is not None and bd != part.dims[0]:
            raise DimensionMismatch(
                f"prox expects block dimension {bd}, partition has {part.dims[0]}"
            )

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
        return self.A @ xd - self.d

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
        r = self.g - Px - (self.A.T @ y if ATy is None else ATy)
        dual = kkt_distance(self.prox, xd, r, self.partition.dims[0])
        if resid is None:
            resid = self.constraint_residual(xd)
        return dual, np.linalg.norm(resid)


def assemble_penalized(prob, sigma):
    """CompositeQP for the x-subproblem at penalty ``sigma`` (rhs zeroed).

    Blocks are ``P_ij + sigma A_i^T A_j``; when the nonsmooth term is
    nontrivial and the first diagonal block is not a multiple of the
    identity, a conservative first-block shift is attached so the prox
    step applies.
    """
    sigma = finite_real(sigma, "sigma", positive=True)
    part = prob.partition
    cols = [prob.A[:, part.slice(i)] for i in range(part.s)]
    # ``block`` reads zeros for a block ``P`` does not store; the operator
    # symmetrizes each diagonal block exactly
    Q = BlockSymOperator(part, {
        (i, j): sigma * (cols[i].T @ cols[j]) + prob.P.block(i, j)
        for i in range(part.s) for j in range(i, part.s)})
    shifts = None
    if prob.prox.kind != "zero":
        Q00 = np.asarray(Q.block(0, 0))
        if _identity_multiple(Q00) is None:
            J1 = np.linalg.norm(Q00, 2) * np.eye(part.dims[0]) - Q00
            shifts = [J1] + [None] * (part.s - 1)
    return CompositeQP(Q, BlockVector.zeros(part), prob.prox, shifts=shifts)


@dataclass(frozen=True)
class PalmStop(StopRule):
    """:class:`StopRule` with the multiplier loop's defaults."""

    kkt_tol: float = 1e-6
    max_iter: int = 10000


@dataclass
class PalmRow:
    k: int
    F: float
    primal_inf: float
    kkt: float
    y_norm: float
    time_s: float


@dataclass
class PalmTrace:
    rows: list = field(default_factory=list)
    termination: str = "max_iter"

    @property
    def iterations(self):
        return len(self.rows)

    def to_csv(self, path_or_file):
        write_csv(self.rows, PalmRow, path_or_file)


def palm_solve(prob, sigma, tau, x0=None, y0=None, stop=None,
               multiplier_update="new"):
    """Run the proximal augmented Lagrangian loop.

    Each iteration takes one exact sweep cycle on the penalized operator
    with right hand side ``g + A^T (sigma d - y)`` and the previous
    iterate as proximal center, then updates the multiplier
    ``y <- y + tau sigma (A x - d)``.  ``multiplier_update`` selects
    which iterate enters that update: ``"new"`` (default) uses the
    freshly computed x, ``"previous"`` the proximal center.

    The right hand side is ``(g + A^T (sigma d)) - A^T y``, with ``A^T y``
    shared with the previous iteration's :meth:`LinConQP.kkt`, and the
    cycle is handed ``Q_sigma x = P x + A^T (sigma (A x - d + d))`` from
    the monitoring terms (zeros at a zero start): two ``A^T`` products and
    one ``P`` product per iteration.  A PSD head's certificate reuses the
    cycle's projection eigenpairs: one eigendecomposition per iteration.

    Returns ``(x, y, trace)``; termination is ``"tol"`` once both the
    primal infeasibility and the dual KKT residual fall below
    ``stop.kkt_tol``, and ``"nonfinite"`` at the first iterate whose KKT
    residual is not finite: that iterate gets no row, and the pair before
    it is returned.
    """
    if not is_real(tau):
        raise InvalidParams(f"tau must be a real number, got {tau!r}")
    if not (0.0 < tau < 2.0):
        raise TauOutOfRange(f"tau must lie in (0, 2), got {tau}")
    if multiplier_update not in ("new", "previous"):
        raise InvalidParams(f"unknown multiplier_update {multiplier_update!r}")
    stop = stop if stop is not None else PalmStop()
    part = prob.partition
    inner = assemble_penalized(prob, sigma)

    if x0 is None:
        x = BlockVector.zeros(part)
        if prob.prox.kind != "zero":
            x.set_block(0, prox(prob.prox, 1.0, np.zeros(part.dims[0])))
    else:
        x = BlockVector(part, np.array(x0, dtype=float))
        finite(x.data, "x0")
    y = np.zeros(prob.A.shape[0]) if y0 is None else np.array(finite(y0, "y0")).ravel()
    if y.shape != (prob.A.shape[0],):
        raise DimensionMismatch(
            f"y0 has length {y.size} for {prob.A.shape[0]} constraints")

    fresh = multiplier_update == "new"
    gd = prob.g + prob.A.T @ (sigma * prob.d)
    ATy = prob.A.T @ y
    Qx = None if x.data.any() else np.zeros(part.total)
    trace = PalmTrace()
    t0 = time.perf_counter()
    for k in range(1, stop.max_iter + 1):
        # Step 1: one cycle of the T-weighted subproblem at the current x
        inner.b.data[:] = gd - ATy
        res = sgs_cycle(inner, x, mode="exact", Qxbar=Qx)
        x_new = res.x_plus
        # Step 2: multiplier ascent; kkt and the next centre reuse resid_new
        resid = prob.constraint_residual((x_new if fresh else x).data)
        y_new = y + tau * sigma * resid
        resid_new = resid if fresh else prob.constraint_residual(x_new.data)

        Px = prob.P.matvec(x_new.data)
        with np.errstate(over="ignore", invalid="ignore"):
            # a diverging run overflows here first; the stop below names it
            ATy_new = prob.A.T @ y_new
            dual, primal = prob.kkt(x_new.data, y_new, Px, resid_new, ATy_new)
            F = prob.objective(x_new.data, Px)
            y_norm = np.linalg.norm(y_new)
            if np.isinf(y_norm) and np.isfinite(y_new).all():
                top = np.abs(y_new).max()       # the squares overflowed
                y_norm = top * np.linalg.norm(y_new / top)
            Qx_new = Px + prob.A.T @ (sigma * (resid_new + prob.d))
        if not (np.isfinite(dual) and np.isfinite(primal)):
            # diverged (e.g. an indefinite penalized operator): keep the
            # last finite pair
            trace.termination = "nonfinite"
            return x, y, trace
        x, y, ATy, Qx = x_new, y_new, ATy_new, Qx_new
        trace.rows.append(PalmRow(
            k=k, F=F, primal_inf=primal, kkt=dual,
            y_norm=y_norm, time_s=time.perf_counter() - t0,
        ))
        if max(dual, primal) <= stop.kkt_tol:
            trace.termination = "tol"
            return x, y, trace
    trace.termination = "max_iter"
    return x, y, trace


# ---------------------------------------------------------------------------
# quadratic SDP: three blocks (Z, xi, W), the W variable only through H W


class QsdpData:
    """min  delta_PSD(Z) + (1/2)<W, H W> - <h, xi>
    s.t.  Z + B^T xi + H W = C   (all matrices in packed symmetric
    coordinates; ``H`` acts on that space, ``B`` maps it to R^p).
    All data must be finite (:class:`NonFinite`).
    """

    def __init__(self, n, H, B, h, C):
        self.n = int(n)
        dim = svec_dim(self.n)
        H = finite(H, "H")
        if H.shape != (dim, dim):
            raise ShapeMismatch(f"H must be {dim}x{dim} for n={n}")
        if np.linalg.norm(H - H.T) > 1e-12 * max(1.0, np.linalg.norm(H)):
            raise ShapeMismatch("H must be symmetric")
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
    """The QSDP as a linearly constrained composite QP (W in Range(H))."""
    V = q.range_coords()
    r = V.shape[1]
    d = q.dim
    if r > 0:
        part = BlockPartition((d, q.p, r))
        P = BlockSymOperator(part, {(2, 2): V.T @ q.H @ V},
                             factor_diag=False)
        A = np.hstack([np.eye(d), q.B.T, q.H @ V])
        g = np.concatenate([np.zeros(d), q.h, np.zeros(r)])
    else:
        part = BlockPartition((d, q.p))
        P = BlockSymOperator(part, {}, factor_diag=False)
        A = np.hstack([np.eye(d), q.B.T])
        g = np.concatenate([np.zeros(d), q.h])
    return LinConQP(P, A, g, svec(q.C), prox=ProxSpec.psd_cone(q.n))
