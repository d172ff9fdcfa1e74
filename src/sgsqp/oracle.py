"""Dense reference solvers used to certify the sweep-based code paths.

Everything here works on explicit numpy arrays and deliberately shares no
machinery with the block sweeps: proximal weights are rebuilt from the
dense matrix with plain triangle masks and ``numpy.linalg`` solves, and
composite minimizers run an accelerated projected/proximal gradient loop
with an active-set polish.  Accuracy targets leave an order of magnitude
of headroom below every certification tolerance that relies on them.

The quadratic SDP subproblem is kept here in its explicit matrix form
(:func:`qsdp_sgs_step`, W only through ``H W``) and assembled as a
generic composite QP (:func:`qsdp_assemble`): a reference for the
solver's linearly constrained QSDP path.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, eigvalsh

from .blockla import BlockPartition, BlockSymOperator, BlockVector
from .errors import (
    InvalidParams,
    NotConverged,
    NotSymmetric,
    RangeDeficiency,
    UnboundedObjective,
)
from .proxmap import ProxSpec, prox, prox_value, smat, subgrad_residual, svec
from .sgs import CompositeQP

__all__ = [
    "dense_sgs_weight",
    "dense_ssor_weight",
    "dense_qp_minimize",
    "dense_subproblem_solve",
    "dense_optimum",
    "dense_kkt_solve",
    "eigh_checked",
    "spectral_norm",
    "psd_project",
    "range_basis",
    "qsdp_assemble",
    "qsdp_sgs_step",
]


# -- eigen helpers ----------------------------------------------------

def eigh_checked(M, rtol=1e-12):
    """Symmetric eigendecomposition, refusing unsymmetric input."""
    M = np.asarray(M, dtype=float)
    nrm = np.linalg.norm(M)
    if nrm > 0 and np.linalg.norm(M - M.T) > rtol * nrm:
        raise NotSymmetric("matrix is not symmetric to the requested tolerance")
    return eigh(0.5 * (M + M.T))


def spectral_norm(M):
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def psd_project(M):
    """Nearest (Frobenius) positive semidefinite matrix."""
    w, V = eigh_checked(M)
    pos = w > 0.0
    P = (V[:, pos] * w[pos]) @ V[:, pos].T
    return 0.5 * (P + P.T)


def range_basis(M, rtol=1e-12):
    """Orthonormal eigenbasis of the range of a symmetric PSD matrix."""
    w, V = eigh_checked(M)
    scale = max(abs(w).max() if w.size else 0.0, np.finfo(float).tiny)
    keep = w > rtol * scale
    return V[:, keep]


# -- dense proximal weights -------------------------------------------

def _block_triangle_split(partition, Qd):
    """Dense block diagonal and strict upper block triangle of ``Qd``."""
    N = partition.total
    D = np.zeros((N, N))
    U = np.zeros((N, N))
    for i in range(partition.s):
        si = partition.slice(i)
        D[si, si] = Qd[si, si]
        for j in range(i + 1, partition.s):
            U[si, partition.slice(j)] = Qd[si, partition.slice(j)]
    return D, U


def dense_sgs_weight(partition, Qd, shifts=None):
    """Dense ``T = diag(J) + U (D + diag(J))^{-1} U^*`` built from scratch."""
    Qd = np.asarray(Qd, dtype=float)
    D, U = _block_triangle_split(partition, Qd)
    Jfull = np.zeros_like(D)
    if shifts is not None:
        for i, J in enumerate(shifts):
            if J is not None:
                si = partition.slice(i)
                Jfull[si, si] = J
    Dhat = D + Jfull
    T = U @ np.linalg.solve(Dhat, U.T) + Jfull
    return 0.5 * (T + T.T)


def dense_ssor_weight(partition, Qd, omega):
    """Dense over-relaxed weight ``((1-tau)D+U)(rho D)^{-1}((1-tau)D+U^*)``."""
    Qd = np.asarray(Qd, dtype=float)
    D, U = _block_triangle_split(partition, Qd)
    tau = 1.0 / float(omega)
    rho = 2.0 * tau - 1.0
    G = (1.0 - tau) * D + U
    T = G @ np.linalg.solve(rho * D, G.T)
    return 0.5 * (T + T.T)


# -- composite quadratic minimization ---------------------------------

def _kkt_of(H, c, spec, n1, x):
    r = c - H @ x
    head = subgrad_residual(spec, x[:n1], r[:n1])
    if not np.isfinite(head):
        return np.inf
    return float(np.hypot(head, np.linalg.norm(r[n1:])))


def _polish(H, c, spec, n1, x):
    """One active-set refinement step; returns a candidate or None."""
    N = H.shape[0]
    if spec.kind == "l1":
        active = np.concatenate((x[:n1] != 0.0, np.ones(N - n1, dtype=bool)))
        rhs = c.copy()
        rhs[:n1] -= spec.lam * np.sign(x[:n1])
        idx = np.where(active)[0]
        cand = np.zeros(N)
        try:
            cand[idx] = np.linalg.solve(H[np.ix_(idx, idx)], rhs[idx])
        except np.linalg.LinAlgError:
            return None
        return cand
    if spec.kind == "nonneg":
        active = np.concatenate((x[:n1] > 0.0, np.ones(N - n1, dtype=bool)))
        idx = np.where(active)[0]
        cand = np.zeros(N)
        try:
            cand[idx] = np.linalg.solve(H[np.ix_(idx, idx)], c[idx])
        except np.linalg.LinAlgError:
            return None
        if np.any(cand[:n1] < 0.0):
            return None
        return cand
    if spec.kind == "box":
        lo, hi = spec._bounds()
        at_lo = np.concatenate((x[:n1] == lo, np.zeros(N - n1, dtype=bool)))
        at_hi = np.concatenate((x[:n1] == hi, np.zeros(N - n1, dtype=bool)))
        free = ~(at_lo | at_hi)
        cand = np.zeros(N)
        cand[at_lo] = np.broadcast_to(lo, (n1,))[at_lo[:n1]]
        cand[at_hi] = np.broadcast_to(hi, (n1,))[at_hi[:n1]]
        idx = np.where(free)[0]
        if idx.size:
            rhs = c[idx] - H[np.ix_(idx, np.where(~free)[0])] @ cand[~free]
            try:
                cand[idx] = np.linalg.solve(H[np.ix_(idx, idx)], rhs)
            except np.linalg.LinAlgError:
                return None
        if np.any(cand[:n1] < lo) or np.any(cand[:n1] > hi):
            return None
        return cand
    return None


def dense_qp_minimize(H, c, spec, n1, tol=1e-12, max_iter=200000):
    """Minimize ``p(x[:n1]) + 0.5 x'Hx - c'x`` densely to high accuracy.

    Accelerated proximal gradient with monotone restarts, followed by an
    active-set polish whenever the nonsmooth term is piecewise linear.
    The returned point satisfies a composite KKT residual
    ``<= tol * (1 + ||c||)``; :class:`NotConverged` otherwise.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    N = H.shape[0]
    target = tol * (1.0 + np.linalg.norm(c))
    if spec.kind == "zero":
        try:
            x = cho_solve(cho_factor(H, lower=True), c)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(H, c, rcond=None)
            if np.linalg.norm(H @ x - c) > 1e-9 * (1.0 + np.linalg.norm(c)):
                raise UnboundedObjective(
                    "linear term is outside the range of a singular quadratic"
                )
        return x

    L = max(spectral_norm(H), np.finfo(float).tiny)
    x = np.zeros(N)
    x[:n1] = prox(spec, 1.0, np.zeros(n1))
    best = x.copy()
    best_res = _kkt_of(H, c, spec, n1, x)
    y = x.copy()
    t = 1.0
    fprev = np.inf
    for it in range(1, max_iter + 1):
        g = H @ y - c
        xn = y - g / L
        xn[:n1] = prox(spec, L, xn[:n1])
        f = 0.5 * (xn @ (H @ xn)) - c @ xn + prox_value(spec, xn[:n1])
        if f > fprev:  # monotone restart
            y = x.copy()
            t = 1.0
            fprev = np.inf
            continue
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = xn + ((t - 1.0) / tn) * (xn - x)
        x, t, fprev = xn, tn, f
        if it % 25 == 0 or it == max_iter:
            res = _kkt_of(H, c, spec, n1, x)
            if res < best_res:
                best, best_res = x.copy(), res
            cand = _polish(H, c, spec, n1, x)
            if cand is not None:
                cres = _kkt_of(H, c, spec, n1, cand)
                if cres < best_res:
                    best, best_res = cand, cres
            if best_res <= target:
                return best
    if best_res <= target:
        return best
    raise NotConverged(
        f"dense composite minimizer reached residual {best_res:.3e} "
        f"(target {target:.3e}) after {max_iter} iterations"
    )


# -- problem-level reference solutions --------------------------------

def dense_subproblem_solve(prob, xbar, Delta=None, kind="sgs", omega=None,
                           tol=1e-12):
    """Exact minimizer of the proximal subproblem solved by one cycle.

    Minimizes ``p(x_1) + 0.5 <x,Qx> - <b,x> + 0.5 ||x-xbar||_T^2 - <x,Delta>``
    with the weight ``T`` rebuilt densely for the requested variant
    (including the problem's diagonal shifts for the Gauss-Seidel kind).
    """
    part = prob.Q.partition
    Qd = prob.Q.dense()
    shifts = getattr(prob, "shifts", None)
    if kind == "sgs":
        T = dense_sgs_weight(part, Qd, shifts)
    elif kind == "ssor":
        if shifts is None:
            T = dense_ssor_weight(part, Qd, omega)
        else:
            Jd = np.zeros_like(Qd)
            for i, J in enumerate(shifts):
                if J is not None:
                    sl = part.slice(i)
                    Jd[sl, sl] = J
            T = Jd + dense_ssor_weight(part, Qd + Jd, omega)
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    xb = xbar.data if isinstance(xbar, BlockVector) else np.asarray(xbar, dtype=float)
    c = prob.b.data + T @ xb
    if Delta is not None:
        c = c + (Delta.data if isinstance(Delta, BlockVector) else np.asarray(Delta))
    x = dense_qp_minimize(Qd + T, c, prob.prox, part.dims[0], tol=tol)
    return BlockVector(part, x)


def dense_optimum(prob, tol=1e-11):
    """Reference minimizer and optimal value of the full objective.

    For ``p = 0`` a singular consistent system falls back to the
    least-squares (minimum-norm) solution; an inconsistent one raises
    :class:`UnboundedObjective`.
    """
    part = prob.Q.partition
    Qd = prob.Q.dense()
    b = prob.b.data
    spec = prob.prox
    x = dense_qp_minimize(Qd, b, spec, part.dims[0], tol=tol)
    fstar = 0.5 * (x @ (Qd @ x)) - b @ x + prox_value(spec, x[:part.dims[0]])
    return BlockVector(part, x), float(fstar)


def dense_kkt_solve(P, A, g, d):
    """Solve the equality-constrained QP ``min 0.5 x'Px - g'x, Ax = d``
    through its saddle system; returns ``(x, y)`` with multipliers ``y``.
    """
    P = np.asarray(P, dtype=float)
    A = np.asarray(A, dtype=float)
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    m, N = A.shape
    K = np.zeros((N + m, N + m))
    K[:N, :N] = P
    K[:N, N:] = A.T
    K[N:, :N] = A
    rhs = np.concatenate((g, d))
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        if np.linalg.norm(K @ sol - rhs) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
            raise RangeDeficiency("saddle system is inconsistent")
    return sol[:N], sol[N:]


# -- quadratic SDP: three blocks (Z, xi, W), W only through H W ---------

def _qsdp_rhs(q, sigma, Y):
    u = svec(sigma * q.C - Y)
    return u, q.h + q.B @ u, q.H @ u


def qsdp_assemble(q, sigma, Y):
    """Composite QP for one Step-1 subproblem, W in Range(H) coordinates.

    Variable order (Z; xi; w) with ``w`` the coefficient vector of W in
    an orthonormal basis of Range(H); when H = 0 the W block vanishes
    and the problem has two blocks.
    """
    if sigma <= 0:
        raise InvalidParams(f"sigma must be positive, got {sigma}")
    V = q.range_coords()
    r = V.shape[1]
    bZ, bxi, bW = _qsdp_rhs(q, sigma, Y)
    d = q.dim
    HV = q.H @ V
    blocks = {
        (0, 0): sigma * np.eye(d),
        (0, 1): sigma * q.B.T,
        (1, 1): sigma * (q.B @ q.B.T),
    }
    if r > 0:
        part = BlockPartition((d, q.p, r))
        blocks[(0, 2)] = sigma * HV
        blocks[(1, 2)] = sigma * (q.B @ HV)
        blocks[(2, 2)] = V.T @ (q.H + sigma * (q.H @ q.H)) @ V
        b = np.concatenate([bZ, bxi, V.T @ bW])
    else:
        part = BlockPartition((d, q.p))
        b = np.concatenate([bZ, bxi])
    Q = BlockSymOperator(part, blocks)
    return CompositeQP(Q, BlockVector(part, b), ProxSpec.psd_cone(q.n))


def qsdp_sgs_step(q, sigma, state, Y):
    """One sweep of the Step-1 subproblem in explicit matrix form.

    ``state = (Z, xi, HW)`` — the W variable is never materialized, only
    its image under H.  Backward: solve for HW', then xi'; block 1:
    project onto the PSD cone; forward: re-solve xi then HW with the
    updated earlier blocks.  Returns ``(Z_new, xi_new, HW_new)``.
    """
    Z, xi, HW = state
    if sigma <= 0:
        raise InvalidParams(f"sigma must be positive, got {sigma}")
    z = svec(np.asarray(Z, dtype=float))
    hw = svec(np.asarray(HW, dtype=float))
    xi = np.asarray(xi, dtype=float).ravel()
    bZ, bxi, bW = _qsdp_rhs(q, sigma, Y)
    d = q.dim

    use_w = q.H.any()
    if use_w:
        Hfac = cho_factor(np.eye(d) / sigma + q.H, lower=True)
    Bfac = cho_factor(q.B @ q.B.T, lower=True)

    # backward sweep
    if use_w:
        hw_p = cho_solve(Hfac, bW / sigma - q.H @ z - q.H @ (q.B.T @ xi))
    else:
        hw_p = np.zeros(d)
    xi_p = cho_solve(Bfac, bxi / sigma - q.B @ z - q.B @ hw_p)
    # first block: PSD projection
    z_new = prox(ProxSpec.psd_cone(q.n), 1.0, bZ / sigma - q.B.T @ xi_p - hw_p)
    Z_new = smat(z_new, q.n)
    # forward sweep
    xi_new = cho_solve(Bfac, bxi / sigma - q.B @ z_new - q.B @ hw_p)
    if use_w:
        hw_new = cho_solve(Hfac, bW / sigma - q.H @ z_new - q.H @ (q.B.T @ xi_new))
    else:
        hw_new = np.zeros(d)
    return Z_new, xi_new, smat(hw_new, q.n)
