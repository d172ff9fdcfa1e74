"""One-cycle block symmetric Gauss-Seidel (and over-relaxed) solvers for
convex composite quadratic subproblems.

A cycle runs a backward block sweep, an exact first-block minimization,
and a forward block sweep.  Its output is not an approximation: it is the
*exact* minimizer of the proximal subproblem

    p(x_1) + 0.5 <x, Q x> - <b, x> + 0.5 ||x - xbar||_T^2 - <x, Delta>

where ``T`` is the cycle's majorizer weight and ``Delta`` aggregates the
per-block solve errors.  Exact block solves give ``Delta = 0``; inexact
ones report honest residual vectors from which ``Delta`` and its weighted
norm bound are formed.

With no nonsmooth term (``p = 0``) and exact solves the cycle is, by the
block sGS decomposition theorem, the step ``x+ = xbar + Qhat^{-1}(b_e - A
xbar)``.  That case skips the sweeps: with the majorizer's factor ``Qhat =
Y Y^T`` it is one product with the (shifted) operator ``A`` and three
triangular solves, ``z = Y^{-1}(b_e - A xbar)``, ``x+ = xbar + Y^{-T} z``
and ``x' = xbar + c^{-1/2} T^{-T} z``.
"""

import numpy as np
from dataclasses import dataclass

from scipy.linalg.blas import dtrsv

from .blockla import (BlockVector, block_split, finite, finite_real,
                      int_at_least, sgs_operator, sweep)
from .errors import (
    DimensionMismatch,
    FirstBlockMismatch,
    IdentityViolation,
    InvalidParams,
)
from .proxmap import (ProxSpec, prepare_block1, prox_value, solve_block1,
                      subgrad_residual)

__all__ = [
    "CompositeQP",
    "CycleResult",
    "ExactMode",
    "IterativeMode",
    "NoisyMode",
    "sgs_cycle",
    "ssor_cycle",
    "classical_sgs_step",
    "perturbation",
    "exact_xi",
    "error_bound",
    "subproblem_kkt",
    "SsorTuning",
    "ssor_tuning",
]


@dataclass(frozen=True)
class ExactMode:
    """Solve every block system with the cached factorization."""


@dataclass(frozen=True)
class IterativeMode:
    """Solve block systems by conjugate gradients from a zero start.

    ``rel_tol`` is the relative residual target per block, finite and
    positive; a block that still misses it after ``max_inner`` (an int
    ``>= 1``) iterations is flagged as stalled (its honest residual is
    reported either way).  Other values raise :class:`InvalidParams`.
    """

    rel_tol: float = 1e-8
    max_inner: int = 500

    def __post_init__(self):
        finite_real(self.rel_tol, "rel_tol", positive=True)
        int_at_least(self.max_inner, "max_inner", 1)


@dataclass(frozen=True)
class NoisyMode:
    """Exact solves followed by a random relative perturbation.

    A certification aid: it produces cycles with nonzero, honestly
    reported residual vectors without any iterative solver in the loop.
    The first block is never perturbed.  ``scale`` must be finite and
    ``>= 0``, ``seed`` an int ``>= 0``; other values raise
    :class:`InvalidParams`.
    """

    seed: int = 0
    scale: float = 1e-6

    def __post_init__(self):
        finite_real(self.scale, "scale")
        int_at_least(self.seed, "seed", 0)


def _as_mode(mode):
    if isinstance(mode, (ExactMode, IterativeMode, NoisyMode)):
        return mode
    if mode == "exact":
        return ExactMode()
    raise InvalidParams(f"unknown cycle mode {mode!r}")


class CompositeQP:
    """A convex composite quadratic program on a block-partitioned space.

    Minimize ``p(x_1) + 0.5 <x, Q x> - <b, x>`` where ``p`` is one of the
    supported proximal kinds.  Optional PSD diagonal shifts ``J_i`` are
    folded into the sweeps (they enlarge the proximal weight, never the
    objective); a nonsmooth ``p`` whose ``Q_11`` is not a multiple of the
    identity needs ``J_1 = ||Q_11|| I - Q_11`` to become solvable.  ``b``
    and the shifts must be finite (:class:`NonFinite` otherwise).

    Parameters
    ----------
    Q : BlockSymOperator
    b : BlockVector or array_like
    p : ProxSpec
    shifts : list of (ndarray or None), optional
    """

    def __init__(self, Q, b, p=None, shifts=None):
        self.Q = Q
        part = Q.partition
        if not isinstance(b, BlockVector):
            b = BlockVector(part, b)
        if b.partition.dims != part.dims:
            raise DimensionMismatch("b is partitioned differently from Q")
        finite(b.data, "b")
        self.b = b
        self.prox = p if p is not None else ProxSpec.zero()
        want = self.prox.block_dim()
        if want is not None and want != part.dims[0]:
            raise DimensionMismatch(
                f"prox kind {self.prox.kind!r} needs first block of length "
                f"{want}, partition has {part.dims[0]}"
            )
        if shifts is not None:
            if len(shifts) != part.s:
                raise DimensionMismatch(
                    f"expected {part.s} shifts, got {len(shifts)}"
                )
            shifts = [None if J is None else finite(J, f"shift {i}")
                      for i, J in enumerate(shifts)]
            if all(J is None for J in shifts):
                shifts = None
        self.shifts = shifts
        self._majs = {}
        self._heads = {}

    @property
    def partition(self):
        return self.Q.partition

    @property
    def shifted_Q(self):
        """``Q + diag(J_i)`` (``Q`` itself when unshifted): the operator of
        the Gauss-Seidel majorizer, so a problem holds one shifted copy."""
        return self.majorizer().eff

    def majorizer(self, kind="sgs", omega=None):
        """The cached majorizer of ``kind``; ``omega`` keys "ssor" only."""
        key = (kind, omega if kind == "ssor" else None)
        if key not in self._majs:
            if kind == "sgs":
                self._majs[key] = sgs_operator(self.Q, self.shifts)
            elif kind == "ssor":
                self._majs[key] = self.majorizer().relaxed(omega)
            else:
                raise InvalidParams(f"unknown majorizer kind {kind!r}")
        return self._majs[key]

    def _head(self, maj):
        """The cycle's first-block quadratic ``(tau^2/rho) Dhat_11`` for the
        majorizer ``maj``, prepared once by :func:`prepare_block1`."""
        if maj not in self._heads:
            A00 = (maj._a * maj._a / maj._c) * maj.eff.block(0, 0)
            self._heads[maj] = prepare_block1(self.prox, A00)
        return self._heads[maj]

    def effective_b(self, xbar):
        """``b + diag(J) xbar`` — the sweeps' right-hand side."""
        if self.shifts is None:
            return self.b
        out = self.b.copy()
        for i, J in enumerate(self.shifts):
            if J is not None:
                out.set_block(i, out.block(i) + J @ xbar.block(i))
        return out

    def objective(self, x, Qx=None):
        """``F(x) = p(x_1) + 0.5 <x, Q x> - <b, x>`` (original operator);
        ``Qx``, when given, is the precomputed product ``Q x``."""
        vec = np.asarray(x, dtype=float)
        n1 = self.partition.dims[0]
        head = prox_value(self.prox, vec[:n1])
        if not np.isfinite(head):
            return np.inf
        if Qx is None:
            Qx = self.Q.matvec(vec)
        return float(head + 0.5 * (vec @ Qx) - self.b.data @ vec)

    def kkt_residual(self, x, Qx=None):
        """Distance of ``b - Q x`` from ``partial p(x_1) x {0} x ...``;
        ``Qx`` as in :meth:`objective`."""
        vec = np.asarray(x, dtype=float)
        r = self.b.data - (self.Q.matvec(vec) if Qx is None else Qx)
        n1 = self.partition.dims[0]
        head = subgrad_residual(self.prox, vec[:n1], r[:n1])
        if not np.isfinite(head):
            return np.inf
        return float(np.hypot(head, np.linalg.norm(r[n1:])))


@dataclass
class CycleResult:
    """Everything one cycle produced, with its error certificates.

    ``x_prime`` holds the backward-sweep intermediates (its first block
    equals ``x_plus``'s for the Gauss-Seidel kind); ``delta_prime`` and
    ``delta`` are the realized backward/forward residuals, ``Delta``
    their aggregate perturbation, and ``xi``/``xi_bound`` the exact and
    bounding values of ``||Qhat^{-1/2} Delta||``.
    """

    x_plus: BlockVector
    x_prime: BlockVector
    delta_prime: BlockVector
    delta: BlockVector
    gamma1: np.ndarray
    Delta: BlockVector
    xi: float
    xi_bound: float
    variant: str = "sgs"
    omega: float = None
    stalled: tuple = ()
    reused: tuple = ()
    inner_iters: tuple = ()

    @property
    def delta_tilde_norm(self):
        return self.delta_prime.norm()

    @property
    def delta_norm(self):
        return self.delta.norm()


def cg(A, b, *, rtol, maxiter, callback):
    """Conjugate gradients on a dense SPD ``A`` from a zero start.

    The recurrence and stopping test are those of SciPy's ``cg``
    without a preconditioner, so iterates, iteration counts and ``info``
    agree bit for bit; only the operator wrapping is gone.  Stops once
    ``||r|| < rtol ||b||``, checked before each iteration;
    ``callback(x)`` runs after each one.  Returns ``(x, 0)``, or
    ``(x, maxiter)`` when the cap is reached.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    bnrm = np.linalg.norm(b)
    if bnrm == 0.0:
        return x, 0
    tol = float(rtol) * float(bnrm)
    r = b.copy()
    p = None
    rho_prev = None
    for _ in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < tol:
            return x, 0
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = A.dot(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        callback(x)
    return x, maxiter


def _cg_solve(M, rhs, rel_tol, max_inner):
    iters = [0]

    def _cb(_):
        iters[0] += 1

    x, info = cg(M, rhs, rtol=rel_tol, maxiter=max_inner, callback=_cb)
    return x, iters[0], info != 0


def _cycle(prob, xbar, mode, maj, reuse_c=None):
    """One cycle of ``prob`` at ``xbar`` with the majorizer ``maj`` of
    ``prob``, which fixes the outer scale ``tau``, the middle scale ``rho``
    and the relaxation ``omega`` (None for the Gauss-Seidel kind)."""
    mode = _as_mode(mode)
    part = prob.partition
    s, off, n1 = part.s, part.offsets, part.dims[0]
    A, tau, rho, omega = maj.eff, maj._a, maj._c, maj.omega
    variant = "sgs" if omega is None else "ssor"
    if not isinstance(xbar, BlockVector):
        xbar = BlockVector(part, xbar)
    xb = xbar.data
    be = prob.effective_b(xbar).data
    if isinstance(mode, ExactMode) and prob.prox.kind == "zero" and reuse_c is None:
        # no head term to minimize: the factored step of the module docstring
        Y, T = maj.factor()
        z = dtrsv(Y, be - A.matvec(xb))
        return CycleResult(
            x_plus=BlockVector(part, xb + dtrsv(Y, z, trans=1)),
            x_prime=BlockVector(part, xb + rho ** -0.5 * dtrsv(T, z, trans=1)),
            delta_prime=BlockVector.zeros(part), delta=BlockVector.zeros(part),
            gamma1=np.zeros(n1), Delta=BlockVector.zeros(part), xi=0.0,
            xi_bound=0.0, variant=variant, omega=omega, inner_iters=(0,) * s)
    _, low, _, diag = A.panels()
    head = prob._head(maj)
    rng = np.random.default_rng(mode.seed) if isinstance(mode, NoisyMode) else None

    dprime = np.zeros(part.total)     # backward residuals
    delta = np.zeros(part.total)      # forward residuals
    stalled = []
    inner = [0] * s
    gamma1 = None

    def cg_block(i, M, rhs, resid):
        x, it, stall = _cg_solve(M, rhs, mode.rel_tol, mode.max_inner)
        resid[off[i]:off[i + 1]] = M @ x - rhs
        inner[i] += it
        if stall:
            stalled.append(i)
        return x

    def solve_block(i, rhs, resid):
        """Solve ``tau * A_ii x = rhs`` per mode; an inexact solve writes
        its honest residual into block ``i`` of ``resid``."""
        if isinstance(mode, IterativeMode):
            return cg_block(i, tau * diag[i], rhs, resid)
        x = A.diag_solve(i, rhs) / tau
        if rng is not None:
            # exact solve plus a relative perturbation, honest residual
            noise = rng.standard_normal(x.shape[0])
            x = x + mode.scale * max(1.0, np.linalg.norm(x)) * noise / max(
                np.linalg.norm(noise), np.finfo(float).tiny
            )
            resid[off[i]:off[i + 1]] = tau * (diag[i] @ x) - rhs
        return x

    def backward(i, rhs):
        """Blocks s..2 per mode; block 1 is the exact composite minimization,
        returning the backward intermediate ``x'_1``."""
        nonlocal gamma1
        if i > 0:
            return solve_block(i, rhs, dprime)
        # ``rhs`` holds ``-(1 - tau) A_11 xbar_1``; the head needs
        # ``+((1 - tau)^2 / rho) A_11 xbar_1`` instead
        c1 = rhs if tau == 1.0 else rhs + ((1.0 - tau) * tau / rho) * (
            diag[0] @ xb[:n1])
        if prob.prox.kind == "zero" and isinstance(mode, IterativeMode):
            x1 = cg_block(0, head.A, c1, dprime)
            gamma1 = np.zeros_like(x1)
        else:
            x1, gamma1 = solve_block1(prob.prox, head, c1)
        delta[:n1] = dprime[:n1]
        xplus[:n1] = x1
        if tau == 1.0:
            return x1
        # backward row-1 identity recovers the intermediate first block
        return A.diag_solve(0, rhs + dprime[:n1] - gamma1) / tau

    xplus = np.empty(part.total)
    xp = sweep(A, be, tau, lower=False, w=xb, solve=backward)

    reuse_thresh = None
    reused = []
    if reuse_c is not None:
        reuse_thresh = (reuse_c / np.sqrt(s)) * np.linalg.norm(dprime)

    def forward(i, rhs):
        if reuse_thresh is None:
            return solve_block(i, rhs, delta)
        sl = part.slice(i)
        coupling = low[i] @ (xplus[:off[i]] - xb[:off[i]])
        if np.linalg.norm(coupling) <= reuse_thresh:
            delta[sl] = dprime[sl] + coupling
            reused.append(i)
            return xp[sl]
        # under reuse the fresh path must stay exact so the enlarged
        # error budget remains certifiable
        return A.diag_solve(i, rhs) / tau

    sweep(A, be, tau, lower=True, w=xp, solve=forward, start=1, out=xplus)

    dp_vec = BlockVector(part, dprime)
    d_vec = BlockVector(part, delta)
    if dp_vec.norm() == 0.0 and d_vec.norm() == 0.0:
        Dl = BlockVector.zeros(part)
        xi = 0.0
        bound = 0.0
    else:
        Dl = BlockVector(part, maj.perturbation(dprime, delta))
        xi = maj.quad_norm(Dl.data, "Qhat_inv")
        bound = error_bound(maj, dprime, delta, check=False)
    return CycleResult(
        x_plus=BlockVector(part, xplus),
        x_prime=BlockVector(part, xp),
        delta_prime=dp_vec,
        delta=d_vec,
        gamma1=gamma1,
        Delta=Dl,
        xi=xi,
        xi_bound=bound,
        variant=variant,
        omega=omega,
        stalled=tuple(sorted(stalled)),
        reused=tuple(reused),
        inner_iters=tuple(inner),
    )


def sgs_cycle(prob, xbar, mode="exact", forward_reuse=None):
    """One backward/forward symmetric Gauss-Seidel cycle at ``xbar``.

    Parameters
    ----------
    prob : CompositeQP
    xbar : BlockVector or array_like
    mode : ExactMode, IterativeMode, NoisyMode or "exact"
    forward_reuse : float or None
        When set (a positive constant ``c``), forward-sweep blocks whose
        coupling change is within ``(c/sqrt(s)) ||delta_prime||`` keep
        their backward intermediates; rejected blocks are recomputed with
        the direct factorization.

    Returns
    -------
    CycleResult
        Its ``x_plus`` exactly minimizes the proximal subproblem at
        ``xbar`` perturbed by the reported ``Delta``.
    """
    if forward_reuse is not None:
        finite_real(forward_reuse, "forward_reuse", positive=True)
    return _cycle(prob, xbar, mode, prob.majorizer(), reuse_c=forward_reuse)


def ssor_cycle(prob, xbar, omega, mode="exact"):
    """One symmetric over-relaxed cycle, ``omega in [1, 2)``.

    At ``omega = 1`` this coincides with :func:`sgs_cycle` (the code path
    is the over-relaxed one; the arithmetic agrees exactly).
    """
    return _cycle(prob, xbar, mode, prob.majorizer("ssor", omega))


def classical_sgs_step(Q, b, xk, maj=None):
    """Fixed-point step ``x + Qhat^{-1} (b - Q x)`` of the classical
    symmetric Gauss-Seidel iteration (no nonsmooth term involved)."""
    maj = maj if maj is not None else sgs_operator(Q)
    x = np.asarray(xk, dtype=float)
    step = maj.solve_Qhat(np.asarray(b, dtype=float) - Q.matvec(x))
    return BlockVector(Q.partition, x + step)


def perturbation(maj, delta_prime, delta):
    """Aggregate perturbation vector of an inexact cycle.

    The two residual vectors must agree exactly on the first block
    (the first block is solved once per cycle); otherwise
    :class:`FirstBlockMismatch` is raised.
    """
    dp, d = BlockVector(maj.partition, delta_prime), BlockVector(maj.partition, delta)
    if not np.array_equal(dp.block(0), d.block(0)):
        raise FirstBlockMismatch(
            "backward and forward residuals differ on the first block"
        )
    return BlockVector(maj.partition, maj.perturbation(dp, d))


def exact_xi(maj, delta_prime, delta):
    """``||Qhat^{-1/2} Delta(delta', delta)||`` computed exactly."""
    return maj.quad_norm(perturbation(maj, delta_prime, delta), "Qhat_inv")


def error_bound(maj, delta_prime, delta, check=True):
    """Upper bound on ``||Qhat^{-1/2} Delta||`` from the raw residuals.

    Returns ``||M^{-1/2}(delta - delta')|| + ||Qhat^{-1/2} delta'||``
    where ``M`` is the majorizer's middle diagonal.  With ``check`` the
    exact value is recomputed and must not exceed the bound (beyond
    1e-12); a violation raises :class:`IdentityViolation`.
    """
    dp, d = BlockVector(maj.partition, delta_prime), BlockVector(maj.partition, delta)
    bound = maj.dinv_norm(d.data - dp.data) + maj.quad_norm(dp.data, "Qhat_inv")
    if check:
        xi = exact_xi(maj, dp, d)
        if xi > bound + 1e-12 * max(1.0, bound):
            raise IdentityViolation(
                f"exact perturbation norm {xi:.16e} exceeds its bound "
                f"{bound:.16e}",
                magnitude=xi - bound,
            )
    return bound


def subproblem_kkt(prob, xbar, result):
    """Composite KKT residual of ``result.x_plus`` for the proximal
    subproblem it claims to minimize (with its own ``Delta``)."""
    maj = prob.majorizer(result.variant, result.omega)
    x = result.x_plus.data
    r = (prob.b.data + maj.apply_T(np.asarray(xbar, dtype=float) - x)
         - prob.Q.matvec(x) + result.Delta.data)
    n1 = prob.partition.dims[0]
    head = subgrad_residual(prob.prox, x[:n1], r[:n1])
    if not np.isfinite(head):
        return np.inf
    return float(np.hypot(head, np.linalg.norm(r[n1:])))


@dataclass(frozen=True)
class SsorTuning:
    """Best relaxation parameter and its guaranteed per-step rate.

    ``gamma`` is the largest constant with ``gamma D <= Q`` and
    ``Gamma/4`` the smallest with ``(D/2 + U) D^{-1} (D/2 + U^T) <=
    (Gamma/4) Q`` — both by generalized eigenvalues.  The optimal
    relaxation is ``2 / (1 + sqrt(gamma Gamma))`` (clamped into the
    admissible interval) and the predicted contraction per step is
    ``(1 - sqrt(gamma/Gamma)) / (1 + sqrt(gamma/Gamma))``.
    """

    gamma: float
    Gamma: float
    omega_star: float
    rate_bound: float


def ssor_tuning(Q):
    from scipy.linalg import eigh, solve as _dsolve

    Qd = Q.dense()
    scale = max(np.linalg.norm(Qd, 2), np.finfo(float).tiny)
    if np.linalg.eigvalsh(Qd).min() <= 1e-10 * scale:
        from .errors import NotPD
        raise NotPD("relaxation tuning needs a positive definite operator")
    Dd, U = block_split(Q)
    gamma = float(eigh(Qd, Dd, eigvals_only=True).min())
    half = 0.5 * Dd + U
    W = half @ _dsolve(Dd, half.T, assume_a="pos")
    Gamma = 4.0 * float(eigh(0.5 * (W + W.T), Qd, eigvals_only=True).max())
    root = np.sqrt(gamma * Gamma)
    omega = min(max(2.0 / (1.0 + root), 1.0), 2.0 - 1e-9)
    g = np.sqrt(gamma / Gamma)
    return SsorTuning(gamma=gamma, Gamma=Gamma, omega_star=float(omega),
                      rate_bound=float((1.0 - g) / (1.0 + g)))
