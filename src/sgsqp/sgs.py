"""One-cycle block symmetric Gauss-Seidel (and over-relaxed) solvers for
convex composite quadratic subproblems.

A cycle runs a backward block sweep, an exact first-block minimization,
and a forward block sweep.  Its output is not an approximation: it is the
*exact* minimizer of the proximal subproblem

    p(x_1) + 0.5 <x, Q x> - <b, x> + 0.5 ||x - xbar||_T^2 - <x, Delta>

where ``T`` is the cycle's majorizer weight and ``Delta`` aggregates the
per-block solve errors.  Exact block solves give ``Delta = 0``; inexact
ones report honest residual vectors, from which the result forms ``Delta``
and its weighted norm bound when they are first read.

By the block sGS decomposition theorem a cycle is the step ``x+ = xbar +
Qhat^{-1}(b_e - A xbar)``, ``A = Q + diag(J)`` and ``b_e = b + diag(J)
xbar``, with the head prox in the middle.  So a cycle works on the
residual ``r = b_e - A xbar``, from ``Q xbar`` or a caller's hand-over of
it.  With ``A = Dhat + U + U^*`` the backward sweep solves ``(tau Dhat +
U) d = r`` for ``d = x' - xbar`` and the forward sweep ``(tau Dhat + U^*)
e = r - U d - (1 - tau) Dhat d`` for ``e = x+ - xbar``: each reads one
triangle, so each off-diagonal block is read once (Eisenstat's trick).
With ``p = 0`` and exact solves the step is two solves with ``Y``, the
majorizer's only factor (``Qhat = Y Y^T``): ``z = Y^{-1} r``, ``x+ = xbar
+ Y^{-T} z``, and on first read ``x' = xbar + c^{-1/2} T^{-T} z``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, solve as dense_solve
from scipy.linalg.blas import dtrsv

from .blockla import (BlockVector, Majorizer, block_split, dense_pd, finite,
                      finite_real, int_at_least, relaxation, sgs_operator,
                      sweep)
from .errors import DimensionMismatch, InvalidParams
from .proxmap import (Block1, ProxSpec, kkt_distance, prepare_block1,
                      prox_value, solve_block1)

__all__ = [
    "CompositeQP",
    "CycleResult",
    "ExactMode",
    "IterativeMode",
    "NoisyMode",
    "sgs_cycle",
    "classical_sgs_step",
    "subproblem_kkt",
    "SsorTuning",
    "ssor_tuning",
]


@dataclass(frozen=True)
class ExactMode:
    """Solve every block system with the cached factorization."""


@dataclass(frozen=True)
class IterativeMode:
    """Solve each block's correction ``x_i - xbar_i`` by conjugate
    gradients from a zero start.

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

    def majorizer(self, omega=None):
        """The cached majorizer: Gauss-Seidel for ``omega=None`` (also
        spelled ``"sgs"``, as the benchmark harness does), else over-relaxed
        with ``omega`` checked by :func:`~sgsqp.blockla.relaxation`."""
        if isinstance(omega, str) and omega == "sgs":
            omega = None
        key = None if omega is None else relaxation(omega)
        if key not in self._majs:
            self._majs[key] = (sgs_operator(self.Q, self.shifts) if key is None
                               else self.majorizer().relaxed(key))
        return self._majs[key]

    def _head(self, maj):
        """The cycle's first-block quadratic ``(tau^2/rho) Dhat_11`` for the
        majorizer ``maj``, kept once: as is for the zero head, which solves
        with the operator's factor, else prepared by :func:`prepare_block1`."""
        if maj not in self._heads:
            A00 = (maj._a * maj._a / maj._c) * maj.eff.block(0, 0)
            self._heads[maj] = (Block1(A00) if self.prox.kind == "zero"
                                else prepare_block1(self.prox, A00))
        return self._heads[maj]

    def effective_b(self, xbar):
        """``b + diag(J) xbar`` — the sweeps' right-hand side."""
        if self.shifts is None:
            return self.b
        return BlockVector(self.partition,
                           self.majorizer().plus_shift(self.b.data, xbar.data))

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
        return kkt_distance(self.prox, vec, r, self.partition.dims[0])


@dataclass
class CycleResult:
    """Everything one cycle produced; its certificates on demand.

    ``x_prime`` holds the backward-sweep intermediates (its first block
    equals ``x_plus``'s when ``omega`` is None or 1).  ``backward`` is the
    sweep's ``x_prime`` itself, or the factored step's pair ``(xbar, z)``
    from which ``x_prime = xbar + c^{-1/2} T^{-T} z`` is solved on first
    read by the operator's ``factor_solve``; ``xbar`` is a copy, so a
    caller may reuse its centre.  ``delta_prime`` and ``delta`` are the
    realized backward/forward residuals, equal on block 1 by construction,
    and ``maj`` is the cycle's majorizer.  ``Delta``, their aggregate
    perturbation, and ``xi``/``xi_bound``, the exact and bounding values of
    ``||Qhat^{-1/2} Delta||``, are computed from ``maj`` when first read;
    the bound is ``||M^{-1/2}(delta - delta')|| + ||Qhat^{-1/2} delta'||``,
    ``M`` the majorizer's middle diagonal.
    """

    x_plus: BlockVector
    backward: object
    delta_prime: BlockVector
    delta: BlockVector
    gamma1: np.ndarray
    maj: Majorizer
    stalled: tuple = ()
    reused: tuple = ()
    inner_iters: tuple = ()

    @property
    def omega(self):
        return self.maj.omega

    @cached_property
    def x_prime(self):
        if isinstance(self.backward, BlockVector):
            return self.backward
        centre, z = self.backward
        step = self.maj.eff.factor_solve(z, trans=True)
        return BlockVector(self.maj.partition, centre + self.maj._c ** -0.5 * step)

    @property
    def delta_tilde_norm(self):
        return self.delta_prime.norm()

    @property
    def delta_norm(self):
        return self.delta.norm()

    @cached_property
    def Delta(self):
        return BlockVector(self.maj.partition,
                           self.maj.perturbation(self.delta_prime, self.delta))

    @cached_property
    def xi(self):
        return self.maj.quad_norm(self.Delta, "Qhat_inv")

    @cached_property
    def xi_bound(self):
        return (self.maj.dinv_norm(self.delta.data - self.delta_prime.data)
                + self.maj.quad_norm(self.delta_prime, "Qhat_inv"))


def cg(A, b, *, rtol, maxiter, callback):
    """Conjugate gradients on a dense SPD ``A`` from a zero start.

    The recurrence and stopping test are those of SciPy's ``cg``
    without a preconditioner, so iterates, iteration counts and ``info``
    agree bit for bit; only the operator wrapping is gone.  The one
    exception is an ``||b||`` that underflows to zero for a nonzero
    ``b``: SciPy then returns ``b``, this kernel returns zeros.  Stops
    once ``||r|| < rtol ||b||``, checked before each iteration;
    ``callback(x)`` runs after each one.  Returns ``(x, 0)``, or
    ``(x, maxiter)`` when the cap is reached.

    The state lives in two stacked buffers, ``[x; s]`` with ``s = -r``
    and ``[p; A p]``, so ``x += alpha p`` and ``r -= alpha A p`` are one
    scaled copy and one add.  Negation is exact and rounding symmetric,
    so every iterate is the textbook recurrence's to the bit.
    """
    b = np.asarray(b, dtype=float)
    xs = np.zeros((2,) + b.shape)
    x, s = xs
    bb = b.dot(b)
    if bb == 0.0:
        return x, 0
    tol = float(rtol) * math.sqrt(bb)     # np.linalg.norm of a 1-D b
    np.negative(b, out=s)
    pq = np.empty_like(xs)
    p, q = pq
    p[...] = b
    step = np.empty_like(xs)
    rho_prev = None
    for _ in range(maxiter):
        rho = s.dot(s)
        if math.sqrt(rho) < tol:
            return x, 0
        if rho_prev is not None:
            p *= rho / rho_prev
            p -= s
        A.dot(p, out=q)
        # numpy scalars: an underflowed p.Ap divides to inf/nan, as SciPy's
        alpha = rho / p.dot(q)
        np.multiply(pq, alpha, out=step)
        xs += step
        rho_prev = rho
        callback(x)
    return x, maxiter


def _cycle(prob, xbar, mode, maj, reuse_c=None, Qxbar=None):
    """One cycle of ``prob`` at ``xbar`` with the majorizer ``maj`` of
    ``prob``, which fixes the outer scale ``tau``, the middle scale ``rho``
    and the relaxation ``omega`` (None for Gauss-Seidel).  Both
    paths take the residual ``r`` from ``Qxbar = Q xbar`` (unshifted ``Q``),
    one product when it is not handed over."""
    mode = _as_mode(mode)
    if not isinstance(xbar, BlockVector):
        xbar = BlockVector(prob.partition, xbar)
    xb, be = xbar.data, prob.effective_b(xbar).data
    r = be - maj.plus_shift(prob.Q.matvec(xb) if Qxbar is None else Qxbar, xb)
    if isinstance(mode, ExactMode) and prob.prox.kind == "zero" and reuse_c is None:
        return _factored_step(prob, xb, r, maj)
    return _sweep_cycle(prob, xb, r, mode, maj, reuse_c)


def _factored_step(prob, xb, r, maj):
    """The exact cycle with no head term: the factored step of the module
    docstring, two solves with ``Y`` on the residual ``r``."""
    part = prob.partition
    Y = maj.factor()
    z = dtrsv(Y, r)
    return CycleResult(
        x_plus=BlockVector(part, xb + dtrsv(Y, z, trans=1)),
        backward=(xb.copy(), z),
        delta_prime=BlockVector.zeros(part), delta=BlockVector.zeros(part),
        gamma1=np.zeros(part.dims[0]), maj=maj, inner_iters=(0,) * part.s)


def _sweep_cycle(prob, xb, r, mode, maj, reuse_c):
    """Backward sweep, head-block minimization and forward sweep for the
    corrections ``x' - xbar`` and ``x+ - xbar`` from the residual ``r``."""
    part = prob.partition
    s, off, n1 = part.s, part.offsets, part.dims[0]
    A, tau = maj.eff, maj._a
    diag = A.panels()[3]
    head = prob._head(maj)
    rng = np.random.default_rng(mode.seed) if isinstance(mode, NoisyMode) else None

    dprime, delta = np.zeros((2, part.total))     # backward/forward residuals
    rb = np.empty(part.total)         # backward right-hand sides, r - U d
    stalled, inner = [], [0] * s
    x1 = gamma1 = None

    def cg_block(i, M, rhs, resid):
        def count(_):
            inner[i] += 1

        # through the module global, so a wrapper installed on ``cg`` sees it
        x, info = cg(M, rhs, rtol=mode.rel_tol, maxiter=mode.max_inner,
                     callback=count)
        resid[off[i]:off[i + 1]] = M @ x - rhs
        if info:
            stalled.append(i)
        return x

    # ``tau * A_ii`` for blocks 2..s, formed once for both sweeps
    scaled = ([None] + [tau * d for d in diag[1:]]
              if isinstance(mode, IterativeMode) else None)

    def solve_block(i, rhs, resid):
        """Solve ``tau * A_ii d = rhs`` per mode; an inexact solve writes
        its honest residual into block ``i`` of ``resid``."""
        if scaled is not None:
            return cg_block(i, scaled[i], rhs, resid)
        d = A.diag_solve(i, rhs) / tau
        if rng is not None:
            # exact solve plus a relative perturbation, honest residual
            noise = rng.standard_normal(d.shape[0])
            size = max(1.0, np.linalg.norm(xb[off[i]:off[i + 1]] + d))
            d = d + mode.scale * size * noise / max(
                np.linalg.norm(noise), np.finfo(float).tiny)
            resid[off[i]:off[i + 1]] = tau * (diag[i] @ d) - rhs
        return d

    def backward(i, rhs):
        """Blocks s..2 per mode; block 1 is the exact composite minimization
        with ``c_1 = rhs + H xbar_1``, ``H = (tau^2/rho) Dhat_11``, its
        output ``x1`` kept as returned so an indicator head stays feasible."""
        nonlocal x1, gamma1
        rb[off[i]:off[i + 1]] = rhs
        if i > 0:
            return solve_block(i, rhs, dprime)
        xb1 = xb[:n1]
        if head.mu is not None:      # nonsmooth head, ``H = mu I``
            x1, gamma1 = solve_block1(prob.prox, head, rhs + head.mu * xb1)
        elif isinstance(mode, IterativeMode):
            x1, gamma1 = xb1 + cg_block(0, head.A, rhs, dprime), np.zeros(n1)
        else:       # zero head: ``e = H^{-1} rhs`` by the operator's factor
            e = A.diag_solve(0, rhs) * (maj._c / tau ** 2)
            x1, gamma1 = xb1 + e, rhs - head.A @ e
        delta[:n1] = dprime[:n1]
        if tau == 1.0:
            return x1 - xb1
        # backward row-1 identity recovers the intermediate's correction
        return A.diag_solve(0, rhs + dprime[:n1] - gamma1) / tau

    d = sweep(A, r, tau, lower=False, solve=backward)

    # forward right-hand sides ``rb - (1 - tau) Dhat d``
    if tau != 1.0:
        for i in range(1, s):
            rb[off[i]:off[i + 1]] -= (1.0 - tau) * (diag[i] @ d[off[i]:off[i + 1]])

    reused = []
    reuse_thresh = (None if reuse_c is None
                    else (reuse_c / np.sqrt(s)) * np.linalg.norm(dprime))

    def forward(i, rhs):
        if reuse_thresh is None:
            return solve_block(i, rhs, delta)
        sl = part.slice(i)
        coupling = rb[sl] - rhs       # ``L_i (x+ - xbar)``, the sweep's product
        if np.linalg.norm(coupling) <= reuse_thresh:
            delta[sl] = dprime[sl] + coupling
            reused.append(i)
            return d[sl]
        # under reuse the fresh path must stay exact so the enlarged
        # error budget remains certifiable
        return A.diag_solve(i, rhs) / tau

    step = np.concatenate((x1 - xb[:n1], np.empty(part.total - n1)))
    sweep(A, rb, tau, lower=True, solve=forward, start=1, out=step)

    xplus, xp = xb + step, xb + d
    xplus[:n1] = x1
    if tau == 1.0:
        xp[:n1] = x1
    return CycleResult(
        x_plus=BlockVector(part, xplus), backward=BlockVector(part, xp),
        delta_prime=BlockVector(part, dprime), delta=BlockVector(part, delta),
        gamma1=gamma1, maj=maj, stalled=tuple(sorted(stalled)),
        reused=tuple(reused), inner_iters=tuple(inner))


def sgs_cycle(prob, xbar, mode="exact", *, omega=None, forward_reuse=None,
              Qxbar=None):
    """One backward/forward symmetric Gauss-Seidel cycle at ``xbar``.

    Parameters
    ----------
    prob : CompositeQP
    xbar : BlockVector or array_like
    mode : ExactMode, IterativeMode, NoisyMode or "exact"
    omega : float or None
        ``None`` for the Gauss-Seidel majorizer, a real in ``[1, 2)`` for
        the over-relaxed one (:meth:`CompositeQP.majorizer`); at ``omega =
        1`` the arithmetic agrees exactly with ``None``.
    forward_reuse : float or None
        When set (a positive constant ``c``), forward-sweep blocks whose
        coupling change is within ``(c/sqrt(s)) ||delta_prime||`` keep
        their backward intermediates; rejected blocks are recomputed with
        the direct factorization.  Gauss-Seidel only: the reused residual
        omits ``(1 - tau) Dhat d``, so with ``omega`` set it raises
        :class:`InvalidParams`.
    Qxbar : array_like or None
        Data, not an option: ``Q xbar`` (unshifted ``Q``) from a caller
        that holds it, so the cycle makes no product.  It is taken as
        given, checked only for its length and finiteness.

    Returns
    -------
    CycleResult
        Its ``x_plus`` exactly minimizes the proximal subproblem at
        ``xbar`` perturbed by the reported ``Delta``.

    A centre or ``Qxbar`` holding NaN or inf raises :class:`NonFinite`.
    """
    maj = prob.majorizer(omega)
    if forward_reuse is not None:
        if maj.omega is not None:
            raise InvalidParams("forward_reuse needs the Gauss-Seidel majorizer")
        finite_real(forward_reuse, "forward_reuse", positive=True)
    if Qxbar is not None:
        Qxbar = BlockVector(prob.partition, finite(Qxbar, "Qxbar")).data
    return _cycle(prob, finite(xbar, "xbar"), mode, maj,
                  reuse_c=forward_reuse, Qxbar=Qxbar)


def classical_sgs_step(Q, b, xk, maj=None):
    """Fixed-point step ``x + Qhat^{-1} (b - Q x)`` of the classical
    symmetric Gauss-Seidel iteration (no nonsmooth term involved); a ``b``
    of the wrong length raises :class:`DimensionMismatch`, and ``b`` or
    the centre ``xk`` holding NaN or inf :class:`NonFinite`."""
    maj = maj if maj is not None else sgs_operator(Q)
    x, b = finite(xk, "xk"), finite(BlockVector(Q.partition, b), "b")
    step = maj.solve_Qhat(b - Q.matvec(x))
    return BlockVector(Q.partition, x + step)


def subproblem_kkt(prob, xbar, result):
    """Composite KKT residual of ``result.x_plus`` for the proximal
    subproblem it claims to minimize (with its own ``Delta``)."""
    x = result.x_plus.data
    r = (prob.b.data + result.maj.apply_T(np.asarray(xbar, dtype=float) - x)
         - prob.Q.matvec(x) + result.Delta.data)
    return kkt_distance(prob.prox, x, r, prob.partition.dims[0])


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
    Qd = dense_pd(Q, "relaxation tuning")
    Dd, U = block_split(Q)
    gamma = float(eigh(Qd, Dd, eigvals_only=True).min())
    half = 0.5 * Dd + U
    W = half @ dense_solve(Dd, half.T, assume_a="pos")
    Gamma = 4.0 * float(eigh(0.5 * (W + W.T), Qd, eigvals_only=True).max())
    root = np.sqrt(gamma * Gamma)
    omega = min(max(2.0 / (1.0 + root), 1.0), 2.0 - 1e-9)
    g = np.sqrt(gamma / Gamma)
    return SsorTuning(gamma=gamma, Gamma=Gamma, omega_star=float(omega),
                      rate_bound=float((1.0 - g) / (1.0 + g)))
