"""Accelerated proximal-point outer loop driven by one sweep cycle per
iteration, with error budgets, momentum schedules, run traces, and
a-posteriori complexity certificates.

Each outer iteration solves the majorized subproblem at the extrapolated
point by a single cycle; with exact block solves the subproblem solution
is exact, with iterative solves the realized residuals are forced under
the budget ``eps_k / t_k`` by halving the inner tolerance.  Momentum
follows ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2`` (or stays at one, or
restarts periodically); the emitted pairs always satisfy
``t_{k+1}^2 - t_{k+1} <= t_k^2``.
"""

import contextlib
import csv
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import eigh

from .blockla import (BlockVector, dense_pd, finite, finite_real, int_at_least,
                      is_real)
from .errors import IdentityViolation, InvalidParams, NotPD
from .sgs import ExactMode, IterativeMode, _cycle

__all__ = [
    "StepSchedule",
    "ToleranceSchedule",
    "StopRule",
    "TraceRow",
    "SolveTrace",
    "solve",
    "contraction_factor",
    "complexity_certificates",
    "CertificateReport",
]

_T_SLACK = 1e-9


@dataclass(frozen=True)
class StepSchedule:
    """Momentum coefficient schedule: constant, accelerated, or restarted
    every ``period`` (an int ``>= 1``, for "restart" only) iterations.
    Other values raise :class:`InvalidParams`."""

    kind: str
    period: int = None

    def __post_init__(self):
        if self.kind not in ("constant", "nesterov", "restart"):
            raise InvalidParams(f"unknown step schedule {self.kind!r}")
        if self.kind == "restart":
            object.__setattr__(self, "period",
                               int_at_least(self.period, "restart period", 1))
        elif self.period is not None:
            raise InvalidParams(f"a {self.kind} schedule takes no period")

    @classmethod
    def constant(cls):
        return cls("constant")

    @classmethod
    def nesterov(cls):
        return cls("nesterov")

    @classmethod
    def restart(cls, period):
        return cls("restart", period=period)

    def advance(self, t, k):
        """``t_{k+1}`` from ``t_k`` at outer iteration ``k``.

        Returns ``(t_next, restarted)``; the emitted pair is checked
        against ``t_next^2 - t_next <= t_k^2``.
        """
        if self.kind == "constant":
            t_next, restarted = 1.0, False
        elif self.kind == "restart" and k % self.period == 0:
            t_next, restarted = 1.0, True
        else:
            t_next, restarted = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)), False
        if t_next * t_next - t_next > t * t + _T_SLACK * (1.0 + t * t):
            raise IdentityViolation(
                f"step schedule emitted an invalid pair (t={t}, t_next={t_next})",
                magnitude=t_next * t_next - t_next - t * t,
            )
        return t_next, restarted


@dataclass(frozen=True)
class ToleranceSchedule:
    """Summable inexactness budget ``eps_k`` for the outer iterations:
    ``eps0 rate^(k-1)`` (geometric, ``rate`` in ``(0, 1)``) or ``eps0 /
    k^exponent`` (power, ``exponent > 1``), ``eps0`` a finite real ``>=
    0``.  Other values raise :class:`InvalidParams`; the numbers are kept
    as floats."""

    kind: str
    eps0: float = 0.0
    rate: float = None
    exponent: float = None

    def __post_init__(self):
        if self.kind not in ("exact", "geometric", "power"):
            raise InvalidParams(f"unknown tolerance schedule {self.kind!r}")
        object.__setattr__(self, "eps0", finite_real(self.eps0, "eps0"))
        if self.kind == "geometric":
            rate = finite_real(self.rate, "geometric rate")
            if not (0.0 < rate < 1.0):
                raise InvalidParams(f"geometric rate must lie in (0,1), got {rate}")
            object.__setattr__(self, "rate", rate)
        elif self.kind == "power":
            a = finite_real(self.exponent, "power exponent")
            if not a > 1.0:
                raise InvalidParams(f"power decay needs a > 1 for summability, got {a}")
            object.__setattr__(self, "exponent", a)

    @classmethod
    def exact(cls):
        return cls("exact")

    @classmethod
    def geometric(cls, eps0, rate):
        return cls("geometric", eps0=eps0, rate=rate)

    @classmethod
    def power(cls, eps0, a=1.5):
        return cls("power", eps0=eps0, exponent=a)

    def value(self, k):
        if self.kind == "exact":
            return 0.0
        if self.kind == "geometric":
            return self.eps0 * self.rate ** (k - 1)
        return self.eps0 / float(k) ** self.exponent


@dataclass(frozen=True)
class StopRule:
    """Stop once the KKT residual is at most ``kkt_tol`` (a real ``>= 0``,
    bools not; ``inf`` stops after one iteration), or after ``max_iter``
    (an int ``>= 0``) iterations; other values raise :class:`InvalidParams`."""

    kkt_tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not (is_real(self.kkt_tol) and self.kkt_tol >= 0):
            raise InvalidParams(f"kkt_tol must be a real >= 0, got {self.kkt_tol!r}")
        int_at_least(self.max_iter, "max_iter", 0)


@dataclass
class TraceRow:
    k: int
    F: float
    kkt: float
    delta_tilde: float
    delta: float
    t: float
    beta: float
    dist_qhat: float
    time_s: float


def write_csv(rows, row_type, path_or_file):
    """Write trace rows as CSV: a header of ``row_type``'s field names, then
    ``k`` as an int and every other field as ``repr(float)``."""
    names = [f.name for f in fields(row_type)]
    own = isinstance(path_or_file, (str, bytes))
    with (open(path_or_file, "w", newline="") if own
          else contextlib.nullcontext(path_or_file)) as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for r in rows:
            w.writerow([r.k] + [repr(float(getattr(r, n))) for n in names[1:]])


@dataclass
class SolveTrace:
    """Per-iteration record of a run, plus its outcome."""

    rows: list = field(default_factory=list)
    termination: str = "max_iter"
    x_final: BlockVector = None
    x0: BlockVector = None
    dist0_qhat: float = np.nan
    omega: float = None

    @property
    def iterations(self):
        return len(self.rows)

    def to_csv(self, path_or_file):
        write_csv(self.rows, TraceRow, path_or_file)


def solve(prob, x0=None, steps=None, tols=None, stop=None, omega=None,
          mode="exact", inner_cap=1e-2, x_star=None):
    """Run the accelerated (or plain) outer loop on a composite program.

    Parameters
    ----------
    prob : CompositeQP
    x0 : BlockVector or array_like, optional
        Finite start point; must be feasible for an indicator first block
        (defaults to the prox of zero, which always is).
    steps : StepSchedule (default Nesterov)
    tols : ToleranceSchedule (default exact; pick a summable schedule for
        inexact runs — with the exact budget an inexact run can only
        stall)
    stop : StopRule
    omega : None (Gauss-Seidel) or a real in ``[1, 2)`` (over-relaxed)
    mode : "exact" or "inexact"
        Inexact runs solve block systems by conjugate gradients, halving
        the inner tolerance (at most 30 times per iteration) until the
        realized residuals respect the budget ``eps_k / t_k``.
    x_star : optional reference minimizer; enables the ``dist_qhat``
        trace column.

    Returns
    -------
    SolveTrace
        With ``termination`` in ``{"tol", "max_iter", "stall",
        "nonfinite"}`` and the final iterate in ``x_final``; a
        ``"nonfinite"`` run stops at the first iterate whose KKT residual
        is not finite, records no row for it and returns the iterate
        before it.
    """
    part = prob.partition
    steps = steps if steps is not None else StepSchedule.nesterov()
    tols = tols if tols is not None else ToleranceSchedule.exact()
    stop = stop if stop is not None else StopRule()
    if mode not in ("exact", "inexact"):
        raise InvalidParams(f"unknown mode {mode!r}")
    inner_cap = finite_real(inner_cap, "inner_cap", positive=True)
    maj = prob.majorizer(omega)

    if x0 is None:
        from .proxmap import prox
        x0 = np.zeros(part.total)
        x0[:part.dims[0]] = prox(prob.prox, 1.0, x0[:part.dims[0]])
    x0 = BlockVector(part, x0)
    finite(x0.data, "x0")

    xs_vec = None
    dist0 = np.nan
    if x_star is not None:
        xs_vec = finite(BlockVector(part, x_star).data, "x_star")
        dist0 = maj.quad_norm(x0.data - xs_vec, "Qhat")

    trace = SolveTrace(x0=x0.copy(), dist0_qhat=dist0, omega=maj.omega)
    bnorm = prob.b.norm()
    kkt_target = stop.kkt_tol * (1.0 + bnorm)

    x_cur = x0.copy()
    xt = x0.copy()
    # ``Q xt`` for the cycle, formed by linearity from the monitoring
    # products ``Q x_k`` and ``Q x_{k-1}``; the first cycle forms its own
    # unless ``x0 = 0``, and ``beta = 0`` at ``k = 1`` hands over ``Q x_1``
    # exactly, so the start value of ``Qx_cur`` drops out
    Qxt, Qx_cur = None if x0.data.any() else np.zeros(part.total), 0.0
    t = 1.0
    t0 = time.perf_counter()

    for k in range(1, stop.max_iter + 1):
        eps_k = tols.value(k)
        budget = eps_k / t
        if mode == "exact":
            res = _cycle(prob, xt, ExactMode(), maj, Qxbar=Qxt)
        else:
            rt = min(inner_cap, budget / (1.0 + bnorm)) if budget > 0 else 0.0
            res = None
            for _ in range(31):
                if rt < 1e-15:
                    res = None
                    break
                res = _cycle(prob, xt, IterativeMode(rt), maj, Qxbar=Qxt)
                realized = max(res.delta_tilde_norm, res.delta_norm)
                if realized <= budget:
                    break
                rt *= 0.5
                res = None
            if res is None:
                trace.termination = "stall"
                trace.x_final = x_cur
                return trace

        x_new = res.x_plus
        Qx = prob.Q.matvec(x_new.data)
        with np.errstate(over="ignore", invalid="ignore"):
            # a diverging run overflows here first; the stop below names it
            Fv = prob.objective(x_new.data, Qx)
            kkt = prob.kkt_residual(x_new.data, Qx)
        if not np.isfinite(kkt):
            # diverged (e.g. an indefinite Q): keep the last finite iterate
            trace.termination = "nonfinite"
            trace.x_final = x_cur
            return trace
        t_next, restarted = steps.advance(t, k)
        beta = 0.0 if restarted else (t - 1.0) / t_next
        dist = np.nan
        if xs_vec is not None:
            dist = maj.quad_norm(x_new.data - xs_vec, "Qhat")
        trace.rows.append(TraceRow(
            k=k, F=Fv, kkt=kkt,
            delta_tilde=res.delta_tilde_norm, delta=res.delta_norm,
            t=t, beta=beta, dist_qhat=dist,
            time_s=time.perf_counter() - t0,
        ))
        if kkt <= kkt_target:
            trace.termination = "tol"
            trace.x_final = x_new
            return trace
        if restarted:
            xt, Qxt = x_new.copy(), Qx
        else:
            xt = BlockVector(part, x_new.data + beta * (x_new.data - x_cur.data))
            Qxt = Qx + beta * (Qx - Qx_cur)
        x_cur, Qx_cur, t = x_new, Qx, t_next

    trace.termination = "max_iter"
    trace.x_final = x_cur
    return trace


def contraction_factor(maj):
    """``||B||_2 = 1 - lambda_min(Qhat^{-1} Q)`` for a positive definite
    base operator (:class:`NotPD` otherwise)."""
    Qd = dense_pd(maj.base, "contraction factor")
    Qhat = maj.densify("Qhat")
    lam = eigh(Qd, Qhat, eigvals_only=True)
    return float(min(max(1.0 - lam.min(), 0.0), 1.0))


@dataclass
class CertificateReport:
    """Outcome of checking the applicable complexity bound on a trace."""

    kind: str                      # "nesterov" | "constant" | "none"
    rows: list = field(default_factory=list)   # (k, lhs, rhs, ok)
    linear_rows: list = field(default_factory=list)
    contraction: float = None
    M: float = None
    ok: bool = True
    worst: float = 0.0             # most positive (lhs - rhs) seen

    def _note(self, store, k, lhs, rhs, slack):
        good = lhs <= rhs + slack * max(1.0, abs(rhs))
        store.append((k, float(lhs), float(rhs), bool(good)))
        if not good:
            self.ok = False
        self.worst = max(self.worst, float(lhs - rhs))


def complexity_certificates(trace, prob, steps, tols, fstar, slack=1e-8):
    """Check the sublinear (and, when available, linear) guarantees.

    For the accelerated schedule the objective gap at iteration ``k``
    must fall below ``2 (dist0 + 2 M sum_i eps_i)^2 / (k+1)^2``; for the
    constant schedule below ``(dist0 + 4 M sum_i i eps_i)^2 / (2k)`` —
    and, when the operator is positive definite, the weighted distance
    must follow the geometric envelope of the contraction factor.
    Requires the trace to have been produced with ``x_star`` set.
    """
    maj = prob.majorizer(trace.omega)
    M = maj.m_constant()
    rep = CertificateReport(kind="none", M=M)
    dist0 = trace.dist0_qhat
    if not np.isfinite(dist0):
        raise InvalidParams(
            "certificates need dist_qhat data; run solve with x_star"
        )
    if steps.kind == "nesterov":
        rep.kind = "nesterov"
        acc = 0.0
        for r in trace.rows:
            acc += tols.value(r.k)
            rhs = 2.0 * (dist0 + 2.0 * M * acc) ** 2 / (r.k + 1.0) ** 2
            rep._note(rep.rows, r.k, r.F - fstar, rhs, slack)
    elif steps.kind == "constant":
        rep.kind = "constant"
        acc = 0.0
        for r in trace.rows:
            acc += r.k * tols.value(r.k)
            rhs = (dist0 + 4.0 * M * acc) ** 2 / (2.0 * r.k)
            rep._note(rep.rows, r.k, r.F - fstar, rhs, slack)
        try:
            rho = contraction_factor(maj)
        except NotPD:
            rho = None
        if rho is not None:
            rep.contraction = rho
            env = 0.0          # sum_j rho^{k-j} eps_j, built stably
            geo = dist0
            for r in trace.rows:
                env = rho * env + tols.value(r.k)
                geo = rho * geo
                rep._note(rep.linear_rows, r.k, r.dist_qhat, geo + M * env,
                          slack)
    return rep
