"""Proximal maps and subgradient-distance certificates for the supported
nonsmooth terms, plus the special first-block solve used by the sweeps.

A :class:`ProxSpec` names the convex function ``p`` attached to the first
block: nothing, an l1 penalty, the nonnegative-orthant indicator, a box
indicator, or the positive-semidefinite cone indicator on a symmetric
matrix block.  Matrix blocks travel in packed form (:func:`svec`), which
scales off-diagonal entries by ``sqrt(2)`` so Euclidean norms equal
Frobenius norms.
"""

import functools
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh
from scipy.linalg import cho_factor, cho_solve, eigh

from .errors import DiagonalNotPD, InvalidParams, NeedsShift, ShapeMismatch

__all__ = [
    "ProxSpec",
    "prox",
    "prox_value",
    "subgrad_residual",
    "solve_block1",
    "prepare_block1",
    "svec",
    "smat",
    "svec_dim",
]

_SQRT2 = np.sqrt(2.0)
# Relative tolerances for the PSD cone: feasibility of an eigenvalue, and
# the support/kernel split used by the normal-cone distance.
_PSD_FEAS_RTOL = 1e-10
_PSD_RANK_RTOL = 1e-8
_IDENT_RTOL = 1e-10

# ``_last.psd``: (output, clipped ascending eigenvalues, eigenvectors) of this
# thread's last PSD prox, replaced in one assignment; certificates reuse it
# for that exact output.  Per thread, so concurrent solves keep their own
# pairs; solves interleaved in one thread evict each other's and recompute.
_last = threading.local()


def _saved_eig(x):
    """The saved ``(w, V)`` when ``x`` is this thread's last PSD projection,
    else None."""
    last = getattr(_last, "psd", None)
    return last[1:] if last is not None and np.array_equal(last[0], x) else None


def svec_dim(n):
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=64)
def _triu(n):
    """Packed upper-triangle indices of side ``n`` and the off-diagonal
    mask, built once per side (read-only: every caller shares them)."""
    iu, ju = np.triu_indices(n)
    off = iu != ju
    for a in (iu, ju, off):
        a.flags.writeable = False
    return iu, ju, off


def svec(S):
    """Packed upper-triangle vectorization with off-diagonals scaled by
    ``sqrt(2)``, so that ``<svec(A), svec(B)> = <A, B>_F``."""
    S = np.asarray(S, dtype=float)
    iu, ju, off = _triu(S.shape[0])
    v = S[iu, ju]
    v[off] *= _SQRT2
    return v


def smat(v, n):
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (svec_dim(n),):
        raise ShapeMismatch(
            f"expected packed length {svec_dim(n)} for side {n}, got {v.shape}"
        )
    S = np.zeros((n, n))
    iu, ju, off = _triu(n)
    w = v.copy()
    w[off] /= _SQRT2
    S[iu, ju] = w
    S[ju, iu] = w
    return S


@dataclass(frozen=True)
class ProxSpec:
    """Which convex term sits on the first block.

    Use the constructors: ``ProxSpec.zero()``, ``ProxSpec.l1(lam)``,
    ``ProxSpec.nonneg()``, ``ProxSpec.box(lo, hi)``,
    ``ProxSpec.psd_cone(side)``.
    """

    kind: str
    lam: float = None
    lo: tuple = None
    hi: tuple = None
    side: int = None

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def l1(cls, lam):
        lam = float(lam)
        if not (np.isfinite(lam) and lam >= 0):
            raise InvalidParams(f"l1 weight must be finite and nonnegative, got {lam}")
        return cls("l1", lam=lam)

    @classmethod
    def nonneg(cls):
        return cls("nonneg")

    @classmethod
    def box(cls, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise ShapeMismatch("box bounds must have matching shapes")
        if not np.all(lo <= hi):     # NaN bounds fail this too
            raise InvalidParams("box requires lo <= hi componentwise")
        return cls("box", lo=tuple(lo.tolist()), hi=tuple(hi.tolist()))

    @classmethod
    def psd_cone(cls, side):
        side = int(side)
        if side < 1:
            raise InvalidParams("matrix side must be positive")
        return cls("psd_cone", side=side)

    def block_dim(self):
        """Length the first block must have, or None when unconstrained."""
        if self.kind == "psd_cone":
            return svec_dim(self.side)
        if self.kind == "box":
            return len(self.lo)
        return None

    def _bounds(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


def prox(spec, mu, v):
    """``argmin_x p(x) + (mu/2) ||x - v||^2`` in closed form.

    Examples
    --------
    >>> prox(ProxSpec.l1(1.0), 1.0, np.array([2.0]))
    array([1.])
    >>> prox(ProxSpec.box(0.0, 1.0), 7.3, np.array([2.0]))
    array([1.])
    """
    mu = float(mu)
    if mu <= 0:
        raise InvalidParams(f"prox parameter must be positive, got {mu}")
    v = np.asarray(v, dtype=float)
    if spec.kind == "zero":
        return v.copy()
    if spec.kind == "l1":
        t = spec.lam / mu
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    if spec.kind == "nonneg":
        return np.maximum(v, 0.0)
    if spec.kind == "box":
        lo, hi = spec._bounds()
        return np.clip(v, lo, hi)
    if spec.kind == "psd_cone":
        w, V = eigh(smat(v, spec.side))
        pos = w > 0.0
        P = (V[:, pos] * w[pos]) @ V[:, pos].T
        out = svec(0.5 * (P + P.T))
        _last.psd = (out.copy(), np.maximum(w, 0.0), V)
        return out
    raise InvalidParams(f"unknown prox kind {spec.kind!r}")


def prox_value(spec, x):
    """``p(x)``; ``+inf`` for an infeasible indicator argument."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "zero":
        return 0.0
    if spec.kind == "l1":
        return spec.lam * float(np.abs(x).sum())
    if spec.kind == "nonneg":
        return 0.0 if np.all(x >= 0.0) else np.inf
    if spec.kind == "box":
        lo, hi = spec._bounds()
        return 0.0 if np.all(x >= lo) and np.all(x <= hi) else np.inf
    if spec.kind == "psd_cone":
        saved = _saved_eig(x)
        w = saved[0] if saved else eigvalsh(smat(x, spec.side))
        scale = max(abs(w).max() if w.size else 0.0, 1.0)
        return 0.0 if w.min() >= -_PSD_FEAS_RTOL * scale else np.inf
    raise InvalidParams(f"unknown prox kind {spec.kind!r}")


def subgrad_residual(spec, x, g):
    """Distance from ``g`` to the subdifferential of ``p`` at ``x``.

    Returns ``+inf`` when ``x`` is outside the domain of an indicator.
    The distances are exact per kind; no smoothing is involved.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if spec.kind == "zero":
        return float(np.linalg.norm(g))
    if spec.kind == "l1":
        lam = spec.lam
        on = x != 0.0
        d = np.where(on, g - lam * np.sign(x), np.maximum(np.abs(g) - lam, 0.0))
        return float(np.linalg.norm(d))
    if spec.kind == "nonneg":
        if np.any(x < 0.0):
            return np.inf
        free = x > 0.0
        d = np.where(free, g, np.maximum(g, 0.0))
        return float(np.linalg.norm(d))
    if spec.kind == "box":
        lo, hi = spec._bounds()
        if np.any(x < lo) or np.any(x > hi):
            return np.inf
        at_lo = x == lo
        at_hi = x == hi
        d = np.where(at_lo & at_hi, 0.0,
                     np.where(at_lo, np.maximum(g, 0.0),
                              np.where(at_hi, np.minimum(g, 0.0), g)))
        return float(np.linalg.norm(d))
    if spec.kind == "psd_cone":
        G = smat(g, spec.side)
        w, V = _saved_eig(x) or eigh(smat(x, spec.side))
        scale = max(abs(w).max() if w.size else 0.0, 1.0)
        if w.min() < -_PSD_FEAS_RTOL * scale:
            return np.inf
        # Normal cone at X: matrices supported on ker(X) with nonpositive
        # eigenvalues there.  ``w`` is ascending, so the kernel columns are
        # a prefix of V: split the eigenbasis there, project, measure.
        k = int(np.count_nonzero(w <= _PSD_RANK_RTOL * scale))
        Gt = V.T @ G @ V
        acc = np.linalg.norm(Gt[k:, k:]) ** 2
        acc += 2.0 * np.linalg.norm(Gt[k:, :k]) ** 2
        if k:
            Ck = 0.5 * (Gt[:k, :k] + Gt[:k, :k].T)
            wk = eigvalsh(Ck)
            acc += float((np.maximum(wk, 0.0) ** 2).sum())
        return float(np.sqrt(acc))
    raise InvalidParams(f"unknown prox kind {spec.kind!r}")


def _identity_multiple(A):
    """Return ``mu`` with ``A = mu I`` to working tolerance, else None."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    mu = float(np.trace(A)) / n
    resid = np.linalg.norm(A - mu * np.eye(n))
    if resid <= _IDENT_RTOL * max(np.linalg.norm(A), np.finfo(float).tiny):
        return mu
    return None


@dataclass(frozen=True)
class Block1:
    """A first-block quadratic ``A`` prepared for repeated solves: its
    Cholesky factor for the zero ``p``, its identity multiple otherwise."""

    A: np.ndarray
    chol: tuple = None
    mu: float = None


def prepare_block1(spec, A):
    """Factor ``A`` (zero ``p``) or find ``mu`` with ``A = mu I``, raising
    :class:`DiagonalNotPD` or :class:`NeedsShift` as :func:`solve_block1` does."""
    A = np.asarray(A, dtype=float)
    if spec.kind == "zero":
        try:
            return Block1(A, chol=cho_factor(0.5 * (A + A.T), lower=True))
        except np.linalg.LinAlgError as exc:
            raise DiagonalNotPD(0) from exc
    mu = _identity_multiple(A)
    if mu is None:
        raise NeedsShift(
            "nonsmooth first block needs Q11 (+ J1) to be a multiple of the "
            "identity; supply a shift"
        )
    if mu <= 0:
        raise DiagonalNotPD(0)
    return Block1(A, mu=mu)


def solve_block1(spec, Q11, c1):
    """Exactly minimize ``p(x) + 0.5 <x, Q11 x> - <c1, x>`` over the first
    block (a proximal shift ``J1`` at ``xbar1`` is the same problem with
    ``Q11 + J1`` and ``c1 + J1 xbar1``).

    For a nonsmooth ``p`` the quadratic ``Q11`` must be a positive
    multiple of the identity so the minimizer is a single prox
    evaluation; otherwise :class:`NeedsShift` is raised.  ``Q11`` may be a
    :class:`Block1` from :func:`prepare_block1`, so that repeated solves
    with one quadratic factor it once.  Returns the minimizer together
    with the certifying subgradient ``gamma1 = c1 - Q11 x``.
    """
    c1 = np.asarray(c1, dtype=float)
    head = Q11 if isinstance(Q11, Block1) else prepare_block1(spec, Q11)
    if head.chol is not None:
        x = cho_solve(head.chol, c1, check_finite=False)
        return x, c1 - head.A @ x
    want = spec.block_dim()
    if want is not None and c1.shape != (want,):
        raise ShapeMismatch(
            f"first block has length {c1.shape[0]}, prox expects {want}"
        )
    x = prox(spec, head.mu, c1 / head.mu)
    return x, c1 - head.mu * x
