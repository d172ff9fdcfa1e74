"""Proximal maps and subgradient-distance certificates for the supported
nonsmooth terms, plus the special first-block solve used by the sweeps.

A :class:`ProxSpec` names the convex function ``p`` attached to the first
block: nothing, an l1 penalty, the nonnegative-orthant indicator, a box
indicator, or the positive-semidefinite cone indicator on a symmetric
matrix block.  Matrix blocks travel in packed form (:func:`svec`), which
scales off-diagonal entries by ``sqrt(2)`` so Euclidean norms equal
Frobenius norms; packing and unpacking are one gather each, from tables
built once per side.  A PSD head is decomposed by :func:`eigh`, which
calls LAPACK ``dsyevr`` directly as ``scipy.linalg.eigh`` does by default
and so returns its eigenpairs bit for bit; a head holding NaN or inf is
refused with :class:`NonFinite` before LAPACK sees it.  The spectrum
comes back ascending, so the projection keeps a suffix of the
eigenvectors and the certificates read the kernel off its ends.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

from .blockla import finite, finite_real, int_at_least, vec_norm
from .errors import (DiagonalNotPD, DimensionMismatch, InvalidParams, NeedsShift,
                     ShapeMismatch)

__all__ = [
    "ProxSpec",
    "prox",
    "prox_value",
    "subgrad_residual",
    "kkt_distance",
    "solve_block1",
    "head_scale",
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

_syevr, _syevr_lwork, _syevd, _syevd_lwork = get_lapack_funcs(
    ("syevr", "syevr_lwork", "syevd", "syevd_lwork"), dtype=np.float64)

# ``_last.psd``: (output, clipped ascending eigenvalues, eigenvectors) of this
# thread's last PSD prox, replaced in one assignment; certificates reuse it
# for that exact output.  Per thread, so concurrent solves keep their own
# pairs; solves interleaved in one thread evict each other's and recompute.
_last = threading.local()


def _saved_eig(x):
    """The saved ``(w, V)`` when ``x`` is this thread's last PSD projection,
    else None."""
    last = getattr(_last, "psd", None)
    hit = last is not None and last[0].shape == x.shape and (last[0] == x).all()
    return last[1:] if hit else None


@functools.lru_cache(maxsize=64)
def _work(query, n, **kw):
    """``(lwork, liwork)`` for side ``n`` from the workspace ``query`` of a
    LAPACK driver, asked as scipy asks it (lower triangle), once per side."""
    work, iwork, info = query(n=n, lower=1, **kw)
    if info:
        raise LinAlgError(f"workspace query failed with info {info}")
    return int(work), int(iwork)


def eigh(M):
    """Ascending eigenvalues and eigenvectors ``(w, V)`` of the symmetric
    ``M``, read from its lower triangle by LAPACK ``dsyevr`` with the
    workspace ``scipy.linalg.eigh`` uses, so both agree bit for bit;
    :class:`NonFinite` if ``M`` holds NaN or inf."""
    M = finite(M, "PSD head")
    lwork, liwork = _work(_syevr_lwork, M.shape[0])
    w, V, _, _, info = _syevr(M, lower=1, lwork=lwork, liwork=liwork)
    if info:
        raise LinAlgError(f"dsyevr failed with info {info}")
    return w, V


def eigvalsh(M):
    """Ascending eigenvalues of the symmetric ``M`` by LAPACK ``dsyevd`` (lower
    triangle), bit for bit as ``scipy.linalg.eigvalsh(M, driver="evd")``."""
    lwork, liwork = _work(_syevd_lwork, M.shape[0], compute_v=0)
    w, _, info = _syevd(M, compute_v=0, lower=1, lwork=lwork, liwork=liwork)
    if info:
        raise LinAlgError(f"dsyevd failed with info {info}")
    return w


def _psd_scale(w):
    """The scale ``max(|w|, 1)`` of a head with ascending eigenvalues ``w``,
    read off its ends; None when the least eigenvalue is below
    ``-_PSD_FEAS_RTOL`` times it (not PSD)."""
    scale = max(-w[0], w[-1], 1.0)
    return None if w[0] < -_PSD_FEAS_RTOL * scale else scale


def svec_dim(n):
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=64)
def _pack(n):
    """Gather tables of side ``n``, built once (read-only: every caller
    shares them).  For :func:`svec`: the flat index of each packed
    upper-triangle entry and its factor (``sqrt(2)`` off the diagonal, 1
    on it).  For :func:`smat`: the packed index of each matrix entry and
    its divisor, the same factor."""
    iu, ju = np.triu_indices(n)
    flat = iu * n + ju
    mul = np.where(iu != ju, _SQRT2, 1.0)
    packed = np.empty((n, n), dtype=np.intp)
    packed[iu, ju] = packed[ju, iu] = np.arange(iu.size)
    div = mul[packed]
    for a in (flat, mul, packed, div):
        a.flags.writeable = False
    return flat, mul, packed, div


def svec(S):
    """Packed upper-triangle vectorization with off-diagonals scaled by
    ``sqrt(2)``, so that ``<svec(A), svec(B)> = <A, B>_F``."""
    S = np.asarray(S, dtype=float)
    flat, mul, _, _ = _pack(S.shape[0])
    v = S.take(flat)
    v *= mul
    return v


def smat(v, n):
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (svec_dim(n),):
        raise ShapeMismatch(
            f"expected packed length {svec_dim(n)} for side {n}, got {v.shape}"
        )
    _, _, packed, div = _pack(n)
    S = v.take(packed)
    S /= div
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
        return cls("l1", lam=finite_real(lam, "l1 weight"))

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
        return cls("psd_cone", side=int_at_least(side, "side", 1))

    def block_dim(self):
        """Length the first block must have, or None when unconstrained (a
        box with one bound pair applies to a head of any length)."""
        if self.kind == "psd_cone":
            return svec_dim(self.side)
        return len(self.lo) if self.kind == "box" and len(self.lo) > 1 else None

    def check_head(self, n1):
        """:class:`DimensionMismatch` unless a first block of length ``n1``
        fits this term (:meth:`block_dim`)."""
        want = self.block_dim()
        if want is not None and want != n1:
            raise DimensionMismatch(f"prox kind {self.kind!r} needs first block "
                                    f"of length {want}, partition has {n1}")

    def _bounds(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


def _head_vec(spec, x):
    """``x`` as a float array; :class:`ShapeMismatch` unless its length is
    the one a box or PSD head needs (:meth:`ProxSpec.block_dim`)."""
    x = np.asarray(x, dtype=float)
    want = spec.block_dim()
    if want is not None and x.shape != (want,):
        raise ShapeMismatch(f"{spec.kind} head needs length {want}, got {x.shape}")
    return x


def prox(spec, mu, v):
    """``argmin_x p(x) + (mu/2) ||x - v||^2`` in closed form; ``mu`` must be
    finite and positive (:class:`InvalidParams`).

    Examples
    --------
    >>> prox(ProxSpec.l1(1.0), 1.0, np.array([2.0]))
    array([1.])
    >>> prox(ProxSpec.box(0.0, 1.0), 7.3, np.array([2.0]))
    array([1.])
    """
    mu = finite_real(mu, "prox parameter", positive=True)
    v = _head_vec(spec, v)
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
        # ascending spectrum: the positive part is a suffix
        k = w.searchsorted(0.0, "right")
        Vp = V[:, k:]
        P = (Vp * w[k:]) @ Vp.T
        out = svec(0.5 * (P + P.T))
        _last.psd = (out.copy(), np.maximum(w, 0.0), V)
        return out
    raise InvalidParams(f"unknown prox kind {spec.kind!r}")


def prox_value(spec, x):
    """``p(x)``; ``+inf`` for an infeasible indicator argument."""
    if spec.kind == "zero":
        return 0.0
    x = _head_vec(spec, x)
    if spec.kind == "l1":
        return spec.lam * float(np.abs(x).sum())
    if spec.kind == "nonneg":
        return 0.0 if np.all(x >= 0.0) else np.inf
    if spec.kind == "box":
        lo, hi = spec._bounds()
        return 0.0 if np.all(x >= lo) and np.all(x <= hi) else np.inf
    if spec.kind == "psd_cone":
        saved = _saved_eig(x)
        w = (eigvalsh(smat(finite(x, "PSD head"), spec.side)) if saved is None
             else saved[0])
        return np.inf if _psd_scale(w) is None else 0.0
    raise InvalidParams(f"unknown prox kind {spec.kind!r}")


def subgrad_residual(spec, x, g):
    """Distance from ``g`` to the subdifferential of ``p`` at ``x``.

    Returns ``+inf`` when ``x`` is outside the domain of an indicator.
    The distances are exact per kind; no smoothing is involved.  ``x`` and
    ``g`` of different shapes raise :class:`ShapeMismatch`.
    """
    x, g = _head_vec(spec, x), _head_vec(spec, g)
    if x.shape != g.shape:
        raise ShapeMismatch(f"x has shape {x.shape}, g has shape {g.shape}")
    if spec.kind == "zero":
        return vec_norm(g)
    if spec.kind == "l1":
        lam = spec.lam
        on = x != 0.0
        d = np.where(on, g - lam * np.sign(x), np.maximum(np.abs(g) - lam, 0.0))
        return vec_norm(d)
    if spec.kind == "nonneg":
        if np.any(x < 0.0):
            return np.inf
        free = x > 0.0
        d = np.where(free, g, np.maximum(g, 0.0))
        return vec_norm(d)
    if spec.kind == "box":
        lo, hi = spec._bounds()
        if np.any(x < lo) or np.any(x > hi):
            return np.inf
        at_lo = x == lo
        at_hi = x == hi
        d = np.where(at_lo & at_hi, 0.0,
                     np.where(at_lo, np.maximum(g, 0.0),
                              np.where(at_hi, np.minimum(g, 0.0), g)))
        return vec_norm(d)
    if spec.kind == "psd_cone":
        w, V = _saved_eig(x) or eigh(smat(x, spec.side))
        scale = _psd_scale(w)
        if scale is None or not np.isfinite(g).all():
            return np.inf
        G = smat(g, spec.side)
        # Normal cone at X: matrices supported on ker(X) with nonpositive
        # eigenvalues there.  ``w`` is ascending, so the kernel columns are
        # a prefix of V: split the eigenbasis there, project, measure.
        k = int(w.searchsorted(_PSD_RANK_RTOL * scale, "right"))
        Gt = V.T @ G @ V
        acc = vec_norm(Gt[k:, k:]) ** 2
        acc += 2.0 * vec_norm(Gt[k:, :k]) ** 2
        if k:
            Ck = 0.5 * (Gt[:k, :k] + Gt[:k, :k].T)
            wk = eigvalsh(Ck)
            acc += float((np.maximum(wk, 0.0) ** 2).sum())
        return math.sqrt(acc)
    raise InvalidParams(f"unknown prox kind {spec.kind!r}")


def kkt_distance(spec, x, r, n1):
    """Distance of ``r`` from ``partial p(x_1) x {0} x ...``, ``x_1`` and
    ``r_1`` the first ``n1`` entries; ``inf`` when the head's distance
    (:func:`subgrad_residual`) is not finite."""
    head = subgrad_residual(spec, x[:n1], r[:n1])
    if not math.isfinite(head):
        return np.inf
    return float(np.hypot(head, vec_norm(r[n1:])))


def _identity_multiple(A):
    """Return ``mu`` with ``A = mu I`` to working tolerance, else None."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    mu = float(np.trace(A)) / n
    resid = np.linalg.norm(A - mu * np.eye(n))
    if resid <= _IDENT_RTOL * max(np.linalg.norm(A), np.finfo(float).tiny):
        return mu
    return None


def head_scale(A):
    """``mu`` with ``A = mu I``, the head quadratic of a nonsmooth ``p``;
    :class:`NeedsShift` when ``A`` is no multiple of the identity and
    :class:`DiagonalNotPD` when ``mu <= 0``."""
    mu = _identity_multiple(A)
    if mu is None:
        raise NeedsShift(
            "nonsmooth first block needs Q11 (+ J1) to be a multiple of the "
            "identity; supply a shift"
        )
    if mu <= 0:
        raise DiagonalNotPD(0)
    return mu


def solve_block1(spec, Q11, c1):
    """Exactly minimize ``p(x) + 0.5 <x, Q11 x> - <c1, x>`` over the first
    block (a proximal shift ``J1`` at ``xbar1`` is the same problem with
    ``Q11 + J1`` and ``c1 + J1 xbar1``).

    For a nonsmooth ``p`` the quadratic ``Q11`` must be a positive
    multiple of the identity so the minimizer is a single prox
    evaluation (:func:`head_scale`); ``Q11`` may also be that multiple
    ``mu`` itself, a scalar.  Returns the minimizer together with the
    certifying subgradient ``gamma1 = c1 - Q11 x``.
    """
    c1 = np.asarray(c1, dtype=float)
    if np.isscalar(Q11):
        mu = Q11
    elif spec.kind == "zero":
        A = np.asarray(Q11, dtype=float)
        try:
            chol = cho_factor(0.5 * (A + A.T), lower=True)
        except np.linalg.LinAlgError as exc:
            raise DiagonalNotPD(0) from exc
        x = cho_solve(chol, c1, check_finite=False)
        return x, c1 - A @ x
    else:
        mu = head_scale(Q11)
    x = prox(spec, mu, c1 / mu)     # checks the head's length
    return x, c1 - mu * x
