"""Block-partitioned symmetric operators and their Gauss-Seidel style majorizers.

A symmetric positive semidefinite operator on a product space
``R^{n_1} x ... x R^{n_s}`` is stored through its upper block triangle
only.  The splitting ``Q = U + D + U^*`` (``U`` the strict upper block
triangle, ``D`` the block diagonal) induces the majorizers handled here:

* ``sgs``:          ``T = U D^{-1} U^*`` and ``Qhat = (D+U) D^{-1} (D+U^*)``
* ``sgs`` shifted:  ``D`` replaced by ``Dhat = D + diag(J_i)`` with PSD
  shifts, ``T = diag(J) + U Dhat^{-1} U^*``
* ``omega in [1, 2)``: with ``tau = 1/omega``, ``rho = 2 tau - 1``,
  ``T = ((1-tau)D+U)(rho D)^{-1}((1-tau)D+U^*)`` and
  ``Qhat = (tau D+U)(rho D)^{-1}(tau D+U^*)`` (over-relaxed)

In every case ``Qhat = Q + T`` and ``Qhat`` is positive definite as soon
as the diagonal blocks are.

An operator's one copy of ``Q`` is a dense row-major store written at
construction, which also factors each diagonal block once, ``Q_ii = T_i
T_i^T`` with ``T_i`` upper triangular.  ``Q x`` reads only the store's upper
triangle (``dsymv``) when the stored blocks span the operator, else one
product on the principal sub-block they span.  Every sweep runs through
:func:`sweep`, one block substitution kernel for ``(a D + U) z = y`` or
``(a D + U^*) z = y``: per block one product with a panel of that triangle
and two triangular solves with ``T_i``.  A majorizer's only factor is
``Y``, upper triangular with ``Qhat = Y Y^T`` (:meth:`Majorizer.factor`);
its actions go through ``Y`` and the ``T_i`` and run no sweep.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.linalg import block_diag, eigvalsh
from scipy.linalg.blas import dsymv, dtrmv, dtrsv
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import (
    DiagonalNotPD,
    DimensionMismatch,
    InvalidParams,
    NonFinite,
    NotPD,
    NotSymmetric,
    OmegaOutOfRange,
    ShapeMismatch,
    ShiftNotPSD,
)

__all__ = [
    "BlockPartition",
    "BlockVector",
    "BlockSymOperator",
    "Majorizer",
    "sgs_operator",
    "block_split",
    "sweep",
]

_SYM_RTOL = 1e-12
_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class BlockPartition:
    """Sizes ``(n_1, ..., n_s)``, ints ``>= 1``, of a product space, ``s >= 2``."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(self.dims) if np.iterable(self.dims) else (self.dims,)
        if len(dims) < 2:
            raise InvalidParams("a block partition needs at least two blocks")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   and n >= 1 for n in dims):
            raise InvalidParams(f"block sizes must be integers >= 1, got {dims!r}")
        object.__setattr__(self, "dims", tuple(int(n) for n in dims))
        object.__setattr__(self, "offsets", (0, *accumulate(self.dims)))
        object.__setattr__(self, "total", self.offsets[-1])

    @property
    def s(self):
        return len(self.dims)

    def slice(self, i):
        return slice(self.offsets[i], self.offsets[i + 1])

    def split(self, vec):
        """Views of a flat vector, one per block."""
        vec = np.asarray(vec)
        if vec.shape != (self.total,):
            raise DimensionMismatch(
                f"expected a vector of length {self.total}, got shape {vec.shape}"
            )
        return [vec[self.slice(i)] for i in range(self.s)]


class BlockVector:
    """A flat vector together with its block partition.

    Parameters
    ----------
    partition : BlockPartition
    data : array_like, shape (partition.total,)
    """

    __slots__ = ("partition", "data")

    def __init__(self, partition, data):
        data = np.ascontiguousarray(data, dtype=float)
        if data.shape != (partition.total,):
            raise DimensionMismatch(
                f"expected length {partition.total}, got shape {data.shape}"
            )
        self.partition = partition
        self.data = data

    @classmethod
    def zeros(cls, partition):
        return cls(partition, np.zeros(partition.total))

    @classmethod
    def from_blocks(cls, partition, blocks):
        if len(blocks) != partition.s:
            raise DimensionMismatch(f"expected {partition.s} blocks, got {len(blocks)}")
        return cls(partition, np.concatenate([np.ravel(b) for b in blocks]))

    def block(self, i):
        return self.data[self.partition.slice(i)]

    def set_block(self, i, value):
        self.data[self.partition.slice(i)] = value

    def blocks(self):
        return self.partition.split(self.data)

    def copy(self):
        return BlockVector(self.partition, self.data.copy())

    def norm(self):
        return vec_norm(self.data)

    def __array__(self, dtype=None, copy=None):
        """The numpy array protocol: ``np.asarray(v)`` is ``v.data``,
        ``np.array(v)`` a copy."""
        return np.array(self.data, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"BlockVector(dims={self.partition.dims}, data={self.data!r})"


def vec_norm(v):
    """``np.linalg.norm`` of a real array, bit for bit, as a float: its
    ``ravel(order="K")`` (a strided ``dot`` may sum otherwise), ``dot``, ``sqrt``."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def finite(arr, what):
    """``arr`` as a float array; :class:`NonFinite` if it holds NaN or inf."""
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFinite(f"{what} contains NaN or inf")
    return arr


def int_at_least(value, what, least):
    """``value`` as an int if it is an integer (numpy ones included, bools
    not) ``>= least``; :class:`InvalidParams` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise InvalidParams(f"{what} must be an int >= {least}, got {value!r}")
    return int(value)


def is_real(value):
    """Whether ``value`` is a real number (numpy ones included, bools not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def finite_real(value, what, positive=False):
    """``value`` as a float if it is a finite real (bools not) ``>= 0``
    (``> 0`` when ``positive``); :class:`InvalidParams` otherwise."""
    if not (is_real(value) and np.isfinite(value)
            and (value > 0 if positive else value >= 0)):
        raise InvalidParams(f"{what} must be finite and "
                            f"{'positive' if positive else '>= 0'}, got {value!r}")
    return float(value)


def relaxation(omega):
    """``omega`` as a float if it is a real (bools not) in ``[1, 2)``;
    :class:`InvalidParams` for a non-real, :class:`OmegaOutOfRange` for
    one outside the interval."""
    if not is_real(omega):
        raise InvalidParams(f"omega must be a real number, got {omega!r}")
    omega = float(omega)
    if not (1.0 <= omega < 2.0):
        raise OmegaOutOfRange(f"omega must lie in [1, 2), got {omega}")
    return omega


def dense_pd(op, what):
    """``op.dense()``, refused with :class:`NotPD` unless its least
    eigenvalue exceeds 1e-10 times its 2-norm."""
    Qd = op.dense()
    scale = max(np.linalg.norm(Qd, 2), np.finfo(float).tiny)
    if eigvalsh(Qd).min() <= 1e-10 * scale:
        raise NotPD(f"{what} needs a positive definite operator")
    return Qd


def _check_symmetric(M, what):
    nrm = np.linalg.norm(M)
    if nrm == 0.0:
        return
    if np.linalg.norm(M - M.T) > _SYM_RTOL * nrm:
        raise NotSymmetric(f"{what} is not symmetric to relative tolerance {_SYM_RTOL}")


class BlockSymOperator:
    """Symmetric operator given by its upper block triangle.

    Only blocks ``(i, j)`` with ``i <= j`` may be supplied, all finite; the
    lower triangle is their transpose.  Diagonal blocks must be symmetric
    (relative tolerance 1e-12) and positive definite: each is factored
    once, ``Q_ii = T_i T_i^T`` with ``T_i = J L_i J`` and ``L_i`` the lower
    Cholesky factor of the reversed block ``J Q_ii J``, the only factor of
    ``Q_ii`` (:meth:`diag_solve`, :meth:`factor_solve`).  The dense store
    (:meth:`panels`), written here, is the one copy of ``Q``; it aliases no input.
    Semidefiniteness of the full operator is *not* assumed.

    Parameters
    ----------
    partition : BlockPartition
    blocks : dict
        Mapping ``(i, j) -> ndarray`` with zero-based ``i <= j``.
        Missing off-diagonal blocks are treated as zero; every diagonal
        block is required.
    factor_diag : bool
        Factor the diagonal blocks (required for sweeps).  Pass False
        for operators used only through :meth:`matvec`/:meth:`dense`
        (e.g. a possibly singular PSD cost term).
    """

    def __init__(self, partition, blocks, factor_diag=True):
        self.partition = P = partition
        off = P.offsets
        S = np.zeros((P.total, P.total))
        for key, val in blocks.items():
            i, j = key
            if not (0 <= i <= j < P.s):
                raise InvalidParams(
                    f"block key {key} is not an upper-triangle index pair"
                )
            arr = np.asarray(val, dtype=float)
            want = (P.dims[i], P.dims[j])
            if arr.shape != want:
                raise DimensionMismatch(
                    f"block {key} has shape {arr.shape}, expected {want}"
                )
            S[off[j]:off[j + 1], off[i]:off[i + 1]] = arr.T
            S[off[i]:off[i + 1], off[j]:off[j + 1]] = arr   # written last for i == j
        # per-block sums of |Q|: zero for an all-zero block, NaN or inf for
        # a non-finite one (or, harmlessly, one whose sum overflows)
        mass = np.add.reduceat(np.add.reduceat(np.abs(S), off[:-1], axis=1),
                               off[:-1], axis=0)    # along rows first: faster
        if not np.isfinite(mass).all():
            for i, j in blocks:
                if not np.isfinite(S[P.slice(i), P.slice(j)]).all():
                    raise NonFinite(f"block {(i, j)} contains NaN or inf")
        self._keys = tuple((i, j) for i, j in blocks if mass[i, j] > 0.0)
        # rows/columns of the principal sub-block holding every stored block
        live = np.flatnonzero(mass.any(axis=0))
        self._span = (off[live[0]], off[live[-1] + 1]) if live.size else (0, 0)
        cuts = list(zip(off, off[1:]))
        self._panels = (S, [S[lo:hi, :lo] for lo, hi in cuts],
                        [S[lo:hi, hi:] for lo, hi in cuts],
                        [S[lo:hi, lo:hi] for lo, hi in cuts])
        self._rchol = [] if factor_diag else None
        for i, D in enumerate(self._panels[3]):
            if not mass[i, i] > 0.0:
                if factor_diag:
                    raise DiagonalNotPD(i, f"diagonal block {i} is missing or zero")
                continue
            _check_symmetric(D, f"diagonal block {i}")
            # exactly symmetric, so sweeps and dense() agree to the last bit
            D[...] = 0.5 * (D + D.T)
            if factor_diag:
                L, info = dpotrf(D[::-1, ::-1], lower=1)
                if info != 0:
                    raise DiagonalNotPD(i)
                self._rchol.append(L)

    # -- basic access -------------------------------------------------

    @property
    def s(self):
        return self.partition.s

    @property
    def n(self):
        return self.partition.total

    def block(self, i, j):
        """The ``(i, j)`` block, a view into the dense store."""
        P = self.partition
        return self._panels[0][P.slice(i), P.slice(j)]

    def stored_items(self):
        """``(key, block)`` for each nonzero input block, in input order."""
        return [(key, self.block(*key)) for key in self._keys]

    def panels(self):
        """``(S, lower, upper, diag)``: the dense row-major store ``S`` of
        ``Q`` and, per block ``i``, views of ``Q[i, :i]``, ``Q[i, i+1:]``
        and ``Q_ii`` into it."""
        return self._panels

    def dense(self):
        """Full symmetric matrix (test/certification hook)."""
        return self._panels[0].copy()

    # -- products -----------------------------------------------------

    def matvec(self, x):
        """``Q x`` for a flat vector ``x``.  When the stored blocks span the
        whole operator, one ``dsymv`` that reads only the upper triangle of
        the store (``S.T`` is its Fortran-ordered view, no copy); otherwise
        one product on the principal sub-block they span, zeros outside it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected length {self.n}, got shape {x.shape}")
        lo, hi = self._span
        if hi - lo == self.n:
            return dsymv(1.0, self._panels[0].T, x, lower=1)
        out = np.zeros(self.n)
        out[lo:hi] = self._panels[0][lo:hi, lo:hi] @ x[lo:hi]
        return out

    def apply(self, x):
        """``Q x`` for a :class:`BlockVector`."""
        return BlockVector(self.partition, self.matvec(x.data))

    # The next three have no caller in the package; the benchmark tracer wraps them.
    def upper_matvec_blocks(self, xb):
        """``U x`` blockwise (strict upper triangle only), one upper
        panel product per block."""
        x, off, upper = np.concatenate(xb), self.partition.offsets, self.panels()[2]
        return [upper[i] @ x[off[i + 1]:] for i in range(self.s)]

    def upper_t_matvec_blocks(self, xb):
        """``U^* x`` blockwise, one lower panel product per block."""
        x, off, lower = np.concatenate(xb), self.partition.offsets, self.panels()[1]
        return [lower[i] @ x[:off[i]] for i in range(self.s)]

    def diag_matvec_blocks(self, xb):
        diag = self.panels()[3]
        return [diag[i] @ xb[i] for i in range(self.s)]

    def diag_factors(self):
        """The lower Cholesky factors ``L_i`` of the reversed diagonal
        blocks ``J Q_ii J``, one per block."""
        if self._rchol is None:
            raise InvalidParams("operator was assembled with factor_diag=False")
        return self._rchol

    def diag_solve(self, i, rhs):
        """``Q_{ii}^{-1} rhs = J L_i^{-T} L_i^{-1} J rhs``: two triangular
        solves (``dtrsv``) with the stored factor of the reversed block on
        the reversed ``rhs``, with no per-call finiteness check (inputs are
        checked where they enter)."""
        L = self.diag_factors()[i]
        return dtrsv(L, dtrsv(L, rhs[::-1], lower=1), lower=1, trans=1,
                     overwrite_x=1)[::-1]

    def factor_solve(self, v, trans=False):
        """``T^{-1} v`` (``T^{-T} v`` when ``trans``), ``T`` block diagonal:
        per block ``T_i^{-1} v_i = J L_i^{-1} J v_i``, one ``dtrsv``."""
        blocks = zip(self.diag_factors(), self.partition.split(v))
        return np.concatenate([dtrsv(L, b[::-1], lower=1, trans=trans)[::-1]
                               for L, b in blocks])

    # -- derived operators -------------------------------------------

    def with_added_diag(self, shifts):
        """A new operator with ``shifts[i]`` added to each diagonal block,
        or this one when every entry is ``None`` (a zero shift).

        Each shift must be finite, of its block's shape, symmetric and PSD
        (eigenvalues >= -1e-10 relative), and each shifted diagonal block
        positive definite; :class:`DimensionMismatch` for a list of the
        wrong length.
        """
        if len(shifts) != self.s:
            raise DimensionMismatch(
                f"expected {self.s} shift blocks, got {len(shifts)}"
            )
        if all(J is None for J in shifts):
            return self
        blocks = dict(self.stored_items())
        for i, J in enumerate(shifts):
            if J is None:
                continue
            J = finite(J, f"shift block {i}")
            want = (self.partition.dims[i],) * 2
            if J.shape != want:
                raise ShapeMismatch(f"shift {i} has shape {J.shape}, expected {want}")
            _check_symmetric(J, f"shift block {i}")
            scale = max(np.linalg.norm(J, 2), 1.0)
            if eigvalsh(0.5 * (J + J.T)).min() < -_PSD_RTOL * scale:
                raise ShiftNotPSD(i)
            # ``block`` reads zeros for a diagonal block that is not stored
            blocks[(i, i)] = self.block(i, i) + 0.5 * (J + J.T)
        return BlockSymOperator(self.partition, blocks)


def sweep(op, y, a, lower, solve=None, start=0, out=None):
    """Block substitution over the row panels of ``op``, the kernel of
    every sweep.

    With ``L = U^*`` below the block diagonal ``D``, a forward pass
    (``lower``, blocks ``start..s-1``) solves ``(a D + L) z = y`` and reads
    only the lower panels, a backward pass (blocks ``s-1..start``) ``(a D +
    U) z = y`` and reads only the upper ones.  Per block: one panel product
    and one ``solve(i, rhs)`` returning ``z_i`` (default: ``a Q_ii z_i =
    rhs`` by the cached factor), ``rhs`` a view of ``y``, not to be written,
    when no block is known yet.  ``z`` is written into ``out``, whose
    blocks before ``start`` a forward pass reads as known.
    """
    _, low, up, _ = op.panels()
    off = op.partition.offsets
    z = np.zeros(op.n) if out is None else out
    if solve is None:
        def solve(i, rhs):
            return op.diag_solve(i, rhs) / a
    for i in range(start, op.s) if lower else range(op.s - 1, start - 1, -1):
        lo, hi = off[i], off[i + 1]
        panel, known = (low[i], z[:lo]) if lower else (up[i], z[hi:])
        z[lo:hi] = solve(i, y[lo:hi] - panel @ known if known.size else y[lo:hi])
    return z


def block_split(op):
    """Dense block diagonal ``D`` and strict upper block triangle ``U`` of
    ``op`` (certification and tuning only)."""
    S, _, _, diag = op.panels()
    D = block_diag(*diag)
    return D, np.triu(S - D)     # the diagonal blocks of S - D are zero


class Majorizer:
    """Implicit proximal weight ``T`` and majorized operator ``Qhat = Q + T``.

    Built by :func:`sgs_operator` and :meth:`relaxed`; never
    instantiated directly.  With the outer scale ``a`` and middle scale
    ``c`` (``a = c = 1`` for Gauss-Seidel), ``Qhat = (a Dhat + U)(c
    Dhat)^{-1}(a Dhat + U^*)``.  Every action goes through its only factor
    ``Y`` (:meth:`factor`) or the operator's ``T_i``: products with ``Qhat``
    and ``T``, solves with ``Qhat``, the perturbation and both norms of its
    bound.  ``densify`` forms the dense weights, for certification only.
    """

    def __init__(self, base, eff, a, c, shifts=None, omega=None):
        self.base = base          # the operator Q being majorized
        self.eff = eff            # Q with shifts folded into the diagonal
        self.omega = omega
        self.shifts = shifts
        self._a = a               # diagonal scale in the outer factors
        self._c = c               # diagonal scale in the middle inverse
        self.partition = base.partition
        self._factor = None
        # read-only zeros, shared by the residuals of every exact cycle
        self.zero = BlockVector(self.partition, np.zeros(self.partition.total))
        self.zero.data.flags.writeable = False

    def relaxed(self, omega):
        """The over-relaxed majorizer, ``omega in [1, 2)`` (checked by
        :func:`relaxation`), of the same (shifted) operator, sharing its
        store and diagonal factors."""
        omega = relaxation(omega)
        tau = 1.0 / omega
        return Majorizer(self.base, self.eff, tau, 2.0 * tau - 1.0,
                         shifts=self.shifts, omega=omega)

    def factor(self):
        """``Y``, upper triangular with ``Y Y^T = Qhat``, Fortran-ordered and
        cached: ``c^{-1/2} (a Dhat + U) T^{-T}``, ``T_i = J L_i J`` the
        operator's factors (:meth:`BlockSymOperator.diag_factors`), so its
        diagonal blocks are ``(a / sqrt(c)) T_i`` and the panels above them
        ``c^{-1/2} U_{:,i} T_i^{-T}``; a unit scale is skipped (exact).
        Blocks are written in place, right to left; ``dtrtri`` inverts a copy
        of ``T_i``, which, when over a sixteenth of ``Y``, goes into ``Y``'s
        first columns, still unwritten, if it fits (their strict lower
        triangle is zeroed at the end)."""
        if self._factor is None:
            S, off, r = self.eff.panels()[0], self.partition.offsets, self._c ** -0.5
            N, ar, dims = len(S), self._a * r, self.partition.dims
            self._factor = Y = np.zeros(S.shape, order="F")
            free, factors = Y.reshape(-1, order="F"), self.eff.diag_factors()
            for i in reversed(range(len(dims))):
                lo, hi, n, Ti = off[i], off[i + 1], dims[i], factors[i][::-1, ::-1]
                Y[lo:hi, lo:hi] = Ti
                if ar != 1.0:       # the column band is contiguous
                    Y[:, lo:hi] *= ar
                if not lo:      # block 0 has no panel
                    continue
                if N * N < 16 * n * n <= 16 * lo * N:
                    Tinv = free[:n * n].reshape(n, n).T
                    Tinv[...] = Ti
                    dtrtri(Tinv, overwrite_c=1)
                else:
                    Tinv = dtrtri(Ti)[0]
                if r != 1.0:
                    Tinv *= r
                np.matmul(S[:lo, lo:hi], Tinv.T, out=Y[:lo, lo:hi])
            for j in range(-(-max(dims) ** 2 // N)):     # what a copy may reach
                Y[j + 1:, j] = 0.0
        return self._factor

    # -- public operator interface -----------------------------------
    # Vectors go in as array_like (a BlockVector included) of length N, checked
    # by BlockVector (DimensionMismatch otherwise), and come out flat.

    def apply_T(self, x):
        """``T x = c^{-1} M M^T x + diag(J) x``, PSD: ``M = ((1 - a) Dhat +
        U) T^{-T}`` is ``sqrt(c) Y`` with its diagonal blocks times ``f =
        (1-a)/a``, applied per block column of ``Y`` (its panel above the
        diagonal and ``f Y_ii``), with no N x N temporary."""
        vec = BlockVector(self.partition, x).data
        Y, off, f = self.factor(), self.partition.offsets, (1.0 - self._a) / self._a
        out = np.zeros(vec.shape)
        for lo, hi in zip(off, off[1:]):
            P, Yii = Y[:lo, lo:hi], Y[lo:hi, lo:hi]
            u = P.T @ vec[:lo] + f * (Yii.T @ vec[lo:hi])
            out[:lo] += P @ u
            out[lo:hi] += f * (Yii @ u)
        return self.plus_shift(out, vec)

    def plus_shift(self, v, x):
        """``v + diag(J) x`` for flat ``v`` and ``x``, added block by block
        into a new array; ``v`` itself when unshifted."""
        if self.shifts is None:
            return v
        out = np.array(v, dtype=float)
        for i, J in enumerate(self.shifts):
            if J is not None:
                sl = self.partition.slice(i)
                out[sl] += J @ x[sl]
        return out

    def apply_Qhat(self, x):
        """``Qhat x = Y Y^T x``, two triangular products."""
        Y = self.factor()
        return dtrmv(Y, dtrmv(Y, BlockVector(self.partition, x).data, trans=1))

    def solve_Qhat(self, y):
        """``Qhat^{-1} y = Y^{-T} Y^{-1} y``, two triangular solves."""
        Y = self.factor()
        return dtrsv(Y, dtrsv(Y, BlockVector(self.partition, y).data), trans=1)

    def dinv_norm(self, v):
        """``||(c Dhat)^{-1/2} v|| = ||T^{-1} v|| / sqrt(c)``, the weight of
        the perturbation bound (``c Dhat`` is ``rho D`` when over-relaxed)."""
        vec = BlockVector(self.partition, v).data
        return float(np.linalg.norm(self.eff.factor_solve(vec))) / np.sqrt(self._c)

    def perturbation(self, delta_prime, delta):
        """Aggregate perturbation of an inexact cycle, ``delta' + (a Dhat +
        U)(c Dhat)^{-1}(delta - delta') = delta' + c^{-1/2} Y T^{-1}(delta -
        delta')``; both vectors agree on block 1, as a cycle's do."""
        dp, d = (BlockVector(self.partition, v).data for v in (delta_prime, delta))
        w = dtrmv(self.factor(), self.eff.factor_solve(d - dp))
        return dp + self._c ** -0.5 * w

    # -- norms and dense hooks ---------------------------------------

    def quad_norm(self, x, which):
        """``sqrt(<x, M x>)`` for ``M`` in ``{Qhat, Qhat_inv}``: ``||Y^T x||``
        or ``||Y^{-1} x||``, one triangular product or solve."""
        vec = BlockVector(self.partition, x).data
        if which == "Qhat":
            out = dtrmv(self.factor(), vec, trans=1)
        elif which == "Qhat_inv":
            out = dtrsv(self.factor(), vec)
        else:
            raise InvalidParams(f"unknown quadratic norm {which!r}")
        return float(np.linalg.norm(out))

    def densify(self, which="Qhat"):
        """Dense ``Qhat`` or ``T`` — certification hook only."""
        P = self.partition
        Dh, Uf = block_split(self.eff)
        if which == "Qhat":
            F = self._a * Dh + Uf
        elif which == "T":
            F = (1.0 - self._a) * Dh + Uf
        else:
            raise InvalidParams(f"unknown densify target {which!r}")
        mid = np.linalg.solve(self._c * Dh, F.T)
        M = F @ mid
        M = 0.5 * (M + M.T)
        if which == "T" and self.shifts is not None:
            for i, J in enumerate(self.shifts):
                if J is not None:
                    M[P.slice(i), P.slice(i)] += J
        return M

    def m_constant(self):
        """``2 ||M^{-1/2}||_2 + ||Qhat^{-1/2}||_2`` for the error analysis."""
        lam_d = min(eigvalsh(self.eff.block(i, i)).min() for i in range(self.eff.s))
        lam_qhat = eigvalsh(self.densify("Qhat")).min()
        return 2.0 / np.sqrt(self._c * lam_d) + 1.0 / np.sqrt(lam_qhat)


def sgs_operator(Q, shifts=None):
    """Symmetric Gauss-Seidel majorizer of ``Q``, with the PSD ``shifts``
    (if any is not None) folded into the diagonal of its operator and
    checked there (:meth:`BlockSymOperator.with_added_diag`).  An operator
    assembled with ``factor_diag=False`` and no shift is factored in a
    copy, so a diagonal block that is not PD raises :class:`DiagonalNotPD`
    here."""
    eff = Q if shifts is None else Q.with_added_diag(shifts)
    if eff is Q:
        if Q._rchol is None:
            eff = BlockSymOperator(Q.partition, dict(Q.stored_items()))
        return Majorizer(Q, eff, 1.0, 1.0)
    kept = [None if J is None else np.asarray(J, dtype=float) for J in shifts]
    return Majorizer(Q, eff, 1.0, 1.0, shifts=kept)
