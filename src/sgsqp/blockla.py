"""Block-partitioned symmetric operators and their Gauss-Seidel style majorizers.

A symmetric positive semidefinite operator on a product space
``R^{n_1} x ... x R^{n_s}`` is stored through its upper block triangle
only; diagonal blocks are kept together with a Cholesky factorization so
that all sweeps can run with triangular block substitutions.  The
splitting ``Q = U + D + U^*`` (``U`` the strict upper block triangle,
``D`` the block diagonal) induces the majorizers handled here:

* ``sgs``:          ``T = U D^{-1} U^*`` and ``Qhat = (D+U) D^{-1} (D+U^*)``
* ``sgs`` shifted:  ``D`` replaced by ``Dhat = D + diag(J_i)`` with PSD
  shifts, ``T = diag(J) + U Dhat^{-1} U^*``
* ``ssor``:         with ``tau = 1/omega``, ``rho = 2 tau - 1``,
  ``T = ((1-tau)D+U)(rho D)^{-1}((1-tau)D+U^*)`` and
  ``Qhat = (tau D+U)(rho D)^{-1}(tau D+U^*)``

In every case ``Qhat = Q + T`` and ``Qhat`` is positive definite as soon
as the diagonal blocks are.

An operator keeps one dense row-major store of ``Q``, built on first use,
with views of the row panels ``Q[i, :i]`` and ``Q[i, i+1:]`` of each block.
Every sweep runs through :func:`sweep`, one block substitution kernel: per
block one panel product per side and one solve through the cached
Cholesky factor, so a cycle costs two passes over ``Q`` whatever the
number of blocks.  ``matvec`` is one product on the store.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, cho_factor, eigvalsh
from scipy.linalg.lapack import dpotrs

from .errors import (
    DiagonalNotPD,
    DimensionMismatch,
    InvalidParams,
    NonFinite,
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
    "ssor_operator",
    "conservative_shifts",
    "block_split",
    "sweep",
]

_SYM_RTOL = 1e-12
_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class BlockPartition:
    """Sizes ``(n_1, ..., n_s)`` of a product space, ``s >= 2``."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) < 2:
            raise InvalidParams("a block partition needs at least two blocks")
        if any(n <= 0 for n in dims):
            raise InvalidParams(f"block sizes must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        offsets = np.concatenate(([0], np.cumsum(dims)))
        object.__setattr__(self, "offsets", tuple(int(o) for o in offsets))

    @property
    def s(self):
        return len(self.dims)

    @property
    def total(self):
        return self.offsets[-1]

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
            raise DimensionMismatch(
                f"expected {partition.s} blocks, got {len(blocks)}"
            )
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
        return float(np.linalg.norm(self.data))

    def dot(self, other):
        other = other.data if isinstance(other, BlockVector) else other
        return float(self.data @ other)

    def __add__(self, other):
        other = other.data if isinstance(other, BlockVector) else other
        return BlockVector(self.partition, self.data + other)

    def __sub__(self, other):
        other = other.data if isinstance(other, BlockVector) else other
        return BlockVector(self.partition, self.data - other)

    def __rmul__(self, alpha):
        return BlockVector(self.partition, float(alpha) * self.data)

    def __len__(self):
        return self.data.shape[0]

    def __repr__(self):
        return f"BlockVector(dims={self.partition.dims}, data={self.data!r})"


def finite(arr, what):
    """``arr`` as a float array; :class:`NonFinite` if it holds NaN or inf."""
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFinite(f"{what} contains NaN or inf")
    return arr


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
    (relative tolerance 1e-12) and positive definite — they are
    Cholesky-factored once at assembly.  The dense store and its row
    panels (:meth:`panels`) are built on first use.  Semidefiniteness of
    the full operator is *not* assumed.

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
        self.partition = partition
        s = partition.s
        self._blocks = {}
        for key, val in blocks.items():
            i, j = key
            if not (0 <= i <= j < s):
                raise InvalidParams(
                    f"block key {key} is not an upper-triangle index pair"
                )
            arr = np.ascontiguousarray(val, dtype=float)
            want = (partition.dims[i], partition.dims[j])
            if arr.shape != want:
                raise DimensionMismatch(
                    f"block {key} has shape {arr.shape}, expected {want}"
                )
            big = np.abs(arr).max()     # NaN propagates
            if not big < np.inf:
                raise NonFinite(f"block {key} contains NaN or inf")
            if big > 0.0:
                self._blocks[(i, j)] = arr
        self._chol = None
        self._panels = None
        for i in range(s):
            if (i, i) not in self._blocks:
                if factor_diag:
                    raise DiagonalNotPD(i, f"diagonal block {i} is missing or zero")
                continue
            _check_symmetric(self._blocks[(i, i)], f"diagonal block {i}")
            # store the exactly symmetrized version so sweeps and dense()
            # agree to the last bit
            sym = 0.5 * (self._blocks[(i, i)] + self._blocks[(i, i)].T)
            self._blocks[(i, i)] = sym
        if factor_diag:
            self._chol = []
            for i in range(s):
                try:
                    c = cho_factor(self._blocks[(i, i)], lower=True)
                except np.linalg.LinAlgError as exc:
                    raise DiagonalNotPD(i) from exc
                self._chol.append(c)
                # cho_factor succeeds on some indefinite inputs only when
                # the trailing pivot is tiny; double-check positivity
                if not np.all(np.diag(c[0]) > 0.0):
                    raise DiagonalNotPD(i)

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
        return self.panels()[0][P.slice(i), P.slice(j)]

    def stored_items(self):
        return self._blocks.items()

    def panels(self):
        """``(S, lower, upper, diag)``: the dense row-major store ``S`` of
        ``Q`` and, per block ``i``, views of ``Q[i, :i]``, ``Q[i, i+1:]``
        and ``Q_ii`` into it.

        Built on first use and cached; the stored blocks then become views
        into ``S`` as well, so the operator keeps one copy of ``Q``.
        """
        if self._panels is None:
            P = self.partition
            S = np.zeros((self.n, self.n))
            for (i, j), arr in self._blocks.items():
                S[P.slice(i), P.slice(j)] = arr
                S[P.slice(j), P.slice(i)] = arr.T
            self._blocks = {(i, j): S[P.slice(i), P.slice(j)]
                            for i, j in self._blocks}
            rows = [(S[P.slice(i)], P.slice(i)) for i in range(self.s)]
            self._panels = (S, [r[:, :sl.start] for r, sl in rows],
                            [r[:, sl.stop:] for r, sl in rows],
                            [r[:, sl] for r, sl in rows])
        return self._panels

    def dense(self):
        """Full symmetric matrix (test/certification hook)."""
        return self.panels()[0].copy()

    # -- products -----------------------------------------------------

    def matvec(self, x):
        """``Q x`` for a flat vector ``x``: one product on the dense store."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected length {self.n}, got shape {x.shape}")
        return self.panels()[0] @ x

    def apply(self, x):
        """``Q x`` for a :class:`BlockVector`."""
        return BlockVector(self.partition, self.matvec(x.data))

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

    def diag_solve(self, i, rhs):
        """``Q_{ii}^{-1} rhs`` through the cached Cholesky factor, with no
        per-call finiteness check (inputs are checked where they enter)."""
        if self._chol is None:
            raise InvalidParams("operator was assembled with factor_diag=False")
        return dpotrs(self._chol[i][0], rhs, lower=1)[0]

    # -- derived operators -------------------------------------------

    def with_added_diag(self, shifts):
        """A new operator with ``shifts[i]`` added to each diagonal block.

        Each shift must be symmetric PSD (eigenvalues >= -1e-10 relative);
        ``None`` entries mean a zero shift.
        """
        if len(shifts) != self.s:
            raise DimensionMismatch(
                f"expected {self.s} shift blocks, got {len(shifts)}"
            )
        blocks = {k: v.copy() for k, v in self._blocks.items()}
        for i, J in enumerate(shifts):
            if J is None:
                continue
            J = finite(J, f"shift block {i}")
            if J.shape != blocks[(i, i)].shape:
                raise ShapeMismatch(
                    f"shift {i} has shape {J.shape}, expected {blocks[(i, i)].shape}"
                )
            _check_symmetric(J, f"shift block {i}")
            scale = max(np.linalg.norm(J, 2), 1.0)
            if eigvalsh(0.5 * (J + J.T)).min() < -_PSD_RTOL * scale:
                raise ShiftNotPSD(i)
            blocks[(i, i)] = blocks[(i, i)] + 0.5 * (J + J.T)
        return BlockSymOperator(self.partition, blocks)


def sweep(op, y, a, lower, w=None, solve=None, start=0, out=None):
    """Block substitution over the row panels of ``op``, the kernel of
    every sweep.

    With ``L = U^*`` below the block diagonal ``D``, a forward pass
    (``lower``, blocks ``start..s-1``) solves ``(a D + L) z = y - ((1-a) D
    + U) w``, a backward pass (blocks ``s-1..start``) ``(a D + U) z = y -
    ((1-a) D + L) w``; no ``w``, no such term.  Per block: one panel
    product per side and one ``solve(i, rhs)`` returning ``z_i`` (default:
    ``a Q_ii z_i = rhs`` by the cached factor).  ``z`` is written into
    ``out``, whose blocks before ``start`` a forward pass reads as known.
    """
    _, low, up, diag = op.panels()
    off = op.partition.offsets
    z = np.zeros(op.n) if out is None else out
    if solve is None:
        def solve(i, rhs):
            return op.diag_solve(i, rhs) / a
    for i in range(start, op.s) if lower else range(op.s - 1, start - 1, -1):
        lo, hi = off[i], off[i + 1]
        if lower:
            r = y[lo:hi] - low[i] @ z[:lo]
            if w is not None:
                r -= up[i] @ w[hi:]
        else:
            r = y[lo:hi] - up[i] @ z[hi:]
            if w is not None:
                r -= low[i] @ w[:lo]
        if w is not None and a != 1.0:
            r -= (1.0 - a) * (diag[i] @ w[lo:hi])
        z[lo:hi] = solve(i, r)
    return z


def conservative_shifts(Q):
    """Shifts ``J_i = ||Q_ii||_2 I - Q_ii`` (PSD by construction)."""
    out = []
    for i in range(Q.s):
        Qii = Q.block(i, i)
        out.append(np.linalg.norm(Qii, 2) * np.eye(Qii.shape[0]) - Qii)
    return out


def block_split(op):
    """Dense block diagonal ``D`` and strict upper block triangle ``U`` of
    ``op`` (certification and tuning only)."""
    S, _, _, diag = op.panels()
    D = block_diag(*diag)
    return D, np.triu(S - D)     # the diagonal blocks of S - D are zero


class Majorizer:
    """Implicit proximal weight ``T`` and majorized operator ``Qhat = Q + T``.

    Built by :func:`sgs_operator` or :func:`ssor_operator`; never
    instantiated directly.  Solves
    with ``Qhat`` are two passes of the :func:`sweep` kernel over the row
    panels of the (shifted) operator with its factored diagonal;
    applications of ``T`` and ``Qhat`` are per-block panel products.
    ``densify`` forms the dense weights, for certification only.
    """

    def __init__(self, base, eff, kind, a, c, shifts=None, omega=None):
        self.base = base          # the operator Q being majorized
        self.eff = eff            # Q with shifts folded into the diagonal
        self.kind = kind
        self.omega = omega
        self.shifts = shifts
        self._a = a               # diagonal scale in the outer factors
        self._c = c               # diagonal scale in the middle inverse
        self.partition = base.partition

    # -- factored products --------------------------------------------

    def _upper_apply(self, zb, g):
        """``(g*Dhat + U) z`` blockwise, by upper and diagonal panels."""
        yb = self.eff.upper_matvec_blocks(zb)
        if g == 0.0:
            return yb
        return [y + g * d for y, d in zip(yb, self.eff.diag_matvec_blocks(zb))]

    def _factored_apply(self, xb, g):
        """``(g*Dhat + U)(c*Dhat)^{-1}(g*Dhat + U^*) x`` blockwise."""
        op = self.eff
        wb = op.upper_t_matvec_blocks(xb)
        if g != 0.0:
            wb = [w + g * d for w, d in zip(wb, op.diag_matvec_blocks(xb))]
        return self._upper_apply(
            [op.diag_solve(i, w) / self._c for i, w in enumerate(wb)], g)

    # -- public operator interface -----------------------------------

    def apply_T(self, x):
        """``T x`` for a flat vector or BlockVector."""
        vec = x.data if isinstance(x, BlockVector) else np.asarray(x, dtype=float)
        xb = self.partition.split(vec)
        yb = self._factored_apply(xb, 1.0 - self._a)
        if self.shifts is not None:
            for i, J in enumerate(self.shifts):
                if J is not None:
                    yb[i] = yb[i] + J @ xb[i]
        out = np.concatenate(yb)
        return BlockVector(self.partition, out) if isinstance(x, BlockVector) else out

    def apply_Qhat(self, x):
        """``Qhat x = (Q + T) x`` through the product factorization."""
        vec = x.data if isinstance(x, BlockVector) else np.asarray(x, dtype=float)
        xb = self.partition.split(vec)
        yb = self._factored_apply(xb, self._a)
        out = np.concatenate(yb)
        return BlockVector(self.partition, out) if isinstance(x, BlockVector) else out

    def solve_Qhat(self, y):
        """``Qhat^{-1} y``: a backward and a forward :func:`sweep` around
        a block diagonal product."""
        vec = y.data if isinstance(y, BlockVector) else np.asarray(y, dtype=float)
        z = sweep(self.eff, vec, self._a, lower=False)
        wb = self.eff.diag_matvec_blocks(self.partition.split(z))
        out = sweep(self.eff, self._c * np.concatenate(wb), self._a, lower=True)
        return BlockVector(self.partition, out) if isinstance(y, BlockVector) else out

    def dinv_norm(self, v):
        """Norm ``||M^{-1/2} v||`` for the middle diagonal ``M`` of ``T``.

        ``M`` is ``Dhat`` for the Gauss-Seidel kinds and ``rho * D`` for
        the over-relaxed kind; this is the weight appearing in the
        perturbation bound.
        """
        vec = v.data if isinstance(v, BlockVector) else np.asarray(v, dtype=float)
        acc = sum(float(v @ self.eff.diag_solve(i, v))
                  for i, v in enumerate(self.partition.split(vec)))
        return np.sqrt(max(acc, 0.0) / self._c)

    def perturbation(self, delta_prime, delta):
        """Aggregate perturbation of an inexact cycle.

        For the Gauss-Seidel kinds this is ``delta + U Dhat^{-1} (delta -
        delta')``; for the over-relaxed kind,
        ``delta' + (tau D + U)(rho D)^{-1}(delta - delta')``.  Both
        vectors must agree on block 1 (checked by the caller).
        """
        dp = delta_prime.data if isinstance(delta_prime, BlockVector) else delta_prime
        d = delta.data if isinstance(delta, BlockVector) else delta
        diffb = self.partition.split(np.asarray(d) - np.asarray(dp))
        g, base = (self._a, dp) if self.kind == "ssor" else (0.0, d)
        zb = [self.eff.diag_solve(i, v) / self._c for i, v in enumerate(diffb)]
        out = np.asarray(base) + np.concatenate(self._upper_apply(zb, g))
        return BlockVector(self.partition, out)

    # -- norms and dense hooks ---------------------------------------

    def quad_norm(self, x, which):
        """``sqrt(<x, M x>)`` for ``M`` in ``{Q, T, Qhat, Qhat_inv, Dinv}``."""
        vec = x.data if isinstance(x, BlockVector) else np.asarray(x, dtype=float)
        if which == "Q":
            val = vec @ self.base.matvec(vec)
        elif which == "T":
            val = vec @ self.apply_T(vec)
        elif which == "Qhat":
            val = vec @ self.apply_Qhat(vec)
        elif which == "Qhat_inv":
            val = vec @ self.solve_Qhat(vec)
        elif which == "Dinv":
            return self.dinv_norm(vec)
        else:
            raise InvalidParams(f"unknown quadratic norm {which!r}")
        return float(np.sqrt(max(val, 0.0)))

    def densify(self, which="Qhat"):
        """Dense ``T``, ``Qhat`` or ``Q`` — certification hook only."""
        if which == "Q":
            return self.base.dense()
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
        lam_d = min(
            eigvalsh(self.eff.block(i, i)).min() for i in range(self.eff.s)
        )
        lam_qhat = eigvalsh(self.densify("Qhat")).min()
        return 2.0 / np.sqrt(self._c * lam_d) + 1.0 / np.sqrt(lam_qhat)


def _majorizer(Q, shifts, kind, a, c, omega=None):
    """A :class:`Majorizer` of ``Q``, with the PSD ``shifts`` (if any is
    not None) folded into the diagonal of its operator."""
    if shifts is None or all(J is None for J in shifts):
        return Majorizer(Q, Q, kind, a, c, omega=omega)
    kept = [None if J is None else np.asarray(J, dtype=float) for J in shifts]
    return Majorizer(Q, Q.with_added_diag(shifts), kind, a, c, shifts=kept,
                     omega=omega)


def sgs_operator(Q, shifts=None):
    """Symmetric Gauss-Seidel majorizer of ``Q`` (optionally shifted)."""
    return _majorizer(Q, shifts, "sgs", 1.0, 1.0)


def ssor_operator(Q, omega, shifts=None):
    """Symmetric over-relaxed majorizer, ``omega in [1, 2)``."""
    omega = float(omega)
    if not (1.0 <= omega < 2.0):
        raise OmegaOutOfRange(f"omega must lie in [1, 2), got {omega}")
    tau = 1.0 / omega
    return _majorizer(Q, shifts, "ssor", tau, 2.0 * tau - 1.0, omega=omega)
