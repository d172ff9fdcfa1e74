"""Property tests of the block substitution kernel over generated shapes.

Partitions have 2 to 8 blocks, 1-wide blocks included, and any pattern of
stored off-diagonal blocks from none to all pairs.  Every cycle path is
checked against the dense oracle, which rebuilds the proximal weight from
plain triangle masks and shares no code with the kernel.  The
majorizer's triangular factor ``Qhat = Y Y^T`` is checked against the
oracle's weights and plain numpy solves, and its products, norms and
perturbation against dense formulas from this file's own block split.
The operator's dense store is checked against this file's own assembly
of the input blocks, and against the same inputs with one bad block; a
full-span product, against the dense one with NaN in the store's strict
lower triangle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    CompositeQP,
    IterativeMode,
    NoisyMode,
    ProxSpec,
    sgs_cycle,
)
from sgsqp import blockla, proxmap, sgs
from sgsqp.blockla import dpotrf, sweep
from sgsqp.errors import (DiagonalNotPD, DimensionMismatch, InvalidParams,
                          NonFinite, NotSymmetric)
from sgsqp.oracle import dense_sgs_weight, dense_ssor_weight, dense_subproblem_solve
from sgsqp.proxmap import prox_value

from conftest import conservative_shifts

PROPS = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)
PROX = ("zero", "l1", "nonneg", "box", "psd_cone")
PATHS = ("sgs", "ssor", "reuse", "noisy", "iterative")


@st.composite
def operators(draw, head_identity=False):
    """A strictly diagonally dominant (hence PD) block operator with a
    random pattern of stored off-diagonal blocks."""
    s = draw(st.integers(2, 8))
    dims = draw(st.lists(st.integers(1, 4), min_size=s, max_size=s))
    pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    stored = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    coupling = draw(st.sampled_from((1.0, 1e-3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _operator(dims, [p for p, keep in zip(pairs, stored) if keep],
                     coupling, rng, head_identity)


def _operator(dims, pairs, coupling, rng, head_identity):
    part = BlockPartition(tuple(dims))
    M = np.zeros((part.total, part.total))
    for i, j in pairs:
        M[part.slice(i), part.slice(j)] = coupling * rng.uniform(
            -1.0, 1.0, (dims[i], dims[j]))
    M = M + M.T
    for i in range(part.s):
        G = rng.uniform(-1.0, 1.0, (dims[i], dims[i]))
        M[part.slice(i), part.slice(i)] = G + G.T
    M[np.diag_indices_from(M)] += np.abs(M).sum(axis=1) + 1.0
    if head_identity:
        h = part.slice(0)
        M[h, h] = (np.abs(M[h, h.stop:]).sum(axis=1).max() + 1.0) * np.eye(dims[0])
    blocks = {(i, i): M[part.slice(i), part.slice(i)] for i in range(part.s)}
    blocks.update({(i, j): M[part.slice(i), part.slice(j)] for i, j in pairs})
    return BlockSymOperator(part, blocks), M


def _prox(kind, n1):
    if kind == "l1":
        return ProxSpec.l1(0.3)
    if kind == "box":
        lo = np.full(n1, -0.4)
        return ProxSpec.box(lo, np.where(np.arange(n1) % 2 == 0, 0.4, lo))
    return {"zero": ProxSpec.zero(), "nonneg": ProxSpec.nonneg(),
            "psd_cone": ProxSpec.psd_cone(2)}[kind]


@st.composite
def cycles(draw, prox_kind, path):
    shifted = draw(st.booleans())
    Q, M = draw(operators(head_identity=prox_kind != "zero" and not shifted))
    if prox_kind == "psd_cone":
        # the head block must hold a packed 2x2 symmetric matrix
        dims = (3,) + Q.partition.dims[1:]
        pairs = [k for k, _ in Q.stored_items() if k[0] != k[1]]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        Q, M = _operator(dims, pairs, 1.0, rng, not shifted)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    part = Q.partition
    prob = CompositeQP(Q, rng.standard_normal(part.total),
                       _prox(prox_kind, part.dims[0]),
                       shifts=conservative_shifts(Q) if shifted else None)
    omega = draw(st.floats(1.0, 1.9)) if path == "ssor" else None
    mode = {"noisy": NoisyMode(seed=3, scale=1e-3), "reuse": NoisyMode(seed=3, scale=1e-2),
            "iterative": IterativeMode(rel_tol=1e-6)}.get(path, "exact")
    if path == "ssor":
        mode = draw(st.sampled_from(("exact", NoisyMode(seed=5, scale=1e-3),
                                     IterativeMode(rel_tol=1e-6))))
    return prob, rng.standard_normal(part.total), mode, omega


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("prox_kind", PROX)
@settings(PROPS, max_examples=6)
@given(data=st.data())
def test_cycle_solves_the_proximal_subproblem(prox_kind, path, data):
    prob, xbar, mode, omega = data.draw(cycles(prox_kind, path))
    res = sgs_cycle(prob, xbar, mode=mode, omega=omega,
                    forward_reuse=1.0 if path == "reuse" else None)
    ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta,
                                 kind="ssor" if omega else "sgs", omega=omega)
    scale = 1.0 + np.linalg.norm(ref.data)
    assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale
    assert res.xi <= res.xi_bound + 1e-12 * max(1.0, res.xi_bound)
    if mode == "exact":
        assert res.xi == res.xi_bound == 0.0


def _run(prob, xbar, mode, omega, path, **kw):
    maj = prob.majorizer(omega)
    return sgs._cycle(prob, xbar, mode, maj,
                      reuse_c=1.0 if path == "reuse" else None, **kw)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("prox_kind", PROX)
@settings(PROPS, max_examples=4)
@given(data=st.data())
def test_handed_product_is_bit_identical(prox_kind, path, data):
    """A cycle handed ``Q xbar`` is the cycle that forms it, to the bit;
    an indicator head stays feasible."""
    prob, xbar, mode, omega = data.draw(cycles(prox_kind, path))
    want = _run(prob, xbar, mode, omega, path)
    got = _run(prob, xbar, mode, omega, path, Qxbar=prob.Q.matvec(xbar))
    for name in ("x_plus", "x_prime", "delta_prime", "delta", "Delta"):
        np.testing.assert_array_equal(getattr(got, name).data,
                                      getattr(want, name).data)
    np.testing.assert_array_equal(got.gamma1, want.gamma1)
    assert (got.stalled, got.reused, got.inner_iters) == (
        want.stalled, want.reused, want.inner_iters)
    n1 = prob.partition.dims[0]
    assert np.isfinite(prox_value(prob.prox, got.x_plus.data[:n1]))


class _Unread(list):
    """A panel list that must not be read."""

    def __getitem__(self, i):
        raise AssertionError("a sweep read a panel of the wrong side")


def _one_sided(op, lower):
    """``op.panels()`` with only the side a ``lower`` pass may read."""
    _, low, up, _ = op.panels()
    return (_Unread(), low if lower else _Unread(),
            _Unread() if lower else up, _Unread())


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("prox_kind", PROX)
@settings(PROPS, max_examples=3)
@given(data=st.data())
def test_cycle_sweeps_read_one_side_of_the_store(prox_kind, path, data):
    """The backward sweep reads only upper panels, the forward sweep only
    lower ones, and the cycle comes out the same."""
    prob, xbar, mode, omega = data.draw(cycles(prox_kind, path))
    want = _run(prob, xbar, mode, omega, path)
    kernel = sgs.sweep

    def one_sided(op, y, a, lower, **kw):
        panels = _one_sided(op, lower)
        op.panels = lambda: panels
        try:
            return kernel(op, y, a, lower, **kw)
        finally:
            del op.panels

    sgs.sweep = one_sided
    try:
        got = _run(prob, xbar, mode, omega, path)
    finally:
        sgs.sweep = kernel
    np.testing.assert_array_equal(got.x_plus.data, want.x_plus.data)
    np.testing.assert_array_equal(got.x_prime.data, want.x_prime.data)


@PROPS
@given(operators(), st.sampled_from((None, 1.0, 1.3, 1.8)), st.booleans())
def test_qhat_apply_and_solve_match_dense_weights(op, omega, shifted):
    Q, M = op
    part = Q.partition
    shifts = conservative_shifts(Q) if shifted else None
    prob = CompositeQP(Q, np.zeros(part.total), shifts=shifts)
    maj = prob.majorizer(omega)
    if omega is None:
        Qhat = M + dense_sgs_weight(part, M, shifts)
    else:
        J = np.zeros_like(M)
        for i, Ji in enumerate(shifts or ()):
            J[part.slice(i), part.slice(i)] = Ji
        Qhat = M + J + dense_ssor_weight(part, M + J, omega)
    x = np.random.default_rng(part.total).standard_normal(part.total)
    scale = np.linalg.norm(Qhat, 2) * np.linalg.norm(x)
    assert np.linalg.norm(maj.apply_Qhat(x) - Qhat @ x) <= 1e-12 * scale
    assert np.linalg.norm(maj.solve_Qhat(Qhat @ x) - x) <= 1e-9 * np.linalg.norm(x)


@PROPS
@given(operators(), st.floats(0.5, 1.0), st.booleans())
def test_sweep_matches_dense_triangular_solve(op, a, lower):
    """``(a D + L) z = y`` forward, ``(a D + U) z = y`` backward, reading
    only the panels of that side."""
    Q, M = op
    part = Q.partition
    D = np.zeros_like(M)
    for i in range(part.s):
        D[part.slice(i), part.slice(i)] = M[part.slice(i), part.slice(i)]
    U = np.triu(M - D)
    own = U.T if lower else U
    y = np.random.default_rng(part.total).standard_normal(part.total)
    want = np.linalg.solve(a * D + own, y)
    panels = _one_sided(Q, lower)
    Q.panels = lambda: panels
    got = sweep(Q, y, a, lower)
    assert np.linalg.norm(got - want) <= 1e-10 * (1.0 + np.linalg.norm(want))


def test_forward_pass_reads_known_head():
    """A forward pass from ``start`` keeps the given leading blocks and
    uses them as known values."""
    Q, M = _operator((2, 1, 3), [(0, 1), (0, 2), (1, 2)], 1.0,
                     np.random.default_rng(0), False)
    y = np.arange(6.0)
    out = np.zeros(6)
    out[:2] = [0.5, -1.0]
    sweep(Q, y, 1.0, lower=True, start=1, out=out)
    np.testing.assert_array_equal(out[:2], [0.5, -1.0])
    DL = M[2:, 2:].copy()
    DL[0, 1:] = 0.0          # block 1 (one row) does not see block 2
    want = np.linalg.solve(DL, y[2:] - M[2:, :2] @ out[:2])
    np.testing.assert_allclose(out[2:], want, rtol=0, atol=1e-12)


class _NoProduct:
    def __matmul__(self, other):
        raise AssertionError("an empty panel was multiplied")


@pytest.mark.parametrize("lower", [False, True])
def test_a_block_with_none_known_multiplies_no_panel(lower):
    """The first block of a backward pass, or of a forward pass from block
    0, has an empty panel: the pass forms no product with it, leaves
    ``y`` unwritten and solves as through every panel."""
    Q, _ = _operator((2, 1, 3), [(0, 1), (0, 2), (1, 2)], 1.0,
                     np.random.default_rng(0), False)
    y = np.arange(6.0)
    want = sweep(Q, y, 1.0, lower)
    S, low, up, diag = Q.panels()
    side = list(low if lower else up)
    side[0 if lower else -1] = _NoProduct()
    panels = (S, side, up, diag) if lower else (S, low, side, diag)
    Q.panels = lambda: panels
    np.testing.assert_array_equal(sweep(Q, y, 1.0, lower), want)
    np.testing.assert_array_equal(y, np.arange(6.0))


def _diag_part(part, A):
    D = np.zeros_like(A)
    for i in range(part.s):
        D[part.slice(i), part.slice(i)] = A[part.slice(i), part.slice(i)]
    return D


@st.composite
def factored(draw):
    """A ``p = 0`` problem, its sgs or ssor majorizer (``omega`` in {1,
    1.5, 1.9}), the dense shifted operator ``A`` and the oracle's ``Qhat``."""
    Q, M = draw(operators())
    part = Q.partition
    shifts = conservative_shifts(Q) if draw(st.booleans()) else None
    omega = draw(st.sampled_from((None, 1.0, 1.5, 1.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prob = CompositeQP(Q, rng.standard_normal(part.total), shifts=shifts)
    J = np.zeros_like(M)
    for i, Ji in enumerate(shifts or ()):
        J[part.slice(i), part.slice(i)] = Ji
    if omega is None:
        Qhat = M + dense_sgs_weight(part, M, shifts)
    else:
        Qhat = M + J + dense_ssor_weight(part, M + J, omega)
    maj = prob.majorizer(omega)
    return prob, maj, omega, M + J, Qhat, rng.standard_normal(part.total)


@PROPS
@given(factored())
def test_factor_is_triangular_and_squares_to_qhat(case):
    """``Y`` is the majorizer's one stored array; ``T``, assembled from the
    operator's ``T_i = J L_i J``, squares to the block diagonal."""
    prob, maj, _, A, Qhat, _ = case
    Y = maj.factor()
    arrays = [v for v in vars(maj).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is Y
    T = block_diag(*(L[::-1, ::-1] for L in maj.eff.diag_factors()))
    assert np.array_equal(Y, np.triu(Y)) and np.array_equal(T, np.triu(T))
    assert np.linalg.norm(Y @ Y.T - Qhat, 2) <= 1e-12 * np.linalg.norm(Qhat, 2)
    D = _diag_part(prob.partition, A)
    assert np.linalg.norm(T @ T.T - D, 2) <= 1e-12 * np.linalg.norm(D, 2)


@PROPS
@given(factored())
def test_majorizer_actions_match_dense_formulas(case):
    """``apply_Qhat``, ``apply_T``, ``dinv_norm`` and ``perturbation``
    against ``(a D + U)(c D)^{-1}(a D + U^T)`` and its relatives, built from
    this test's own split of the shifted operator ``A``."""
    prob, maj, omega, A, _, v = case
    part = prob.partition
    a = 1.0 if omega is None else 1.0 / omega
    c = 2.0 * a - 1.0
    D = _diag_part(part, A)
    U = np.triu(A - D)
    J = np.zeros_like(A)
    for i, Ji in enumerate(prob.shifts or ()):
        J[part.slice(i), part.slice(i)] = Ji
    Qhat = (a * D + U) @ np.linalg.solve(c * D, (a * D + U).T)
    T = ((1 - a) * D + U) @ np.linalg.solve(c * D, ((1 - a) * D + U).T) + J
    x = np.random.default_rng(part.total).standard_normal(part.total)
    for got, M in ((maj.apply_Qhat(x), Qhat), (maj.apply_T(x), T)):
        assert np.linalg.norm(got - M @ x) <= 1e-12 * (
            np.linalg.norm(M, 2) * np.linalg.norm(x))
    assert maj.dinv_norm(v) == pytest.approx(
        np.sqrt(v @ np.linalg.solve(c * D, v)), rel=1e-12)
    # residuals that agree on block 1, as a cycle's do
    n1 = part.dims[0]
    dp = np.concatenate((v[:n1], x[n1:]))
    got = maj.perturbation(dp, v)
    forms = [(dp, a * D + U, c * D)]
    if omega is None:           # the classical Gauss-Seidel form
        forms.append((v, U, D))
    for base, F, mid in forms:
        z = np.linalg.solve(mid, v - dp)
        want = base + F @ z
        assert np.linalg.norm(got - want) <= 1e-11 * (
            np.linalg.norm(base) + np.linalg.norm(F, 2) * np.linalg.norm(z))


@pytest.mark.parametrize("shifted", (False, True))
@settings(PROPS, max_examples=10)
@given(op=operators())
def test_each_diagonal_block_is_factored_once(shifted, op):
    """Building an ``s``-block problem and factoring both its majorizers
    runs one Cholesky per diagonal block of each operator: ``Q`` and,
    when shifted, ``Q + diag(J)``.  Neither ``factor()`` adds any, and
    neither do noisy, iterative and forward-reuse cycles on the zero
    head: counted through ``dpotrf`` and ``cho_factor`` alike."""
    Q, _ = op
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blockla, "dpotrf", counted(dpotrf))
        mp.setattr(proxmap, "cho_factor", counted(proxmap.cho_factor))
        Q = BlockSymOperator(Q.partition, dict(Q.stored_items()))
        prob = CompositeQP(Q, np.zeros(Q.n),
                           shifts=conservative_shifts(Q) if shifted else None)
        prob.majorizer().eff        # builds the shifted operator, if any
        built = len(calls)
        prob.majorizer().factor()
        prob.majorizer(1.5).factor()
        xbar = np.ones(Q.n)
        sgs_cycle(prob, xbar, mode=NoisyMode())
        sgs_cycle(prob, xbar, mode=IterativeMode(), omega=1.5)
        sgs_cycle(prob, xbar, forward_reuse=1.0)
    assert built == len(calls) == Q.s * (2 if shifted else 1)


@PROPS
@given(factored())
def test_qhat_solve_and_inverse_norm_match_dense(case):
    _, maj, _, _, Qhat, y = case
    want = np.linalg.solve(Qhat, y)
    assert np.linalg.norm(maj.solve_Qhat(y) - want) <= 1e-10 * np.linalg.norm(want)
    assert maj.quad_norm(y, "Qhat_inv") == pytest.approx(np.sqrt(y @ want),
                                                         rel=1e-10)


@PROPS
@given(factored())
def test_exact_smooth_cycle_matches_dense_solves(case):
    """``x+`` is the oracle's subproblem minimizer and ``x'`` solves
    ``(a D + U)(x' - xbar) = b_e - A xbar`` for the shifted ``A``."""
    prob, _, omega, A, _, xbar = case
    if omega is None:
        res = sgs_cycle(prob, xbar)
        ref = dense_subproblem_solve(prob, xbar)
    else:
        res = sgs_cycle(prob, xbar, omega=omega)
        ref = dense_subproblem_solve(prob, xbar, kind="ssor", omega=omega)
    assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * (
        1.0 + np.linalg.norm(ref.data))
    D = _diag_part(prob.partition, A)
    a = 1.0 if omega is None else 1.0 / omega
    be = prob.b.data + (A - prob.Q.dense()) @ xbar
    want = xbar + np.linalg.solve(a * D + np.triu(A - D), be - A @ xbar)
    assert np.linalg.norm(res.x_prime.data - want) <= 1e-9 * (
        1.0 + np.linalg.norm(want))
    assert res.xi == res.xi_bound == 0.0 and not res.Delta.data.any()


def test_factored_paths_skip_the_sweep(monkeypatch):
    """Once the factor exists, exact smooth cycles and ``Qhat`` solves and
    norms call neither the sweep kernel nor a diagonal-block solve."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sgs, "sweep", counted("sweep", sgs.sweep))
    monkeypatch.setattr(blockla, "sweep", counted("sweep", blockla.sweep))
    monkeypatch.setattr(BlockSymOperator, "diag_solve",
                        counted("diag_solve", BlockSymOperator.diag_solve))
    rng = np.random.default_rng(4)
    Q, _ = _operator((2, 1, 3), [(0, 1), (1, 2)], 1.0, rng, False)
    prob = CompositeQP(Q, rng.standard_normal(6), shifts=conservative_shifts(Q))
    xbar = rng.standard_normal(6)
    majs = [prob.majorizer(), prob.majorizer(1.5)]
    for maj in majs:
        maj.factor()
    sgs_cycle(prob, xbar)
    sgs_cycle(prob, xbar, omega=1.5)
    for maj in majs:
        maj.solve_Qhat(xbar)
        maj.quad_norm(xbar, "Qhat_inv")
    assert calls == []
    sgs_cycle(prob, xbar, mode=NoisyMode())     # the counters do count
    assert "sweep" in calls and "diag_solve" in calls


@st.composite
def full_span_operators(draw):
    """An operator whose stored blocks span it: 2 to 6 blocks of width 1
    to 12, the off-diagonal blocks stored at random or in a band."""
    s = draw(st.integers(2, 6))
    dims = draw(st.lists(st.integers(1, 12), min_size=s, max_size=s))
    pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    if draw(st.booleans()):
        width = draw(st.integers(1, s - 1))
        pairs = [(i, j) for i, j in pairs if j - i <= width]
    else:
        stored = draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
        pairs = [p for p, keep in zip(pairs, stored) if keep]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _operator(dims, pairs, draw(st.sampled_from((1.0, 1e-3))), rng, False)


@PROPS
@given(full_span_operators(), st.integers(0, 2**32 - 1))
def test_full_span_matvec_reads_one_triangle(op, seed):
    """With NaN written over the strict lower triangle of the store, ``Q x``
    is still the dense product of the operator as built."""
    Q, _ = op
    x = np.random.default_rng(seed).standard_normal(Q.n)
    want = Q.dense() @ x
    S = Q.panels()[0]
    S[np.tril_indices_from(S, -1)] = np.nan
    got = Q.matvec(x)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@st.composite
def stores(draw, factor_diag=True):
    """``(partition, blocks)``, the input of an operator: each upper
    off-diagonal block absent, random or all-zero, each diagonal block PD
    and symmetric up to about 1e-15 (absent or zero too when not
    ``factor_diag``), the keys in a drawn order."""
    s = draw(st.integers(2, 8))
    part = BlockPartition(tuple(draw(st.lists(st.integers(1, 4), min_size=s,
                                              max_size=s))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = {}
    for i, n in enumerate(part.dims):
        kind = "random" if factor_diag else draw(
            st.sampled_from(("random", "zero", None)))
        G = rng.uniform(-1.0, 1.0, (n, n))
        if kind is not None:
            blocks[(i, i)] = (0.0 if kind == "zero" else 1.0) * (
                G @ G.T + np.eye(n) + 1e-15 * rng.uniform(-1.0, 1.0, (n, n)))
    for i in range(s):
        for j in range(i + 1, s):
            kind = draw(st.sampled_from(("random", "zero", None)))
            if kind is not None:
                M = rng.uniform(-1.0, 1.0, (part.dims[i], part.dims[j]))
                blocks[(i, j)] = M if kind == "random" else 0.0 * M
    order = draw(st.permutations(list(blocks)))
    return part, {key: blocks[key] for key in order}


def _assemble(part, blocks):
    """The dense ``Q`` of the input blocks: each off-diagonal block and its
    mirror, each diagonal block symmetrized."""
    Q = np.zeros((part.total, part.total))
    for (i, j), B in blocks.items():
        Q[part.slice(j), part.slice(i)] = B.T
        Q[part.slice(i), part.slice(j)] = 0.5 * (B + B.T) if i == j else B
    return Q


@pytest.mark.parametrize("factor_diag", (True, False))
@settings(PROPS, max_examples=20)
@given(data=st.data())
def test_store_is_the_assembled_input(factor_diag, data):
    """``dense()`` is the input assembled by hand, exactly, and
    ``stored_items()`` lists the nonzero input blocks in input order."""
    part, blocks = data.draw(stores(factor_diag))
    Q = BlockSymOperator(part, blocks, factor_diag=factor_diag)
    want = _assemble(part, blocks)
    assert np.array_equal(Q.dense(), want)
    assert [k for k, _ in Q.stored_items()] == [
        k for k, B in blocks.items() if B.any()]
    for (i, j), B in Q.stored_items():
        assert np.array_equal(B, want[part.slice(i), part.slice(j)])


@pytest.mark.parametrize("factor_diag", (True, False))
@settings(PROPS, max_examples=20)
@given(data=st.data())
def test_store_does_not_alias_its_input(factor_diag, data):
    """Overwriting every input array after construction, before any use,
    changes neither products nor the store: the operator keeps its own
    copy of ``Q``, the same as a twin built from copies of the input."""
    part, blocks = data.draw(stores(factor_diag))
    Q = BlockSymOperator(part, blocks, factor_diag=factor_diag)
    twin = BlockSymOperator(part, {k: B.copy() for k, B in blocks.items()},
                            factor_diag=factor_diag)
    want = _assemble(part, blocks)
    for B in blocks.values():
        B[...] = np.nan
    x = np.random.default_rng(1).standard_normal(part.total)
    assert np.array_equal(Q.matvec(x), twin.matvec(x))
    assert np.array_equal(Q.dense(), want)


BLOCK_FAULTS = ("lower_key", "shape", "nan", "inf", "asymmetric",
                "missing_diag", "zero_diag", "indefinite")


@pytest.mark.parametrize("fault", BLOCK_FAULTS)
@settings(PROPS, max_examples=10)
@given(data=st.data())
def test_one_bad_block_is_named(fault, data):
    """One bad block among valid ones raises its typed error, and the
    message names that block."""
    part, blocks = data.draw(stores())
    if fault == "lower_key":
        i = data.draw(st.integers(0, part.s - 2))
        j = data.draw(st.integers(i + 1, part.s - 1))
        blocks[(j, i)] = np.ones((part.dims[j], part.dims[i]))
        err, name = InvalidParams, f"block key {(j, i)}"
    elif fault in ("shape", "nan", "inf"):
        key = data.draw(st.sampled_from(sorted(blocks)))
        B = blocks[key].copy()
        if fault == "shape":
            B = np.zeros((B.shape[0], B.shape[1] + 1))
        else:
            B.flat[data.draw(st.integers(0, B.size - 1))] = (
                np.nan if fault == "nan" else -np.inf)
        blocks[key] = B
        err = DimensionMismatch if fault == "shape" else NonFinite
        name = f"block {key}"
    else:
        wide = [i for i, n in enumerate(part.dims) if n >= 2]
        pool = wide if fault == "asymmetric" else list(range(part.s))
        assume(pool)
        i = data.draw(st.sampled_from(pool))
        n = part.dims[i]
        if fault == "asymmetric":
            blocks[(i, i)] = blocks[(i, i)] + np.triu(np.ones((n, n)), 1)
        elif fault == "missing_diag":
            del blocks[(i, i)]
        else:
            blocks[(i, i)] = (0.0 if fault == "zero_diag" else -1.0) * np.eye(n)
        err = NotSymmetric if fault == "asymmetric" else DiagonalNotPD
        name = f"diagonal block {i}"
    with pytest.raises(err) as info:
        BlockSymOperator(part, blocks)
    assert name in str(info.value)
    if err is DiagonalNotPD:
        assert info.value.block == i
