"""Property tests of the block substitution kernel over generated shapes.

Partitions have 2 to 8 blocks, 1-wide blocks included, and any pattern of
stored off-diagonal blocks from none to all pairs.  Every cycle path is
checked against the dense oracle, which rebuilds the proximal weight from
plain triangle masks and shares no code with the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    CompositeQP,
    IterativeMode,
    NoisyMode,
    ProxSpec,
    conservative_shifts,
    sgs_cycle,
    ssor_cycle,
)
from sgsqp.blockla import sweep
from sgsqp.oracle import dense_sgs_weight, dense_ssor_weight, dense_subproblem_solve

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
    if path == "ssor":
        res = ssor_cycle(prob, xbar, omega, mode=mode)
    else:
        res = sgs_cycle(prob, xbar, mode=mode,
                        forward_reuse=1.0 if path == "reuse" else None)
    ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta,
                                 kind="ssor" if omega else "sgs", omega=omega)
    scale = 1.0 + np.linalg.norm(ref.data)
    assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale
    assert res.xi <= res.xi_bound + 1e-12 * max(1.0, res.xi_bound)
    if mode == "exact":
        assert res.xi == res.xi_bound == 0.0


@PROPS
@given(operators(), st.sampled_from((None, 1.0, 1.3, 1.8)), st.booleans())
def test_qhat_apply_and_solve_match_dense_weights(op, omega, shifted):
    Q, M = op
    part = Q.partition
    shifts = conservative_shifts(Q) if shifted else None
    prob = CompositeQP(Q, np.zeros(part.total), shifts=shifts)
    maj = prob.majorizer("sgs" if omega is None else "ssor", omega)
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
@given(operators(), st.floats(0.5, 1.0), st.booleans(), st.booleans())
def test_sweep_matches_dense_triangular_solve(op, a, lower, with_w):
    """``(a D + L) z = y - ((1-a) D + U) w`` forward, mirrored backward."""
    Q, M = op
    part = Q.partition
    D = np.zeros_like(M)
    for i in range(part.s):
        D[part.slice(i), part.slice(i)] = M[part.slice(i), part.slice(i)]
    U = np.triu(M - D)
    own, other = (U.T, U) if lower else (U, U.T)
    rng = np.random.default_rng(part.total)
    y, w = rng.standard_normal((2, part.total))
    rhs = y - ((1.0 - a) * D + other) @ w if with_w else y
    want = np.linalg.solve(a * D + own, rhs)
    got = sweep(Q, y, a, lower, w=w if with_w else None)
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
