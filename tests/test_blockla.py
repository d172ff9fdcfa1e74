import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    sgs_operator,
)
from sgsqp.errors import (
    DiagonalNotPD,
    DimensionMismatch,
    InvalidParams,
    NotSymmetric,
    OmegaOutOfRange,
    ShiftNotPSD,
)
from sgsqp.instances import gen_qsdp
from sgsqp.oracle import dense_sgs_weight, dense_ssor_weight
from sgsqp.palm import qsdp_to_lincon

from conftest import anchor_2x2, conservative_shifts, random_problem


def _block_split(part, Qd):
    """Block-diagonal part and strict upper block triangle of a dense matrix."""
    D = np.zeros_like(Qd)
    U = np.zeros_like(Qd)
    for i in range(part.s):
        si = part.slice(i)
        D[si, si] = Qd[si, si]
        for j in range(i + 1, part.s):
            U[si, part.slice(j)] = Qd[si, part.slice(j)]
    return D, U


def _dense_blocks(rng, dims, pd_shift=4.0):
    n = sum(dims)
    A = rng.standard_normal((n, n))
    Qd = A @ A.T + pd_shift * np.eye(n)
    part = BlockPartition(tuple(dims))
    blocks = {}
    for i in range(part.s):
        si = part.slice(i)
        blocks[(i, i)] = Qd[si, si]
        for j in range(i + 1, part.s):
            blocks[(i, j)] = Qd[si, part.slice(j)]
    return part, blocks, Qd


class TestPartitionAndVector:
    def test_offsets_and_slices(self):
        part = BlockPartition((2, 3, 1))
        assert part.total == 6
        assert part.s == 3
        assert tuple(part.offsets)[:3] == (0, 2, 5)
        assert part.slice(1) == slice(2, 5)
        v = BlockVector(part, np.arange(6.0))
        np.testing.assert_array_equal(v.block(1), [2.0, 3.0, 4.0])
        parts = part.split(np.arange(6.0))
        assert [len(p) for p in parts] == [2, 3, 1]

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidParams):
            BlockPartition((2, 0, 1))

    @pytest.mark.parametrize("dims", [(2, 2.5), (2, True), (2, np.nan),
                                      (2, "2"), (2, -1), (3,), 4])
    def test_non_integer_sizes_rejected(self, dims):
        """Sizes used to be truncated by ``int``: ``(2, 2.5)`` became
        ``(2, 2)`` and ``(2, True)`` became ``(2, 1)``."""
        with pytest.raises(InvalidParams):
            BlockPartition(dims)

    def test_numpy_integer_sizes_accepted(self):
        dims = BlockPartition((np.int64(2), np.uint8(3))).dims
        assert dims == (2, 3) and all(type(n) is int for n in dims)

    def test_vector_set_block_and_copy(self):
        part = BlockPartition((1, 2))
        v = BlockVector.zeros(part)
        v.set_block(1, np.array([5.0, 6.0]))
        w = v.copy()
        w.set_block(0, np.array([1.0]))
        assert v.block(0)[0] == 0.0
        np.testing.assert_array_equal(w.data, [1.0, 5.0, 6.0])
        assert np.dot(v, w) == pytest.approx(25.0 + 36.0)
        assert v.norm() == pytest.approx(np.hypot(5.0, 6.0))


class TestOperator:
    def test_matvec_matches_dense(self, rng):
        part, blocks, Qd = _dense_blocks(rng, [2, 3, 2])
        Q = BlockSymOperator(part, blocks)
        for _ in range(5):
            x = rng.standard_normal(7)
            got = Q.apply(BlockVector(part, x))
            np.testing.assert_allclose(got.data, Qd @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Q.dense(), Qd, atol=1e-14)

    @pytest.mark.parametrize("case", ["qsdp_cost", "middle", "full"])
    def test_matvec_over_stored_span_matches_dense(self, case, rng):
        """A product over the principal sub-block spanned by the stored
        blocks equals the full dense product."""
        if case == "qsdp_cost":
            # stores only its (2,2) block: 210 of 430 rows and columns
            Q = qsdp_to_lincon(gen_qsdp(20, 10).qsdp).P
            assert len(Q.stored_items()) == 1 and Q.n == 430
        else:
            part, blocks, _ = _dense_blocks(rng, [2, 3, 1, 2])
            if case == "middle":
                blocks = {k: v for k, v in blocks.items() if 1 <= k[0] <= k[1] <= 2}
            Q = BlockSymOperator(part, blocks, factor_diag=case == "full")
        x = rng.standard_normal(Q.n)
        want = Q.dense() @ x
        assert np.linalg.norm(Q.matvec(x) - want) <= 1e-14 * np.linalg.norm(want)

    def test_missing_offdiagonal_is_zero(self):
        part = BlockPartition((1, 1))
        Q = BlockSymOperator(part, {(0, 0): np.array([[2.0]]),
                                    (1, 1): np.array([[3.0]])})
        x = BlockVector(part, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(Q.apply(x).data, [2.0, 3.0])

    def test_lower_triangle_key_rejected(self):
        part = BlockPartition((1, 1))
        with pytest.raises(InvalidParams):
            BlockSymOperator(part, {(0, 0): np.eye(1), (1, 0): np.eye(1),
                                    (1, 1): np.eye(1)})

    def test_asymmetric_diagonal_rejected(self):
        part = BlockPartition((2,) * 2)
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            BlockSymOperator(part, {(0, 0): bad, (1, 1): np.eye(2)})

    def test_semidefinite_diagonal_rejected(self):
        part = BlockPartition((1, 1))
        with pytest.raises(DiagonalNotPD) as ei:
            BlockSymOperator(part, {(0, 0): np.array([[1.0]]),
                                    (1, 1): np.array([[0.0]])})
        assert "block 1" in str(ei.value)

    def test_assemble_round_trip(self, rng):
        part, blocks, Qd = _dense_blocks(rng, [1, 2, 2])
        np.testing.assert_allclose(BlockSymOperator(part, blocks).dense(), Qd,
                                   atol=1e-14)


    @pytest.mark.parametrize("n", [1, 2, 5, 10, 200, 210])
    def test_diag_solve_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n + 1, n + 1))
        part = BlockPartition((n, 1))
        Q = BlockSymOperator(part, {(0, 0): G[:n, :n] @ G[:n, :n].T + n * np.eye(n),
                                    (0, 1): G[:n, n:],
                                    (1, 1): np.array([[2.0]])})
        for i in range(2):
            rhs = rng.standard_normal(part.dims[i])
            kept = rhs.copy()
            want = np.linalg.solve(Q.block(i, i), rhs)
            got = Q.diag_solve(i, rhs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            np.testing.assert_array_equal(rhs, kept)


class TestMajorizerWeights:
    """The dense forms of the weight operators against the oracle."""

    def test_sgs_weight_anchor(self):
        prob = anchor_2x2()
        maj = prob.majorizer()
        np.testing.assert_allclose(maj.densify("T"), [[0.5, 0.0], [0.0, 0.0]],
                                   atol=1e-15)
        np.testing.assert_allclose(maj.densify("Qhat"),
                                   [[2.5, 1.0], [1.0, 2.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_sgs_weight_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        part, blocks, Qd = _dense_blocks(rng, [2, 3, 1, 2])
        maj = sgs_operator(BlockSymOperator(part, blocks))
        T = dense_sgs_weight(part, Qd)
        rel = np.linalg.norm(maj.densify("T") - T) / np.linalg.norm(Qd + T)
        assert rel <= 1e-12
        rel = np.linalg.norm(maj.densify("Qhat") - (Qd + T))
        assert rel <= 1e-12 * np.linalg.norm(Qd + T)

    @pytest.mark.parametrize("omega", [1.0, 1.25, 1.5, 1.9])
    def test_ssor_weight_matches_oracle(self, omega, rng):
        part, blocks, Qd = _dense_blocks(rng, [2, 2, 3])
        maj = sgs_operator(BlockSymOperator(part, blocks)).relaxed(omega)
        T = dense_ssor_weight(part, Qd, omega)
        got = maj.densify("Qhat")
        assert np.linalg.norm(got - (Qd + T)) <= 1e-12 * np.linalg.norm(got)

    def test_ssor_at_one_equals_sgs(self, rng):
        part, blocks, _ = _dense_blocks(rng, [3, 2])
        Q = BlockSymOperator(part, blocks)
        a = sgs_operator(Q).densify("Qhat")
        b = sgs_operator(Q).relaxed(1.0).densify("Qhat")
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("omega", [0.5, 2.0, 2.5, -1.0])
    def test_omega_range(self, omega, rng):
        part, blocks, _ = _dense_blocks(rng, [2, 2])
        with pytest.raises(OmegaOutOfRange):
            sgs_operator(BlockSymOperator(part, blocks)).relaxed(omega)

    def test_shifted_weight_dense_identity(self, rng):
        part, blocks, Qd = _dense_blocks(rng, [2, 2, 2])
        Q = BlockSymOperator(part, blocks)
        J = conservative_shifts(Q)
        maj = sgs_operator(Q, J)
        Jd = scipy.linalg.block_diag(*J)
        D, U = _block_split(part, Qd)
        Dhat = D + Jd
        T_expect = Jd + U @ np.linalg.solve(Dhat, U.T)
        np.testing.assert_allclose(maj.densify("T"), T_expect, atol=1e-11)
        np.testing.assert_allclose(maj.densify("Qhat"), Qd + T_expect,
                                   atol=1e-11)

    def test_conservative_shifts_flatten_diagonal(self, rng):
        part, blocks, _ = _dense_blocks(rng, [3, 2])
        Q = BlockSymOperator(part, blocks)
        J = conservative_shifts(Q)
        for i in range(part.s):
            Dhat_ii = blocks[(i, i)] + J[i]
            mu = np.linalg.norm(blocks[(i, i)], 2)
            np.testing.assert_allclose(Dhat_ii, mu * np.eye(part.dims[i]),
                                       atol=1e-12 * mu)
            assert np.linalg.eigvalsh(J[i]).min() >= -1e-12 * mu

    def test_negative_shift_rejected(self, rng):
        part, blocks, _ = _dense_blocks(rng, [2, 2])
        Q = BlockSymOperator(part, blocks)
        bad = [-np.eye(2), np.zeros((2, 2))]
        with pytest.raises(ShiftNotPSD):
            sgs_operator(Q, bad)


class TestMajorizerActions:
    def test_apply_and_solve_are_inverse(self, rng):
        part, blocks, _ = _dense_blocks(rng, [2, 3, 2])
        maj = sgs_operator(BlockSymOperator(part, blocks))
        for _ in range(4):
            x = BlockVector(part, rng.standard_normal(part.total))
            back = maj.solve_Qhat(maj.apply_Qhat(x))
            np.testing.assert_allclose(back, x.data, rtol=1e-10,
                                       atol=1e-12)

    def test_apply_T_consistent_with_densify(self, rng):
        part, blocks, _ = _dense_blocks(rng, [1, 2, 2])
        for maj in (sgs_operator(BlockSymOperator(part, blocks)),
                    sgs_operator(BlockSymOperator(part, blocks)).relaxed(1.6)):
            Td = maj.densify("T")
            x = rng.standard_normal(part.total)
            np.testing.assert_allclose(maj.apply_T(BlockVector(part, x)),
                                       Td @ x, atol=1e-11)

    @pytest.mark.parametrize("omega", [None, 1.6], ids=["sgs", "ssor"])
    def test_apply_T_makes_no_dense_temporary(self, omega, rng):
        """With ``Y`` built, ``T x`` at N = 400 allocates less than a
        quarter of one N x N array."""
        part, blocks, _ = _dense_blocks(rng, [100, 150, 50, 100])
        Q = BlockSymOperator(part, blocks)
        maj = sgs_operator(Q) if omega is None else sgs_operator(Q).relaxed(omega)
        x = rng.standard_normal(part.total)
        maj.factor()
        maj.apply_T(x)
        tracemalloc.start()
        try:
            maj.apply_T(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < part.total ** 2 * 8 / 4

    def test_quad_norm_matches_dense(self, rng):
        part, blocks, _ = _dense_blocks(rng, [2, 2])
        maj = sgs_operator(BlockSymOperator(part, blocks))
        Qhat = maj.densify("Qhat")
        x = rng.standard_normal(4)
        want = np.sqrt(x @ Qhat @ x)
        assert maj.quad_norm(BlockVector(part, x), "Qhat") == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("action", [
        lambda maj, v: maj.apply_T(v),
        lambda maj, v: maj.apply_Qhat(v),
        lambda maj, v: maj.solve_Qhat(v),
        lambda maj, v: maj.dinv_norm(v),
        lambda maj, v: maj.perturbation(v, v),
        lambda maj, v: maj.quad_norm(v, "Qhat_inv"),
    ], ids=["apply_T", "apply_Qhat", "solve_Qhat", "dinv_norm", "perturbation",
            "quad_norm"])
    @pytest.mark.parametrize("length", [6, 8])
    def test_vector_of_the_wrong_length_refused(self, action, length, rng):
        part, blocks, _ = _dense_blocks(rng, [2, 3, 2])
        maj = sgs_operator(BlockSymOperator(part, blocks)).relaxed(1.5)
        with pytest.raises(DimensionMismatch):
            action(maj, np.ones(length))

    def test_m_constant_matches_dense_eigs(self, rng):
        part, blocks, Qd = _dense_blocks(rng, [2, 3])
        maj = sgs_operator(BlockSymOperator(part, blocks))
        D, _ = _block_split(part, Qd)
        want = 2.0 / np.sqrt(np.linalg.eigvalsh(D).min()) \
            + 1.0 / np.sqrt(np.linalg.eigvalsh(maj.densify("Qhat")).min())
        assert maj.m_constant() == pytest.approx(want, rel=1e-9)
