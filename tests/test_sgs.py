import dataclasses

import numpy as np
import pytest
from scipy.linalg.blas import dtrsv

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    IterativeMode,
    NoisyMode,
    ProxSpec,
    classical_sgs_step,
    sgs_cycle,
    ssor_tuning,
    subproblem_kkt,
)
from sgsqp.blockla import Majorizer
from sgsqp.errors import (DiagonalNotPD, DimensionMismatch, InvalidParams,
                          NeedsShift, NotPD, NotSymmetric, OmegaOutOfRange,
                          ShapeMismatch, ShiftNotPSD)
from sgsqp.instances import gen_qsdp
from sgsqp.oracle import dense_subproblem_solve
from sgsqp.palm import assemble_penalized

from conftest import anchor_2x2, random_problem, random_point, shifted_problem


class TestExactCycle:
    @pytest.mark.parametrize("length", [6, 8])
    def test_handed_product_of_the_wrong_length_refused(self, length):
        prob = random_problem(0, prox_kind="l1")
        with pytest.raises(DimensionMismatch):
            sgs_cycle(prob, np.zeros(7), Qxbar=np.zeros(length))

    def test_anchor_from_origin(self):
        prob = anchor_2x2()
        res = sgs_cycle(prob, BlockVector.zeros(prob.partition))
        np.testing.assert_allclose(res.x_plus.data, [0.25, 0.375], atol=1e-15)
        np.testing.assert_allclose(res.x_prime.data, [0.25, 0.5], atol=1e-15)
        np.testing.assert_allclose(res.Delta.data, 0.0, atol=1e-15)
        assert res.xi == 0.0
        assert res.maj.omega is None

    @pytest.mark.parametrize("shifted, omega", [(False, None), (True, None),
                                                (False, 1.5)])
    def test_factored_x_prime_is_formed_on_demand(self, shifted, omega):
        """``x' = xbar + c^{-1/2} T^{-T} z`` to the bit, ``T_i^{-T} z_i = J
        L_i^{-T} J z_i`` per block, from a copy of the centre: the caller may
        overwrite ``xbar`` before reading it."""
        prob = shifted_problem(1, prox_kind="zero") if shifted else random_problem(3)
        maj = prob.majorizer(omega)
        xbar = random_point(prob, 4)
        Y = maj.factor()
        Axbar = maj.plus_shift(prob.Q.matvec(xbar.data), xbar.data)
        z = dtrsv(Y, prob.effective_b(xbar).data - Axbar)
        step = np.concatenate([
            dtrsv(L, zi[::-1], lower=1, trans=1)[::-1]
            for L, zi in zip(maj.eff.diag_factors(), prob.partition.split(z))])
        want = xbar.data + maj._c ** -0.5 * step
        res = sgs_cycle(prob, xbar, omega=omega)
        xbar.data[:] = np.nan
        np.testing.assert_array_equal(res.x_prime.data, want)
        assert res.x_prime is res.x_prime

    @pytest.mark.parametrize("head, mode, kw", [
        ("l1", "exact", {}),
        ("psd_cone", "exact", {}),
        ("zero", IterativeMode(rel_tol=1e-6), {}),
        ("nonneg", NoisyMode(seed=3, scale=1e-3), {}),
        ("zero", "exact", {"forward_reuse": 1.0}),
        ("l1", "exact", {"omega": 1.5}),
    ], ids=["l1", "psd_cone", "iterative", "noisy", "forward_reuse", "omega"])
    def test_sweep_result_keeps_nothing_of_its_centre(self, head, mode, kw):
        """A sweep-path cycle is not handed a copy of its centre: overwritten
        after the call, the centre leaves ``x_plus``, ``x_prime``, ``Delta``
        and ``xi_bound`` those of a cycle on an untouched copy, to the bit.
        An exact sweep's residuals are the majorizer's zeros, except the
        forward ones that block reuse writes."""
        if head == "psd_cone":
            prob = assemble_penalized(gen_qsdp(4, 3).lincon_problem(), 1.0)
            prob.b.data[:] = np.random.default_rng(2).standard_normal(
                prob.partition.total)
        else:
            prob = random_problem(3, prox_kind=head)
        xbar = random_point(prob, 4)
        want = sgs_cycle(prob, xbar.copy(), mode=mode, **kw)
        res = sgs_cycle(prob, xbar, mode=mode, **kw)
        xbar.data[:] = np.nan
        assert isinstance(res.backward, BlockVector)
        for name in ("x_plus", "x_prime", "Delta"):
            np.testing.assert_array_equal(getattr(res, name).data,
                                          getattr(want, name).data)
        assert res.xi_bound == want.xi_bound
        zero = res.maj.zero
        assert (res.delta_prime is zero) == (mode == "exact")
        assert (res.delta is zero) == (mode == "exact" and not kw.get("forward_reuse"))

    @pytest.mark.parametrize("prox_kind", ["zero", "l1", "nonneg"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_subproblem(self, prox_kind, seed):
        prob = random_problem(seed, prox_kind=prox_kind)
        xbar = random_point(prob, seed + 100)
        res = sgs_cycle(prob, xbar)
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta)
        scale = 1.0 + np.linalg.norm(ref.data)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", [0, 5])
    def test_subproblem_kkt_tiny(self, seed):
        prob = random_problem(seed, prox_kind="l1")
        xbar = random_point(prob, seed)
        res = sgs_cycle(prob, xbar)
        bscale = 1.0 + np.linalg.norm(prob.b.data)
        assert subproblem_kkt(prob, xbar, res) <= 1e-9 * bscale

    def test_optimality_identity_dense(self, rng):
        """(Q + T) x+ + gamma = b + T xbar + Delta, written out densely."""
        prob = random_problem(4, prox_kind="nonneg")
        part = prob.partition
        xbar = random_point(prob, 7)
        res = sgs_cycle(prob, xbar)
        maj = prob.majorizer()
        Qhat = maj.densify("Qhat")
        T = maj.densify("T")
        gamma = np.zeros(part.total)
        gamma[: part.dims[0]] = res.gamma1
        lhs = Qhat @ res.x_plus.data + gamma
        rhs = prob.b.data + T @ xbar.data + res.Delta.data
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_shifted_cycle_matches_dense_subproblem(self):
        prob = shifted_problem(2)
        xbar = random_point(prob, 3)
        res = sgs_cycle(prob, xbar)
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta)
        scale = 1.0 + np.linalg.norm(ref.data)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale

    def test_fixed_point_at_optimum(self):
        from sgsqp.oracle import dense_optimum
        prob = random_problem(6, prox_kind="nonneg")
        xstar, _ = dense_optimum(prob)
        res = sgs_cycle(prob, xstar)
        assert np.linalg.norm(res.x_plus.data - xstar.data) <= 1e-8


class TestInexactCycle:
    def test_realized_perturbation_explains_output(self):
        prob = random_problem(1, dims=(3, 2, 2), prox_kind="l1")
        xbar = random_point(prob, 2)
        res = sgs_cycle(prob, xbar, mode=IterativeMode(rel_tol=1e-4,
                                                       max_inner=200))
        assert np.linalg.norm(res.Delta.data) > 0
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta)
        scale = 1.0 + np.linalg.norm(ref.data)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale

    def test_xi_is_distance_to_unperturbed_target(self):
        prob = random_problem(3, dims=(2, 2, 3), prox_kind="zero")
        xbar = random_point(prob, 4)
        res = sgs_cycle(prob, xbar, mode=IterativeMode(rel_tol=1e-5))
        target = dense_subproblem_solve(prob, xbar)
        maj = prob.majorizer()
        diff = BlockVector(prob.partition, res.x_plus.data - target.data)
        dist = maj.quad_norm(diff, "Qhat")
        assert dist == pytest.approx(res.xi, rel=1e-6, abs=1e-12)

    def test_noise_respects_error_bound(self):
        violations = 0
        for seed in range(60):
            prob = random_problem(seed % 7, dims=(2, 3, 2),
                                  prox_kind=("zero", "l1")[seed % 2])
            xbar = random_point(prob, seed)
            res = sgs_cycle(prob, xbar, mode=NoisyMode(seed=seed, scale=1e-3))
            if res.xi > res.xi_bound + 1e-12:
                violations += 1
        assert violations == 0

    def test_noisy_mode_deterministic(self):
        prob = random_problem(2, prox_kind="zero")
        xbar = random_point(prob, 5)
        a = sgs_cycle(prob, xbar, mode=NoisyMode(seed=11, scale=1e-4))
        b = sgs_cycle(prob, xbar, mode=NoisyMode(seed=11, scale=1e-4))
        np.testing.assert_array_equal(a.x_plus.data, b.x_plus.data)
        c = sgs_cycle(prob, xbar, mode=NoisyMode(seed=12, scale=1e-4))
        assert np.any(c.x_plus.data != a.x_plus.data)

    def test_stall_reported(self):
        prob = random_problem(0, dims=(2, 2, 2), prox_kind="zero")
        xbar = random_point(prob, 1)
        res = sgs_cycle(prob, xbar, mode=IterativeMode(rel_tol=1e-12,
                                                       max_inner=1))
        assert len(res.stalled) > 0


class TestIterativeModeParams:
    """Settings under which CG cannot produce a certified cycle are refused:
    ``max_inner=0`` used to return ``x = 0`` with nothing flagged, and a
    negative tolerance flagged every block as stalled."""

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-6, np.nan, np.inf, "1e-6"])
    def test_bad_rel_tol(self, rel_tol):
        with pytest.raises(InvalidParams, match="rel_tol"):
            IterativeMode(rel_tol=rel_tol)

    @pytest.mark.parametrize("max_inner", [0, -3, 2.5, True])
    def test_bad_max_inner(self, max_inner):
        with pytest.raises(InvalidParams, match="max_inner"):
            IterativeMode(max_inner=max_inner)

    def test_smallest_valid_settings(self):
        mode = IterativeMode(rel_tol=np.float64(1e-300), max_inner=np.int64(1))
        assert mode.max_inner == 1


class TestNoisyModeParams:
    """A non-finite ``scale`` used to give NaN iterates and certificates
    with only a RuntimeWarning, and a bad ``seed`` failed inside numpy
    mid-cycle; both are refused where the mode is made."""

    @pytest.mark.parametrize("field,value", [
        ("scale", np.nan), ("scale", np.inf), ("scale", -1.0), ("scale", "1e-3"),
        ("seed", -1), ("seed", 1.5), ("seed", "a"), ("seed", True)])
    def test_bad_value_refused(self, field, value):
        with pytest.raises(InvalidParams, match=field):
            NoisyMode(**{field: value})

    def test_smallest_valid_settings(self):
        """A zero scale with a numpy seed reproduces the exact cycle."""
        prob = anchor_2x2()
        x0 = BlockVector.zeros(prob.partition)
        res = sgs_cycle(prob, x0, mode=NoisyMode(seed=np.int64(0), scale=0.0))
        np.testing.assert_allclose(res.x_plus.data,
                                   sgs_cycle(prob, x0).x_plus.data, atol=1e-15)
        assert np.isfinite([res.xi, res.xi_bound]).all()


def _exact_xi(maj, dp, d):
    """``||Qhat^{-1/2} Delta(delta', delta)||``, as a cycle computes it."""
    return maj.quad_norm(maj.perturbation(dp, d), "Qhat_inv")


def _error_bound(maj, dp, d):
    """``||M^{-1/2}(delta - delta')|| + ||Qhat^{-1/2} delta'||``, as a
    cycle computes it."""
    return (maj.dinv_norm(np.asarray(d) - np.asarray(dp))
            + maj.quad_norm(dp, "Qhat_inv"))


class TestPerturbationAlgebra:
    def test_anchor_values(self):
        prob = anchor_2x2()
        maj = prob.majorizer()
        part = prob.partition
        dp = BlockVector(part, np.array([0.0, 0.0]))
        d = BlockVector(part, np.array([0.0, 1.0]))
        np.testing.assert_allclose(maj.perturbation(dp, d), [0.5, 1.0],
                                   atol=1e-15)
        assert _exact_xi(maj, dp, d) <= _error_bound(maj, dp, d) + 1e-12
        assert _error_bound(maj, dp, d) == pytest.approx(1.0 / np.sqrt(2.0),
                                                         rel=1e-12)

    def test_exact_xi_vs_dense(self, rng):
        prob = random_problem(5, dims=(2, 2, 2))
        maj = prob.majorizer()
        part = prob.partition
        d1 = rng.standard_normal(part.dims[0])
        dp = np.concatenate([d1, rng.standard_normal(part.total - part.dims[0])])
        d = np.concatenate([d1, rng.standard_normal(part.total - part.dims[0])])
        dp = BlockVector(part, dp)
        d = BlockVector(part, d)
        Delta = maj.perturbation(dp, d)
        Qhat = maj.densify("Qhat")
        want = float(np.sqrt(Delta @ np.linalg.solve(Qhat, Delta)))
        assert _exact_xi(maj, dp, d) == pytest.approx(want, rel=1e-10)
        assert want <= _error_bound(maj, dp, d) + 1e-12


class TestCertificatesOnDemand:
    """A cycle computes no certificate; its result forms ``Delta``, ``xi``
    and ``xi_bound`` from its own majorizer when they are first read."""

    NOISY = NoisyMode(seed=4, scale=1e-3)
    CASES = {
        "noisy": lambda p, x: sgs_cycle(p, x, mode=TestCertificatesOnDemand.NOISY),
        "iterative": lambda p, x: sgs_cycle(p, x, mode=IterativeMode(rel_tol=1e-3)),
        "forward-reuse": lambda p, x: sgs_cycle(
            p, x, mode=TestCertificatesOnDemand.NOISY, forward_reuse=1.0),
        "ssor": lambda p, x: sgs_cycle(
            p, x, mode=TestCertificatesOnDemand.NOISY, omega=1.6),
    }

    @staticmethod
    def _problem(case):
        if case == "forward-reuse":
            return TestForwardReuse._weak_coupling_problem()
        prob = random_problem(2, dims=(2, 3, 2), prox_kind="l1")
        return prob, random_point(prob, 3)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_are_the_majorizer_formulas(self, case):
        prob, xbar = self._problem(case)
        res = self.CASES[case](prob, xbar)
        maj = prob.majorizer(1.6 if case == "ssor" else None)
        assert res.maj is maj
        assert res.maj.omega == (1.6 if case == "ssor" else None)
        assert bool(res.reused) == (case == "forward-reuse")
        dp, d = res.delta_prime, res.delta
        np.testing.assert_array_equal(dp.block(0), d.block(0))
        assert d.norm() > 0.0
        Delta = maj.perturbation(dp.data, d.data)
        np.testing.assert_array_equal(res.Delta.data, Delta)
        assert res.xi == maj.quad_norm(Delta, "Qhat_inv")
        assert res.xi_bound == (maj.dinv_norm(d.data - dp.data)
                                + maj.quad_norm(dp.data, "Qhat_inv"))
        for name in ("Delta", "xi", "xi_bound"):
            assert getattr(res, name) is getattr(res, name)
        assert not {"Delta", "xi", "xi_bound", "omega"} & {
            f.name for f in dataclasses.fields(res)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cycle_computes_none(self, case, monkeypatch):
        prob, xbar = self._problem(case)
        want = self.CASES[case](prob, xbar)

        def refuse(*_args, **_kw):
            raise AssertionError("a certificate was computed")

        for name in ("factor", "perturbation", "dinv_norm", "quad_norm"):
            monkeypatch.setattr(Majorizer, name, refuse)
        got = self.CASES[case](prob, xbar)
        np.testing.assert_array_equal(got.x_plus.data, want.x_plus.data)
        with pytest.raises(AssertionError, match="certificate"):
            got.Delta


class TestSsor:
    def test_omega_one_reduces_to_plain_cycle(self):
        for seed in range(4):
            prob = random_problem(seed, prox_kind=("zero", "nonneg")[seed % 2])
            xbar = random_point(prob, seed + 50)
            a = sgs_cycle(prob, xbar)
            b = sgs_cycle(prob, xbar, omega=1.0)
            assert np.linalg.norm(a.x_plus.data - b.x_plus.data) <= 1e-12

    @pytest.mark.parametrize("omega", [1.25, 1.5, 1.9])
    def test_matches_dense_subproblem(self, omega):
        prob = random_problem(8, dims=(2, 3, 2), prox_kind="l1")
        xbar = random_point(prob, 9)
        res = sgs_cycle(prob, xbar, omega=omega)
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta, kind="ssor",
                                     omega=omega)
        scale = 1.0 + np.linalg.norm(ref.data)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale
        assert res.maj.omega == omega

    def test_shifted_ssor_matches_dense(self):
        prob = shifted_problem(4)
        xbar = random_point(prob, 5)
        res = sgs_cycle(prob, xbar, omega=1.7)
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta, kind="ssor",
                                     omega=1.7)
        scale = 1.0 + np.linalg.norm(ref.data)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale

    def test_omega_out_of_range(self):
        prob = random_problem(0)
        xbar = random_point(prob, 0)
        with pytest.raises(OmegaOutOfRange):
            sgs_cycle(prob, xbar, omega=2.0)


class TestShiftedOperator:
    def test_one_shifted_operator_per_problem(self):
        prob = shifted_problem(0)
        assert prob.shifted_Q is prob.majorizer().eff
        assert prob.shifted_Q is not prob.Q

    def test_relaxed_majorizer_shares_the_shifted_operator(self):
        prob = shifted_problem(0)
        assert prob.majorizer(1.5).eff is prob.shifted_Q

    def test_unshifted_problem_sweeps_its_own_operator(self):
        prob = random_problem(0)
        assert prob.shifted_Q is prob.Q is prob.majorizer().eff

    @pytest.mark.parametrize("blocks", ["missing", "zero"])
    def test_shift_fills_a_diagonal_block_that_is_not_stored(self, blocks):
        """A diagonal block the operator does not store (missing, or all
        zero) reads as zero: the shift alone makes the block solvable."""
        I2 = np.eye(2)
        stored = {(0, 0): I2} if blocks == "missing" else {(0, 0): I2, (1, 1): 0 * I2}
        Q = BlockSymOperator(BlockPartition((2, 2)), stored, factor_diag=False)
        prob = CompositeQP(Q, np.ones(4), shifts=[I2, I2])
        res = sgs_cycle(prob, np.zeros(4))
        want = dense_subproblem_solve(prob, np.zeros(4))
        np.testing.assert_allclose(res.x_plus.data, want.data, rtol=0, atol=1e-14)
        with pytest.raises(DiagonalNotPD) as err:
            sgs_cycle(CompositeQP(Q, np.ones(4), shifts=[I2, None]), np.zeros(4))
        assert err.value.block == 1


class TestBuiltOnce:
    """``CompositeQP`` builds its Gauss-Seidel majorizer and settles its
    head when it is built, so bad shifts and unsolvable heads are refused
    there, before any cycle runs."""

    HEAD = np.array([[3.0, 1.0], [1.0, 2.0]])

    def _op(self, head=None, factor_diag=True):
        blocks = {(0, 0): self.HEAD if head is None else head, (1, 1): np.eye(2)}
        return BlockSymOperator(BlockPartition((2, 2)), blocks,
                                factor_diag=factor_diag)

    def test_nonsmooth_head_not_a_multiple_of_the_identity(self):
        with pytest.raises(NeedsShift):
            CompositeQP(self._op(), np.ones(4), ProxSpec.l1(1.0))
        with pytest.raises(NeedsShift):
            CompositeQP(self._op(), np.ones(4), ProxSpec.nonneg(),
                        shifts=[np.eye(2), None])

    def test_nonpositive_head_scale(self):
        Q = self._op(head=-np.eye(2), factor_diag=False)
        with pytest.raises(DiagonalNotPD) as err:
            CompositeQP(Q, np.ones(4), ProxSpec.l1(1.0))
        assert err.value.block == 0

    def test_unfactored_operator_cycles_on_a_factored_copy(self):
        """An operator assembled with ``factor_diag=False`` and no shift
        is factored in a copy by its majorizer, so its cycle runs, matches
        the dense subproblem solve and equals the factored operator's."""
        I2 = np.eye(2)
        blocks = {(0, 0): 2 * I2, (1, 1): I2}
        Q = BlockSymOperator(BlockPartition((2, 2)), blocks, factor_diag=False)
        prob = CompositeQP(Q, np.ones(4))
        assert prob.Q is Q and prob.shifted_Q is not Q
        xbar = np.array([1.0, -2.0, 0.5, 3.0])
        res = sgs_cycle(prob, xbar)
        want = dense_subproblem_solve(prob, xbar)
        np.testing.assert_allclose(res.x_plus.data, want.data, rtol=0, atol=1e-14)
        ref = CompositeQP(BlockSymOperator(BlockPartition((2, 2)), blocks),
                          np.ones(4))
        np.testing.assert_array_equal(res.x_plus.data,
                                      sgs_cycle(ref, xbar).x_plus.data)

    def test_unfactored_diagonal_block_not_positive_definite(self):
        Q = BlockSymOperator(BlockPartition((2, 2)),
                             {(0, 0): self.HEAD, (1, 1): -np.eye(2)},
                             factor_diag=False)
        with pytest.raises(DiagonalNotPD) as err:
            CompositeQP(Q, np.ones(4))
        assert err.value.block == 1

    def test_shifted_diagonal_block_not_positive_definite(self):
        Q = BlockSymOperator(BlockPartition((2, 2)), {(0, 0): np.eye(2)},
                             factor_diag=False)
        with pytest.raises(DiagonalNotPD) as err:
            CompositeQP(Q, np.ones(4), shifts=[np.eye(2), np.zeros((2, 2))])
        assert err.value.block == 1

    def test_shift_not_psd(self):
        with pytest.raises(ShiftNotPSD):
            CompositeQP(self._op(), np.ones(4), shifts=[None, -np.eye(2)])

    @pytest.mark.parametrize("J, err", [
        (np.eye(3), ShapeMismatch), (np.ones(2), ShapeMismatch),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), NotSymmetric),
    ], ids=["3x3", "vector", "asymmetric"])
    def test_bad_shift(self, J, err):
        with pytest.raises(err):
            CompositeQP(self._op(), np.ones(4), shifts=[J, None])

    @pytest.mark.parametrize("shifts", [[None], [None] * 3, [np.eye(2)]],
                             ids=["one-none", "three-none", "one-shift"])
    def test_shift_list_of_the_wrong_length(self, shifts):
        with pytest.raises(DimensionMismatch):
            CompositeQP(self._op(), np.ones(4), shifts=shifts)

    def test_head_settled_from_the_shifted_block(self):
        J1 = 4.0 * np.eye(2) - self.HEAD
        prob = CompositeQP(self._op(), np.ones(4), ProxSpec.l1(1.0),
                           shifts=[J1, None])
        assert prob._mu == pytest.approx(4.0, rel=1e-15)
        assert prob._majs == {None: prob.majorizer()}


class TestClassicalStep:
    def test_equals_cycle_for_smooth_problems(self):
        prob = random_problem(3, prox_kind="zero")
        maj = prob.majorizer()
        x = random_point(prob, 1)
        for _ in range(5):
            via_cycle = sgs_cycle(prob, x).x_plus
            x = classical_sgs_step(prob.Q, prob.b, x, maj)
            rel = np.linalg.norm(x.data - via_cycle.data)
            assert rel <= 1e-12 * (1.0 + np.linalg.norm(via_cycle.data))

    @pytest.mark.parametrize("length", [6, 8])
    def test_rhs_of_the_wrong_length_refused(self, length):
        prob = random_problem(0)
        with pytest.raises(DimensionMismatch):
            classical_sgs_step(prob.Q, np.ones(length), np.zeros(7))


class TestForwardReuse:
    @staticmethod
    def _weak_coupling_problem(off_scale=1e-4):
        """Strong diagonal blocks with faint coupling: backward residuals
        dominate the cross terms, so skipping the forward re-solve passes."""
        from sgsqp import BlockPartition, BlockSymOperator, CompositeQP
        rng = np.random.default_rng(0)
        part = BlockPartition((2, 2, 2))
        blocks = {}
        for i in range(3):
            A = rng.standard_normal((2, 2))
            blocks[(i, i)] = A @ A.T + 2 * np.eye(2)
        for i in range(3):
            for j in range(i + 1, 3):
                blocks[(i, j)] = off_scale * rng.standard_normal((2, 2))
        prob = CompositeQP(BlockSymOperator(part, blocks),
                           BlockVector(part, rng.standard_normal(6)))
        return prob, BlockVector(part, rng.standard_normal(6))

    def test_acceptance_and_enlarged_budget(self):
        prob, xbar = self._weak_coupling_problem()
        c = 1.0
        res = sgs_cycle(prob, xbar, mode=NoisyMode(seed=3, scale=1e-2),
                        forward_reuse=c)
        assert res.reused == (1, 2)
        lhs = np.linalg.norm(res.delta.data)
        rhs = np.sqrt(2.0 * (1.0 + c * c)) * np.linalg.norm(
            res.delta_prime.data) + 1e-12
        assert lhs <= rhs
        # the realized perturbation still explains the output exactly
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta)
        scale = 1.0 + np.linalg.norm(ref.data)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * scale

    def test_rejection_with_strong_coupling(self):
        prob, xbar = self._weak_coupling_problem(off_scale=1.0)
        res = sgs_cycle(prob, xbar, mode=NoisyMode(seed=3, scale=1e-8),
                        forward_reuse=0.5)
        assert res.reused == ()

    def test_check_and_delta_helpers(self):
        """Each reused block passes the threshold test and reports
        ``delta_i = delta'_i + coupling``, the coupling recomputed from the
        dense matrix."""
        prob, xbar = self._weak_coupling_problem()
        res = sgs_cycle(prob, xbar, mode=NoisyMode(seed=3, scale=1e-2),
                        forward_reuse=1.0)
        Qd, off, s = prob.Q.dense(), prob.partition.offsets, prob.partition.s
        step = res.x_plus.data - xbar.data
        for i in res.reused:
            coupling = Qd[off[i]:off[i + 1], :off[i]] @ step[:off[i]]
            assert np.linalg.norm(coupling) <= (1.0 / np.sqrt(s)) \
                * np.linalg.norm(res.delta_prime.data)
            np.testing.assert_allclose(res.delta_prime.block(i) + coupling,
                                       res.delta.block(i), atol=1e-14)


class TestTuning:
    def test_ranges(self):
        prob = random_problem(0, dims=(2, 2, 2), kappa=50.0)
        tune = ssor_tuning(prob.Q)
        assert 1.0 <= tune.omega_star < 2.0
        assert 0.0 <= tune.rate_bound < 1.0
        assert tune.gamma > 0 and tune.Gamma > 0

    def test_not_pd_rejected(self):
        from sgsqp.instances import gen
        inst = gen((2, 2, 2), seed=0, singular=True)
        prob = inst.composite()
        with pytest.raises(NotPD):
            ssor_tuning(prob.Q)
